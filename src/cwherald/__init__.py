"""Conditional non-Gaussian states from continuous-wave Gaussian light.

The pipeline: a stationary source correlation kernel defines a two-mode
Gaussian state over a trigger and an output temporal mode; a
photodetection event on the trigger (number, on/off or click) reduces the
output mode to a polynomial-times-Gaussian Wigner function in closed
form, from which negativity, Fock fidelities and purity follow exactly.
"""

from .coherence import (
    CoherenceKernel,
    DominantMode,
    conditional_coherence,
    dominant_mode,
    fit_exponential_decay,
)
from .conditioning import (
    ConditionResult,
    click_wigner_direct,
    condition_on_click,
    condition_on_number,
    condition_on_on,
    vacuum_projection,
)
from .covariance import (
    CovarianceMatrix4,
    LossParams,
    PhysicalityReport,
    apply_loss,
    assemble,
    load_covariance,
    physicality_check,
    save_covariance,
)
from .config import ExperimentConfig, parse_config
from .errors import (
    ConfigError,
    ImpossibleOutcomeError,
    ThresholdError,
    UnphysicalCovarianceError,
)
from .metrics import (
    NegativityResult,
    fock_fidelity,
    negativity_volume,
    purity,
    wigner_at_origin,
)
from .modes import (
    OutputModeSpec,
    SecondMoments,
    TriggerModeSpec,
    build_output_mode,
    build_trigger_mode,
    second_moments,
)
from .pipeline import (
    build_covariance,
    condition_state,
    run_experiment,
    scan_alpha,
    summarize,
)
from .polynomials import GaussianCore
from .scan import ScanResult, golden_section_minimize, scan_and_refine
from .sources import (
    CorrelationKernel,
    OpoParams,
    opo_kernel,
    tmsv_covariance,
)
from .wigner import (
    GaussPolyState,
    GridSpec,
    PolyGaussTerm,
    TwoModeGaussianWigner,
    evaluate_grid,
    fock_state,
    integrate_out_trigger,
    write_grid_csv,
)

__version__ = "0.1.0"
