"""Exception types shared across the package."""


class ThresholdError(ValueError):
    """Source parameters place the oscillator at or above threshold."""


class UnphysicalCovarianceError(ValueError):
    """A covariance matrix violates the uncertainty-principle constraint."""


class ImpossibleOutcomeError(ValueError):
    """The requested detection outcome has zero probability on this state."""


class ConfigError(ValueError):
    """An experiment description failed validation."""
