import ast
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from numpy.random import default_rng
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_csv_writers

from cwherald import text
from cwherald.coherence import CoherenceKernel, write_coherence_csv
from cwherald.text import fmt9
from cwherald.wigner import write_grid_csv


def formatted_counts(table):
    """The sizes of the arrays that ``text._row_texts`` formats for ``table``, call by call."""
    with mock.patch.object(text, "_texts", side_effect=text._texts) as spy:
        list(text._row_texts(np.asarray(table, dtype=float)))
    return [args[0].size for args, _ in spy.call_args_list]


class TestCsvMirrors:
    """Both CSV writers against the per-cell oracle, on tables with and without exact mirrors.

    With ``h, k = ceil(m/2), ceil(n/2)``, the point mirror is every lower
    row equal to its partner row ``m-1-i`` reversed, and the x mirror each
    of the top ``h`` rows equal to itself reversed.
    """

    @staticmethod
    def table(rng, m, n, mirrors):
        """A random table with the named mirrors; a random table has neither."""
        h, k = (m + 1) // 2, (n + 1) // 2
        t = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-12, 12, size=(m, n))
        if mirrors in ("both", "x"):
            t[:, k:] = t[:, : n - k][:, ::-1]
        if mirrors in ("both", "point"):
            t[h:] = t[: m - h][::-1, ::-1]
        return t

    @staticmethod
    def orbit(m, n, i, j, mirrors):
        """Cell (i, j) and the cells the table's mirrors tie to it; for neither, the point mirror's."""
        cells = {(i, j), (m - 1 - i, n - 1 - j)} if mirrors != "x" else {(i, j)}
        if mirrors in ("both", "x"):
            cells |= {(a, n - 1 - b) for a, b in cells}
        return sorted(cells)

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(2, 7),
        n=st.integers(2, 7),
        mirrors=st.sampled_from(["both", "point", "x", "neither"]),
        change=st.sampled_from(["none", "ulp_lower", "ulp_right", "signed_zeros", "nan", "inf"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=5, n=5, mirrors="both", change="signed_zeros", seed=0)
    @example(m=4, n=3, mirrors="point", change="nan", seed=1)
    @example(m=3, n=6, mirrors="both", change="ulp_right", seed=2)
    def test_writers_match_per_cell_text(self, tmp_path_factory, m, n, mirrors, change, seed):
        rng = default_rng(seed)
        h, k = (m + 1) // 2, (n + 1) // 2
        t = self.table(rng, m, n, mirrors)
        if change == "ulp_lower":  # breaks the point mirror, and the 9-digit text stays
            i, j = rng.integers(h, m), rng.integers(n)
            t[i, j] = np.nextafter(t[i, j], np.inf)
        elif change == "ulp_right":  # breaks the x mirror in the top rows
            i, j = rng.integers(h), rng.integers(k, n)
            t[i, j] = np.nextafter(t[i, j], np.inf)
        elif change != "none":
            cells = self.orbit(m, n, rng.integers(m), rng.integers(n), mirrors)
            for c, (a, b) in enumerate(cells):
                t[a, b] = {"signed_zeros": (-1.0) ** c * 0.0, "nan": np.nan, "inf": np.inf}[change]

        point = all(np.array_equal(t[m - 1 - i], t[i, ::-1]) for i in range(m - h))
        x = all(np.array_equal(t[i], t[i, ::-1]) for i in range(h))
        if point:
            top = t[:h][~np.isnan(t[:h])]
            # -0.0 counts as 0.0, and each NaN as its own value
            distinct = len(set(top.tolist())) + int(np.isnan(t[:h]).sum())
        want = h * k if point and x else distinct if point else m * n
        assert sum(formatted_counts(t)) == want

        xs, ps = rng.normal(size=n), rng.normal(size=m)
        assert_csv_writers(tmp_path_factory.mktemp("csv"), xs, ps, t)
        if m != n:  # the coherence writer too, on the leading square
            s = min(m, n)
            assert_csv_writers(tmp_path_factory.mktemp("csv"), xs[:s], ps[:s], t[:s, :s])

    def test_doubly_mirrored_grid_formats_its_quarter_once(self):
        t = self.table(default_rng(5), 201, 201, "both")
        assert formatted_counts(t) == [101 * 101]
        # without a mirror, blocks of 10 whole rows (2010 values), the 201 values of the last row
        assert formatted_counts(self.table(default_rng(5), 201, 201, "neither")) == [2010] * 20 + [201]


def traced_peak(f):
    """Peak bytes that tracemalloc sees while ``f()`` runs, after one untraced warm-up call."""
    f()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


POWERS = np.array([float(f"1e{k}") for k in range(-300, 300)])
FIXED_EDGES = [
    1e-5, np.nextafter(1e-5, 0), 9.9999999949e-6, 9.9999999951e-6,
    1e-4, np.nextafter(1e-4, 0), 9.999999994e-5, 9.9999999951e-5,
    1e8, np.nextafter(1e8, 0), 99999999.95, 99999999.949,
    1e9, np.nextafter(1e9, 0), 999999999.4, 999999999.6, 999999998.5, 999999999.0,
]


class TestTextKernel:
    """``text._texts`` against ``%.9g`` value by value, across kernel block boundaries."""

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.floats(), min_size=1, max_size=64),
        size=st.integers(1, 2 * text._BLOCK + 1),
        width=st.integers(1, 300),
    )
    # floats exactly halfway between two 9-digit texts; 999999999.5 rounds to 1e+09
    @example(values=[12345678.25, 100000000.5, 100000001.5, 1234567885.0, 999999999.5], size=5, width=2)
    @example(values=FIXED_EDGES, size=len(FIXED_EDGES), width=3)
    # 10-digit decimals ending in 5, whose floats lie a hair to either side of halfway
    @example(
        values=[float(f"{n}5e-{k}") for n in range(123456780, 123456800) for k in (10, 14, 3)],
        size=60,
        width=6,
    )
    @example(
        values=np.concatenate((np.nextafter(POWERS, 0.0), POWERS, np.nextafter(POWERS, np.inf), -POWERS)).tolist(),
        size=2400,
        width=201,
    )
    @example(values=[5e-324, np.finfo(float).max, 0.0, -0.0, np.nan, np.inf, -np.inf], size=7, width=7)
    @example(values=[0.0, -0.0, np.nan, 5e-324, 1e300], size=text._BLOCK + 3, width=1)  # a block of fallbacks
    def test_texts_are_percent_texts(self, values, size, width):
        a = np.resize(np.array(values), size)
        texts = text._texts(a)
        assert texts == [b"%.9g" % (x + 0.0) for x in a.tolist()]
        assert texts == [fmt9(x).encode() for x in a.tolist()]
        # a 2-D table in row-major order, here a view that is not contiguous
        table = a[: size - size % width].reshape(-1, width)[:, ::-1]
        assert text._texts(table) == [b"%.9g" % (x + 0.0) for x in table.ravel().tolist()]

    def test_writers_peak_memory(self, tmp_path):
        """tracemalloc peaks of both writers on 201x201 tables, as both meet them in the runs.

        A grid has both mirrors, a coherence kernel the point mirror only.
        The bounds are 1.1 times the peaks (699 931 and 1 638 657 bytes, on
        Python 3.11 and numpy 2.4) of the same writers with each table's
        texts made by one ``%``.
        """
        axis = np.linspace(-4.0, 4.0, 201)
        grid = TestCsvMirrors.table(default_rng(5), 201, 201, "both")
        g = TestCsvMirrors.table(default_rng(5), 201, 201, "point")
        kernel = CoherenceKernel(grid=axis, g=g, t_c=0.0)
        assert traced_peak(lambda: write_grid_csv(tmp_path / "w.csv", axis, axis, grid)) <= 769_924
        assert traced_peak(lambda: write_coherence_csv(tmp_path / "g.csv", kernel)) <= 1_802_522


def boundary_faults(package: Path) -> list[str]:
    """Where a module of ``package`` crosses the number-text boundary, one line per fault.

    A fault is an import of a sibling module's underscore name, or, outside
    ``text.py``, a string constant in code (an f-string spec, a ``%`` or a
    ``format`` string; docstrings aside) that holds ``.9g``.
    """
    faults = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("cwherald")):
                faults += [f"{where} imports {a.name}" for a in node.names if a.name.startswith("_")]
            elif (
                path.name != "text.py"
                and isinstance(node, ast.Constant)
                and isinstance(node.value, (str, bytes))
                and id(node) not in docstrings
                and (".9g" in node.value if isinstance(node.value, str) else b".9g" in node.value)
            ):
                faults.append(f"{where} formats {node.value!r}")
    return faults


def test_one_module_owns_number_text():
    assert boundary_faults(Path(text.__file__).parent) == []


def test_boundary_faults_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Docstrings may name %.9g."""\n'
        "from __future__ import annotations\n"
        "from .text import _texts, fmt9\n"
        "from cwherald.wigner import _axis\n"
        "def f(x):\n"
        '    """So may this one: %.9g."""\n'
        '    return f"{x:.9g}" + "%.9g" % x + format(x, ".9g")\n'
    )
    (tmp_path / "text.py").write_text('def fmt9(v):\n    return f"{v:.9g}"\n')
    assert sorted(boundary_faults(tmp_path)) == [
        "a.py:3 imports _texts",
        "a.py:4 imports _axis",
        "a.py:7 formats '%.9g'",
        "a.py:7 formats '.9g'",
        "a.py:7 formats '.9g'",
    ]
