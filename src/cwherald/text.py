"""Number text: every float that cwherald writes, at 9 significant digits.

Each text is byte for byte ``%.9g`` of ``v + 0.0``, so ``-0.0`` is ``0``.
:func:`fmt9` makes one; the CSV files take theirs from one numpy kernel,
:func:`_texts`, through :func:`write_table` (the Wigner grid, the coherence
kernel) or :func:`write_columns` (the dominant mode, the alpha scan).
"""

from __future__ import annotations

from itertools import islice

import numpy as np


def fmt9(v: float) -> str:
    """``v`` at 9 significant digits, as the summary and messages write it.

    The CSV writers make the same text with :func:`_texts`.
    """
    return f"{float(v) + 0.0:.9g}"  # + 0.0 turns -0.0 into 0.0


def write_table(path, head: bytes, row_labels, col_labels, table, row_label_first: bool) -> None:
    """Write ``head`` and a CSV row per cell of ``table``: its two labels and its value.

    Column labels sweep inside row labels; ``row_label_first`` puts the row
    label first.  The column labels make one row pattern, built once, that
    each row label fills (the text holds neither NUL nor ``%``); the cells'
    text comes from :func:`_row_texts`, and rows go to the file 8 to a write.
    ``table`` must have a row per row label.
    """
    cell = b"\0,%s,%%s\n" if row_label_first else b"%s,\0,%%s\n"
    pattern = b"".join(cell % c for c in _texts(col_labels))
    rows = zip(_texts(row_labels), _row_texts(table), strict=True)
    rows = (pattern.replace(b"\0", label) % cells for label, cells in rows)
    with open(path, "wb") as fh:
        fh.write(head)
        for block in iter(lambda: list(islice(rows, 8)), []):
            fh.write(b"".join(block))


def write_columns(path, head: bytes, *columns) -> None:
    """Write ``head`` and a CSV row per index of the equal-length 1-D ``columns``."""
    table = np.column_stack(columns)
    row = b",".join([b"%s"] * table.shape[1]) + b"\n"
    text = head + (row * len(table)) % tuple(_texts(table))
    with open(path, "wb") as fh:
        fh.write(text)


# Tables of the %.9g kernel of _texts.  Indexed by e + 300, for the decimal
# exponents e in [-300, 300]: _SCALE, 10**(8 - e) correctly rounded; _EXP,
# the word of "e", the exponent's sign and 3 digits; _MODE9, 9 times the
# layout mode (e + 4 for fixed notation, e in [-4, 8]; 13 or 14 for a 2- or
# 3-digit exponent).  Indexed by a 4-digit group g: _DIGITS4, the word of
# its digits; _SHOWN4, the count left once trailing zeros are cut (0 for
# g = 0); _SHOWN8, that plus 4, the digits shown when g is digits 5-8.
_E = np.arange(-300, 301)
_SCALE = np.array([float("1e%d" % (8 - e)) for e in range(-300, 301)])
_EXP = sum(
    np.uint64(c) << np.uint64(8 * i)
    for i, c in enumerate((101, np.where(_E < 0, 45, 43), *(abs(_E) // [[100], [10], [1]] % 10 + 48)))
)
_MODE9 = 9 * np.where((_E < -4) | (_E > 8), 13 + (abs(_E) >= 100), _E + 4)
_PAIR = np.arange(100)  # g = 100 * h + l, for the digit pairs h and l
_DIGITS4 = np.uint64(_PAIR // 10 + 48 | (_PAIR % 10 + 48) << 8)  # the word of a pair's 2 digits
_DIGITS4 = (_DIGITS4[:, None] | _DIGITS4 << np.uint64(16)).ravel()
_SHOWN4 = np.sign(_PAIR).astype(np.uint8) + (_PAIR % 10 > 0)
_SHOWN4 = np.where(_PAIR > 0, _SHOWN4 + 2, _SHOWN4[:, None]).ravel()
_SHOWN8 = np.where(_SHOWN4 > 0, _SHOWN4 + 4, 0).astype(np.uint8)
# A value's 24 source bytes: 0-7 digits 1-8, 8 digit 0, 9 "-", 10 ".",
# 11 "0", 12 NUL, 16 "e", 17 the exponent's sign, 18-20 its digits.  A
# layout is the source byte of each of the 16 text bytes, NUL-padded.
_MARKS = np.uint64(48 | ord("-") << 8 | ord(".") << 16 | ord("0") << 24)
_DIGIT, _EXPONENT = bytes((8, *range(8))), bytes(range(16, 21))
_MINUS, _DOT, _ZERO, _NUL = b"\x09", b"\x0a", b"\x0b", b"\x0c"


def _layout(mode: int, shown: int) -> bytes:
    """The layout of a value >= 0 with the given mode and count of digits shown."""
    if mode < 4:  # 0.000ddd, 3 - mode zeros after the point
        text = _ZERO + _DOT + _ZERO * (3 - mode) + _DIGIT[:shown]
    elif mode < 13:  # mode - 3 digits before the point, trailing zeros among them
        before = mode - 3
        text = _DIGIT[:before] + _DOT * (shown > before) + _DIGIT[before:shown]
    else:
        text = _DIGIT[:1] + _DOT * (shown > 1) + _DIGIT[1:shown] + _EXPONENT[:2] + _EXPONENT[16 - mode :]
    return text.ljust(16, _NUL)


# Layout 135 * sign + 9 * mode + shown - 1; a negative value's text is "-" and the rest
_LAYOUTS = [_layout(mode, shown) for mode in range(15) for shown in range(1, 10)]
_LAYOUTS = np.frombuffer(b"".join(_LAYOUTS + [_MINUS + t[:15] for t in _LAYOUTS]), np.uint8)
_LAYOUTS = _LAYOUTS.reshape(270, 16).astype(np.intp)
_BLOCK = 2048  # values to a kernel pass: the working set is about 100 bytes a value
_CHUNK = 512  # values to a gather, whose index takes 128 bytes a value
_ROWS = np.arange(0, 24 * _CHUNK, 24)[:, None]  # the first source byte of each value of a chunk
_MARGIN = 1e-5  # over 40 times the float error of the scaled value; see _texts


def _texts(values) -> list[bytes]:
    """The ``%.9g`` text of each float of ``values``, in row-major order; ``-0.0`` is ``0``.

    Every text is byte for byte ``b"%.9g" % (v + 0.0)``.  A numpy kernel
    makes it, a block of about :data:`_BLOCK` values (whole rows of a
    table, one row at least) to a pass.  For ``|v|`` in ``[1e-290, 1e290)``
    it takes the decimal exponent ``e`` from ``floor(log10|v|)``, moved by
    one where ``s = |v| * 10**(8-e)`` falls outside ``[1e8, 1e9)``, the
    9-digit integer ``rint(s)``, its digits from a table of 4-digit words
    and, from its trailing zeros, one of 270 layouts (sign; fixed notation
    at ``e`` in ``[-4, 8]`` or a 2- or 3-digit exponent; digits shown),
    which one gather turns into left-aligned text.

    Error bound: ``10**(8-e)`` is correctly rounded and so is the product,
    so ``s`` is within a relative ``2**-52 + 2**-106`` of the exact
    ``|v| * 10**(8-e)``: 2 ulp at most, under 2.3e-7 (so under 5e-7) in
    absolute terms for ``s < 1e9``.  Where ``s`` lies in
    ``[1e8 + 1e-5, 999999999)`` and at least ``1e-5`` from a half-integer,
    the exact product therefore lies in ``[1e8, 1e9)``, so ``e`` is the
    exponent that ``%.9g`` prints, and rounds to ``rint(s)``.  Every other
    value (near a tie or a power of ten, 0, subnormal, huge, NaN or
    infinite) is formatted by one ``%`` per block.
    """
    table = np.asarray(values, dtype=float)
    if table.ndim != 2 or not table.size:
        table = table.reshape(-1, 1)
    step = _rows_per_block(table.shape[1])
    texts = []
    for i in range(0, len(table), step):
        texts += _block_texts(table[i : i + step].ravel())
    return texts


def _rows_per_block(n: int) -> int:
    """Rows of ``n`` values to a kernel block: :data:`_BLOCK` values or fewer, one row at least."""
    return max(1, _BLOCK // max(n, 1))


def _block_texts(v: np.ndarray) -> list[bytes]:
    """:func:`_texts` of one block of floats."""
    a = np.abs(v)
    ok = (a >= 1e-290) & (a < 1e290)
    a[~ok] = 1.0
    e = (np.log10(a) + 300).astype(np.intp)  # e + 300 >= 9, so truncation is the floor
    s = a * _SCALE[e]
    e += s >= 1e9
    e -= s < 1e8
    np.multiply(a, _SCALE[e], out=s)
    m = np.rint(s)
    ok &= (s >= 1e8 + _MARGIN) & (s < 999999999.0) & (abs(s - m) <= 0.5 - _MARGIN)
    del a, s
    m = m.astype(np.intp)  # in [1e7, 1e10] even where not ok, so every table index is in range
    lead = m // 100000000
    m -= lead * 100000000
    high = m // 10000
    m -= high * 10000
    source = np.empty((v.size, 3), np.uint64)
    source[:, 0] = _DIGITS4[high] | _DIGITS4[m] << np.uint64(32)
    source[:, 1] = lead.astype(np.uint64) | _MARKS
    source[:, 2] = _EXP[e]
    layout = _MODE9[e] + np.maximum(_SHOWN4[high], _SHOWN8[m]) + 135 * (v < 0)
    del e, m, high, lead
    text = np.empty((v.size, 16), np.uint8)
    for i in range(0, v.size, _CHUNK):
        index = np.take(_LAYOUTS, layout[i : i + _CHUNK], axis=0)
        index += _ROWS[: len(index)]
        chunk = source[i : i + _CHUNK].view(np.uint8).ravel()
        # every index is in range; "clip" lets take write into its out unbuffered
        np.take(chunk, index, out=text[i : i + len(index)], mode="clip")
    del source, layout, index, chunk
    texts = text.view("S16").ravel().tolist()
    bad = np.flatnonzero(~ok)
    if bad.size:
        rest = v[bad]
        rest[rest == 0] = 0.0  # -0.0 prints as 0
        for i, t in zip(bad.tolist(), ((b"%.9g\n" * bad.size) % tuple(rest.tolist())).splitlines()):
            texts[i] = t
    return texts


def _row_texts(table: np.ndarray):
    """Yield the ``%.9g`` text of each row of a 2-D table, a tuple of bytes per row.

    ``-0.0`` is written as ``0``, as :func:`fmt9` writes it.  With
    ``h, k = ceil(m/2), ceil(n/2)``, the table's two exact mirrors are each
    tested once, by ``==`` (so never with NaN; ``-0.0`` matches ``0.0``,
    whose text is the same): the point mirror, row ``m-1-i`` equal to row
    ``i`` reversed for every lower row, and the x mirror, each of the top
    ``h`` rows equal to itself reversed.  With both, only the leading
    ``h×k`` block is formatted.  With the point mirror alone, each distinct
    float of the top ``h`` rows is formatted once, found by one argsort
    with an int32 inverse.  In both cases a lower row is its partner's
    text reversed.  Without the point mirror every row is formatted as it
    is, in blocks of whole rows, one :func:`_texts` call and kernel pass
    to a block.
    """
    m, n = table.shape
    h, k = (m + 1) // 2, (n + 1) // 2
    if not (table[h:] == table[: m - h][::-1, ::-1]).all():
        step = _rows_per_block(n)
        for i in range(0, m, step):
            texts = _texts(table[i : i + step])
            for j in range(min(step, m - i)):
                yield tuple(texts[j * n : (j + 1) * n])
    elif (table[:h, k:] == table[:h, : n - k][:, ::-1]).all():
        texts = _texts(table[:h, :k])
        for i in range(h):
            r = texts[i * k : (i + 1) * k]
            yield tuple(r + r[: n - k][::-1])
        for i in range(m - h - 1, -1, -1):
            r = texts[i * k : (i + 1) * k]
            yield tuple(r[: n - k] + r[::-1])
    else:
        top = table[:h].ravel()
        order = np.argsort(top)
        ranked = top[order]
        # new[r]: ranked[r] starts a run of equal floats; index[c]: the rank of cell c's value
        new = np.r_[True, ranked[1:] != ranked[:-1]]
        values = ranked[new]
        del ranked
        rank = np.cumsum(new, dtype=np.int32)
        rank -= 1
        index = np.empty(top.size, dtype=np.int32)
        index[order] = rank
        del order, new, rank  # the full-size temporaries go before the texts are made
        texts = np.array(_texts(values), dtype=object)
        index = index.reshape(h, n)
        for i in range(h):
            yield tuple(texts[index[i]].tolist())
        for i in range(m - h - 1, -1, -1):
            yield tuple(texts[index[i, ::-1]].tolist())
