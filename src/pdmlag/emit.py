"""Table rows of ``'%.17g'`` fields, formatted and joined in one C pass.

`rows(columns, head, sep, tail)` gives, for each row r, ``head``, then
``'%.17g' % c[r]`` for each column c with ``sep`` between them, then
``tail``: a whole chunk of a table as one string.

The C kernel `_emit.c` (built and loaded on first use, never at import, by
`_kernels.load`) writes every row's fields, separators, head and tail
straight into one output buffer.  Its digits are D = round(|x| *
10**(16 - X)) for X = floor(log10|x|), from Dekker's double-double product
of |x| with 10**p, the table `_pow10` built here from exact integers; the
values whose rounding that product cannot decide (a fraction within 1e-6 of
1/2, exact decimal ties among them), whose D leaves [10**16, 10**17), whose
magnitude lies outside [1e-280, 1e290], and zero go to C's
``snprintf("%.17g")`` (NaN is written "nan", unsigned, as Python writes it).
Either way each field is exactly the bytes of Python's ``'%.17g' % x``, and
no Python string is made per value.  Where the kernel cannot be built or
loaded, each value is formatted by ``'%.17g' % v`` in Python, with the same
bytes.

The 10**p table is built on first use, not at import.
"""
from __future__ import annotations

import functools

import numpy as np

from . import _kernels

_P_LO, _P_HI = -280, 300       # exponents p in the 10**p table, as in _emit.c
_SPLIT = 134217729.0           # 2**27 + 1, Dekker's splitting constant
_WIDTH = 36                    # the most bytes a field writes, as in _emit.c


@functools.cache
def _pow10() -> np.ndarray:
    """Rows hi, hi's Dekker halves and lo, with hi + lo = 10**p to ~2**-106,
    for p from _P_LO to _P_HI."""
    his, los = [], []
    for p in range(_P_LO, _P_HI + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den                      # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * d - n * den) / (den * d))
    hi = np.array(his)
    t = hi * _SPLIT
    hh = t - (t - hi)
    return np.stack([hi, hh, hi - hh, np.array(los)])


@functools.cache
def _kernel():
    """`_emit.c` loaded through ctypes on the first call, with `emit_rows`
    bound, or None where it cannot be built or loaded."""
    import ctypes

    lib = _kernels.load("_emit")
    if lib is None:
        return None
    size, text = ctypes.c_int64, ctypes.c_char_p
    # NROWS NCOLS COLUMNS POW10 NPOW HEAD NHEAD SEP NSEP TAIL NTAIL OUT
    lib.emit_rows.argtypes = (
        size, size, ctypes.POINTER(ctypes.c_void_p),
        np.ctypeslib.ndpointer(np.double, ndim=2, flags="C"), size,
        text, size, text, size, text, size,
        np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C"))
    lib.emit_rows.restype = size
    return lib


def rows(columns: list, head: str, sep: str, tail: str) -> str:
    """The rows of the equal-length float columns, each ``head``, its
    ``'%.17g'`` fields joined by ``sep``, and ``tail``; ASCII separators."""
    columns = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
    nrows = len(columns[0])
    if any(c.shape != (nrows,) for c in columns):
        raise ValueError("columns differ in length")
    kernel = _kernel()
    if kernel is None:
        texts = [["%.17g" % v for v in c.tolist()] for c in columns]
        return "".join(f"{head}{sep.join(row)}{tail}" for row in zip(*texts))
    import ctypes

    head_b, sep_b, tail_b = (s.encode("ascii") for s in (head, sep, tail))
    row_size = (len(head_b) + len(tail_b)
                + len(columns) * (_WIDTH + len(sep_b)))
    out = np.empty(nrows * row_size, dtype=np.uint8)
    pow10 = _pow10()
    size = kernel.emit_rows(
        nrows, len(columns),
        (ctypes.c_void_p * len(columns))(*(c.ctypes.data for c in columns)),
        pow10, pow10.shape[1], head_b, len(head_b), sep_b, len(sep_b),
        tail_b, len(tail_b), out)
    return str(out[:size], "ascii")
