"""Exact, vectorised ``'%.17g'`` formatting of float columns.

`format_column(values)` returns one row of ``WIDTH`` ASCII bytes per value,
padded with NUL bytes: dropping the NULs from row i leaves exactly
``('%.17g' % values[i]).encode()``.  `join_rows` lays such columns side by
side with separators and drops every NUL in one pass, so a table is built
without a Python string per value.

*Digits.*  With X = floor(log10|x|), the 17 significant digits are the
integer D = round(|x| * 10**(16 - X)), 10**16 <= D < 10**17.  The product is
formed in double-double: Dekker's exact two-product of |x| with the double
nearest 10**p, plus |x| times the remainder of 10**p.  Near 1e16..1e17 every
double is an integer, so the fraction being rounded is that of the small
correction term, and it is known to better than 1e-14.

*Fallback.*  Where that fraction lies within 1e-6 of 1/2, the error bound
cannot decide the rounding; this covers exact decimal ties, which ``%``
breaks to even.  Such values are formatted by ``'%.17g' % x`` one at a time.
So is every value whose D falls outside [10**16, 10**17) (X is taken from
numpy's log10, which can round across a power of ten, and the rounding can
carry into an 18th digit), every non-zero value outside [1e-280, 1e290]
(subnormals and the ends of the range, where 10**p or the Dekker split would
leave the normal range) and every non-finite one.

*Short columns.*  The vectorised path costs about 80 us per call whatever
the length, and ``'%.17g'`` about 1 us per value, so a column of at most
`_SHORT` values (the crossover measured near 150) is formatted by ``'%.17g'``
value by value into the same slots.  The route depends on the length alone.

*Layout* follows ``%g``: fixed notation iff -4 <= X < 17, trailing zeros and
a bare point stripped, and an exponent with a sign and at least two digits.
Each value's bytes are gathered from a 28-byte source row (its 17 digits,
the digits of |X|, and the constant characters) through a template of
``WIDTH`` source positions.  The template depends only on the sign, the
layout (fixed with its X, exponential with the exponent's sign and digit
count, or zero) and the number k of significant digits, so all of them are
tabulated once; unused positions point at a NUL byte.

The 10**p table (from exact integer arithmetic), the 4-digit lookup table and
the templates are built on first use, not at import.
"""
from __future__ import annotations

import functools

import numpy as np

_P_LO, _P_HI = -280, 300       # exponents p in the 10**p table
_TINY, _HUGE = 1e-280, 1e290   # |x| outside this range takes the fallback
_TIE = 1e-6                    # fractions within this of 1/2 take the fallback
_SPLIT = 134217729.0           # 2**27 + 1, Dekker's splitting constant
_E16, _E17 = 10 ** 16, 10 ** 17
_SHORT = 128                   # columns up to this length skip vectorising

WIDTH = 24   # the longest output is "-d." + 16 digits + "e-ddd"

# byte columns of a source row: exponent digits, d0..d16, constants, NUL
_EXP_DIGITS, _D0 = 0, 3
_POINT, _MINUS, _E, _PLUS, _ZERO, _NUL = range(20, 26)
_CONSTANTS = b".-e+0\0\0\0"
_FIXED_X = range(-4, 17)
_N_LAYOUTS = len(_FIXED_X) + 5    # fixed, 4 exponential shapes, zero
_LAYOUT_ZERO = _N_LAYOUTS - 1


def _split(a):
    """Dekker's split of a into high and low halves of 26 bits each."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _pow10() -> tuple:
    """(hi, hi's Dekker halves, lo) with hi + lo = 10**p to ~2**-106."""
    his, los = [], []
    for p in range(_P_LO, _P_HI + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den                      # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * d - n * den) / (den * d))
    hi, lo = np.array(his), np.array(los)
    return (hi, *_split(hi), lo)


def _template(neg: bool, layout: int, k: int) -> list:
    """Source positions of one value's characters, padded with NUL."""
    def digits(i, j):
        return list(range(_D0 + i, _D0 + j))
    out = [_MINUS] if neg else []
    if layout == _LAYOUT_ZERO:
        out.append(_ZERO)
    elif layout < len(_FIXED_X):
        x = _FIXED_X[layout]
        if x < 0:
            out += [_ZERO, _POINT] + [_ZERO] * (-x - 1) + digits(0, k)
        else:
            out += digits(0, x + 1)
            if k > x + 1:
                out += [_POINT] + digits(x + 1, k)
    else:
        shape = layout - len(_FIXED_X)       # 2 * (X > 0) + (|X| >= 100)
        out += digits(0, 1)
        if k > 1:
            out += [_POINT] + digits(1, k)
        out += [_E, _PLUS if shape >= 2 else _MINUS]
        out += list(range(_EXP_DIGITS if shape % 2 else _EXP_DIGITS + 1,
                          _EXP_DIGITS + 3))
    return out + [_NUL] * (WIDTH - len(out))


@functools.cache
def _tables() -> tuple:
    """The 4-digit lookup table (uint32 per group) and the templates."""
    n = np.arange(10000)
    lut = (np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
           + ord("0")).astype(np.uint8)
    templates = np.array([_template(neg, layout, k) for neg in (False, True)
                          for layout in range(_N_LAYOUTS)
                          for k in range(1, 18)], dtype=np.uint8)
    return lut.view(np.uint32).ravel(), templates.view(f"V{WIDTH}").ravel()


def _digits(a: np.ndarray, x10: np.ndarray) -> tuple:
    """floor(a * 10**(16 - x10)) as int64, and the fraction it drops."""
    hi, hh, hl, lo = _pow10()
    i = 16 - x10 - _P_LO
    prod = a * hi[i]
    ah, al = _split(a)
    err = ((ah * hh[i] - prod) + ah * hl[i] + al * hh[i]) + al * hl[i]
    corr = err + a * lo[i]
    whole = np.floor(corr)
    return prod.astype(np.int64) + whole.astype(np.int64), corr - whole


def format_column(values) -> np.ndarray:
    """``'%.17g'`` of each value as a (len, WIDTH) uint8 array, NUL-padded."""
    x = np.asarray(values, dtype=np.float64).ravel()
    n = len(x)
    if n <= _SHORT:
        texts = [("%.17g" % v).encode("ascii") for v in x.tolist()]
        return np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(n, WIDTH)
    a = np.abs(x)
    fast = (a >= _TINY) & (a <= _HUGE)
    a = np.where(fast, a, 1.0)              # placeholders are overwritten below
    x10 = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _digits(a, x10)
    # out of [10**16, 10**17): log10 rounded across a power of ten, or the
    # rounding carries into an 18th digit
    fallback = d < _E16
    d += frac > 0.5
    fallback |= (d >= _E17) | (np.abs(frac - 0.5) < _TIE) | (~fast & (x != 0.0))

    lut, templates = _tables()
    src = np.empty((n, 7), np.uint32)
    lead, rest = np.divmod(d, _E16)
    hi8, lo8 = np.divmod(rest, 10 ** 8)
    for col, half in ((1, hi8), (3, lo8)):
        g, r = np.divmod(half, 10 ** 4)
        src[:, col] = lut.take(g)
        src[:, col + 1] = lut.take(r)
    b = src.view(np.uint8)
    ax = np.abs(x10)
    b[:, _EXP_DIGITS] = ax // 100 + ord("0")
    b[:, _EXP_DIGITS + 1] = ax // 10 % 10 + ord("0")
    b[:, _EXP_DIGITS + 2] = ax % 10 + ord("0")
    b[:, _D0] = lead + ord("0")
    b[:, _POINT:] = np.frombuffer(_CONSTANTS, np.uint8)
    # significant digits: 17 less the trailing zeros of d0..d16
    k = 17 - np.argmax(b[:, _D0 + 16:_D0 - 1:-1] != ord("0"), axis=1)

    fixed = (x10 >= _FIXED_X[0]) & (x10 <= _FIXED_X[-1])
    exp_shape = len(_FIXED_X) + 2 * (x10 > 0) + (ax >= 100)
    layout = np.where(fixed, x10 - _FIXED_X[0], exp_shape)
    layout[x == 0.0] = _LAYOUT_ZERO
    key = (np.signbit(x) * _N_LAYOUTS + layout) * 17 + (k - 1)
    pos = templates.take(key).view(np.uint8).reshape(n, WIDTH)
    out = b.ravel().take(pos + np.arange(0, b.size, b.shape[1])[:, None])
    for i in np.flatnonzero(fallback):
        text = ("%.17g" % x[i]).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def join_rows(parts: list) -> bytes:
    """Concatenate, row by row, slot arrays and constant byte strings.

    Every array has one row per output row; a bytes part is repeated on
    every row.  NUL bytes are dropped, so each slot gives its text alone.
    """
    n = next(len(p) for p in parts if isinstance(p, np.ndarray))
    cols = [p if isinstance(p, np.ndarray)
            else np.broadcast_to(np.frombuffer(p, np.uint8), (n, len(p)))
            for p in parts]
    buf = np.concatenate(cols, axis=1)
    return buf[buf != 0].tobytes()
