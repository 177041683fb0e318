"""The C row emitter's `%.17g` fields against Python's own `'%.17g' % x`.

Every case compares whole columns byte for byte: the fast path (digits from
a double-double product), the exact fallback (near-ties, subnormals, zeros
and the ends of the range) and the `%g` layout rules all have to agree with
the reference on every value.
"""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmlag import emit

SRC = Path(__file__).resolve().parents[1] / "src"


def _texts(values) -> list:
    """The kernel's field for each value, as strings."""
    assert emit._kernel() is not None       # built here: no silent fallback
    text = emit.rows([np.asarray(values, dtype=np.float64)], "", "", "\n")
    return text.split("\n")[:-1]


def _assert_matches_percent(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    expected = ["%.17g" % v for v in values.tolist()]
    got = _texts(values)
    bad = [(v, e, g) for v, e, g in zip(values.tolist(), expected, got) if e != g]
    assert not bad, bad[:5]


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_matches_percent_on_any_finite_floats(values):
    _assert_matches_percent(values)


def test_matches_percent_on_short_columns_with_special_values():
    # zeros, subnormals and the non-finite values take snprintf
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -1e300, 1e-5, 1e16, 0.1, 123456789.0,
               -2.5e-310, np.inf, -np.inf, np.nan, -np.nan]
    for n in range(130):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        values[:len(special)] = special[:n]
        _assert_matches_percent(values)


def test_matches_percent_on_random_bit_patterns():
    rng = np.random.default_rng(20240517)
    values = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64,
                          endpoint=False).view(np.float64)
    _assert_matches_percent(values[np.isfinite(values)])


def _exact_ties(x10: int, count: int, rng) -> list:
    """Doubles m * 2**(x10 - 17), m odd, whose exact decimal expansion has 18
    significant digits ending in 5: rounding them to 17 digits is a tie."""
    scale = Fraction(2) ** (17 - x10)
    lo = max(int(np.ceil(Fraction(10) ** x10 * scale)), 1)
    hi = min(int(Fraction(10) ** (x10 + 1) * scale), 2 ** 53)
    if lo >= hi:
        return []
    ms = {int(v) | 1 for v in rng.integers(lo, hi, size=count)}
    return [float(Fraction(m) / scale) for m in sorted(ms) if lo <= m < hi]


def test_matches_percent_on_exact_decimal_ties():
    rng = np.random.default_rng(7)
    ties = []
    for x10 in range(-20, 17):
        for v in _exact_ties(x10, 200, rng):
            digits = str(Fraction(v).numerator * 10 ** 40
                         // Fraction(v).denominator).rstrip("0")
            assert len(digits) == 18 and digits.endswith("5"), v
            ties.append(v)
    assert len(ties) > 2000
    _assert_matches_percent(ties + [-v for v in ties])


def test_matches_percent_at_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    _assert_matches_percent(np.concatenate([values, -values]))


def test_tables_are_built_on_first_use_not_at_import(tmp_path):
    # neither the 10**p table nor a kernel: nothing is compiled or loaded,
    # and the cache folder is not made
    script = ("import pdmlag, pdmlag.cli\n"
              "print(pdmlag.emit._pow10.cache_info().currsize,"
              " pdmlag.emit._kernel.cache_info().currsize,"
              " pdmlag.solver._sturm_kernel.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]
    assert list(tmp_path.iterdir()) == []
