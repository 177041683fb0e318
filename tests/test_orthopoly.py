"""Tests for classical and exceptional (X_m) Laguerre polynomials.

The independent oracle for the X_m family is the factored product form
L_m^(a)(-x) L_n^(a-1)(x) + L_m^(a-1)(-x) L_{n-1}^(a)(x)  (n = nu - m,
L_{-1} = 0), built here from the classical recurrence in exact rational
arithmetic and compared coefficient-by-coefficient.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from pdmlag.orthopoly import (Polynomial, XmFamilySpec, _eval_genlaguerre,
                              classical_laguerre, eval_poly, xm_inner_product,
                              xm_laguerre, xm_ode_residual, xm_weight)


# ---------------------------------------------------------------------------
# classical Laguerre

@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 1.5, 3.25])
def test_classical_laguerre_matches_scipy(n, alpha):
    p = classical_laguerre(n, alpha)
    xs = np.linspace(-4.0, 6.0, 13)
    expected = eval_genlaguerre(n, alpha, xs)
    np.testing.assert_allclose(eval_poly(p, xs), expected, rtol=1e-12, atol=1e-12)


# Both signs of the argument: eval_xm_laguerre evaluates its m-factors at -g.
_PORT_XS = np.concatenate([np.linspace(-100.0, 300.0, 401),
                           -np.logspace(-8.0, 2.0, 41), np.logspace(-8.0, 2.0, 41)])


@pytest.mark.parametrize("alpha", [1.0, 4 / 3, 2.0, 7 / 3, 19 / 7, 3.0, 5.0])
def test_eval_genlaguerre_port_matches_scipy(alpha):
    # Below degree 20 scipy runs the same recurrence and binomial loop, so the
    # values are equal bit for bit; from 20 on scipy's binomial switches to a
    # beta function, and only the constant scale factor may differ.
    for n in range(20):
        assert np.array_equal(_eval_genlaguerre(n, alpha, _PORT_XS),
                              eval_genlaguerre(n, alpha, _PORT_XS)), n
    for n in range(20, 201):
        np.testing.assert_allclose(_eval_genlaguerre(n, alpha, _PORT_XS),
                                   eval_genlaguerre(n, alpha, _PORT_XS),
                                   rtol=1e-12, atol=0, err_msg=f"n={n}")


def test_classical_laguerre_small_cases():
    assert classical_laguerre(0, Fraction(2)).coeffs == (Fraction(1),)
    # L_1^(2) = 3 - x
    assert classical_laguerre(1, Fraction(2)).coeffs == (Fraction(3), Fraction(-1))
    # L_2^(2)(-1) = 6 + 4 + 1/2
    val = eval_poly(classical_laguerre(2, Fraction(2)), Fraction(-1))
    assert val == Fraction(21, 2)


def test_classical_laguerre_rejects_negative_degree():
    with pytest.raises(ValueError):
        classical_laguerre(-1, 2.0)


def test_polynomial_algebra():
    p = Polynomial((1, 2, 3))  # 1 + 2x + 3x^2
    q = Polynomial((0, 1))
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert p.derivative().coeffs == (2, 6)
    assert p.reflected().coeffs == (1, -2, 3)
    assert (p - p).is_zero
    assert p.degree == 2
    assert p(2) == 17


# ---------------------------------------------------------------------------
# X_m construction

def test_xm_lowest_member_is_monic_shift():
    # nu = m member, monic scale: x + alpha + 1 for m = 1
    p = xm_laguerre(1, XmFamilySpec(1, Fraction(2)))
    assert p.coeffs == (Fraction(3), Fraction(1))


def test_xm_even_member_frozen_coeffs():
    # m=2, alpha=2, nu=4 is even: x^4 - 36 x^2 + 108 in the monic scale
    p = xm_laguerre(4, XmFamilySpec(2, Fraction(2)))
    assert p.coeffs == (108, 0, -36, 0, 1)


def _product_form(nu: int, m: int, alpha: Fraction) -> Polynomial:
    """Closed product form of the X_m polynomial (exact arithmetic)."""
    n = nu - m
    first = (classical_laguerre(m, alpha).reflected()
             * classical_laguerre(n, alpha - 1))
    if n >= 1:
        second = (classical_laguerre(m, alpha - 1).reflected()
                  * classical_laguerre(n - 1, alpha))
    else:
        second = Polynomial((0,))
    return first + second


@pytest.mark.parametrize("m", [1, 2, 3])
def test_xm_matches_product_form_exactly(m):
    alpha = Fraction(2)
    spec = XmFamilySpec(m, alpha, convention="standard")
    for nu in range(m, m + 5):
        n = nu - m
        built = xm_laguerre(nu, spec)
        oracle = _product_form(nu, m, alpha)
        if n % 2 == 1:
            oracle = -1 * oracle
        assert built.coeffs == oracle.coeffs, f"nu={nu}, m={m}"


def test_monic_is_scaled_standard():
    spec_m = XmFamilySpec(2, Fraction(2))
    spec_s = XmFamilySpec(2, Fraction(2), convention="standard")
    for nu in (2, 3, 5):
        n = nu - 2
        scale = math.factorial(2) * math.factorial(n)
        monic = xm_laguerre(nu, spec_m)
        standard = xm_laguerre(nu, spec_s)
        assert monic.coeffs == tuple(scale * c for c in standard.coeffs)


def test_xm_degree_below_m_rejected():
    with pytest.raises(ValueError):
        xm_laguerre(1, XmFamilySpec(2, Fraction(2)))


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3, 2)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_xm_ode_residual_exact_zero(m, alpha):
    spec = XmFamilySpec(m, alpha)
    for nu in range(m, m + 7):
        res = xm_ode_residual(xm_laguerre(nu, spec), nu, spec)
        assert res.is_zero, f"nonzero residual at m={m}, nu={nu}, alpha={alpha}"


def test_xm_ode_residual_detects_wrong_polynomial():
    spec = XmFamilySpec(2, Fraction(2))
    res = xm_ode_residual(Polynomial((1,)), 2, spec)
    assert not res.is_zero


def test_xm_float_alpha_falls_back_to_svd():
    # a float alpha that is not an exact dyadic of small denominator takes
    # the floating-point nullspace path; result must track the exact one
    spec = XmFamilySpec(2, 2.0 + 1e-7)
    p = xm_laguerre(4, spec)
    exact = xm_laguerre(4, XmFamilySpec(2, Fraction(2)))
    np.testing.assert_allclose([float(c) for c in p.coeffs],
                               [float(c) for c in exact.coeffs],
                               rtol=1e-5, atol=1e-5)
    res = xm_ode_residual(p, 4, spec)
    worst = max((abs(float(c)) for c in res.coeffs), default=0.0)
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# weight and inner products

def test_weight_values():
    # m=1, alpha=2: denominator L_1^(1)(-1) = 3 at g=1
    assert xm_weight(XmFamilySpec(1, Fraction(2)), 1.0) == pytest.approx(
        math.exp(-1) / 9.0, rel=1e-14)
    # m=2, alpha=2: denominator L_2^(1)(-1) = 3 + 3 + 1/2 = 6.5
    assert xm_weight(XmFamilySpec(2, Fraction(2)), 1.0) == pytest.approx(
        math.exp(-1) / 42.25, rel=1e-14)


def test_weight_rejects_nonpositive_argument():
    spec = XmFamilySpec(1, Fraction(2))
    for g in (0.0, -1.0):
        with pytest.raises(ValueError):
            xm_weight(spec, g)


@pytest.mark.parametrize("m, alpha", [(1, Fraction(3, 2)), (2, Fraction(2)),
                                      (3, Fraction(2)), (4, Fraction(3))])
def test_weight_denominator_never_vanishes(m, alpha):
    spec = XmFamilySpec(m, alpha)
    gs = np.linspace(1e-3, 50.0, 10_000)
    assert np.all(xm_weight(spec, gs) > 0)


def test_diagonal_norms_match_closed_form():
    # standard scale: ||X_nu||^2 = (n + m + alpha) Gamma(n + alpha) / n!
    spec = XmFamilySpec(1, Fraction(2), convention="standard")
    for nu, expected in ((1, 3.0), (2, 8.0), (3, 15.0)):
        assert xm_inner_product(nu, nu, spec) == pytest.approx(expected, rel=1e-9)
    spec2 = XmFamilySpec(2, Fraction(2), convention="standard")
    assert xm_inner_product(2, 2, spec2) == pytest.approx(4.0, rel=1e-9)
    assert xm_inner_product(3, 3, spec2) == pytest.approx(10.0, rel=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_orthogonality_off_diagonals(m):
    spec = XmFamilySpec(m, Fraction(2), convention="standard")
    degrees = range(m, m + 4)
    for nu1 in degrees:
        for nu2 in degrees:
            if nu1 < nu2:
                assert abs(xm_inner_product(nu1, nu2, spec)) < 1e-8


def test_inner_product_rejects_degrees_below_m():
    with pytest.raises(ValueError):
        xm_inner_product(1, 3, XmFamilySpec(2, Fraction(2)))
