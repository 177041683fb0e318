"""Tests for the two closed-form model families.

Frozen expected values come from direct substitution into the closed forms
(energies, small-x limits, the m=1 potential) and from the classical
normalization integral evaluated in the g variable.  The X_m polynomials
as the ODE's unique solution (the nullspace oracle of test_orthopoly) and
an adaptive-quadrature normalizer serve as independent references for the
closed-form bound states.
"""
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from pdmlag import models
from pdmlag.checks import pct_master_residual, v_eff_m1_closed_form
from pdmlag.models import (Case1Params, Case2Params, default_domain,
                           density2d, energy, energy_fraction, g_map, mass,
                           norm_constant_closed_form, pct_prefactor,
                           susy_constant, v_eff, wavefunction)
from pdmlag.orthopoly import (XmFamilySpec, classical_laguerre, eval_poly,
                              eval_xm_laguerre, xm_laguerre)
from pdmlag.solver import Grid, quadrature
from test_orthopoly import xm_nullspace_oracle


# ---------------------------------------------------------------------------
# parameters and basic maps

def test_parameter_validation():
    with pytest.raises(ValueError):
        Case1Params(0, 2, 1)
    with pytest.raises(ValueError):
        Case1Params(1, 1, 1)  # alpha must exceed 1
    with pytest.raises(ValueError):
        Case1Params(1, 2, 0)
    with pytest.raises(ValueError):
        Case2Params(-1, 2, 1)
    with pytest.raises(ValueError):
        Case2Params(0, Fraction(1, 2), 1)


def test_derived_parameters():
    p1 = Case1Params(Fraction(3, 2), 2, 1)
    assert p1.lam == Fraction(-2, 3)
    p2 = Case2Params(1, 2, 1)
    assert p2.nu == Fraction(2, 3)
    assert p2.l == 4


def test_mass_and_map_values():
    p1 = Case1Params(1, 2, 1)
    assert mass(p1, 0.0) == 1.0
    assert mass(p1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert g_map(p1, 2.0) == mass(p1, 2.0)

    p2 = Case2Params(1, 2, 1)  # l = 4: M = 16 x^2, g = x^4
    assert mass(p2, 2.0) == pytest.approx(64.0, rel=1e-15)
    assert g_map(p2, math.sqrt(2.0)) == pytest.approx(4.0, rel=1e-14)
    flat = Case2Params(0, 2, 1)  # l = 2: constant mass 4
    assert mass(flat, 0.37) == pytest.approx(4.0, rel=1e-15)


def test_case2_maps_reject_nonpositive_x():
    p2 = Case2Params(1, 2, 1)
    for fn in (mass, g_map, v_eff):
        with pytest.raises(ValueError):
            fn(p2, 0.0)
        with pytest.raises(ValueError):
            fn(p2, np.array([0.5, -1.0]))


# ---------------------------------------------------------------------------
# spectrum

def test_case1_energies():
    p = Case1Params(1, 2, 1)
    assert [energy(p, n) for n in range(4)] == [2.0, 3.0, 4.0, 5.0]


def test_case2_energies_independent_of_eta():
    for eta in (0, 1, 2, 3):
        p = Case2Params(eta, 2, 2)
        assert [energy(p, n) for n in range(3)] == [2.5, 3.5, 4.5]


def test_energy_exact_fractions_and_spacing():
    p = Case1Params(Fraction(3, 2), Fraction(3, 2), 3)
    # b^2 (n + (alpha+1)/2 + m/alpha): (9/4)(5/4 + 2) = 117/16 at n = 0
    assert energy_fraction(p, 0) == Fraction(117, 16)
    gap = energy_fraction(p, 1) - energy_fraction(p, 0)
    assert gap == p.b * p.b
    p2 = Case2Params(2, Fraction(3, 2), 3)
    assert energy_fraction(p2, 1) - energy_fraction(p2, 0) == 1


def test_vc_shifts_spectrum_exactly():
    p = Case1Params(1, 2, 1, vc=-2)
    assert [energy_fraction(p, n) for n in range(3)] == [0, 1, 2]


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        energy(Case1Params(1, 2, 1), -1)


def test_susy_constant_values():
    assert susy_constant(Case1Params(1, 2, 1)) == Fraction(-2)
    assert susy_constant(Case1Params(2, 2, 1)) == Fraction(-8)
    assert susy_constant(Case2Params(1, 2, 1)) == Fraction(-2)
    assert energy_fraction(Case1Params.susy_zero(2, 3, 2), 0) == 0
    assert energy_fraction(Case2Params.susy_zero(3, Fraction(3, 2), 1), 0) == 0


# ---------------------------------------------------------------------------
# effective potential

def test_m1_closed_form_value_at_origin():
    p = Case1Params(1, 2, 1)
    # (1/4)(3 + 1 + 4/(2*3) + 8/9) = 25/18
    assert v_eff_m1_closed_form(p, 0.0) == pytest.approx(25.0 / 18.0, rel=1e-15)


def test_m1_closed_form_matches_general_potential():
    p = Case1Params(1, 2, 1)
    xs = np.linspace(-3.0, 3.0, 1000)
    worst = np.max(np.abs(v_eff(p, xs) - v_eff_m1_closed_form(p, xs)))
    assert worst < 1e-12


def test_m1_closed_form_rejects_other_m():
    with pytest.raises(ValueError):
        v_eff_m1_closed_form(Case1Params(1, 2, 2), 0.0)


def test_case1_potential_right_asymptote():
    p = Case1Params(1, 2, 1)
    x = 12.0
    assert v_eff(p, x) / (0.75 * math.exp(x)) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("eta, expected", [(0, Fraction(15, 16)),
                                           (1, Fraction(55, 64))])
def test_case2_potential_origin_limit(eta, expected):
    # x^l * V_eff -> (alpha^2-1)/4 + (2l-1)/(4l^2) as x -> 0
    p = Case2Params(eta, 2, 2)
    x = 1e-4
    assert v_eff(p, x) * x ** p.l == pytest.approx(float(expected), rel=1e-6)


def test_vc_enters_potential_additively():
    base = Case1Params(1, 2, 2)
    shifted = Case1Params(1, 2, 2, vc=Fraction(7, 3))
    xs = np.linspace(-2.0, 2.0, 11)
    np.testing.assert_allclose(v_eff(shifted, xs) - v_eff(base, xs),
                               float(Fraction(7, 3)), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# wavefunctions

def _count_sign_changes(vals: np.ndarray) -> int:
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


@pytest.mark.parametrize("model", [Case1Params(1, 2, 1), Case1Params(1, 2, 3),
                                   Case2Params(0, 2, 2), Case2Params(1, 2, 1)])
def test_wavefunction_node_counts(model):
    lo, hi = default_domain(model, 3)
    if isinstance(model, Case2Params):
        lo = hi / 3000
    xs = np.linspace(lo, hi, 3000)
    for n in range(4):
        assert _count_sign_changes(wavefunction(model, n, xs)) == n


@pytest.mark.parametrize("model", [Case1Params(1, 2, 2), Case2Params(1, 2, 2)])
def test_wavefunction_orthonormality(model):
    lo, hi = default_domain(model, 4)
    grid = Grid(lo if isinstance(model, Case2Params) else 1.25 * lo,
                1.25 * hi, 4001)
    xs = grid.xs()
    psis = [wavefunction(model, n, xs) for n in range(5)]
    for i in range(5):
        for j in range(5):
            val = quadrature(psis[i] * psis[j], grid)
            assert abs(val - (i == j)) < 1e-7, (i, j, val)


def test_case2_wavefunction_domain():
    p = Case2Params(1, 2, 1)
    assert wavefunction(p, 0, 0.0) == 0.0
    with pytest.raises(ValueError):
        wavefunction(p, 0, -0.5)


@pytest.mark.parametrize("model", [
    Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
    Case2Params(1, Fraction(19, 7), 4),
], ids=["case1", "case2"])
def test_wavefunction_checks_n_once_and_builds_no_family(monkeypatch, model):
    # the model's constructor checked m and alpha; the state checks n alone
    import pdmlag.orthopoly as orthopoly

    x = np.linspace(*default_domain(model, 3), 201)
    values = [wavefunction(model, 3, x), wavefunction(model, 3, float(x[50]))]
    checked = []
    for module in (models, orthopoly):
        def recording(value, name, *bounds, check=module._integer):
            checked.append(name)
            return check(value, name, *bounds)
        monkeypatch.setattr(module, "_integer", recording)

    def no_family(m, alpha):
        raise AssertionError("a family spec was built")

    monkeypatch.setattr(orthopoly, "_family_params", no_family)
    assert wavefunction(model, 3, x).tobytes() == values[0].tobytes()
    assert wavefunction(model, 3, float(x[50])) == values[1]
    assert checked == ["n", "n"]


def _quad_norm_constant(model, n: int) -> float:
    """Reference normalizer of the state, by adaptive quadrature.

    Independent of the closed-form constant: the polynomial is the exact
    X_m member (``xm_laguerre``, checked against the nullspace oracle
    in test_orthopoly), and the norm comes from adaptive quadrature over the
    certified domain padded by half again, so the discarded tail mass is far
    below the quadrature tolerance.
    """
    poly = xm_laguerre(n + model.m, XmFamilySpec(model.m, model.alpha)).as_float()

    def integrand(t):
        g = (math.exp(-float(model.b) * t) if isinstance(model, Case1Params)
             else t ** model.l)
        return (pct_prefactor(model, t) * eval_poly(poly, g)) ** 2

    lo, hi = default_domain(model, n)
    out = integrate.quad(integrand, 1.5 * lo, 1.5 * hi, epsabs=1e-13,
                         epsrel=1e-12, limit=300, full_output=1)
    norm2, abserr = out[0], out[1]
    assert len(out) == 3 and abserr <= 1e-9 * norm2, "quadrature did not converge"
    return 1.0 / math.sqrt(norm2)


def test_norm_constant_ratio_is_convention_constant():
    """The closed-form N applies to the 1/(m! n!)-leading polynomial scale.

    N over the quadrature normalizer is exactly 1 for both families,
    independent of n: the prefactor carries the Jacobian |g'| (b e^(-b x),
    l x^(l-1)), so N is the constant of the weighted norm in g alone.
    """
    for model in (Case1Params(1, 2, 1), Case1Params(Fraction(3, 2), 2, 1),
                  Case2Params(1, 2, 2)):
        for n in range(5):
            ratio = norm_constant_closed_form(model, n) / _quad_norm_constant(model, n)
            assert ratio == pytest.approx(1.0, rel=1e-9), (model, n)


@pytest.mark.parametrize("model", [Case1Params(1, 2, 2), Case2Params(1, 2, 1)])
def test_prefactor_carries_all_nonpolynomial_structure(model):
    xs = (np.linspace(-2.0, 2.0, 25) if isinstance(model, Case1Params)
          else np.linspace(0.3, 2.5, 25))
    n = 2
    poly = xm_laguerre(n + model.m, XmFamilySpec(model.m, model.alpha)).as_float()
    ratio = (wavefunction(model, n, xs)
             / (pct_prefactor(model, xs) * eval_poly(poly, g_map(model, xs))))
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(7, 3)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_product_form_is_the_standard_xm_polynomial(m, alpha):
    """(-1)^n [L_m^a(-g) L_n^(a-1)(g) + L_m^(a-1)(-g) L_(n-1)^a(g)], exactly."""
    for n in range(9):
        prod = classical_laguerre(m, alpha).reflected() * classical_laguerre(n, alpha - 1)
        if n > 0:
            prod = prod + (classical_laguerre(m, alpha - 1).reflected()
                           * classical_laguerre(n - 1, alpha))
        expected = xm_nullspace_oracle(n + m, XmFamilySpec(m, alpha))
        assert ((-1) ** n * prod).coeffs == expected.coeffs, n


@pytest.mark.parametrize("reference", ["standard", "monic"])
@pytest.mark.parametrize("m, alpha", [(1, Fraction(2)), (2, Fraction(7, 3)),
                                      (3, Fraction(2)), (4, Fraction(7, 3))])
def test_closed_form_values_match_exact_evaluation(m, alpha, reference):
    # The monomial expansion in floats is off by up to 5e-4 here at g = 50.
    # "standard": against ``xm_laguerre``; "monic": m! n! times the values
    # against the ODE's unit-leading solution (the nullspace oracle)
    spec = XmFamilySpec(m, alpha)
    scale = 1
    exact = xm_laguerre(30, spec)
    if reference == "monic":
        scale = math.factorial(m) * math.factorial(30 - m)
        exact = xm_nullspace_oracle(30, spec, lead=Fraction(1))
    for g in (Fraction(1, 2), Fraction(10), Fraction(50)):
        want = float(eval_poly(exact, g))
        got = scale * eval_xm_laguerre(30, spec, float(g))
        assert got == pytest.approx(want, rel=1e-12), g


@pytest.mark.parametrize("model", [Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
                                   Case1Params(Fraction(3, 2), Fraction(7, 3), 4),
                                   Case2Params(1, 2, 2),
                                   Case2Params(10, Fraction(16, 5), 6)])
def test_high_levels_are_normalized_with_n_nodes(model):
    # From n = 80 the left domain end reaches g where the polynomial
    # overflows (the prefactor is 0 there); n = 200 is past where n!
    # overflows a float.
    for n in (16, 25, 40, 80, 200):
        lo, hi = default_domain(model, n)
        grid = Grid(lo, hi, 40001)
        psi = wavefunction(model, n, grid.xs())
        assert abs(quadrature(psi ** 2, grid) - 1.0) < 1e-10, n
        assert _count_sign_changes(psi) == n


@pytest.mark.parametrize("model, n", [
    (Case2Params(3, Fraction(19, 7), 4), 290),
    (Case1Params(Fraction(3, 2), Fraction(7, 3), 2), 300)])
def test_states_are_served_up_to_the_overflow_levels(model, n):
    # Near the top of the served range: from n = 295 (Case 2) and n = 301
    # (Case 1) the polynomial overflows where the prefactor is not yet 0.
    lo, hi = default_domain(model, n)
    grid = Grid(lo, hi, 40001)
    psi = wavefunction(model, n, grid.xs())
    assert abs(quadrature(psi ** 2, grid) - 1.0) < 1e-10
    assert _count_sign_changes(psi) == n


def test_level_beyond_float_range_is_refused():
    model = Case1Params(1, 2, 2)
    lo, hi = default_domain(model, 500)
    with pytest.raises(RuntimeError, match="overflows"):
        wavefunction(model, 500, np.linspace(lo, hi, 4001))


# ---------------------------------------------------------------------------
# master change-of-variable identity

@pytest.mark.parametrize("m", [1, 2, 3])
def test_pct_identity_case1(m):
    model = Case1Params(1, 2, m)
    xs = np.linspace(-4.0, 3.0, 50)
    for n in range(4):
        assert np.max(np.abs(pct_master_residual(model, n, xs))) < 1e-9


@pytest.mark.parametrize("eta", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_pct_identity_case2(eta, m):
    model = Case2Params(eta, 2, m)
    xs = np.linspace(0.2, 3.0, 50)
    for n in range(4):
        assert np.max(np.abs(pct_master_residual(model, n, xs))) < 1e-9


def test_pct_identity_other_parameters():
    model = Case1Params(Fraction(3, 2), Fraction(5, 2), 2)
    xs = np.linspace(-2.0, 2.0, 30)
    assert np.max(np.abs(pct_master_residual(model, 1, xs))) < 1e-9


@pytest.mark.parametrize("l", range(2, 23))
def test_schwarzian_term_is_exact(l):
    # K g = (2l - 1)/(4 l^2) for g = x^l, M = l^2 x^(l-2); 0 for g = M = e^(-bx)
    k_g = models._power_map(l).k_g
    assert isinstance(k_g, Fraction) and k_g == Fraction(2 * l - 1, 4 * l * l)
    assert models._exponential_map(Fraction(3, 2)).k_g == 0


# ---------------------------------------------------------------------------
# 2D density and domains

def test_density2d_symmetry_and_peak():
    model = Case2Params(1, 2, 1)
    xs = np.linspace(0.05, 3.5, 120)
    rho = density2d(model, 0, 0, xs[:, None], xs[None, :])
    np.testing.assert_allclose(rho, rho.T, rtol=0, atol=1e-15)
    peaks = 0
    for i in range(1, 119):
        for j in range(1, 119):
            w = rho[i - 1:i + 2, j - 1:j + 2]
            if rho[i, j] == w.max() and np.sum(w == rho[i, j]) == 1 \
                    and rho[i, j] > 1e-3 * rho.max():
                peaks += 1
    assert peaks == 1


def test_density2d_integrates_to_one():
    model = Case2Params(1, 2, 1)
    xs = np.linspace(1e-3, 4.0, 801)
    rho = density2d(model, 1, 2, xs[:, None], xs[None, :])
    total = np.trapezoid(np.trapezoid(rho, xs, axis=1), xs)
    assert total == pytest.approx(1.0, abs=1e-6)


def _log_weights(n_max, m, alpha, g):
    """log of N_n^2 g^(alpha+1) e^(-g) (P_n/h)^2, psi_n^2 per unit log g,
    for n = 0..n_max (rows) at the points g.

    P_n = (-1)^n [A_m B_n - A_(m-1) B_(n-1)] with A_j = L_j^(alpha)(-g)
    and h = L_m^(alpha-1)(-g) from scipy, and B_j = L_j^(alpha)(g) from its
    own three-term recurrence, rescaled as it grows, since B_300 overflows
    a float in the right tail.
    """
    a = float(alpha)
    a_m, a_m1, h = (special.eval_genlaguerre(j, b, -g)
                    for j, b in ((m, a), (m - 1, a), (m, a - 1)))
    base = (a + 1.0) * np.log(g) - g - 2.0 * np.log(h)
    prev, cur, scale = np.zeros_like(g), np.ones_like(g), np.zeros_like(g)
    rows = []
    for n in range(n_max + 1):
        if n:
            prev, cur = cur, ((2 * n - 1 + a - g) * cur
                              - (n - 1 + a) * prev) / n
        shrink = np.where(np.abs(cur) > 1e100, 1e-100, 1.0)
        prev, cur, scale = prev * shrink, cur * shrink, scale - np.log(shrink)
        log_n2 = math.lgamma(n + 1) - math.lgamma(n + a) - math.log(n + m + a)
        rows.append(log_n2 + base
                    + 2.0 * (np.log(np.abs(a_m * cur - a_m1 * prev)) + scale))
    return np.array(rows)


def _tails(model, n_max, points=801):
    """Mass of psi_0..psi_n_max outside default_domain(model, n_max), below
    and above it, by Simpson's rule in L = log g over 60 decay lengths of
    each tail (the decay rate of g^p e^(-g) in L is |p - g|)."""
    pm = model.pct_map
    ends = sorted(float(pm.log_g(x)) for x in default_domain(model, n_max))
    af = float(model.alpha)
    rate_lo = af + 1.0 - math.exp(ends[0])
    rate_hi = math.exp(ends[1]) - (af + 2 * n_max + 1.0)
    tails = []
    for lo, hi in ((ends[0] - 60.0 / rate_lo, ends[0]),
                   (ends[1], ends[1] + math.log1p(60.0 / rate_hi))):
        w = np.exp(_log_weights(n_max, model.m, model.alpha,
                                np.exp(np.linspace(lo, hi, points))))
        tails.append(np.sum(w[:, 0:-2:2] + 4.0 * w[:, 1:-1:2] + w[:, 2::2],
                            axis=1) * (hi - lo) / (3.0 * (points - 1)))
    return tails


@pytest.mark.parametrize("alpha, m", [
    (Fraction(7, 3), 2), (Fraction(5, 4), 1), (Fraction(19, 7), 4),
    (Fraction(21, 20), 1), (Fraction(40), 3), (Fraction(400), 1)])
def test_default_domain_certifies_the_tails(alpha, m):
    # The mass the domain leaves outside depends on alpha, m and n_max
    # alone, so both families' ends are read back in g.  Every level up to
    # n_max leaves at most the target outside, and up to alpha = 40 the
    # level n_max leaves at least a thousandth of it: the tail bounds are
    # loose by no more than that.  Above, the bound of the left end, the
    # polynomial's value at g = 0, is loose where g_lo nears its zeros.
    target = models._TAIL_MASS
    for n_max in (0, 3, 9, 24, 100, 300):
        for model in (Case1Params(Fraction(3, 2), alpha, m),
                      Case2Params(3, alpha, m)):
            below, above = _tails(model, n_max)
            outside = below + above
            assert np.all(outside <= target), (n_max, outside.max())
            if alpha <= 40:
                assert outside[-1] >= target / 1000, (n_max, outside[-1])


@pytest.mark.parametrize("alpha, m, n_max", [(2, 2, 9), (Fraction(7, 3), 4, 3),
                                             (Fraction(21, 20), 1, 0)])
def test_case1_domain_is_b1_domain_over_b(alpha, m, n_max):
    # x = -log(g)/b: a power of two scales the ends without rounding
    lo, hi = default_domain(Case1Params(1, alpha, m), n_max)
    for j in range(-3, 4):
        b = Fraction(2) ** j
        assert default_domain(Case1Params(b, alpha, m), n_max) == (lo / b,
                                                                   hi / b)


def test_case2_domain_leaves_the_origin():
    # g_lo > 0 maps to x = g_lo^(1/l) > 0, so no default grid holds x = 0
    for eta in (0, 1, 25, 100):
        lo, hi = default_domain(Case2Params(eta, Fraction(5, 2), 2), 9)
        assert 0.0 < lo < 1.0 < hi


def test_default_domain_refuses_levels_lost_in_rounding():
    # E_3 no float, and E_3 = 1e300 + 5, where the spacing 1 is rounded away
    with pytest.raises(ValueError, match="^E_3 is too large for a float$"):
        default_domain(Case1Params(Fraction(10) ** 200, 2, 1), 3)
    with pytest.raises(ValueError, match="^E_3 hides the level spacing in its "
                                         "rounding$"):
        default_domain(Case1Params(1, 2, 1, Fraction(10) ** 300), 3)
    # E_3 = 2^53 + 5: the spacing 1 is half a unit in its last place
    with pytest.raises(ValueError, match="hides the level spacing"):
        default_domain(Case1Params(1, 2, 1, Fraction(2) ** 53), 3)
    default_domain(Case1Params(1, 2, 1, Fraction(2) ** 52), 3)


@pytest.mark.parametrize("model", [Case2Params(0, 12, 1),
                                   Case1Params(Fraction(1, 9), 13, 1)])
def test_default_domain_reaches_past_the_well(model):
    # The well lies far from x = 1 (Case 2) or x = -1 (Case 1) here, and
    # the domain holds it and the states.
    lo, hi = default_domain(model, 3)
    grid = Grid(lo, hi, 20001)
    xs = grid.xs()
    v = v_eff(model, xs)
    assert 0 < np.argmin(v) < xs.size - 1
    for n in range(4):
        assert abs(quadrature(wavefunction(model, n, xs) ** 2, grid) - 1) < 1e-6


# ---------------------------------------------------------------------------
# edges of floating point and integer arguments

@pytest.mark.parametrize("model, xs", [
    (Case1Params(1, 2, 2), np.linspace(-800.0, -700.0, 101)),   # g overflows
    (Case2Params(10, 2, 2), np.geomspace(1e9, 1e10, 101)),      # x^32.5 overflows
    (Case2Params(0, 2, 2), np.geomspace(1e149, 1e160, 101)),    # g overflows
])
def test_states_are_zero_where_a_factor_overflows(model, xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(pct_prefactor(model, xs) == 0.0)
        for n in (0, 3):
            assert np.all(wavefunction(model, n, xs) == 0.0)


def test_integer_parameters_accept_numpy_and_reject_bool():
    p = Case1Params(1, 2, np.int64(2))
    assert p.m == 2 and type(p.m) is int
    q = Case2Params(np.int64(1), 2, np.int32(1))
    assert (q.eta, q.m) == (1, 1) and type(q.eta) is int
    assert energy(p, np.int64(3)) == energy(p, 3)
    assert Case1Params(np.int64(3), np.int64(2), 1).b == 3
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError):
            Case1Params(1, 2, bad)
        with pytest.raises(ValueError):
            Case2Params(bad, 2, 1)


def test_models_carry_no_state_and_pickle_after_use():
    for model in (Case1Params(Fraction(3, 2), 2, 1), Case2Params(1, 2, 1)):
        v_eff(model, 1.0)
        assert pickle.loads(pickle.dumps(model)) == model


@pytest.mark.parametrize("n", [1.5, True, -1])
def test_level_index_must_be_a_non_negative_integer(n):
    model = Case1Params(1, 2, 1)
    for fn in (energy, energy_fraction, norm_constant_closed_form):
        with pytest.raises(ValueError):
            fn(model, n)
    with pytest.raises(ValueError):
        wavefunction(model, n, np.linspace(-1.0, 1.0, 5))
