"""Tests for the supersymmetric layer.

Frozen oracle: W(0) = 11/12 for the exponential-mass model at b=1, alpha=2,
m=1 (hand substitution with g=1: L_1^1(-1)=3, L_0^2=1, L_1^2(-1)=4,
L_0^3=1).  Everything else is cross-checked between independent routes:
closed form vs log-derivative of the ground state, closed-form partner vs
the superpotential route, ladder operators vs the alpha+1 eigenstates.
"""
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pdmlag.models import (Case1Params, Case2Params, default_domain, energy,
                           energy_fraction, v_eff, wavefunction)
from pdmlag.checks import (shape_invariance_residual,
                           superpotential_from_groundstate)
from pdmlag.solver import Grid, align_sign, quadrature, solve_model
from pdmlag.susy import (PartnerModel, apply_A, apply_A_dagger, partner_model,
                         partner_potential, partner_wavefunction,
                         superpotential)


def test_superpotential_frozen_value_at_origin():
    assert superpotential(Case1Params(1, 2, 1), 0.0) == pytest.approx(
        11.0 / 12.0, rel=1e-14)


def test_case2_inverse_term_coefficient():
    # x * W(x) -> (1 - l(alpha+1))/(2l) as x -> 0; l=2, alpha=2 gives -5/4
    model = Case2Params(0, 2, 1)
    x = 1e-6
    assert x * superpotential(model, x) == pytest.approx(-1.25, abs=1e-10)


def test_case2_superpotential_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        superpotential(Case2Params(1, 2, 1), -1.0)
    with pytest.raises(ValueError):
        superpotential_from_groundstate(Case2Params(1, 2, 1), 0.0)


@pytest.mark.parametrize("model", [Case1Params(1, 2, 1), Case1Params(1, 2, 2),
                                   Case1Params(2, 3, 1)])
def test_superpotential_matches_groundstate_case1(model):
    xs = np.linspace(-3.0, 3.0, 50)
    diff = superpotential(model, xs) - superpotential_from_groundstate(model, xs)
    assert np.max(np.abs(diff)) < 1e-8


@pytest.mark.parametrize("model", [Case2Params(0, 2, 1), Case2Params(1, 2, 2),
                                   Case2Params(2, 2, 1)])
def test_superpotential_matches_groundstate_case2(model):
    xs = np.linspace(0.2, 3.0, 50)
    diff = superpotential(model, xs) - superpotential_from_groundstate(model, xs)
    assert np.max(np.abs(diff)) < 1e-8


# ---------------------------------------------------------------------------
# partner potential and shape invariance

def _grid(lo, hi):
    """The 100-point grid of [lo, hi] with its 50-point grid merged in."""
    return np.union1d(np.linspace(lo, hi, 50), np.linspace(lo, hi, 100))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(2), Fraction(3)])
def test_shape_invariance_case1(m, alpha):
    xs = _grid(-4.0, 3.0)
    res = shape_invariance_residual(Case1Params(1, alpha, m), xs)
    assert np.max(np.abs(res)) < 1e-9


@pytest.mark.parametrize("eta", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_shape_invariance_case2(eta, m):
    xs = _grid(0.2, 3.0)
    res = shape_invariance_residual(Case2Params(eta, 2, m), xs)
    assert np.max(np.abs(res)) < 1e-9


def test_shape_invariance_scales_with_b():
    model = Case1Params(2, 2, 2)
    assert partner_model(model).r_shift == Fraction(4)
    xs = np.linspace(-2.0, 2.0, 100)
    assert np.max(np.abs(shape_invariance_residual(model, xs))) < 1e-9


def test_partner_constant_terms():
    # with the zero-ground-energy vc, the partner's total additive constant
    # is -b^2(alpha/2 + m/(alpha+1)) for Case 1 and the b->1 analogue for
    # Case 2
    m1 = Case1Params.susy_zero(1, 2, 1)
    pm1 = partner_model(m1)
    assert pm1.comparison.vc + pm1.r_shift == -(Fraction(2, 2) + Fraction(1, 3))
    m2 = Case2Params.susy_zero(1, 2, 1)
    pm2 = partner_model(m2)
    assert pm2.comparison.vc + pm2.r_shift == -(Fraction(2, 2) + Fraction(1, 3))


def test_partner_model_raises_alpha_keeps_offset():
    model = Case1Params(1, 2, 2, vc=Fraction(5))
    pm = partner_model(model)
    assert isinstance(pm, PartnerModel)
    assert pm.comparison.alpha == Fraction(3)
    # user offset from the zero-energy constant carries over unchanged
    from pdmlag.models import susy_constant
    assert (pm.comparison.vc - susy_constant(pm.comparison)
            == model.vc - susy_constant(model))
    xs = np.linspace(-2.0, 2.0, 50)
    np.testing.assert_allclose(
        partner_potential(model, xs),
        v_eff(pm.comparison, xs) + float(pm.r_shift), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# ladder operators on grids

def _interior_grid(model) -> Grid:
    lo, hi = default_domain(model, 3)
    return Grid(lo, hi, 3001)


def test_ground_state_annihilation():
    for model in (Case1Params.susy_zero(1, 2, 1), Case2Params.susy_zero(1, 2, 2)):
        grid = _interior_grid(model)
        psi0 = wavefunction(model, 0, grid.xs())
        out = apply_A(model, psi0 / np.abs(psi0).max(), grid)
        assert np.max(np.abs(out)) < 1e-6


def test_apply_a_linearity():
    model = Case1Params.susy_zero(1, 2, 1)
    grid = _interior_grid(model)
    xs = grid.xs()
    f = wavefunction(model, 1, xs)
    g = wavefunction(model, 2, xs)
    combined = apply_A(model, 2.0 * f - 3.0 * g, grid)
    split = 2.0 * apply_A(model, f, grid) - 3.0 * apply_A(model, g, grid)
    np.testing.assert_allclose(combined, split, rtol=0, atol=1e-10)


def test_apply_a_dagger_adjointness():
    model = Case1Params.susy_zero(1, 2, 1)
    grid = _interior_grid(model)
    xs = grid.xs()
    # compactly supported smooth test functions (vanish at the ends)
    phi = np.exp(-((xs - 0.5) ** 2)) * (xs - grid.lo) * (grid.hi - xs) / 25.0
    psi = np.exp(-((xs + 1.0) ** 2) / 2.0) * (xs - grid.lo) * (grid.hi - xs) / 25.0
    lhs = quadrature(apply_A_dagger(model, phi, grid) * psi, grid)
    rhs = quadrature(phi * apply_A(model, psi, grid), grid)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_apply_a_rejects_mismatched_grid():
    model = Case1Params(1, 2, 1)
    grid = _interior_grid(model)
    with pytest.raises(ValueError):
        apply_A(model, np.zeros(grid.npoints - 1), grid)


@pytest.mark.parametrize("model", [Case1Params.susy_zero(1, 2, 1),
                                   Case2Params.susy_zero(1, 2, 1)])
def test_lowering_yields_partner_states(model):
    grid = _interior_grid(model)
    xs = grid.xs()
    for n in (0, 1):
        lowered = apply_A(model, wavefunction(model, n + 1, xs), grid)
        lowered = align_sign(lowered / np.sqrt(quadrature(lowered ** 2, grid)))
        target = partner_wavefunction(model, n, xs)
        target = align_sign(target / np.sqrt(quadrature(target ** 2, grid)))
        assert np.max(np.abs(lowered - target)) < 1e-5, n


@pytest.mark.parametrize("model", [Case1Params.susy_zero(1, 2, 1),
                                   Case2Params.susy_zero(1, 2, 1)])
def test_raising_recovers_base_states(model):
    grid = _interior_grid(model)
    xs = grid.xs()
    for n in (0, 1):
        partner = partner_wavefunction(model, n, xs)
        partner = partner / np.sqrt(quadrature(partner ** 2, grid))
        raised = apply_A_dagger(model, partner, grid)
        raised = align_sign(raised / np.sqrt(quadrature(raised ** 2, grid)))
        base = align_sign(wavefunction(model, n + 1, xs))
        assert np.max(np.abs(raised - base)) < 1e-5, n


def test_factorization_positive_semidefinite():
    model = Case1Params.susy_zero(1, 2, 2)
    grid = _interior_grid(model)
    xs = grid.xs()
    rng = np.random.default_rng(7)
    for _ in range(5):
        coeffs = rng.normal(size=3)
        psi = sum(c * wavefunction(model, n, xs) for n, c in enumerate(coeffs))
        val = quadrature(psi * apply_A_dagger(model, apply_A(model, psi, grid),
                                              grid), grid)
        assert val >= -1e-10


# ---------------------------------------------------------------------------
# partner spectrum and eigenstates

def test_partner_ground_energy_is_zero_exactly():
    for model in (Case1Params.susy_zero(1, 2, 1),
                  Case2Params.susy_zero(2, Fraction(5, 2), 3)):
        assert energy_fraction(model, 0) == 0


def test_partner_wavefunction_properties():
    model = Case1Params.susy_zero(1, 2, 1)
    xs = np.linspace(-4.0, 3.0, 500)
    ground = partner_wavefunction(model, 0, xs)
    assert np.all(ground[1:-1] != 0)  # nodeless
    raised = replace(model, alpha=model.alpha + 1,
                     vc=partner_model(model).comparison.vc)
    np.testing.assert_array_equal(ground, wavefunction(raised, 0, xs))


def test_partner_spectrum_matches_shifted_base():
    model = Case1Params.susy_zero(1, 2, 1)
    pm = partner_model(model)
    res = solve_model(pm.comparison, 3)
    for n in range(3):
        expected = energy(model, n + 1)
        assert res.eigenvalues[n] + float(pm.r_shift) == pytest.approx(
            expected, rel=1e-3)
