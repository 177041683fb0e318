"""Tests for the flux-form finite-difference eigensolver.

Calibration targets with known exact spectra: the Dirichlet Laplacian on
[0, pi] (eigenvalues n^2) and the constant-mass harmonic oscillator in
these units (eigenvalues 2n+1).  The position-dependent-mass models are
then checked against their closed-form linear spectra.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmlag import solver
from pdmlag.models import (Case1Params, Case2Params, default_domain, energy,
                           wavefunction)
from pdmlag.solver import (DiscretizedOperator, Grid, _model_operator,
                           align_sign, convergence_order, discretize,
                           eigen_lowest, lowest_eigenvalues, quadrature,
                           solve_model)


# ---------------------------------------------------------------------------
# Grid

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 101)
    with pytest.raises(ValueError):
        Grid(2.0, 1.0, 101)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 15)
    with pytest.raises(ValueError):
        Grid(0.0, math.inf, 101)


def test_grid_geometry():
    grid = Grid(0.0, 1.0, 101)
    assert grid.h == pytest.approx(0.01)
    xs = grid.xs()
    assert xs.shape == (101,)
    assert xs[0] == 0.0 and xs[-1] == 1.0
    interior = grid.interior()
    assert interior.shape == (99,)
    assert interior[0] == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# discretize + eigen_lowest on textbook operators

def test_dirichlet_laplacian_spectrum():
    # -u'' on [0, pi] with u(0)=u(pi)=0 has eigenvalues n^2
    grid = Grid(0.0, math.pi, 2000)
    op = discretize(lambda x: np.ones_like(x), lambda x: np.zeros_like(x), grid)
    res = eigen_lowest(op, 3)
    np.testing.assert_allclose(res.eigenvalues, [1.0, 4.0, 9.0], atol=1e-4)


def test_discretize_rejects_bad_coefficients():
    grid = Grid(0.0, 1.0, 101)
    with pytest.raises(ValueError):
        discretize(lambda x: -np.ones_like(x), lambda x: np.zeros_like(x), grid)
    with pytest.raises(ValueError):
        discretize(lambda x: np.ones_like(x),
                   lambda x: np.where(x > 0.5, np.inf, 0.0), grid)


def test_discretize_broadcasts_scalar_coefficients():
    grid = Grid(0.0, math.pi, 101)
    op = discretize(lambda x: 1.0, lambda x: 0.0, grid)
    ref = discretize(lambda x: np.ones_like(x), lambda x: np.zeros_like(x), grid)
    assert np.array_equal(op.diag, ref.diag)
    assert np.array_equal(op.offdiag, ref.offdiag)


def test_discretize_rejects_wrong_shape_coefficients():
    grid = Grid(0.0, 1.0, 101)
    with pytest.raises(ValueError, match="mass returned shape"):
        discretize(lambda x: np.ones(x.size + 1), lambda x: np.zeros_like(x), grid)
    with pytest.raises(ValueError, match="potential returned shape"):
        discretize(lambda x: np.ones_like(x), lambda x: np.zeros((x.size, 2)), grid)


def test_eigen_lowest_two_by_two():
    # [[2, -1], [-1, 2]] has eigenvalues 1 and 3
    grid = Grid(0.0, 3.0, 16)
    op = DiscretizedOperator(diag=np.array([2.0, 2.0]),
                             offdiag=np.array([-1.0]), grid=grid)
    res = eigen_lowest(op, 2)
    np.testing.assert_allclose(res.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_eigen_lowest_k_bounds():
    op = DiscretizedOperator(diag=np.array([2.0, 2.0]),
                             offdiag=np.array([-1.0]))
    with pytest.raises(ValueError):
        eigen_lowest(op, 0)
    with pytest.raises(ValueError):
        eigen_lowest(op, 3)


def test_lowest_eigenvalues_k_bounds_match_eigen_lowest():
    op = DiscretizedOperator(diag=np.array([2.0, 2.0]),
                             offdiag=np.array([-1.0]))
    for k in (0, 3, -1, 1.0):
        with pytest.raises(ValueError) as vals_only:
            lowest_eigenvalues(op, k)
        with pytest.raises(ValueError) as pairs:
            eigen_lowest(op, k)
        assert str(vals_only.value) == str(pairs.value), k


def _assert_values_only_identical(op, k):
    vals = lowest_eigenvalues(op, k)
    assert vals.shape == (k,)
    assert np.array_equal(vals, eigen_lowest(op, k).eigenvalues)


def test_lowest_eigenvalues_identical_on_harmonic_oscillator():
    # the 12001-point operator of the `solver-ho-spectrum` verify check
    grid = Grid(-10.0, 10.0, 12001)
    op = discretize(lambda x: np.ones_like(x), lambda x: x ** 2, grid)
    _assert_values_only_identical(op, 4)


@pytest.mark.parametrize("npoints", [4001, 40001])
@pytest.mark.parametrize("model", [
    Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
    # the x^(-l) barrier puts ~7e34 on the diagonal at 40001 points
    Case2Params(3, Fraction(19, 7), 4),
], ids=["case1", "case2"])
def test_lowest_eigenvalues_identical_on_models(model, npoints):
    k = 10
    lo, hi = default_domain(model, k - 1)
    _assert_values_only_identical(_model_operator(model, k, Grid(lo, hi, npoints)), k)


# ---------------------------------------------------------------------------
# warm start: windows predicted from coarse grids, certified by Sturm counts

def _index_bisection(op, k):
    """Reference: the plain index bisection over the whole spectrum."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, select="i",
                            select_range=(0, k - 1), tol=1e-12)


def _model_op(model, k, npoints):
    lo, hi = default_domain(model, k - 1)
    return _model_operator(model, k, Grid(lo, hi, npoints))


_rational = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))


@st.composite
def _warm_problems(draw):
    alpha = 1 + draw(_rational)
    m = draw(st.integers(1, 4))
    if draw(st.sampled_from((1, 2))) == 1:
        model = Case1Params(draw(_rational), alpha, m)
    else:
        model = Case2Params(draw(st.integers(0, 3)), alpha, m)
    return model, draw(st.integers(1, 12)), draw(st.integers(32009, 40001))


@settings(max_examples=12)
@given(_warm_problems())
def test_warm_start_matches_index_bisection(problem):
    model, k, npoints = problem
    op = _model_op(model, k, npoints)
    assert solver._warm_values(op, k) is not None, "fell back"
    ref = _index_bisection(op, k)
    vals = lowest_eigenvalues(op, k)
    assert np.all(np.abs(vals - ref) <= np.maximum(1e-12, 1e-15 * np.abs(ref)))
    assert np.array_equal(vals, eigen_lowest(op, k).eigenvalues)


def _shift_up_one_level(predict):
    def shifted(op, k):
        centre, half = predict(op, k + 1)
        return centre[1:], half[1:]
    return shifted


def _coarse_grid_raises(discretize_fn):
    def failing(massfn, potfn, grid):
        if grid.npoints == 2001:
            raise ValueError("potential is not finite at node x=0")
        return discretize_fn(massfn, potfn, grid)
    return failing


def _zero_width(predict):
    def zero(op, k):
        centre, half = predict(op, k)
        return centre, np.zeros_like(half)
    return zero


def _level_three_window_empty(predict):
    # level 3's window moved into the middle of the gap above it, a quarter
    # of the gap wide: the windows stay disjoint and the count certificate
    # holds, but that window holds no value
    def empty(op, k):
        centre, half = predict(op, k)
        ref = _index_bisection(op, k)
        gap = ref[4] - ref[3]
        centre[3], half[3] = ref[3] + gap / 2, gap / 8
        return centre, half
    return empty


def _level_one_repeats_level_zero(predict):
    def repeated(op, k):
        centre, half = predict(op, k)
        centre[1], half[1] = centre[0], half[0]
        return centre, half
    return repeated


@pytest.mark.parametrize("name, breaker", [
    ("_predicted_windows", _shift_up_one_level),
    ("discretize", _coarse_grid_raises),
    ("_predicted_windows", _zero_width),
    ("_predicted_windows", _level_three_window_empty),
    ("_predicted_windows", _level_one_repeats_level_zero),
], ids=["shifted-predictions", "coarse-grid-raises", "zero-width-window",
        "empty-window", "overlapping-windows"])
def test_warm_start_falls_back_to_index_bisection(monkeypatch, name, breaker):
    k = 10
    op = _model_op(Case2Params(3, Fraction(19, 7), 4), k, 40001)
    ref = _index_bisection(op, k)
    monkeypatch.setattr(solver, name, breaker(getattr(solver, name)))
    index_solved = []
    index_bisect = solver._index_bisect

    def recording(solved, kk, eigvals_only):
        index_solved.append(solved.size)
        return index_bisect(solved, kk, eigvals_only)

    monkeypatch.setattr(solver, "_index_bisect", recording)
    assert np.array_equal(lowest_eigenvalues(op, k), ref)
    assert np.array_equal(eigen_lowest(op, k).eigenvalues, ref)
    assert index_solved.count(op.size) == 2      # both through the fallback


@pytest.mark.parametrize("breaker, sturm_calls", [
    (_level_one_repeats_level_zero, 0),   # refused before any Sturm count
    (_shift_up_one_level, 1),             # refused by the count certificate
], ids=["overlapping-windows", "shifted-predictions"])
def test_bad_windows_are_refused_before_fine_bisection(monkeypatch, breaker,
                                                       sturm_calls):
    import scipy.linalg

    k = 10
    op = _model_op(Case2Params(3, Fraction(19, 7), 4), k, 40001)
    monkeypatch.setattr(solver, "_predicted_windows",
                        breaker(solver._predicted_windows))
    get_lapack_funcs = scipy.linalg.get_lapack_funcs
    calls = []

    def counting(names, arrays):
        funcs = get_lapack_funcs(names, arrays)
        if names != ("stebz",):
            return funcs

        def stebz(*args):
            calls.append(args[-2])             # the tolerance
            return funcs[0](*args)
        return (stebz,)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    assert solver._warm_values(op, k) is None
    assert calls == [np.inf] * sturm_calls


def test_hand_built_operator_takes_plain_path(monkeypatch):
    k = 10
    op = _model_op(Case1Params(Fraction(3, 2), Fraction(7, 3), 2), k, 40001)
    hand = DiscretizedOperator(diag=op.diag, offdiag=op.offdiag, grid=op.grid)

    def no_windows(op, k):
        raise AssertionError("warm start on a hand-built operator")

    monkeypatch.setattr(solver, "_predicted_windows", no_windows)
    assert np.array_equal(lowest_eigenvalues(hand, k), _index_bisection(hand, k))


def test_eigen_lowest_residuals_small():
    grid = Grid(0.0, math.pi, 500)
    op = discretize(lambda x: np.ones_like(x), lambda x: np.zeros_like(x), grid)
    res = eigen_lowest(op, 4)
    assert np.all(res.residual_norms <= 1e-10 * op.inf_norm())


def test_harmonic_oscillator_spectrum():
    # constant mass 1, V = x^2: eigenvalues 2n+1 in these units
    grid = Grid(-10.0, 10.0, 12001)
    op = discretize(lambda x: np.ones_like(x), lambda x: x ** 2, grid)
    res = eigen_lowest(op, 4)
    np.testing.assert_allclose(res.eigenvalues, [1.0, 3.0, 5.0, 7.0],
                               rtol=1e-5)


# ---------------------------------------------------------------------------
# solve_model against closed-form spectra

def test_solve_model_case1():
    model = Case1Params(1, 2, 2)
    res = solve_model(model, 3)
    expected = [energy(model, n) for n in range(3)]
    np.testing.assert_allclose(res.eigenvalues, expected, rtol=1e-4)


def test_solve_model_case2():
    model = Case2Params(1, 2, 2)
    res = solve_model(model, 3)
    np.testing.assert_allclose(res.eigenvalues, [2.5, 3.5, 4.5], rtol=1e-3)


def test_case2_spectrum_independent_of_eta():
    res_a = solve_model(Case2Params(0, 2, 1), 3)
    res_b = solve_model(Case2Params(2, 2, 1), 3)
    np.testing.assert_allclose(res_a.eigenvalues, res_b.eigenvalues,
                               rtol=0, atol=2e-3)


def test_solve_model_eigenvectors_match_analytic():
    model = Case1Params(1, 2, 1)
    res = solve_model(model, 3)
    xs = res.grid.xs()
    for n in range(3):
        numeric = align_sign(res.eigenvectors[:, n])
        analytic = wavefunction(model, n, xs)
        analytic = align_sign(analytic / np.sqrt(quadrature(analytic ** 2,
                                                            res.grid)))
        assert np.max(np.abs(numeric - analytic)) < 1e-3, n


def _align_sign_loop(values):
    """Reference: the original per-index scan for the first antinode."""
    v = np.asarray(values, dtype=float)
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v
    idx = None
    for i in range(1, v.size - 1):
        if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1] and mags[i] > 1e-3 * top:
            idx = i
            break
    if idx is None:
        idx = int(mags.argmax())
    return -v if v[idx] < 0 else v


def test_align_sign_matches_reference_loop():
    rng = np.random.default_rng(7)
    ramp = np.linspace(-1.0, 2.0, 50)
    cases = [rng.standard_normal(size) for size in (1, 2, 3, 10, 1000)]
    cases += [np.zeros(8), ramp, -ramp, ramp[::-1], -ramp[::-1],
              np.array([-1.0, -1.0, -1.0]), np.array([0.0, -2.0, -2.0, 0.0, 3.0, 0.0]),
              np.array([0.0, 1e-5, 0.0, -3.0, -3.0, 0.0]),
              np.array([-5.0, 2.0, 2.0, 2.0, -5.0]),
              np.array([0.0, -1.0, 0.0, 1.0, 0.0]), np.array([2.0, -2.0])]
    cases += [rng.integers(-2, 3, 40).astype(float) for _ in range(20)]
    for v in cases:
        assert align_sign(v).tobytes() == _align_sign_loop(v).tobytes(), v


def test_solve_model_eigenvectors_orthogonal():
    res = solve_model(Case1Params(1, 2, 1), 3)
    for i in range(3):
        for j in range(i):
            overlap = quadrature(res.eigenvectors[:, i] * res.eigenvectors[:, j],
                                 res.grid)
            assert abs(overlap) < 1e-8, (i, j)


def test_solve_model_gaps_are_flat():
    res = solve_model(Case2Params(3, 2, 1), 4)
    gaps = np.diff(res.eigenvalues)
    assert np.std(gaps) / np.mean(gaps) < 1e-3


def test_solve_model_k_too_large():
    with pytest.raises(ValueError):
        solve_model(Case1Params(1, 2, 1), 100, grid=Grid(-5.0, 5.0, 101))


# ---------------------------------------------------------------------------
# quadrature

def test_quadrature_constant():
    grid = Grid(0.0, 2.0, 201)
    assert quadrature(np.ones(201), grid) == pytest.approx(2.0, rel=1e-14)


def test_quadrature_sine():
    grid = Grid(0.0, math.pi, 1001)
    assert quadrature(np.sin(grid.xs()), grid) == pytest.approx(2.0, abs=1e-8)


def test_quadrature_even_point_count():
    # falls back to the trapezoid rule; still consistent at first order
    grid = Grid(0.0, 1.0, 1000)
    xs = grid.xs()
    assert quadrature(xs, grid) == pytest.approx(0.5, abs=1e-5)


@pytest.mark.parametrize("npoints", [17, 18, 2001, 200001])
def test_quadrature_matches_scipy_rules(npoints):
    from scipy import integrate

    grid = Grid(-1.25, 3.5, npoints)
    rng = np.random.default_rng(npoints)
    for scale in (1.0, 1e-8, 1e12):
        vals = scale * rng.standard_normal(npoints)
        if npoints % 2:
            want = integrate.simpson(vals, dx=grid.h)
        else:
            want = integrate.trapezoid(vals, dx=grid.h)
        assert quadrature(vals, grid) == float(want)


def test_quadrature_shape_mismatch():
    grid = Grid(0.0, 1.0, 101)
    with pytest.raises(ValueError):
        quadrature(np.ones(100), grid)


# ---------------------------------------------------------------------------
# convergence order

def test_convergence_order_harmonic_oscillator():
    p = convergence_order((lambda x: np.ones_like(x), lambda x: x ** 2,
                           -8.0, 8.0), level=3)
    assert abs(p - 2.0) <= 0.2


def test_convergence_order_case1():
    p = convergence_order(Case1Params(1, 2, 1), level=3)
    assert 1.8 <= p <= 2.2


def test_convergence_order_needs_three_grids():
    with pytest.raises(ValueError):
        convergence_order(Case1Params(1, 2, 1), level=1)
