"""Tests for the flux-form finite-difference eigensolver.

Calibration targets with known exact spectra: the Dirichlet Laplacian on
[0, pi] (eigenvalues n^2) and the constant-mass harmonic oscillator in
these units (eigenvalues 2n+1).  The position-dependent-mass models are
then checked against their closed-form linear spectra.
"""
import ctypes
import functools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmlag import solver
from pdmlag.checks import convergence_order
from pdmlag.models import (Case1Params, Case2Params, default_domain, energy,
                           mass, v_eff, wavefunction)
from pdmlag.solver import (DiscretizedOperator, Grid, _model_operator,
                           align_sign, discretize, eigen_lowest,
                           lowest_eigenvalues, quadrature, solve_model)


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


def test_grid_npoints_follows_the_package_integer_rule():
    # the rule of m, eta, n and XmFamilySpec.m: a numpy integer is taken
    # and stored as int; a bool, a float or too few points keep the message
    grid = Grid(0, 1, np.int64(101))
    assert grid.npoints == 101 and type(grid.npoints) is int
    assert grid == Grid(0, 1, 101)
    for bad in (True, 101.0, 15):
        with pytest.raises(ValueError, match=f"^npoints must be an integer >= 16, "
                                             f"got {bad!r}$"):
            Grid(0.0, 1.0, bad)


def test_grid_geometry():
    grid = Grid(0.0, 1.0, 101)
    assert grid.h == pytest.approx(0.01)
    xs = grid.xs()
    assert xs.shape == (101,)
    assert xs[0] == 0.0 and xs[-1] == 1.0
    interior = grid.interior()
    assert interior.shape == (99,)
    assert interior[0] == pytest.approx(0.01)


def test_grid_refuses_a_span_that_overflows():
    # both ends are finite, but hi - lo is not: h would be inf and xs() NaN
    with pytest.raises(ValueError, match=r"^grid span hi - lo overflows"):
        Grid(-1e308, 1e308, 101)


def test_discretize_refuses_a_spacing_whose_square_overflows():
    # h = 1e198 is a float and h^2 is not: a ValueError, never an
    # OverflowError, and before any coefficient is sampled
    def unreachable(x):
        raise AssertionError("a coefficient was sampled")

    with pytest.raises(ValueError, match=r"square of its spacing 1e\+198 "
                                         r"overflows$"):
        discretize(unreachable, unreachable, Grid(0.0, 1e200, 101))


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


def _discretize_in_one_piece(massfn, potfn, grid):
    """Reference: the flux-form matrix from whole-grid arrays, with the
    errors `discretize` raises."""
    xs = grid.xs()
    mid = 0.5 * (xs[:-1] + xs[1:])
    mvals = np.broadcast_to(np.asarray(massfn(mid), dtype=float), mid.shape)
    ok = np.isfinite(mvals) & (mvals > 0)
    if not ok.all():
        raise ValueError(f"mass is not positive and finite at midpoint "
                         f"x={mid[~ok][0]}")
    nodes = xs[1:-1]
    vvals = np.broadcast_to(np.asarray(potfn(nodes), dtype=float), nodes.shape)
    if not np.all(np.isfinite(vvals)):
        raise ValueError(f"potential is not finite at node "
                         f"x={nodes[~np.isfinite(vvals)][0]}")
    a = 1.0 / mvals
    return (a[:-1] + a[1:]) / grid.h ** 2 + vvals, -a[1:-1] / grid.h ** 2


_BLOCK_EDGES = [solver._BLOCK + extra for extra in (-1, 0, 1, 2, 3)] + [
    2 * solver._BLOCK + 2, 2 * solver._BLOCK + 3]


@pytest.mark.parametrize("npoints", [16, 17, 4001] + _BLOCK_EDGES)
@pytest.mark.parametrize("model", [
    Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
    Case2Params(3, Fraction(19, 7), 4),
], ids=["case1", "case2"])
def test_discretize_in_blocks_is_bitwise_one_piece(model, npoints):
    # grids that end just before, at and just after a block edge, so that
    # a last block may hold one or two points; scalar coefficients
    # broadcast in every block
    grid = Grid(*default_domain(model, 9), npoints)
    for massfn, potfn in ((lambda t: mass(model, t), lambda t: v_eff(model, t)),
                          (lambda t: 2.5, lambda t: v_eff(model, t)),
                          (lambda t: mass(model, t), lambda t: -1.0)):
        op = discretize(massfn, potfn, grid)
        diag, offdiag = _discretize_in_one_piece(massfn, potfn, grid)
        assert op.diag.tobytes() == diag.tobytes()
        assert op.offdiag.tobytes() == offdiag.tobytes()


def _message(build):
    with pytest.raises(ValueError) as err:
        build()
    return str(err.value)


@pytest.mark.parametrize("mass_bad, potential_bad", [
    ("last", "first"), ("first", "last"), ("none", "first"), ("none", "last"),
    ("first", "none"), ("last", "none"), ("every", "every"),
])
def test_discretize_checks_every_mass_before_any_potential(mass_bad,
                                                           potential_bad):
    # three full blocks and a short fourth; "first" is bad only in the first
    # block, "last" only in the last
    grid = Grid(0.0, 1.0, 3 * solver._BLOCK + 6)
    xs = grid.xs()
    cut = {"first": lambda x: x < xs[5], "last": lambda x: x > xs[-4],
           "every": lambda x: (x < xs[5]) | (x > xs[-4]),
           "none": lambda x: np.zeros(x.shape, dtype=bool)}
    massfn = lambda x: np.where(cut[mass_bad](x), -1.0, 1.0 + x)
    potfn = lambda x: np.where(cut[potential_bad](x), np.nan, x * x)
    want = _message(lambda: _discretize_in_one_piece(massfn, potfn, grid))
    assert want.startswith("mass" if mass_bad != "none" else "potential")
    assert _message(lambda: discretize(massfn, potfn, grid)) == want


@pytest.mark.parametrize("model", [
    Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
    Case2Params(3, Fraction(19, 7), 4),
], ids=["case1", "case2"])
def test_discretize_allocates_little_beyond_the_matrix(model):
    # the grid, the diagonal and the off-diagonal take 4.8 MB at 200001
    # points; the bound leaves 3.2 MB for everything else
    grid = Grid(*default_domain(model, 9), 200001)
    tracemalloc.start()
    try:
        _model_operator(model, 10, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, peak


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


def test_k_follows_the_package_integer_rule():
    # a numpy integer is taken as its int; a bool, a float or an integer out
    # of range keeps the range message
    op = DiscretizedOperator(diag=np.array([2.0, 2.0]),
                             offdiag=np.array([-1.0]))
    assert np.array_equal(lowest_eigenvalues(op, np.int64(1)),
                          lowest_eigenvalues(op, 1))
    assert np.array_equal(eigen_lowest(op, np.int64(2)).eigenvectors,
                          eigen_lowest(op, 2).eigenvectors)
    for bad in (True, 1.0, np.float64(1.0), 0, np.int64(3)):
        for solve in (lowest_eigenvalues, eigen_lowest):
            with pytest.raises(ValueError) as err:
                solve(op, bad)
            assert str(err.value) == f"k must be in 1..2, got {bad!r}"


def test_matrix_whose_squares_overflow_is_refused_before_either_path(
        monkeypatch):
    # Sturm counts square the off-diagonal, and past sqrt(max double)
    # bisection finds no value: Case 2 at eta = 25 on the default 4001
    # points, and at eta = 19 on 40001, where the warm start would run
    top = math.sqrt(np.finfo(float).max)
    edge = DiscretizedOperator(diag=np.zeros(2), offdiag=np.array([top]))
    np.testing.assert_allclose(lowest_eigenvalues(edge, 2), [-top, top],
                               rtol=1e-12)
    above = math.nextafter(top, math.inf)
    over = DiscretizedOperator(diag=np.zeros(2), offdiag=np.array([above]))
    ops = [(over, 2), (_model_op(Case2Params(25, 2, 1), 4, 4001), 4),
           (_model_op(Case2Params(19, 2, 1), 4, 40001), 4)]

    def unreachable(*args):
        raise AssertionError("a solver path ran")

    monkeypatch.setattr(solver, "_stebz", unreachable)
    monkeypatch.setattr(solver, "_warm_values", unreachable)
    for op, k in ops:
        for solve in (lowest_eigenvalues, eigen_lowest):
            with pytest.raises(ValueError, match="^the matrix leaves double "
                                                 "precision: the square of"):
                solve(op, k)


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

def _index_bisection(op, k, vectors=False):
    """Reference: the plain index bisection over the whole spectrum, by
    scipy's `eigh_tridiagonal` (with inverse-iteration vectors if asked)."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=not vectors,
                            select="i", select_range=(0, k - 1), tol=1e-12)


def _model_op(model, k, npoints):
    lo, hi = default_domain(model, k - 1)
    return _model_operator(model, k, Grid(lo, hi, npoints))


def _dstebz_windows(op, k):
    """Reference: the warm start as one `dstebz` call per window, each
    setting up its own bisection (splitting, norm, Gershgorin interval),
    widened as `solver._warm_values` widens, then one count of the values
    between the Gershgorin bound and the top window's final end.  Returns
    the values and whether a window was widened, or None where the windows
    cannot be certified."""
    centre, half = solver._predicted_windows(op, k)
    lower, upper = centre - half, centre + half
    assert np.all(lower < upper) and np.all(upper[:-1] <= lower[1:])
    d, e = op.diag, op.offdiag
    vals = np.empty(k)
    todo, widened = range(k), False
    for _ in range(solver._WIDEN_TRIES + 1):
        empty = []
        for j in todo:
            m, w, info = solver._stebz(d, e, b"V", lower[j], upper[j], 1, 1,
                                       solver._BISECT_TOL)
            if info or m > 1:
                return None
            if m == 0:
                empty.append(j)
            else:
                vals[j] = w[0]
        if not empty:
            break
        widened = True
        for j in empty:
            half[j] *= solver._WIDEN_FACTOR
            lower[j] = max(centre[j] - half[j], upper[j - 1] if j else -np.inf)
            upper[j] = min(centre[j] + half[j],
                           lower[j + 1] if j + 1 < k else np.inf)
        todo = empty
    else:
        return None
    dmin, emax = float(d.min()), float(np.abs(e).max())
    eps = np.finfo(float).eps
    floor = min(dmin - 2 * emax - 4 * eps * (abs(dmin) + 2 * emax), lower[0])
    m, _, info = solver._stebz(d, e, b"V", floor, upper[-1], 1, 1, np.inf)
    if info or m != k:
        return None
    return vals, widened


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


def test_warm_values_are_the_dstebz_oracle_where_the_relative_tolerance_decides():
    # levels near 1e5: `dstebz`'s relative tolerance of 2 ulp (4.4e-11 here)
    # stops the bisection, not the absolute 1e-12
    k = 6
    op = _model_op(Case1Params(Fraction(3, 2), Fraction(7, 3), 2, 10 ** 5),
                   k, 40001)
    warm = solver._warm_values(op, k)
    assert warm is not None, "fell back"
    assert warm.tobytes() == _dstebz_windows(op, k)[0].tobytes()


@settings(max_examples=12)
@given(_warm_problems())
def test_warm_start_matches_index_bisection(problem):
    model, k, npoints = problem
    op = _model_op(model, k, npoints)
    warm = solver._warm_values(op, k)
    assert warm is not None, "fell back"
    assert warm.tobytes() == _dstebz_windows(op, k)[0].tobytes()
    ref = _index_bisection(op, k)
    vals = lowest_eigenvalues(op, k)
    assert np.all(np.abs(vals - ref) <= np.maximum(1e-12, 1e-15 * np.abs(ref)))
    assert np.array_equal(vals, eigen_lowest(op, k).eigenvalues)


def _benchmark_space(seed, count):
    """Models drawn as the fd-spectrum benchmark draws them: either case,
    b in (1/3, 2] and alpha in (1, 4] with denominators up to 3 and 7,
    eta 0..3, m 1..4, 4..10 levels and 32009..40001 points."""
    rng = random.Random(seed)
    b = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(q // 3 + 1,
                                                                  2 * q + 1)})
    alpha = sorted({Fraction(p, q) for q in range(1, 8)
                    for p in range(q + 1, 4 * q + 1)})
    for _ in range(count):
        a, m = rng.choice(alpha), rng.randint(1, 4)
        model = (Case1Params(rng.choice(b), a, m) if rng.random() < 0.5
                 else Case2Params(rng.randint(0, 3), a, m))
        yield model, rng.randint(4, 10), rng.randint(32009, 40001)


# five models whose FD error is smooth in h^2, then two where the prediction
# errs most (Case 2 eta=0 alpha=5/4: by up to 48 times its estimate)
_WARM_MODELS = [Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
                Case1Params(Fraction(1, 3), Fraction(4), 4),
                Case2Params(3, Fraction(19, 7), 4),
                Case2Params(0, Fraction(7, 2), 3),
                Case2Params(1, Fraction(6, 5), 2),
                Case1Params(Fraction(2), Fraction(5, 4), 1),
                Case2Params(0, Fraction(5, 4), 1)]


def _label(model, k, npoints):
    shape = (f"b={model.b}" if isinstance(model, Case1Params)
             else f"eta={model.eta}")
    return f"{shape}-alpha={model.alpha}-m={model.m}-k={k}-{npoints}"


_NO_FALLBACK = [*_benchmark_space(18, 16),
                *((model, k, 40001) for k in (20, 40) for model in _WARM_MODELS)]


@pytest.mark.parametrize("model, k, npoints", _NO_FALLBACK,
                         ids=[_label(*problem) for problem in _NO_FALLBACK])
def test_warm_start_never_falls_back(monkeypatch, model, k, npoints):
    op = _model_op(model, k, npoints)
    fine = []
    stebz = solver._stebz

    def recording(d, e, select, *args):
        if d.size == op.size:               # index bisection of the fine grid
            fine.append(select)
        return stebz(d, e, select, *args)

    monkeypatch.setattr(solver, "_stebz", recording)
    vals = lowest_eigenvalues(op, k)
    assert fine == []
    ref = _index_bisection(op, k)
    assert np.all(np.abs(vals - ref) <= np.maximum(1e-12, 1e-15 * np.abs(ref)))


def _counting_passes(monkeypatch):
    """Sturm passes over the fine matrix, recorded per `_laebz` call: two
    per pair of endpoint counts, one per halving of a bisected window.  The
    host is too noisy to time."""
    counted = []
    laebz = solver._laebz

    def counting(ijob, d, e, e2, pivmin, ab, nab, nitmax=0):
        width = ab[1] - ab[0]
        info = laebz(ijob, d, e, e2, pivmin, ab, nab, nitmax)
        counted.append(2 if ijob == 1
                       else round(math.log2(width / (ab[1] - ab[0]))))
        return info

    monkeypatch.setattr(solver, "_laebz", counting)
    return counted


@pytest.mark.parametrize("model, npoints, passes", [
    (Case1Params(Fraction(3, 2), Fraction(7, 3), 2), 40001, 153),
    (Case1Params(Fraction(3, 2), Fraction(7, 3), 2), 200001, 162),
    (Case2Params(3, Fraction(19, 7), 4), 40001, 127),
    (Case2Params(3, Fraction(19, 7), 4), 200001, 146),
    # the x^(-2) barrier makes the FD error non-analytic in h^2: the
    # predictions err by tens of half-widths, and every window widens
    (Case2Params(0, Fraction(5, 4), 1), 40001, 281),
    (Case2Params(0, Fraction(5, 4), 1), 200001, 249),
], ids=["case1", "case1-200001", "case2", "case2-200001", "case2-eta0",
        "case2-eta0-200001"])
def test_warm_start_cost_in_sturm_passes(monkeypatch, model, npoints, passes):
    # one warm solve of 10 levels; the window floor scales with the grid,
    # so the two sizes differ
    k = 10
    op = _model_op(model, k, npoints)
    counted = _counting_passes(monkeypatch)
    assert solver._warm_values(op, k) is not None, "fell back"
    assert sum(counted) == passes


def test_warm_start_cost_over_the_benchmark_space(monkeypatch):
    # the fine-grid passes of the 16 models `test_warm_start_never_falls_back`
    # draws: windows widened for no gain show here, not only in timings
    counted = _counting_passes(monkeypatch)
    for model, k, npoints in _benchmark_space(18, 16):
        assert solver._warm_values(_model_op(model, k, npoints), k) is not None
    assert sum(counted) == 1471


def test_warm_start_makes_one_thread_pool(monkeypatch):
    # the coarse solves, the counts and the bisections share it
    import concurrent.futures

    pools = []
    executor = concurrent.futures.ThreadPoolExecutor

    def recording(*args, **kwargs):
        pools.append(args)
        return executor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    op = _model_op(Case2Params(0, Fraction(5, 4), 1), 10, 40001)  # widens
    assert solver._warm_values(op, 10) is not None, "fell back"
    assert len(pools) == 1


def _shift_up_one_level(predict):
    def shifted(op, k, *pmap):
        centre, half = predict(op, k + 1, *pmap)
        return centre[1:], half[1:]
    return shifted


def _coarse_grid_raises(discretize_fn):
    def failing(massfn, potfn, grid):
        if grid.npoints == 2001:
            raise ValueError("potential is not finite at node x=0")
        return discretize_fn(massfn, potfn, grid)
    return failing


def _zero_width(predict):
    def zero(op, k, *pmap):
        centre, half = predict(op, k, *pmap)
        return centre, np.zeros_like(half)
    return zero


def _level_three_window_empty(predict):
    # level 3's window moved into the middle of the gap above it, a quarter
    # of the gap wide: the windows stay disjoint and the count certificate
    # holds, but that window holds no value
    def empty(op, k, *pmap):
        centre, half = predict(op, k, *pmap)
        ref = _index_bisection(op, k)
        gap = ref[4] - ref[3]
        centre[3], half[3] = ref[3] + gap / 2, gap / 8
        return centre, half
    return empty


def _level_three_window_out_of_reach(predict):
    # level 3's window in the middle of the gap above it, as above, but so
    # narrow that widened `_WIDEN_TRIES` times it reaches only a quarter of
    # the way to either level
    def far(op, k, *pmap):
        centre, half = predict(op, k, *pmap)
        ref = _index_bisection(op, k)
        gap = ref[4] - ref[3]
        centre[3] = ref[3] + gap / 2
        half[3] = gap / (4 * solver._WIDEN_FACTOR ** solver._WIDEN_TRIES)
        return centre, half
    return far


def _level_one_repeats_level_zero(predict):
    def repeated(op, k, *pmap):
        centre, half = predict(op, k, *pmap)
        centre[1], half[1] = centre[0], half[0]
        return centre, half
    return repeated


@pytest.mark.parametrize("name, breaker, falls_back", [
    ("_predicted_windows", _shift_up_one_level, True),
    ("discretize", _coarse_grid_raises, True),
    ("_predicted_windows", _zero_width, True),
    ("_predicted_windows", _level_three_window_empty, False),  # widened
    ("_predicted_windows", _level_one_repeats_level_zero, True),
    ("_predicted_windows", _level_three_window_out_of_reach, True),
], ids=["shifted-predictions", "coarse-grid-raises", "zero-width-window",
        "empty-window", "overlapping-windows", "window-out-of-reach"])
def test_warm_start_falls_back_to_index_bisection(monkeypatch, name, breaker,
                                                  falls_back):
    k = 10
    op = _model_op(Case2Params(3, Fraction(19, 7), 4), k, 40001)
    ref = _index_bisection(op, k)
    monkeypatch.setattr(solver, name, breaker(getattr(solver, name)))
    index_solved = []
    stebz = solver._stebz

    def recording(d, e, select, *args):
        if select == b"I":                  # index bisection
            index_solved.append(d.size)
        return stebz(d, e, select, *args)

    monkeypatch.setattr(solver, "_stebz", recording)
    vals = lowest_eigenvalues(op, k)
    assert np.array_equal(eigen_lowest(op, k).eigenvalues, vals)
    if falls_back:
        assert np.array_equal(vals, ref)
        assert index_solved.count(op.size) == 2  # both through the fallback
    else:
        assert index_solved.count(op.size) == 0
        assert np.all(np.abs(vals - ref) <= 1e-12)
        oracle, widened = _dstebz_windows(op, k)
        assert widened and vals.tobytes() == oracle.tobytes()


def test_warm_start_widens_a_window_missed_by_rounding():
    # one of the benchmark's spectrum ops: at 200001 points level 0 lies
    # 1.9e-9 relative below its prediction, outside its window, whose
    # half-width is the 1e-9 relative floor; without widening this solve
    # fell back
    k = 4
    op = _model_op(Case2Params(1, Fraction(15, 7), 3), k, 200001)
    warm = solver._warm_values(op, k)
    assert warm is not None, "fell back"
    assert np.all(np.abs(warm - _index_bisection(op, k)) <= 1e-12)
    oracle, widened = _dstebz_windows(op, k)
    assert widened and warm.tobytes() == oracle.tobytes()


def _levels_at_the_window_ends(predict):
    # level j in the outermost 2^-(steps + 1) of its window, at the lower end
    # for even j and the upper end for odd j: every probe of the first
    # `_PROBE_STEPS` steps moves the other end
    def edged(op, k, *pmap):
        centre, half = predict(op, k, *pmap)
        offset = half * (1 - 2.0 ** -solver._PROBE_STEPS)
        return (_index_bisection(op, k)
                + np.where(np.arange(k) % 2, -offset, offset)), half
    return edged


@pytest.mark.parametrize("model", [
    Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
    Case2Params(3, Fraction(19, 7), 4),
], ids=["case1", "case2"])
def test_window_with_an_end_no_probe_moved_is_counted(monkeypatch, model):
    k = 10
    op = _model_op(model, k, 40001)
    monkeypatch.setattr(solver, "_predicted_windows",
                        _levels_at_the_window_ends(solver._predicted_windows))
    calls = []
    laebz = solver._laebz

    def recording(ijob, *args, **kwargs):
        calls.append(ijob)
        return laebz(ijob, *args, **kwargs)

    monkeypatch.setattr(solver, "_laebz", recording)
    warm = solver._warm_values(op, k)
    assert warm is not None, "fell back"
    # each window: its probes, the count of its ends, the rest of its steps
    assert sorted(calls) == [1] * k + [2] * (2 * k)
    oracle, widened = _dstebz_windows(op, k)
    assert not widened and warm.tobytes() == oracle.tobytes()


_PERTURBED = [Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
              Case2Params(3, Fraction(19, 7), 4)]


@functools.cache
def _perturbed_problem(index):
    """A 10-level problem at 40001 points, its predicted windows and its
    index-bisected levels."""
    op = _model_op(_PERTURBED[index], 10, 40001)
    return op, solver._predicted_windows(op, 10), _index_bisection(op, 10)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, len(_PERTURBED) - 1),
       st.lists(st.floats(-3, 3), min_size=10, max_size=10))
def test_perturbed_windows_give_their_own_level(index, shifts):
    # centres moved by up to 3 half-widths: a window certified by its probes,
    # by a count, or after widening gives level j, never another level
    op, (centre, half), ref = _perturbed_problem(index)
    moved = centre + np.array(shifts) * half
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_predicted_windows",
                      lambda op, k, *pmap: (moved.copy(), half.copy()))
        warm = solver._warm_values(op, 10)
    # one widening by `_WIDEN_FACTOR` reaches every level, so none falls back
    assert warm is not None, "fell back"
    assert np.all(np.abs(warm - ref) <= np.maximum(1e-12, 1e-15 * np.abs(ref)))


@pytest.mark.parametrize("model", [
    Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
    Case2Params(3, Fraction(19, 7), 4),
], ids=["case1", "case2"])
def test_warm_start_allocates_little_beyond_the_matrix(model):
    # one array of squared off-diagonal entries and the coarse grids: at
    # most three arrays of the matrix's size (a per-window `dstebz`
    # workspace alone is ten)
    k = 10
    op = _model_op(model, k, 200001)
    assert solver._warm_values(op, k) is not None, "fell back"
    tracemalloc.start()
    try:
        lowest_eigenvalues(op, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * op.size, peak


@pytest.mark.parametrize("model", [
    Case1Params(Fraction(3, 2), Fraction(7, 3), 2),
    Case2Params(3, Fraction(19, 7), 4),
], ids=["case1", "case2"])
def test_warm_start_does_not_depend_on_thread_count(monkeypatch, model):
    k = 10
    op = _model_op(model, k, 40001)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(solver, "_WORKERS", workers)
        assert solver._warm_values(op, k) is not None, "fell back"
        res = eigen_lowest(op, k)
        runs.append((lowest_eigenvalues(op, k), res.eigenvalues,
                     res.eigenvectors))
    for one, two in zip(*runs):
        assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("breaker, sequence", [
    (_level_one_repeats_level_zero, []),   # refused before any Sturm count
    # every window holds the level above its own, so no probe moves its
    # lower end: refused by the counts that follow each window's probes
    (_shift_up_one_level, [2, 1] * 10),
], ids=["overlapping-windows", "shifted-predictions"])
def test_bad_windows_are_refused_before_fine_bisection(monkeypatch, breaker,
                                                       sequence):
    k = 10
    op = _model_op(Case2Params(3, Fraction(19, 7), 4), k, 40001)
    monkeypatch.setattr(solver, "_WORKERS", 1)     # the calls in order
    monkeypatch.setattr(solver, "_predicted_windows",
                        breaker(solver._predicted_windows))
    stebz, laebz = solver._stebz, solver._laebz
    calls = []

    def stebz_counting(d, e, *args):
        if d.size == op.size:                 # not a coarse-grid solve
            calls.append("dstebz")
        return stebz(d, e, *args)

    def laebz_counting(ijob, *args, **kwargs):
        calls.append(ijob)                    # 1: endpoint counts, 2: bisection
        return laebz(ijob, *args, **kwargs)

    monkeypatch.setattr(solver, "_stebz", stebz_counting)
    monkeypatch.setattr(solver, "_laebz", laebz_counting)
    assert solver._warm_values(op, k) is None
    assert calls == sequence


def test_hand_built_operator_takes_plain_path(monkeypatch):
    k = 10
    op = _model_op(Case1Params(Fraction(3, 2), Fraction(7, 3), 2), k, 40001)
    hand = DiscretizedOperator(diag=op.diag, offdiag=op.offdiag, grid=op.grid)

    def no_windows(op, k, *pmap):
        raise AssertionError("warm start on a hand-built operator")

    monkeypatch.setattr(solver, "_predicted_windows", no_windows)
    assert np.array_equal(lowest_eigenvalues(hand, k), _index_bisection(hand, k))


def test_warm_start_declines_a_matrix_that_splits(monkeypatch):
    # `dstebz` would bisect a split matrix block by block, so its values
    # come from the plain path
    assert solver._sturm_squares(_split_operator().diag,
                                 _split_operator().offdiag) is None
    k = 10
    op = _model_op(Case1Params(Fraction(3, 2), Fraction(7, 3), 2), k, 40001)
    e2, pivmin = solver._sturm_squares(op.diag, op.offdiag)
    assert e2.tobytes() == (op.offdiag * op.offdiag).tobytes()
    assert pivmin == max(1.0, float(e2.max())) * np.finfo(float).tiny
    monkeypatch.setattr(solver, "_sturm_squares", lambda d, e: None)
    assert solver._warm_values(op, k) is None
    assert np.array_equal(lowest_eigenvalues(op, k), _index_bisection(op, k))


def _split_operator():
    # 300 rows whose off-diagonal has three zeros: four blocks, which the
    # bisection treats one by one and the inverse iteration as one
    rng = np.random.default_rng(300)
    offdiag = rng.standard_normal(299)
    offdiag[[50, 140, 220]] = 0.0
    return DiscretizedOperator(diag=3.0 * rng.standard_normal(300),
                               offdiag=offdiag)


_ORACLE_CASES = [
    pytest.param(lambda: DiscretizedOperator(diag=np.array([3.5]),
                                             offdiag=np.array([])), 1,
                 id="1x1"),
    pytest.param(lambda: DiscretizedOperator(diag=np.array([2.0, 2.0]),
                                             offdiag=np.array([-1.0])), 2,
                 id="2x2"),
    pytest.param(_split_operator, 30, id="300x300-split"),
] + [
    pytest.param(lambda model=model, npoints=npoints:
                 _model_op(model, 10, npoints), 10, id=f"{name}-{npoints}")
    for name, model in (("case1", Case1Params(Fraction(3, 2), Fraction(7, 3), 2)),
                        ("case2", Case2Params(3, Fraction(19, 7), 4)))
    for npoints in (4001, 12001)
]


def _one_block_stein(op, vals):
    """Reference vectors: scipy's `dstein` on `vals` with the whole matrix
    as one block (block index all ones, one split at n)."""
    from scipy.linalg.lapack import dstein

    n = op.size
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    vecs, info = dstein(op.diag, op.offdiag, vals, np.ones(n, dtype=np.int32),
                        isplit)
    assert info == 0
    return vecs


@pytest.mark.parametrize("build, k", _ORACLE_CASES)
def test_plain_path_is_bitwise_the_scipy_oracle(build, k):
    op = build()
    ref_vals, ref_vecs = _index_bisection(op, k, vectors=True)
    split = build is _split_operator
    if split:
        # `eigen_lowest` takes the matrix as one block, where scipy's
        # `eigh_tridiagonal` iterates block by block
        ref_vecs = _one_block_stein(op, ref_vals)
    res = eigen_lowest(op, k)
    assert lowest_eigenvalues(op, k).tobytes() == ref_vals.tobytes()
    assert res.eigenvalues.tobytes() == ref_vals.tobytes()
    for j in range(k):
        v = np.ascontiguousarray(ref_vecs[:, j])
        v /= np.linalg.norm(v)              # as `eigen_lowest` normalises
        assert res.eigenvectors[:, j].tobytes() == v.tobytes(), j
    if split:
        vecs = res.eigenvectors
        assert np.all(res.residual_norms <= 1e-12 * op.inf_norm())
        assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 1e-14


def _verify_fd_operators():
    """The matrices that `verify`'s FD checks solve: the oracle spectra and
    isochronous gaps at delta 0, the SUSY partners' spectra, and the
    harmonic-oscillator grids of the spectrum and order checks."""
    from pdmlag.susy import partner_model

    problems = [(Case1Params(1, 2, m), 3) for m in (1, 2, 3, 4)]
    problems += [(Case2Params(eta, 2, m), 4)
                 for eta in (0, 1, 2, 3) for m in (1, 2)]
    problems += [(Case2Params(eta, 2, 1), 4) for eta in (0, 1, 2, 3)]
    problems += [(partner_model(model).comparison, 3)
                 for model in (Case1Params.susy_zero(1, 2, 1),
                               Case2Params.susy_zero(1, 2, 2))]
    ops = [_model_operator(model, k) for model, k in problems]
    return ops + [discretize(lambda t: np.ones_like(t), lambda t: t ** 2,
                             Grid(-10.0, 10.0, npoints))
                  for npoints in (12001, 251, 501, 1001)]


def test_model_operators_never_split():
    # `eigen_lowest`'s one-block `dstein` call gives the vectors of a
    # per-block call bit for bit only where `dstebz` finds one block
    built = [case.values[0]() for case in _ORACLE_CASES]
    ops = [op for op in built if op.coefficients is not None]
    ops += [_model_op(model, k, 40001) for model in _WARM_MODELS
            for k in (10, 40)]
    ops += _verify_fd_operators()
    assert len(ops) == 4 + 14 + 22
    for op in ops:
        assert solver._sturm_squares(op.diag, op.offdiag) is not None


def _raise(*args, **kwargs):
    raise AssertionError("scipy's own LAPACK wrappers were called")


def test_every_solve_binds_only_dstebz_and_dstein(monkeypatch):
    # and `dlaebz`, which the warm windows call: the three routines of
    # `solver._binding`, and nothing of scipy's
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", _raise)
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", _raise)
    names = []
    lapack = solver._lapack

    def recording(name):
        names.append(name)
        return lapack(name)

    monkeypatch.setattr(solver, "_lapack", recording)
    k = 10
    model = Case2Params(3, Fraction(19, 7), 4)
    for npoints in (4001, 40001):           # the plain path, then the warm one
        op = _model_op(model, k, npoints)
        assert lowest_eigenvalues(op, k).shape == (k,)
        assert eigen_lowest(op, k).eigenvectors.shape == (op.size, k)
    monkeypatch.setattr(solver, "_predicted_windows",
                        _shift_up_one_level(solver._predicted_windows))
    assert eigen_lowest(op, k).eigenvectors.shape == (op.size, k)  # fallback
    assert set(names) == {"dstebz", "dstein", "dlaebz"}


# ---------------------------------------------------------------------------
# the two LAPACK sources: numpy's own OpenBLAS and scipy.linalg.cython_lapack

_needs_numpy_lapack = pytest.mark.skipif(
    solver._numpy_lapack() is None,
    reason="numpy exports no dstebz/dstein of its own")


@pytest.fixture
def rebind():
    """Clears the cached binding before the test and after it, so a source
    forced here neither leaks out nor is hidden by an earlier binding."""
    solver._binding.cache_clear()
    yield solver._binding.cache_clear
    solver._binding.cache_clear()


def _address(routine):
    return ctypes.cast(routine, ctypes.c_void_p).value


_CASE1 = Case1Params(Fraction(3, 2), Fraction(7, 3), 2)
_CASE2 = Case2Params(3, Fraction(19, 7), 4)


@_needs_numpy_lapack
@pytest.mark.parametrize("build, k, path", [
    (lambda: _model_op(_CASE1, 10, 4001), 10, "plain"),
    (lambda: _model_op(_CASE1, 10, 12001), 10, "plain"),
    (lambda: _model_op(_CASE2, 10, 4001), 10, "plain"),
    (lambda: _model_op(_CASE2, 10, 12001), 10, "plain"),
    (lambda: _model_op(_CASE1, 10, 40001), 10, "warm"),
    (lambda: _model_op(_CASE2, 10, 40001), 10, "warm"),
    (lambda: _model_op(_CASE2, 10, 40001), 10, "fallback"),
    (_split_operator, 30, "plain"),
], ids=["case1-4001", "case1-12001", "case2-4001", "case2-12001",
        "case1-40001-warm", "case2-40001-warm", "case2-40001-fallback",
        "300x300-split"])
def test_both_lapack_sources_give_the_same_bits(monkeypatch, rebind, build,
                                                k, path):
    op = build()
    if path == "fallback":
        monkeypatch.setattr(solver, "_predicted_windows",
                            _shift_up_one_level(solver._predicted_windows))
    runs = []
    for integer in (ctypes.c_int64, ctypes.c_int):
        if integer is ctypes.c_int:         # hide numpy's symbols
            monkeypatch.setattr(solver, "_numpy_lapack", lambda: None)
            rebind()
        assert solver._lapack("dstebz")[1] is integer
        if path != "plain":
            warm = solver._warm_values(op, k)
            assert (warm is not None) == (path == "warm")
        res = eigen_lowest(op, k)
        runs.append((lowest_eigenvalues(op, k), res.eigenvalues,
                     res.eigenvectors, res.residual_norms))
    for ours, scipys in zip(*runs):
        assert ours.tobytes() == scipys.tobytes()


@_needs_numpy_lapack
@pytest.mark.parametrize("missing", [0, 1, 2], ids=list(solver._ROUTINES))
def test_one_numpy_symbol_alone_falls_back_for_both(monkeypatch, rebind,
                                                    missing):
    # any one of the three symbols missing takes all three from scipy
    symbols = list(solver._NUMPY_SYMBOLS)
    symbols[missing] = "pdmlag_no_such_symbol_"
    monkeypatch.setattr(solver, "_NUMPY_SYMBOLS", tuple(symbols))
    assert solver._numpy_lapack() is None
    bound = [solver._lapack(name) for name in solver._ROUTINES]
    assert all(integer is ctypes.c_int for _, integer in bound)
    assert tuple(_address(routine) for routine, _ in bound) == \
        solver._scipy_lapack()
    op = _split_operator()
    assert eigen_lowest(op, 30).eigenvalues.tobytes() == \
        _index_bisection(op, 30).tobytes()
    op = _model_op(_CASE2, 10, 40001)
    warm = solver._warm_values(op, 10)
    assert warm is not None, "fell back"
    assert warm.tobytes() == _dstebz_windows(op, 10)[0].tobytes()


@pytest.mark.parametrize("npoints", [4001, 40001])   # plain path, warm path
@pytest.mark.parametrize("index, value", [
    (0, math.inf), ("middle", math.inf), (-1, math.inf), ("middle", math.nan),
], ids=["first-inf", "middle-inf", "last-inf", "middle-nan"])
def test_non_finite_operator_is_refused_on_either_path(npoints, index, value):
    k = 5
    op = _model_op(Case1Params(Fraction(3, 2), Fraction(7, 3), 2), k, npoints)
    diag = op.diag.copy()
    diag[op.size // 2 if index == "middle" else index] = value
    bad = DiscretizedOperator(diag=diag, offdiag=op.offdiag, grid=op.grid,
                              coefficients=op.coefficients)
    for solve in (lowest_eigenvalues, eigen_lowest):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            solve(bad, k)


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


def test_convergence_order_level_follows_the_package_integer_rule():
    problem = (lambda x: np.ones_like(x), lambda x: x ** 2, -8.0, 8.0)
    assert (convergence_order(problem, np.int64(2))
            == convergence_order(problem, 2))
    for bad in (True, 2.0, 1):
        with pytest.raises(ValueError, match="^level must be an integer >= 2"):
            convergence_order(problem, bad)


def test_convergence_order_matches_a_ladder_solved_grid_by_grid():
    # the reference: the model's M and V_eff on each halving of the base
    # grid, each solved alone
    model = Case1Params(1, 2, 1)
    lo, hi = default_domain(model, 0)
    lowest = [lowest_eigenvalues(discretize(
        lambda x: mass(model, x), lambda x: v_eff(model, x),
        Grid(lo, hi, 250 * 2 ** j + 1)), 1)[0] for j in range(4)]
    diffs = np.diff(lowest)
    assert convergence_order(model, level=3) == float(
        np.log2(abs(diffs[1]) / abs(diffs[2])))
