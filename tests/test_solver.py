"""Tests for the flux-form finite-difference eigensolver.

Calibration targets with known exact spectra: the Dirichlet Laplacian on
[0, pi] (eigenvalues n^2) and the constant-mass harmonic oscillator in
these units (eigenvalues 2n+1).  The position-dependent-mass models are
then checked against their closed-form linear spectra.
"""
import contextlib
import ctypes
import functools
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmlag import _kernels, emit, solver
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
    # bisection finds no value: Case 2 at eta = 25 on [0, 2] at 4001
    # points, and at eta = 19 on 40001, where the warm start would run; the
    # barrier x^(-l) is sampled one spacing from the origin
    top = math.sqrt(np.finfo(float).max)
    edge = DiscretizedOperator(diag=np.zeros(2), offdiag=np.array([top]))
    np.testing.assert_allclose(lowest_eigenvalues(edge, 2), [-top, top],
                               rtol=1e-12)
    above = math.nextafter(top, math.inf)
    over = DiscretizedOperator(diag=np.zeros(2), offdiag=np.array([above]))
    ops = [(over, 2),
           (_model_operator(Case2Params(25, 2, 1), 4, Grid(0.0, 2.0, 4001)), 4),
           (_model_operator(Case2Params(19, 2, 1), 4, Grid(0.0, 2.0, 40001)),
            4)]

    def unreachable(*args):
        raise AssertionError("a solver path ran")

    monkeypatch.setattr(solver, "_stebz", unreachable)
    monkeypatch.setattr(solver, "_index_values", unreachable)
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


# the benchmark's draws; 20 and 40 levels on those seven models; and 41-200
# levels at 200001 points, where the ladder grows with k, on three of them
_NO_FALLBACK = [*_benchmark_space(18, 16),
                *((model, k, 40001) for k in (20, 40) for model in _WARM_MODELS),
                *((model, k, 200001) for k in (41, 100, 200)
                  for model in (_WARM_MODELS[0], _WARM_MODELS[2],
                                _WARM_MODELS[6]))]


@pytest.mark.parametrize("model, k, npoints", _NO_FALLBACK,
                         ids=[_label(*problem) for problem in _NO_FALLBACK])
def test_warm_start_never_falls_back(monkeypatch, model, k, npoints):
    op = _model_op(model, k, npoints)
    calls = []
    index_values, warm_values = solver._index_values, solver._warm_values

    def recording(d, e, k):
        if d.size == op.size:               # index bisection of the fine grid
            calls.append("index bisection")
        return index_values(d, e, k)

    def warm_recording(op, k):
        calls.append("warm")
        return warm_values(op, k)

    monkeypatch.setattr(solver, "_index_values", recording)
    monkeypatch.setattr(solver, "_warm_values", warm_recording)
    vals = lowest_eigenvalues(op, k)
    assert calls == ["warm"]
    # against scipy's `dstebz`; above 40 levels, all at 200001 points where
    # scipy takes seconds a case, against the plain path in the kernel
    ref = (_index_bisection(op, k) if k <= 40
           else index_values(op.diag, op.offdiag, k)[1])
    assert np.all(np.abs(vals - ref) <= np.maximum(1e-12, 1e-15 * np.abs(ref)))


@pytest.mark.parametrize("k, npoints, path", [
    (40, 32001, "warm"), (40, 32000, "plain"),
    (41, 64001, "warm"), (41, 64000, "plain"),
    (41, 40001, "plain"), (100, 40001, "plain"), (200, 40001, "plain"),
])
def test_warm_start_runs_from_sixteen_times_the_ladders_intervals(
        monkeypatch, k, npoints, path):
    # the ladder's finest grid has 2000 intervals for at most 40 levels,
    # 4000 for 41-80, 10000 for 200; the solves are stubbed
    op = _model_op(_WARM_MODELS[0], k, npoints)
    calls = []

    def warm(op, k):
        calls.append("warm")
        return np.arange(k, dtype=float)

    def plain(d, e, k):
        calls.append("plain")
        return k, np.arange(k, dtype=float), 0

    monkeypatch.setattr(solver, "_warm_values", warm)
    monkeypatch.setattr(solver, "_index_values", plain)
    lowest_eigenvalues(op, k)
    assert calls == [path]


def _counting_passes(monkeypatch):
    """Sturm passes over the fine matrix, recorded per `_sturm_batch` call:
    two per window whose ends are counted, and each window's reported steps
    of bisection.  The host is too noisy to time."""
    counted = []
    batch = solver._sturm_batch

    def counting(ijob, d, e, e2, pivmin, ab, nab, nitmax=None):
        out = batch(ijob, d, e, e2, pivmin, ab, nab, nitmax)
        counted.append(2 * len(ab) if ijob == 1 else int(out[1].sum()))
        return out

    monkeypatch.setattr(solver, "_sturm_batch", counting)
    return counted


@pytest.mark.parametrize("model, npoints, k, passes", [
    (Case1Params(Fraction(3, 2), Fraction(7, 3), 2), 40001, 10, 148),
    (Case1Params(Fraction(3, 2), Fraction(7, 3), 2), 200001, 10, 159),
    (Case2Params(3, Fraction(19, 7), 4), 40001, 10, 122),
    (Case2Params(3, Fraction(19, 7), 4), 200001, 10, 155),
    # the x^(-2) barrier makes the FD error non-analytic in h^2: the
    # predictions err by tens of half-widths, and every window widens
    (Case2Params(0, Fraction(5, 4), 1), 40001, 10, 227),
    (Case2Params(0, Fraction(5, 4), 1), 200001, 10, 249),
    # 100 levels, predicted from a ladder of 1501, 3001 and 6001 points
    (Case2Params(3, Fraction(19, 7), 4), 200001, 100, 1908),
], ids=["case1", "case1-200001", "case2", "case2-200001", "case2-eta0",
        "case2-eta0-200001", "case2-200001-k100"])
def test_warm_start_cost_in_sturm_passes(monkeypatch, model, npoints, k,
                                         passes):
    # one warm solve; the window floor scales with the grid, so the two
    # sizes differ
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
    assert sum(counted) == 1367


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
    index_values = solver._index_values

    def recording(d, e, k):
        index_solved.append(d.size)
        return index_values(d, e, k)

    monkeypatch.setattr(solver, "_index_values", recording)
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
    # one of the benchmark's spectrum ops, on [0, 4]: at 200001 points
    # level 0 lies 1.9e-9 relative below its prediction, outside its
    # window, whose half-width is the 1e-9 relative floor; without widening
    # this solve fell back
    k = 4
    op = _model_operator(Case2Params(1, Fraction(15, 7), 3), k,
                         Grid(0.0, 4.0, 200001))
    probed = []
    batch = solver._sturm_batch

    def recording(ijob, d, e, e2, pivmin, ab, nab, nitmax=None):
        if ijob == 2 and np.all(nitmax == solver._PROBE_STEPS):
            probed.append(len(ab))
        return batch(ijob, d, e, e2, pivmin, ab, nab, nitmax)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_sturm_batch", recording)
        warm = solver._warm_values(op, k)
    assert warm is not None, "fell back"
    assert sum(probed) == k + 1                 # level 0's window twice
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
    windows = {1: 0, 2: 0}
    batch = solver._sturm_batch

    def recording(ijob, d, e, e2, pivmin, ab, *args):
        windows[ijob] += len(ab)
        return batch(ijob, d, e, e2, pivmin, ab, *args)

    monkeypatch.setattr(solver, "_sturm_batch", recording)
    warm = solver._warm_values(op, k)
    assert warm is not None, "fell back"
    # each window: its probes, the count of its ends, the rest of its steps
    assert windows == {1: k, 2: 2 * k}
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
    # lower end: refused by the counts that follow the windows' probes
    (_shift_up_one_level, [(2, 10), (1, 10)]),
], ids=["overlapping-windows", "shifted-predictions"])
def test_bad_windows_are_refused_before_fine_bisection(monkeypatch, breaker,
                                                       sequence):
    k = 10
    op = _model_op(Case2Params(3, Fraction(19, 7), 4), k, 40001)
    monkeypatch.setattr(solver, "_WORKERS", 1)     # the calls in order
    monkeypatch.setattr(solver, "_predicted_windows",
                        breaker(solver._predicted_windows))
    index_values, batch = solver._index_values, solver._sturm_batch
    calls = []

    def index_counting(d, e, k):
        if d.size == op.size:                 # not a coarse-grid solve
            calls.append("index bisection")
        return index_values(d, e, k)

    def batch_counting(ijob, d, e, e2, pivmin, ab, *args):
        # 1: endpoint counts, 2: bisection; and the windows of the batch
        calls.append((ijob, len(ab)))
        return batch(ijob, d, e, e2, pivmin, ab, *args)

    monkeypatch.setattr(solver, "_index_values", index_counting)
    monkeypatch.setattr(solver, "_sturm_batch", batch_counting)
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
    # the routines of `solver._lapack`, and none of scipy's own wrappers;
    # where the Sturm kernel loads, it gives every value and only `dstein`
    # is bound, else the plain path calls `dstebz` and the warm windows
    # `dlaebz`
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", _raise)
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", _raise)
    lapack, kernel = solver._lapack, solver._sturm_kernel
    k = 10
    model = Case2Params(3, Fraction(19, 7), 4)
    for loaded in (kernel, lambda: None):
        names = []

        def recording(name):
            names.append(name)
            return lapack(name)

        monkeypatch.setattr(solver, "_lapack", recording)
        monkeypatch.setattr(solver, "_sturm_kernel", loaded)
        for npoints in (4001, 40001):       # the plain path, then the warm one
            op = _model_op(model, k, npoints)
            assert lowest_eigenvalues(op, k).shape == (k,)
            assert eigen_lowest(op, k).eigenvectors.shape == (op.size, k)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_predicted_windows",
                          _shift_up_one_level(solver._predicted_windows))
            assert eigen_lowest(op, k).eigenvectors.shape == (op.size, k)
        assert set(names) == ({"dstein"} if loaded() is not None
                              else {"dstebz", "dstein", "dlaebz"})


_CASE1 = Case1Params(Fraction(3, 2), Fraction(7, 3), 2)
_CASE2 = Case2Params(3, Fraction(19, 7), 4)


# ---------------------------------------------------------------------------
# the batch kernel of the warm windows against `dlaebz`

def _laebz_one_by_one(ijob, d, e, e2, pivmin, ab, nab, nitmax=None):
    """Reference for `solver._sturm_batch`: each window in one `_laebz`
    call, with the whole cap for IJOB 2.  Returns ab, nab (as int64) and,
    for IJOB 2, each window's INFO."""
    ab, nab = ab.copy(), nab.astype(np.intc)
    caps = nitmax if ijob == 2 else np.zeros(len(ab))
    info = [solver._laebz(ijob, d, e, e2, pivmin, window, counts, int(cap))
            for window, counts, cap in zip(ab, nab, caps)]
    return ab, nab.astype(np.int64), np.array(info, dtype=np.int64)


@contextlib.contextmanager
def _portable_counts(portable=True):
    """The kernel's counts in its portable loop, not its AVX2 copy, while
    the block runs (where `portable`)."""
    wide = ctypes.c_int.in_dll(solver._sturm_kernel(), "sturm_wide")
    taken = wide.value
    wide.value = taken and not portable
    try:
        yield
    finally:
        wide.value = taken


def _batch_is_dlaebz(ijob, d, e, e2, pivmin, ab, nab, nitmax=None):
    """`solver._sturm_batch` through the kernel, with either count loop,
    and through `_laebz`, which takes one step per call, gives the
    reference's bytes, and all three give the same steps; returns the
    reference and those steps."""
    ref = _laebz_one_by_one(ijob, d, e, e2, pivmin, ab, nab, nitmax)
    outs = []
    for loaded, portable in ((solver._sturm_kernel, False),
                             (solver._sturm_kernel, True),
                             (lambda: None, False)):
        rows, counts = ab.copy(), nab.astype(np.int64)
        with pytest.MonkeyPatch.context() as patch, _portable_counts(portable):
            patch.setattr(solver, "_sturm_kernel", loaded)
            outs.append(solver._sturm_batch(ijob, d, e, e2, pivmin, rows,
                                            counts, nitmax))
        assert rows.tobytes() == ref[0].tobytes()
        assert counts.tobytes() == ref[1].tobytes()
    if ijob == 1:
        return (*ref, None)
    (info, steps), *others = outs
    for other_info, other_steps in others:
        assert info.tobytes() == other_info.tobytes() == ref[2].tobytes()
        assert steps.tobytes() == other_steps.tobytes()
    return (*ref, steps)


def _phases_are_dlaebz(op, lower, upper):
    """The phases of `solver._warm_values` on the windows [lower, upper],
    each as one batch: probes of `_PROBE_STEPS` steps as if window j held
    level j, the counts at the window ends, and a bisection of each window
    from those counts under `dstebz`'s cap (which also meets windows whose
    counts differ by 0 or by more than 1)."""
    d, e = op.diag, op.offdiag
    e2, pivmin = solver._sturm_squares(d, e)
    k = lower.size
    window = np.column_stack((lower, upper))
    expected = np.arange(k)[:, None] + [0, 1]
    _batch_is_dlaebz(2, d, e, e2, pivmin, window, expected,
                     np.full(k, solver._PROBE_STEPS))
    counts = _batch_is_dlaebz(1, d, e, e2, pivmin, window, expected)[1]
    caps = [int((math.log(hi - lo + pivmin) - math.log(pivmin))
                / math.log(2.0)) + 2 for lo, hi in window]
    return _batch_is_dlaebz(2, d, e, e2, pivmin, window, counts,
                            np.array(caps))


def _cpu_has_avx2():
    """Whether the CPU has AVX2, from /proc/cpuinfo, or None where that
    cannot be read."""
    try:
        with open("/proc/cpuinfo") as info:
            return any(line.startswith("flags") and "avx2" in line.split()
                       for line in info)
    except OSError:
        return None


def test_the_kernel_builds_and_loads_here(kernel_cache):
    # a silent fallback to `dlaebz`, or to the portable count loop, would
    # keep the bits and lose the speed
    import platform

    kernel = solver._sturm_kernel()
    assert kernel is not None
    assert Path(_kernels.built("_sturm")).parent == kernel_cache
    wide = ctypes.c_int.in_dll(kernel, "sturm_wide").value
    avx2 = _cpu_has_avx2()
    if platform.machine() not in ("x86_64", "AMD64"):
        assert wide == 0
    elif avx2 is not None:
        assert wide == avx2


@pytest.mark.parametrize("model, k, npoints", _NO_FALLBACK[:16],
                         ids=[_label(*problem) for problem in
                              _NO_FALLBACK[:16]])
def test_batches_are_dlaebz_over_the_benchmark_space(model, k, npoints):
    op = _model_op(model, k, npoints)
    centre, half = solver._predicted_windows(op, k)
    _phases_are_dlaebz(op, centre - half, centre + half)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, len(_PERTURBED) - 1),
       st.lists(st.floats(-3, 3), min_size=10, max_size=10))
def test_batches_are_dlaebz_on_perturbed_windows(index, shifts):
    # the windows of `test_perturbed_windows_give_their_own_level`
    op, (centre, half), _ = _perturbed_problem(index)
    moved = centre + np.array(shifts) * half
    _phases_are_dlaebz(op, moved - half, moved + half)


@pytest.mark.parametrize("row, coupling", [(0, 0.0), (1, 0.0), (0, 1e-150),
                                           (1, 1e-150)],
                         ids=["row0", "row1", "row0-coupled", "row1-coupled"])
@pytest.mark.parametrize("pivot, counted", [
    (1.0, (0, 1)), (0.5, (1, 1)), (0.0, (1, 1)), (-0.5, (1, 1)),
    (-1.0, (1, 1)),
], ids=["pivmin", "half-pivmin", "zero", "minus-half-pivmin", "minus-pivmin"])
def test_pivot_rules_are_dlaebz(pivot, counted, row, coupling):
    # a matrix of row + 2 rows whose pivot of row `row` at shift 0 is
    # `pivot` times pivmin, the other diagonal entries 1: IJOB 1 counts it
    # when |t| < pivmin and then t <= 0, IJOB 2 when t <= pivmin (then
    # t = min(t, -pivmin)).  Uncoupled, the count is that rule alone;
    # coupled to the next row, the pivot that replaced t sets the sign of
    # that row's
    pivmin = np.finfo(float).tiny
    d, e = np.ones(row + 2), np.zeros(row + 1)
    e[row] = coupling
    d[row] = pivot * pivmin
    counts = _batch_is_dlaebz(1, d, e, e * e, pivmin, np.array([[0.0, 2.0]]),
                              np.zeros((1, 2)))[1]
    # a step from the counts (0, 2) at the window [-2, 2] probes 0: it
    # moves the lower end on a count of 0, the upper on 2, and stops on 1
    ab, _, info, steps = _batch_is_dlaebz(2, d, e, e * e, pivmin,
                                          np.array([[-2.0, 2.0]]),
                                          np.array([[0, 2]]), np.array([1]))
    assert steps[0] == 1
    if not coupling:
        assert counts[0, 0] == counted[0]
        assert (info[0] == 2) == bool(counted[1])
        assert (ab[0, 0] == 0.0) == (not counted[1])


@pytest.mark.parametrize("d, e, pivmin, lower", [
    ([1.0], [], 0.25, 0.75),
    ([2.0, 2.0, np.finfo(float).tiny], [1.0, 0.0], np.finfo(float).tiny, 0.0),
], ids=["pivmin-quarter", "pivmin-dbl-min"])
def test_ijob1_counts_a_pivot_of_pivmin_as_dlaebz(d, e, pivmin, lower):
    # the last row's pivot is pivmin at `lower` and just below it at the
    # next double: IJOB 1 counts only a pivot smaller than pivmin, so the
    # window counts (0, 1), where the IJOB 2 rule (at most pivmin) gives
    # (1, 1).  With |e| <= 1 `dstebz`'s pivot floor, DBL_MIN max(1, e^2),
    # is DBL_MIN, and the kernel's threshold below it is subnormal.
    d, e = np.array(d), np.array(e)
    window = np.array([[lower, np.nextafter(lower, 1.0)]])
    counts = _batch_is_dlaebz(1, d, e, e * e, pivmin, window,
                              np.zeros((1, 2)))[1]
    assert counts.tolist() == [[0, 1]]


def test_a_step_that_counts_between_the_ends_stops_as_dlaebz_stops():
    # `dlaebz` with one interval returns INFO = MMAX + 1 = 2, the window as
    # it was: the probe at 0 of [-2, 2] counts 1 of the matrix's 2 values
    d, e = np.array([-1.0, 1.0]), np.zeros(1)
    window = np.array([[-2.0, 2.0]])
    ab, nab, info, steps = _batch_is_dlaebz(2, d, e, e * e,
                                            np.finfo(float).tiny, window,
                                            np.array([[0, 2]]),
                                            np.array([5]))
    assert info[0] == 2 and steps[0] == 1
    assert ab.tobytes() == window.tobytes() and nab.tolist() == [[0, 2]]


def test_a_later_step_that_counts_between_the_ends_stops_as_dlaebz_stops():
    # the first step, at 2, moves the upper end; the second, at 0, counts 1
    # of the 2 values: INFO 2 after two steps, the window as the first left
    d, e = np.array([-1.0, 1.0]), np.zeros(1)
    ab, nab, info, steps = _batch_is_dlaebz(2, d, e, e * e,
                                            np.finfo(float).tiny,
                                            np.array([[-2.0, 6.0]]),
                                            np.array([[0, 2]]),
                                            np.array([5]))
    assert info[0] == 2 and steps[0] == 2
    assert ab.tolist() == [[-2.0, 2.0]] and nab.tolist() == [[0, 2]]


@pytest.mark.parametrize("caps", [(1, 2, 3, 5), (5, 3, 2, 1), (1,) * 4,
                                  (3,) * 4, (2, 5)],
                         ids=["1-2-3-5", "5-3-2-1", "1", "probe", "2-5"])
def test_batches_are_dlaebz_where_steps_run_out_inside_a_tree(caps):
    # windows around levels 0..3 of a model, each holding its own: a window
    # with fewer steps left than the pass looks ahead stops inside its tree
    op = _model_op(_CASE1, 5, 4001)
    d, e = op.diag, op.offdiag
    e2, pivmin = solver._sturm_squares(d, e)
    vals = _index_bisection(op, 5)
    ends = np.concatenate(([vals[0] - 1.0], 0.5 * (vals[1:] + vals[:-1])))
    k = len(caps)
    window = np.column_stack((ends[:k], ends[1:k + 1]))
    steps = _batch_is_dlaebz(2, d, e, e2, pivmin, window,
                             np.arange(k)[:, None] + [0, 1],
                             np.array(caps))[3]
    assert steps.tolist() == list(caps)


@pytest.mark.parametrize("caps, deepest", [
    ((1,), 1), ((2,), 2), ((3,), 3), ((5,), 4), ((40,), 4), ((3, 1), 3),
    ((5, 5), 3), ((5,) * 5, 2), ((5,) * 6, 1), ((1,) * 9, 1),
], ids=["1", "2", "probe", "5", "40", "3-1", "5-5", "5x5", "5x6", "1x9"])
def test_a_pass_counts_no_deeper_than_the_steps_left(caps, deepest):
    # after the windows' first points the kernel's workspace holds a pass's
    # points, pivots and counts, each padded to a multiple of four: the
    # deepest pass counts at every node of a tree of `deepest` levels per
    # window, as deep as the chains fit 16 and the steps left reach, and
    # nothing is written past the workspace
    d, e = np.arange(1.0, 41.0), np.full(39, 1e-3)
    e2, pivmin = solver._sturm_squares(d, e)
    w = len(caps)
    ab = np.column_stack((np.arange(w) + 0.6, np.arange(w) + 1.4))
    nab = np.arange(w, dtype=np.int64)[:, None] + [0, 1]
    work = np.full(4 * w + 48 + 8, np.nan)
    steps, info = np.empty(w, dtype=np.int64), np.empty(w, dtype=np.int64)
    solver._sturm_kernel().sturm_bisect(
        d.size, d, e2, pivmin, solver._BISECT_TOL, 2 * np.finfo(float).eps,
        w, ab, nab, np.array(caps, dtype=np.int64), steps, info, work,
        np.empty(2 * w, dtype=np.int64))
    chains = -(-w * (2 ** deepest - 1) // 4) * 4
    assert np.flatnonzero(~np.isnan(work[w:])).max() == 3 * chains - 1
    assert steps.tolist() == list(caps)


@pytest.fixture
def rebuild():
    """Clears the loaded kernels before the test and after it."""
    def clear():
        solver._sturm_kernel.cache_clear()
        emit._kernel.cache_clear()
    clear()
    yield clear
    clear()


def test_without_a_compiler_the_warm_start_gives_the_same_bytes(monkeypatch,
                                                                rebuild):
    import sysconfig

    ops = [_model_op(model, 10, 40001) for model in (_CASE1, _CASE2)]
    assert solver._sturm_kernel() is not None
    built = [lowest_eigenvalues(op, 10).tobytes() for op in ops]
    config = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "pdmlag-no-such-compiler" if name == "CC"
                        else config(name))
    rebuild()
    assert solver._sturm_kernel() is None
    assert [lowest_eigenvalues(op, 10).tobytes() for op in ops] == built


def test_an_unwritable_cache_builds_in_a_directory_of_its_own(monkeypatch,
                                                              tmp_path,
                                                              rebuild):
    blocked = tmp_path / "file"
    blocked.write_text("")                  # no directory can be made in it
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    path = Path(_kernels.built("_sturm"))
    assert path.is_file() and blocked not in path.parents
    assert solver._sturm_kernel() is not None


@pytest.mark.parametrize("stem", ["_sturm", "_emit"])
def test_the_kernels_compile_without_warnings(tmp_path, stem):
    # with the flags of `_kernels.built`, in C99 with GNU extensions, and
    # every warning of -Wall -Wextra an error
    import shlex
    import shutil
    import subprocess
    import sysconfig
    from importlib import resources

    command = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(command[0]) is None:
        pytest.skip(f"no compiler {command[0]}")
    source = resources.files("pdmlag").joinpath(f"{stem}.c").read_bytes()
    built = subprocess.run([*command, *_kernels._KERNEL_FLAGS, "-std=gnu99",
                            "-Wall", "-Wextra", "-Werror", "-x", "c", "-",
                            "-o", str(tmp_path / f"{stem}.so")],
                           input=source, capture_output=True, timeout=120)
    assert built.returncode == 0, built.stderr.decode()


def _older_builds(folder, count, stem="_sturm"):
    """`count` builds of other sources of the kernel `stem` in `folder`, the
    first the oldest."""
    import os
    import sysconfig
    import time

    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    builds = [folder / f"{stem}-0000000{j}{suffix}" for j in range(count)]
    for j, path in enumerate(builds):
        path.write_bytes(b"an older build")
        os.utime(path, (time.time() - 100 * (count - j),) * 2)
    return builds


def test_a_new_build_removes_the_stale_ones(monkeypatch, tmp_path, rebuild):
    # of five builds of one kernel, the new one and four older, the oldest
    # is removed; the other kernel's builds and whatever else is in the
    # folder stay, and the new build loads
    folder = tmp_path / "pdmlag"
    folder.mkdir()
    sturm = _older_builds(folder, _kernels._KERNEL_BUILDS)
    emitted = _older_builds(folder, _kernels._KERNEL_BUILDS, "_emit")
    kept = [folder / "_sturm-00000000.c", folder / "notes.txt"]
    for path in kept:
        path.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = Path(_kernels.built("_sturm"))
    assert sorted(folder.iterdir()) == sorted([path, *sturm[1:], *emitted,
                                               *kept])
    assert solver._sturm_kernel() is not None
    emit_path = Path(_kernels.built("_emit"))
    assert sorted(folder.iterdir()) == sorted([path, *sturm[1:], emit_path,
                                               *emitted[1:], *kept])
    assert emit._kernel() is not None


def test_two_trees_in_turn_compile_once_each(monkeypatch, tmp_path, rebuild):
    # two sources that share a cache folder, run in turn, each compile
    # once; the build each loads is touched, so two builds of other sources
    # older than both go first
    import importlib.resources
    import subprocess
    import types

    folder = tmp_path / "pdmlag"
    folder.mkdir()
    older = _older_builds(folder, 3)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    source = importlib.resources.files("pdmlag").joinpath("_sturm.c")
    sources = [source.read_bytes(), source.read_bytes() + b"/* another */\n"]
    compiled, run = [], subprocess.run

    def compiling(*args, **kwargs):
        compiled.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", compiling)
    paths = []
    for text in sources * 3:
        tree = types.SimpleNamespace(read_bytes=lambda text=text: text)
        monkeypatch.setattr(importlib.resources, "files",
                            lambda package: types.SimpleNamespace(
                                joinpath=lambda name: tree))
        paths.append(Path(_kernels.built("_sturm")))
    assert len(compiled) == 2 and paths == paths[:2] * 3
    assert paths[0] != paths[1]
    assert sorted(folder.iterdir()) == sorted([*paths[:2], *older[1:]])


# ---------------------------------------------------------------------------
# the plain path's index bisection in the kernel against `dstebz`

def _select(d, e, il, iu):
    """The kernel's `sturm_select` for levels il..iu (1-based) of the matrix
    (d, e): (m, w, info), as `solver._stebz` gives them."""
    e2, pivmin = solver._sturm_squares(d, e)
    n = d.size
    w, result = np.empty(n), np.empty(2, dtype=np.int64)
    solver._sturm_kernel().sturm_select(n, d, e, e2, pivmin,
                                        solver._BISECT_TOL, il, iu, w, result,
                                        np.empty(6 * n + 48),
                                        np.empty(6 * n, dtype=np.int64))
    m, info = result.tolist()
    return m, w[:m], info


def _assert_select_is_dstebz(d, e, il, iu):
    # with either count loop of the kernel
    ref_m, ref_w, ref_info = solver._stebz(d, e, b"I", 0.0, 1.0, il, iu,
                                           solver._BISECT_TOL)
    for portable in (False, True):
        with _portable_counts(portable):
            m, w, info = _select(d, e, il, iu)
        assert (m, info) == (ref_m, ref_info)
        assert w.tobytes() == ref_w.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_selections_are_dstebz_where_the_tree_outgrows_the_matrix(n):
    # a pass counts at up to 16 points, more than the matrix has rows
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    for il, iu in ((1, n), (1, max(1, n // 2)), (max(1, n // 2), n)):
        _assert_select_is_dstebz(d, e, il, iu)


@pytest.mark.parametrize("model, k, npoints", _NO_FALLBACK[:16],
                         ids=[_label(*problem) for problem in
                              _NO_FALLBACK[:16]])
def test_index_values_are_dstebz_over_the_benchmark_space(model, k, npoints):
    # the fine grid, the 4001 points of the plain path and the coarse ladder
    for points in (npoints, 4001, *solver._ladder(k)):
        op = _model_op(model, k, points)
        d, e = op.diag, op.offdiag
        vals = solver._index_values(d, e, k)
        ref = solver._stebz(d, e, b"I", 0.0, 1.0, 1, k, solver._BISECT_TOL)
        assert vals[::2] == ref[::2] == (k, 0)
        assert vals[1].tobytes() == ref[1].tobytes(), points


@st.composite
def _unsplit_selections(draw):
    """A matrix that does not split and levels il..iu of it: random entries,
    tight clusters (pairs of Wilkinson's matrix, or a few repeated diagonal
    entries weakly coupled), or diagonal entries of 0, +-pivmin and
    +-pivmin/2; iu from 1 to 200 or n, il mostly 1."""
    n = draw(st.integers(1, 240))
    kind = draw(st.sampled_from(["random", "wilkinson", "repeated", "pivots"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        d = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 8))
        e = rng.standard_normal(n - 1)
    elif kind == "wilkinson":
        d, e = np.abs(np.arange(n) - n // 2).astype(float), np.ones(n - 1)
    elif kind == "repeated":
        d = rng.integers(0, 3, n).astype(float)
        e = 1e-7 * (1 + rng.random(n - 1))
    else:
        e = rng.choice([1.0, 0.5, 1e-8], n - 1)
        pivmin = np.finfo(float).tiny       # max(1, e^2) times tiny
        d = pivmin * rng.choice([0.0, 1.0, -1.0, 0.5, -0.5], n)
    iu = draw(st.one_of(st.integers(1, min(n, 200)), st.just(n)))
    il = draw(st.one_of(st.just(1), st.integers(1, iu)))
    return d, e, il, iu


# A pair of values 1e-10 apart that splits in a later step of a pass, and
# an IJOB 3 search that lands on its count in a later step
_CLUSTER = (np.array([0.0, 1.0, 1.0 + 1e-10, 3.0, 7.0]), np.full(4, 1e-13))
_GAP = (np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0]), np.full(5, 1e-3))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_unsplit_selections())
@example((*_CLUSTER, 1, 3))
@example((*_CLUSTER, 2, 3))
@example((*_GAP, 1, 3))
@example((*_GAP, 2, 3))
def test_selections_are_dstebz_on_unsplit_matrices(selection):
    d, e, il, iu = selection
    assert solver._sturm_squares(d, e) is not None
    _assert_select_is_dstebz(d, e, il, iu)


@pytest.mark.parametrize("build, k, calls", [
    (_split_operator, 30, [b"I"]),
    (lambda: _model_op(_CASE1, 10, 4001), 10, []),
], ids=["300x300-split", "case1-4001"])
def test_only_a_matrix_that_splits_takes_dstebz(monkeypatch, build, k, calls):
    op = build()
    recorded = []
    stebz = solver._stebz

    def recording(d, e, select, *args):
        recorded.append(select)
        return stebz(d, e, select, *args)

    monkeypatch.setattr(solver, "_stebz", recording)
    assert lowest_eigenvalues(op, k).tobytes() == \
        _index_bisection(op, k).tobytes()
    assert recorded == calls


@pytest.mark.parametrize("m, info", [(10, 1), (0, 4)],
                         ids=["not-converged", "info-4"])
def test_a_failed_index_bisection_keeps_its_message(monkeypatch, m, info):
    # on a matrix that does not split and that `lowest_eigenvalues` takes,
    # `dstebz` can neither run out of steps nor overflow its Gershgorin
    # bounds, so the kernel and `dstebz` are each made to report a failure
    op = _model_op(_CASE1, 10, 4001)

    class Failing:
        def sturm_select(self, *args):
            args[9][:] = m, info            # RESULT

    def failing_stebz(*args):
        return m, np.zeros(m), info

    def unreachable(*args):
        raise AssertionError("dstebz was called")

    messages = []
    for kernel, stebz in ((Failing(), unreachable), (None, failing_stebz)):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_sturm_kernel", lambda: kernel)
            patch.setattr(solver, "_stebz", stebz)
            with pytest.raises(RuntimeError) as err:
                lowest_eigenvalues(op, 10)
        messages.append(str(err.value))
    assert messages == [f"tridiagonal eigensolve failed: bisection found {m} "
                        f"of 10 values (info={info})"] * 2


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
