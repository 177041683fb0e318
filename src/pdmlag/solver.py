"""Self-adjoint finite-difference oracle for H = -d/dx (1/M) d/dx + V.

The kinetic term is discretized in flux (conservation) form with 1/M sampled
at grid midpoints, which keeps the matrix exactly symmetric and 2nd-order
accurate; boundaries are Dirichlet.  Eigenvalues come from Sturm bisection
on the tridiagonal matrix; eigenvectors come from inverse iteration, and only
where a caller asks for them (`eigen_lowest`, `solve_model`).  Both come
from scipy.linalg, which is imported on the first solve, so building grids and
operators or integrating on a grid loads no scipy submodule.  Everything here
is independent of the closed-form machinery so it can serve as an oracle for
it.

Large grids are warm-started.  When an operator built by `discretize` has at
least `_WARM_MIN` points and at most `_WARM_MAX_K` levels are asked for, the
same problem is first solved on the coarse grids `_COARSE_POINTS` over the
same interval; Richardson extrapolation of their h^2 error predicts each
fine-grid level, and bisection then runs only inside a window around each
prediction.  Sturm counts certify that window j holds exactly level j, so a
warm value carries the plain path's guarantee: the midpoint of a bisection
interval no wider than `_BISECT_TOL` that holds the eigenvalue.  It differs
from the plain path's value by at most that width.  Whatever cannot be
certified falls back to plain index bisection, with the plain path's errors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .models import ModelKind, default_domain, mass, v_eff

# Absolute bisection tolerance for eigenvalues.  The default (0.0) lets
# LAPACK fall back to a norm-relative tolerance, which is useless when the
# x^(-l) barrier puts ~1e20 on the diagonal but the physics lives at O(1).
_BISECT_TOL = 1e-12

# Warm start (see `_bisect_lowest`).  Measured against the plain path, it
# breaks even at about 16001 points for 10 levels and at about 32009 points
# for 40 levels; grids of 12001 points or fewer, which are all that `verify`
# and the CLI defaults use, keep the plain path.  Beyond 40 levels it gains
# less (60 levels: 0.99-1.05 of the plain time at 32009 points), and from
# about 80 levels the 1001-point grid no longer resolves the top levels, so
# the windows overlap and the plain path runs after the coarse solves.
_WARM_MIN = 32009
_WARM_MAX_K = 40
_COARSE_POINTS = (1001, 2001, 4001)
# Relative floor of a window's half-width.
_WINDOW_FLOOR = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [lo, hi]; the endpoints carry Dirichlet conditions."""

    lo: float
    hi: float
    npoints: int

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("grid endpoints must be finite")
        if self.lo >= self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not isinstance(self.npoints, int) or self.npoints < 16:
            raise ValueError(f"npoints must be an integer >= 16, got {self.npoints!r}")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.npoints - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.npoints)

    def interior(self) -> np.ndarray:
        return self.xs()[1:-1]


@dataclass(eq=False)
class DiscretizedOperator:
    """Real symmetric tridiagonal matrix acting on interior node values."""

    diag: np.ndarray
    offdiag: np.ndarray
    grid: Optional[Grid] = None
    # (massfn, potfn) when built by `discretize`; they let the solver
    # rediscretize the same problem on coarse grids (the warm start)
    coefficients: Optional[Tuple[Callable, Callable]] = field(default=None,
                                                              repr=False)

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.offdiag = np.asarray(self.offdiag, dtype=float)
        if self.diag.ndim != 1 or self.offdiag.shape != (self.diag.size - 1,):
            raise ValueError("need diagonal of length n and off-diagonal of length n-1")

    @property
    def size(self) -> int:
        return self.diag.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.offdiag * v[:-1]
        out[:-1] += self.offdiag * v[1:]
        return out

    def inf_norm(self) -> float:
        rowsum = np.abs(self.diag).copy()
        rowsum[1:] += np.abs(self.offdiag)
        rowsum[:-1] += np.abs(self.offdiag)
        return float(rowsum.max())


@dataclass(eq=False)
class SpectrumResult:
    """Ascending eigenvalues with sampled eigenvectors and residual norms."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column j is state j, sampled on the full grid
    residual_norms: np.ndarray
    grid: Optional[Grid] = None


def _sample(fn: Callable, pts: np.ndarray, name: str) -> np.ndarray:
    """Evaluate a vectorised coefficient once on `pts`; a scalar broadcasts."""
    out = np.asarray(fn(pts), dtype=float)
    try:
        return np.broadcast_to(out, pts.shape)
    except ValueError:
        raise ValueError(f"{name} returned shape {out.shape}, "
                         f"expected {pts.shape} or a scalar") from None


def discretize(massfn: Callable, potfn: Callable, grid: Grid) -> DiscretizedOperator:
    """Flux-form discretization with 1/M at midpoints and V at interior nodes."""
    xs = grid.xs()
    h = grid.h
    mid = 0.5 * (xs[:-1] + xs[1:])
    mvals = _sample(massfn, mid, "mass")
    if not np.all(np.isfinite(mvals)) or np.any(mvals <= 0):
        bad = mid[~(np.isfinite(mvals) & (mvals > 0))][0]
        raise ValueError(f"mass is not positive and finite at midpoint x={bad}")
    vvals = _sample(potfn, xs[1:-1], "potential")
    if not np.all(np.isfinite(vvals)):
        bad = xs[1:-1][~np.isfinite(vvals)][0]
        raise ValueError(f"potential is not finite at node x={bad}")
    a = 1.0 / mvals
    diag = (a[:-1] + a[1:]) / h ** 2 + vvals
    offdiag = -a[1:-1] / h ** 2
    return DiscretizedOperator(diag=diag, offdiag=offdiag, grid=grid,
                               coefficients=(massfn, potfn))


def _index_bisect(op: DiscretizedOperator, k: int, eigvals_only: bool):
    """The plain path: LAPACK index bisection for levels 0..k-1 (plus
    inverse-iteration vectors if asked)."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=eigvals_only,
                            select="i", select_range=(0, k - 1),
                            tol=_BISECT_TOL)


def _predicted_windows(op: DiscretizedOperator, k: int):
    """Centres and half-widths of k windows, each predicted to hold one of
    the fine grid's lowest k eigenvalues.

    The levels on the grids `_COARSE_POINTS` are fitted to E(h) = E* + c h^2
    pairwise and extrapolated to the fine spacing; the finer pair gives the
    centre, and four times the pairs' disagreement (at least `_WINDOW_FLOOR`
    relative) the half-width.
    """
    massfn, potfn = op.coefficients
    grid = op.grid
    h2, levels = [], []
    for npoints in _COARSE_POINTS:
        coarse = Grid(grid.lo, grid.hi, npoints)
        levels.append(_index_bisect(discretize(massfn, potfn, coarse), k, True))
        h2.append(coarse.h ** 2)
    pred = [levels[i + 1] + (levels[i] - levels[i + 1]) / (h2[i] - h2[i + 1])
            * (grid.h ** 2 - h2[i + 1]) for i in (0, 1)]
    half = np.maximum(4.0 * np.abs(pred[0] - pred[1]),
                      _WINDOW_FLOOR * np.maximum(1.0, np.abs(pred[1])))
    return pred[1], half


def _warm_values(op: DiscretizedOperator, k: int):
    """The lowest k eigenvalues bisected inside predicted windows, with the
    block index of each and the block splitting `stein` needs.

    Returns None when a coarse grid fails or the windows cannot be
    certified.  The cheap checks come before any bisection on the fine
    grid: the windows must be disjoint and ascending, and exactly k
    eigenvalues may lie between the Gershgorin lower bound and the top of
    the last window.  Then each window must hold exactly one value.
    Callers ignore floating-point errors here: an overflow shows as a
    non-finite window or bound, which is refused.
    """
    from scipy.linalg import get_lapack_funcs

    try:
        centre, half = _predicted_windows(op, k)
    except (ValueError, ArithmeticError, RuntimeError):
        return None
    lower, upper = centre - half, centre + half
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        return None
    if np.any(upper[:-1] > lower[1:]):
        return None
    d, e = op.diag, op.offdiag
    # stebz(d, e, 1, vl, vu, ...) bisects the eigenvalues in (vl, vu] (LAPACK
    # RANGE='V'; il and iu are unused) and returns how many there are; with
    # an infinite tolerance it only counts them
    stebz, = get_lapack_funcs(("stebz",), (d, e))
    # Gershgorin: no eigenvalue lies below min(d) - 2 max|e|, less a margin
    # for rounding
    dmin, emax = float(d.min()), max(float(e.max()), -float(e.min()))
    eps = np.finfo(float).eps
    floor = min(dmin - 2 * emax - 4 * eps * (abs(dmin) + 2 * emax), lower[0])
    if not np.isfinite(floor):
        return None
    m, _, _, _, info = stebz(d, e, 1, floor, upper[-1], 1, 1, np.inf, "E")
    if info or m != k:
        return None
    vals = np.empty(k)
    blocks = np.empty(k, dtype=np.int32)
    for j in range(k):
        m, w, iblock, isplit, info = stebz(d, e, 1, lower[j], upper[j], 1, 1,
                                           _BISECT_TOL, "E")
        if info or m != 1:
            return None
        vals[j], blocks[j] = w[0], iblock[0]
    return vals, blocks, isplit


def _inverse_iteration(op: DiscretizedOperator, vals: np.ndarray,
                       blocks: np.ndarray, isplit: np.ndarray) -> np.ndarray:
    """Eigenvectors for ascending `vals` by one `stein` call, which takes
    them grouped by block (the order `eigh_tridiagonal` hands it)."""
    from scipy.linalg import get_lapack_funcs

    stein, = get_lapack_funcs(("stein",), (op.diag, op.offdiag))
    order = np.argsort(blocks, kind="stable")
    iblock = np.zeros(op.size, dtype=blocks.dtype)   # stein takes length n
    iblock[:order.size] = blocks[order]
    v, info = stein(op.diag, op.offdiag, vals[order], iblock, isplit)
    if info:
        raise RuntimeError(f"tridiagonal eigensolve failed: inverse iteration "
                           f"returned info={info}")
    vecs = np.empty_like(v)
    vecs[:, order] = v
    return vecs


def _bisect_lowest(op: DiscretizedOperator, k: int, eigvals_only: bool):
    """Lowest k eigenvalues by LAPACK bisection (plus vectors if asked).

    The plain path bisects levels 0..k-1 by index over the whole spectrum.
    An operator from `discretize` on at least `_WARM_MIN` points, asked for
    at most `_WARM_MAX_K` levels, is warm-started instead: its values are
    bisected to the same `_BISECT_TOL` inside windows predicted from the
    coarse grids `_COARSE_POINTS` and certified by Sturm counts
    (`_warm_values`), and its vectors come from one `stein` call on those
    values, as `eigh_tridiagonal` makes it.  So `lowest_eigenvalues` and
    `eigen_lowest` return the same values on either path.  A warm value
    lies within `_BISECT_TOL` of the plain one; when the windows cannot be
    certified, the plain path runs, and its results and errors are returned.
    """
    n = op.size
    if not isinstance(k, int) or k < 1 or k > n:
        raise ValueError(f"k must be in 1..{n}, got {k!r}")
    warm = None
    if (op.coefficients is not None and op.grid is not None
            and op.grid.npoints >= _WARM_MIN and k <= _WARM_MAX_K):
        with np.errstate(all="ignore"):
            warm = _warm_values(op, k)
    try:
        if warm is None:
            out = _index_bisect(op, k, eigvals_only)
        elif eigvals_only:
            out = warm[0]
        else:
            out = warm[0], _inverse_iteration(op, *warm)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"tridiagonal eigensolve failed: {exc}") from exc
    vals = out if eigvals_only else out[0]
    if np.any(np.diff(vals) <= 0):
        raise RuntimeError("eigenvalues are not strictly increasing")
    return out


def lowest_eigenvalues(op: DiscretizedOperator, k: int) -> np.ndarray:
    """Lowest k eigenvalues, ascending, by Sturm bisection alone.

    The values are those `eigen_lowest` returns, without the cost of
    computing eigenvectors.
    """
    return _bisect_lowest(op, k, eigvals_only=True)


def eigen_lowest(op: DiscretizedOperator, k: int) -> SpectrumResult:
    """Lowest k eigenpairs: values by Sturm bisection, vectors by inverse
    iteration."""
    vals, vecs = _bisect_lowest(op, k, eigvals_only=False)
    residuals = np.empty(k)
    for j in range(k):
        v = vecs[:, j]
        residuals[j] = np.linalg.norm(op.matvec(v) - vals[j] * v) / np.linalg.norm(v)
        vecs[:, j] = v / np.linalg.norm(v)
    return SpectrumResult(eigenvalues=vals, eigenvectors=vecs,
                          residual_norms=residuals, grid=op.grid)


def align_sign(values: np.ndarray) -> np.ndarray:
    """Flip sign so the first antinode (first local max of |v|) is positive.

    An antinode is an interior index whose magnitude is at least that of both
    neighbours and above 1e-3 of the peak; without one, the peak is used.
    """
    v = np.asarray(values, dtype=float)
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v
    inner = mags[1:-1]
    hits = np.flatnonzero((inner >= mags[:-2]) & (inner >= mags[2:])
                          & (inner > 1e-3 * top))
    idx = hits[0] + 1 if hits.size else int(mags.argmax())
    return -v if v[idx] < 0 else v


def _auto_grid(model: ModelKind, k: int, npoints: int = 4001) -> Grid:
    lo, hi = default_domain(model, max(k - 1, 3))
    return Grid(lo, hi, npoints)


def _model_operator(model: ModelKind, k: int,
                    grid: Optional[Grid] = None) -> DiscretizedOperator:
    """The model's M and V_eff discretized on `grid` (default: auto), with
    room for k interior eigenpairs."""
    if grid is None:
        grid = _auto_grid(model, k)
    if k > grid.npoints - 2:
        raise ValueError(f"k must be at most npoints-2 = {grid.npoints - 2}")
    return discretize(lambda t: mass(model, t), lambda t: v_eff(model, t), grid)


def solve_model(model: ModelKind, k: int, grid: Optional[Grid] = None) -> SpectrumResult:
    """Numeric spectrum of the model's M and V_eff on a (default: auto) grid.

    Eigenvectors are embedded on the full grid with zero endpoints,
    normalized to unit L2 by Simpson quadrature, and sign-aligned.  On the
    half-line (Case 2) the grid starts at the origin, so the first interior
    node sits one spacing from it and the x^(-l) barrier is never sampled
    at x = 0.
    """
    op = _model_operator(model, k, grid)
    grid = op.grid
    res = eigen_lowest(op, k)
    full = np.zeros((grid.npoints, k))
    for j in range(k):
        full[1:-1, j] = res.eigenvectors[:, j]
        nrm = np.sqrt(quadrature(full[:, j] ** 2, grid))
        full[:, j] = align_sign(full[:, j] / nrm)
    return SpectrumResult(eigenvalues=res.eigenvalues, eigenvectors=full,
                          residual_norms=res.residual_norms, grid=grid)


def quadrature(values, grid: Grid) -> float:
    """Composite Simpson integral on the grid (trapezoid for even counts).

    Both rules sum in the order scipy.integrate.simpson and
    scipy.integrate.trapezoid do on a uniform grid, so the values are theirs
    bit for bit.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.npoints,):
        raise ValueError(f"expected {grid.npoints} samples, got shape {vals.shape}")
    h = grid.h
    if grid.npoints % 2 == 1:
        return float(np.sum(vals[0:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2]) * (h / 3.0))
    return float(np.sum(h * (vals[1:] + vals[:-1]) / 2.0))


def convergence_order(model, level: int, base_points: int = 251) -> float:
    """Observed FD order from Richardson triples of the lowest eigenvalue.

    `level` counts grid halvings from the base grid, so `level` >= 2 gives
    the minimum three nested grids; accepts a ModelKind or a raw problem
    tuple (massfn, potfn, lo, hi).
    """
    if not isinstance(level, int) or level < 2:
        raise ValueError("need at least 3 grids: level must be an integer >= 2")
    if isinstance(model, tuple):
        massfn, potfn, lo, hi = model
    else:
        massfn = lambda t: mass(model, t)
        potfn = lambda t: v_eff(model, t)
        lo, hi = default_domain(model, 0)
    lowest = []
    for j in range(level + 1):
        grid = Grid(lo, hi, (base_points - 1) * 2 ** j + 1)
        op = discretize(massfn, potfn, grid)
        lowest.append(lowest_eigenvalues(op, 1)[0])
    diffs = np.diff(np.asarray(lowest))
    orders = []
    for j in range(diffs.size - 1):
        if diffs[j] * diffs[j + 1] <= 0 or abs(diffs[j + 1]) >= abs(diffs[j]):
            raise RuntimeError(
                "non-monotone eigenvalue error sequence; refine the base grid")
        orders.append(float(np.log2(abs(diffs[j]) / abs(diffs[j + 1]))))
    return orders[-1]
