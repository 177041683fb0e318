"""Self-adjoint finite-difference oracle for H = -d/dx (1/M) d/dx + V.

The kinetic term is discretized in flux (conservation) form with 1/M sampled
at grid midpoints, which keeps the matrix exactly symmetric and 2nd-order
accurate; boundaries are Dirichlet.  `discretize` samples the coefficients
and fills the matrix in blocks of `_BLOCK` points, so that it allocates the
grid and the matrix and nothing else of their size.  Eigenvalues come from
Sturm bisection (Barth, Martin & Wilkinson) on the tridiagonal matrix:
LAPACK `dstebz` over the whole spectrum, or its kernel `dlaebz` inside the
warm start's windows; eigenvectors come from one inverse iteration (LAPACK
`dstein`) on those values, with the matrix as one block, and only where a
caller asks for them (`eigen_lowest`, `solve_model`).  The three routines
are called through one ctypes binding, made on the first solve, to the
OpenBLAS that numpy's wheel already loads; so no part of the solver loads a
scipy submodule.  Only where numpy exports no such routines (a numpy built
from source, or on MKL or Accelerate) are all three taken from
scipy.linalg.cython_lapack instead.  Everything here is independent of the
closed-form machinery so it can serve as an oracle for it.

Large grids are warm-started.  When an operator built by `discretize` has at
least `_WARM_MIN` points and at most `_WARM_MAX_K` levels are asked for, the
same problem is first solved on the nested coarse grids `_COARSE_POINTS`
over the same interval; Neville's extrapolation of their levels in h^2
predicts each fine-grid level with an error estimate, and bisection then runs
only inside a window around each prediction.  Sturm counts certify that
window j holds level j, most of them the bisection's own probes, so a warm
value carries the plain path's guarantee: the midpoint of a bisection
interval no wider than `_BISECT_TOL` that holds the eigenvalue.  It differs
from the plain path's value by at most that width, and is bit for bit what
`dstebz` gives for level j on the same window.  A window found empty is
widened about its centre, clear of its neighbours, a few times before the
solve gives up; whatever cannot be certified, and a matrix that `dstebz`
would split into blocks, falls back to plain index bisection.
The windows share one array of squared off-diagonal entries, the one array of
the matrix's size that the warm start keeps.  A ctypes call releases the GIL,
so the coarse solves, the counts and the windows run on one pool of up to one
thread per available CPU; each result depends only on its own inputs, so the
values do not depend on the number of threads.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional, Tuple

import numpy as np

from .models import ModelKind, default_domain, mass, v_eff
from .orthopoly import _integer

# Absolute bisection tolerance for eigenvalues.  The default (0.0) lets
# LAPACK fall back to a norm-relative tolerance, which is useless when the
# x^(-l) barrier puts ~1e20 on the diagonal but the physics lives at O(1).
_BISECT_TOL = 1e-12

# Points per block of `discretize`: the temporaries of a coefficient call
# stay in cache.  At 200001 points this measured best, 8-10 ms against 20 ms
# for the grid in one piece.
_BLOCK = 16384

# Warm start (see `lowest_eigenvalues`).  On one thread it breaks even with
# the plain path at about 12001 points for 10 levels and 16001-24001 for 40;
# grids of 12001 points or fewer, which are all that `verify` and the CLI
# defaults use, keep the plain path.  From about 60 levels the 501-point grid
# no longer resolves the top levels, and some solves fall back.
_WARM_MIN = 32009
_WARM_MAX_K = 40
# Nested grids of 500, 1000 and 2000 intervals; the 2001-point solve is the
# coarse stage's critical path.
_COARSE_POINTS = (501, 1001, 2001)
# Relative floor of a window's half-width per interval of the grid.  It covers
# the rounding of the double-precision Sturm count itself, not prediction
# error.  Measured on Case 1 b = 3/2, alpha = 7/3, m = 2 (levels 0, 1 and 3 of
# 10): an np.longdouble Sturm bisection of the same stored matrix lies 1.0e-12
# to 2.7e-11 (relative) from the coarse prediction, and `dlaebz`'s value lies
# 5.1e-12 to 3.4e-11 from that bisection at 40001 points and 1.1e-10 to
# 4.6e-10 at 200001, 13 to 22 times more for 5 times the points.  Levels at
# the floor have erred 1.9e-9 relative at 200001 points (floor 1e-9) and
# 6.1e-11 at 32009-40001 (1.6e-10 to 2e-10).
_WINDOW_FLOOR = 5e-15
# Steps of a window's bisection before an end that no probe moved is counted
_PROBE_STEPS = 3
# A window that holds no value is widened about its centre by this factor, at
# most `_WIDEN_TRIES` times.  Where the x^(-2) barrier makes the FD error
# non-analytic in h^2 (Case 2, eta = 0, alpha = 5/4), the prediction errs by
# 2 to 48 times its estimate, up to 44 half-widths: one widening covers that.
_WIDEN_FACTOR = 64.0
_WIDEN_TRIES = 3
# Threads of the warm start's pool, which starts one only when none is idle.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


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
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"grid span hi - lo overflows: [{self.lo}, "
                             f"{self.hi}]")
        object.__setattr__(self, "npoints", _integer(self.npoints, "npoints", 16))

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
    """Flux-form discretization with 1/M at midpoints and V at interior nodes.

    The coefficients are sampled, and the matrix filled, `_BLOCK` points at
    a time, so that beyond the grid and the matrix only block-sized arrays
    are made.  Every midpoint's mass is checked before any potential; a
    spacing whose square overflows is refused first.
    """
    try:
        h2 = grid.h ** 2
    except OverflowError:
        raise ValueError(f"the grid leaves double precision: the square of "
                         f"its spacing {grid.h:.17g} overflows") from None
    xs = grid.xs()
    n = grid.npoints - 2
    # 1/M at the n + 1 midpoints; the potential pass turns its first n
    # entries into the diagonal in place
    inv = np.empty(n + 1)
    for s in range(0, n + 1, _BLOCK):
        end = min(s + _BLOCK, n + 1)
        mid = 0.5 * (xs[s:end] + xs[s + 1:end + 1])
        mvals = _sample(massfn, mid, "mass")
        ok = np.isfinite(mvals) & (mvals > 0)
        if not ok.all():
            raise ValueError(f"mass is not positive and finite at midpoint "
                             f"x={mid[~ok][0]}")
        np.divide(1.0, mvals, out=inv[s:end])
    offdiag = np.divide(inv[1:-1], -h2)
    for s in range(0, n, _BLOCK):
        end = min(s + _BLOCK, n)
        nodes = xs[s + 1:end + 1]
        vvals = _sample(potfn, nodes, "potential")
        ok = np.isfinite(vvals)
        if not ok.all():
            raise ValueError(f"potential is not finite at node "
                             f"x={nodes[~ok][0]}")
        block = inv[s:end] + inv[s + 1:end + 1]
        block /= h2
        np.add(block, vvals, out=inv[s:end])
    return DiscretizedOperator(diag=inv[:-1], offdiag=offdiag, grid=grid,
                               coefficients=(massfn, potfn))


# The LAPACK symbols numpy's wheels export from the OpenBLAS they bundle,
# built with 64-bit integers, in the order (dstebz, dstein, dlaebz).
_NUMPY_SYMBOLS = ("scipy_dstebz_64_", "scipy_dstein_64_", "scipy_dlaebz_64_")
_ROUTINES = ("dstebz", "dstein", "dlaebz")


def _numpy_lapack():
    """The addresses of `_ROUTINES` in the OpenBLAS that numpy loaded, or
    None unless all are there (a numpy built from source, or on MKL or
    Accelerate, exports none)."""
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return tuple(ctypes.cast(getattr(lib, symbol), ctypes.c_void_p).value
                     for symbol in _NUMPY_SYMBOLS)
    except (AttributeError, OSError):
        return None


def _scipy_lapack():
    """The addresses of `_ROUTINES` that `scipy.linalg.cython_lapack`
    exports, which take C ints."""
    import ctypes
    from scipy.linalg import cython_lapack

    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    capsules = [cython_lapack.__pyx_capi__[name] for name in _ROUTINES]
    return tuple(get_pointer(c, get_name(c)) for c in capsules)


@cache
def _binding():
    """`_ROUTINES` bound through ctypes, all from one LAPACK, with the
    ctypes integer type they take: numpy's own OpenBLAS (64-bit integers)
    when it exports all three, else `scipy.linalg.cython_lapack` (C ints).
    Only the second loads a scipy submodule.

    A ctypes call releases the GIL, so bisections on separate threads run
    at the same time; scipy's own f2py wrappers hold it.
    """
    import ctypes

    addresses = _numpy_lapack()
    fortran = addresses is not None
    integer = ctypes.c_int64 if fortran else ctypes.c_int
    stebz_at, stein_at, laebz_at = addresses if fortran else _scipy_lapack()
    char = ctypes.c_char_p
    num = ctypes.POINTER(integer)
    dbl = ctypes.POINTER(ctypes.c_double)
    doubles = np.ctypeslib.ndpointer(np.double, ndim=1, flags="C")
    ints = np.ctypeslib.ndpointer(integer, ndim=1, flags="C")
    columns = np.ctypeslib.ndpointer(np.double, ndim=2, flags="F")
    # RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK
    # IWORK INFO, then, for a Fortran symbol, the lengths of RANGE and ORDER
    # that gfortran passes after the last argument
    stebz_args = (char, char, num, dbl, dbl, num, num, dbl, doubles, doubles,
                  num, num, doubles, ints, ints, doubles, ints, num)
    lengths = (ctypes.c_size_t,) * 2 if fortran else ()
    raw_stebz = ctypes.CFUNCTYPE(None, *stebz_args, *lengths)(stebz_at)
    # N D E M W IBLOCK ISPLIT Z LDZ WORK IWORK IFAIL INFO
    dstein = ctypes.CFUNCTYPE(None, num, doubles, doubles, num, doubles, ints,
                              ints, columns, num, doubles, ints, ints,
                              num)(stein_at)
    # IJOB NITMAX N MMAX MINP NBMIN ABSTOL RELTOL PIVMIN D E E2 NVAL AB C
    # MOUT NAB WORK IWORK INFO
    dlaebz = ctypes.CFUNCTYPE(None, num, num, num, num, num, num, dbl, dbl,
                              dbl, doubles, doubles, doubles, ints, doubles,
                              doubles, num, ints, doubles, ints,
                              num)(laebz_at)
    if fortran:
        def dstebz(*args):
            raw_stebz(*args, 1, 1)
    else:
        dstebz = raw_stebz
    return {"dstebz": dstebz, "dstein": dstein, "dlaebz": dlaebz}, integer


def _lapack(name: str):
    """The LAPACK routine `name` (one of `_ROUTINES`) and the ctypes
    integer type its integer arguments take, from `_binding`."""
    routines, integer = _binding()
    return routines[name], integer


def _stebz(d: np.ndarray, e: np.ndarray, select: bytes, vl: float, vu: float,
           il: int, iu: int, tol: float):
    """One `dstebz` call on the tridiagonal matrix (d, e), ordered by value.

    `select` b"V" bisects the eigenvalues in (vl, vu], b"I" those of
    (1-based) index il..iu, b"A" all.  Returns (m, w, info), with w cut to
    the m values found; the block index and splitting that `dstebz` also
    writes are workspace here.
    """
    import ctypes

    n = d.size
    if e.size != n - 1:
        raise ValueError("arrays do not fit the matrix")
    dstebz, integer = _lapack("dstebz")
    w = np.empty(n)
    iblock, isplit = np.empty(n, dtype=integer), np.empty(n, dtype=integer)
    m, nsplit, info = integer(), integer(), integer()
    dstebz(select, b"E", ctypes.byref(integer(n)),
           ctypes.byref(ctypes.c_double(vl)), ctypes.byref(ctypes.c_double(vu)),
           ctypes.byref(integer(il)), ctypes.byref(integer(iu)),
           ctypes.byref(ctypes.c_double(tol)), d, e, ctypes.byref(m),
           ctypes.byref(nsplit), w, iblock, isplit, np.empty(4 * n),
           np.empty(3 * n, dtype=integer), ctypes.byref(info))
    return m.value, w[:m.value].copy(), info.value


def _nested_fit(op: DiscretizedOperator, k: int, ladder: Tuple[int, ...],
                t: float, pmap: Callable = map):
    """The lowest k levels of `op`'s problem on the nested grids `ladder`
    (point counts over `op`'s interval), extrapolated to squared spacing t,
    an error estimate, and the levels of each grid (a list of arrays, in
    `ladder`'s order).

    The grids are solved by `lowest_eigenvalues` (below `_WARM_MIN`, so
    by plain index bisection), the finest first, through `pmap` (`map`, or
    a thread pool's to run them at once).  Neville's scheme evaluates at t
    the polynomial in h^2 through the levels of all the grids; the estimate
    is its distance from the one through all but the coarsest.
    """
    massfn, potfn = op.coefficients
    coarse = [discretize(massfn, potfn, Grid(op.grid.lo, op.grid.hi, npoints))
              for npoints in ladder]
    _lapack("dstebz")           # bound here, so that no thread binds it
    fits = list(pmap(lambda c: lowest_eigenvalues(c, k), reversed(coarse)))
    fits.reverse()
    levels = fits
    h2 = [c.grid.h ** 2 for c in coarse]
    for span in range(1, len(fits)):    # fits[i]: through grids i..i+span
        finer = fits[-1]
        fits = [a + (b - a) * ((t - h2[i]) / (h2[i + span] - h2[i]))
                for i, (a, b) in enumerate(zip(fits, fits[1:]))]
    return fits[0], np.abs(fits[0] - finer), levels


def _predicted_windows(op: DiscretizedOperator, k: int,
                       pmap: Callable = map):
    """Centres and half-widths of k windows predicted to hold the fine
    grid's lowest k levels: `_nested_fit` on `_COARSE_POINTS`, and a
    sixteenth of its estimate, at least `_WINDOW_FLOOR` per grid interval."""
    centre, spread, _ = _nested_fit(op, k, _COARSE_POINTS, op.grid.h ** 2,
                                    pmap)
    floor = _WINDOW_FLOOR * (op.grid.npoints - 1)
    return centre, np.maximum(spread / 16, floor * np.maximum(1, abs(centre)))


def _sturm_squares(d: np.ndarray, e: np.ndarray):
    """The squared off-diagonal of the matrix (d, e) and the pivot floor
    that `dstebz` takes for it, or None where `dstebz` would split the
    matrix into blocks (at an off-diagonal entry negligible beside its two
    diagonal ones).  `lowest_eigenvalues` has refused a matrix whose
    squares overflow."""
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    e2 = e * e
    negligible = d[1:] * d[:-1]
    np.abs(negligible, out=negligible)
    negligible *= eps * eps
    negligible += tiny
    if np.any(negligible > e2):
        return None
    return e2, max(1.0, float(e2.max())) * tiny


def _laebz(ijob: int, d: np.ndarray, e: np.ndarray, e2: np.ndarray,
           pivmin: float, ab: np.ndarray, nab: np.ndarray,
           nitmax: int = 0) -> int:
    """One `dlaebz` call on one interval ab = [lo, hi] of the matrix (d, e),
    as `dstebz` makes it for an unsplit matrix: IJOB 1 writes the Sturm
    counts N(lo) and N(hi) to nab, and IJOB 2, given those counts, bisects
    the interval in place, to `_BISECT_TOL` and in at most nitmax steps.
    Returns INFO."""
    import ctypes

    n = d.size
    if e.size != n - 1 or e2.size != n - 1 or ab.size != 2 or nab.size != 2:
        raise ValueError("arrays do not fit the matrix")
    dlaebz, integer = _lapack("dlaebz")
    one = ctypes.byref(integer(1))
    mout, info = integer(), integer()
    # MMAX = MINP = 1 and NBMIN = 0, the serial loop `dstebz` runs; the
    # relative tolerance is `dstebz`'s 2 ulp; nab stands in for NVAL, which
    # only IJOB 3 reads
    dlaebz(ctypes.byref(integer(ijob)), ctypes.byref(integer(nitmax)),
           ctypes.byref(integer(n)), one, one, ctypes.byref(integer(0)),
           ctypes.byref(ctypes.c_double(_BISECT_TOL)),
           ctypes.byref(ctypes.c_double(2 * np.finfo(float).eps)),
           ctypes.byref(ctypes.c_double(pivmin)), d, e, e2, nab, ab,
           np.empty(1), ctypes.byref(mout), nab, np.empty(1),
           np.empty(1, dtype=integer), ctypes.byref(info))
    return info.value


def _warm_values(op: DiscretizedOperator, k: int):
    """The lowest k eigenvalues bisected inside predicted windows, or None
    when a coarse grid fails or the windows cannot be certified.

    The windows must be disjoint and ascending, and the matrix must not
    split into blocks.  One thread pool runs the coarse solves, then
    bisects each window j (`dlaebz`, IJOB 2) `_PROBE_STEPS` steps as if
    N(lower) = j and N(upper) = j + 1: a probe moves the lower end only if
    it counts at most j, the upper end only if at least j + 1.  A window
    with an end that no probe moved has its ends counted (IJOB 1): if it
    holds no value it is widened about its centre by `_WIDEN_FACTOR`, clear
    of its neighbours, and started again, at most `_WIDEN_TRIES` times, and
    counts other than (j, j + 1) are refused.  Then every window finishes
    its bisection, concurrently; each value is bit for bit the one `dstebz`
    gives for level j on that window.  Callers ignore floating-point errors
    here: an overflow shows as a non-finite window or pivot floor, which is
    refused.
    """
    from concurrent.futures import ThreadPoolExecutor

    d, e = np.ascontiguousarray(op.diag), np.ascontiguousarray(op.offdiag)
    sturm = _sturm_squares(d, e)
    if sturm is None:
        return None
    e2, pivmin = sturm
    integer = _lapack("dlaebz")[1]
    # row j: window j's interval, and the counts at its ends
    ab = np.empty((k, 2))
    nab = np.empty((k, 2), dtype=integer)
    expected = np.arange(k)[:, None] + [0, 1]
    running = [1] * k       # the INFO of each window's probes: 0 once done

    def probe(j):
        window = np.array([lower[j], upper[j]])
        ab[j], nab[j] = window, expected[j]
        running[j] = _laebz(2, d, e, e2, pivmin, ab[j], nab[j], _PROBE_STEPS)
        unmoved = np.any(ab[j] == window)
        return unmoved and _laebz(1, d, e, e2, pivmin, window, nab[j])

    def finish(j):
        # `dstebz`'s cap on the number of steps, less those taken
        steps = int((math.log(upper[j] - lower[j] + pivmin) - math.log(pivmin))
                    / math.log(2.0)) + 2 - _PROBE_STEPS
        return running[j] and _laebz(2, d, e, e2, pivmin, ab[j], nab[j], steps)

    with ThreadPoolExecutor(_WORKERS) as pool:
        try:
            centre, half = _predicted_windows(op, k, pool.map)
        except (ValueError, ArithmeticError, RuntimeError):
            return None
        lower, upper = centre - half, centre + half
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
                and np.all(lower < upper) and np.all(upper[:-1] <= lower[1:])):
            return None
        todo = range(k)
        for tries in range(_WIDEN_TRIES + 1):
            if any(list(pool.map(probe, todo))):    # every result read
                return None
            missed = np.flatnonzero(np.any(nab != expected, axis=1))
            if not missed.size:
                break
            if tries == _WIDEN_TRIES or np.any(np.diff(nab[missed])):
                return None
            for j in missed:    # ascending: clear of the widened one below
                half[j] *= _WIDEN_FACTOR
                lower[j] = max(centre[j] - half[j],
                               upper[j - 1] if j else -np.inf)
                upper[j] = min(centre[j] + half[j],
                               lower[j + 1] if j + 1 < k else np.inf)
            todo = missed
        # the top windows are the widest and take the most steps; handing
        # them out first leaves short ones for the end
        if any(list(pool.map(finish, range(k - 1, -1, -1)))):
            return None
    return 0.5 * (ab[:, 0] + ab[:, 1])


def lowest_eigenvalues(op: DiscretizedOperator, k: int) -> np.ndarray:
    """Lowest k eigenvalues, ascending, by LAPACK bisection alone.

    The plain path bisects levels 0..k-1 by index over the whole spectrum.
    An operator from `discretize` on at least `_WARM_MIN` points, asked for
    at most `_WARM_MAX_K` levels, is warm-started instead: its values are
    bisected to the same `_BISECT_TOL` inside windows predicted from coarse
    grids and certified by Sturm counts (`_warm_values`).  A warm value lies
    within `_BISECT_TOL` of the plain one; when the windows cannot be
    certified or the matrix splits, the plain path's results and errors are
    returned.  A matrix with an infinite or NaN entry, or with an
    off-diagonal entry whose square overflows (Sturm counts square them, and
    bisection then finds no value), is refused before either path runs.
    """
    k = _integer(k, "k", 1, op.size)
    d, e = np.ascontiguousarray(op.diag), np.ascontiguousarray(op.offdiag)
    top = float(np.abs(e).max(initial=0.0))
    if not (np.all(np.isfinite(d)) and math.isfinite(top)):
        raise ValueError("array must not contain infs or NaNs")
    if not math.isfinite(top * top):
        raise ValueError(f"the matrix leaves double precision: the square of "
                         f"its off-diagonal entry {top:.3g} overflows")
    vals = None
    if (op.coefficients is not None and op.grid is not None
            and op.grid.npoints >= _WARM_MIN and k <= _WARM_MAX_K):
        with np.errstate(all="ignore"):
            vals = _warm_values(op, k)
    if vals is None:
        m, vals, info = _stebz(d, e, b"I", 0.0, 1.0, 1, k, _BISECT_TOL)
        if info or m != k:
            raise RuntimeError(f"tridiagonal eigensolve failed: bisection "
                               f"found {m} of {k} values (info={info})")
    if np.any(np.diff(vals) <= 0):
        raise RuntimeError("eigenvalues are not strictly increasing")
    return vals


def eigen_lowest(op: DiscretizedOperator, k: int) -> SpectrumResult:
    """Lowest k eigenpairs: the values of `lowest_eigenvalues`, and vectors
    by inverse iteration, one `dstein` call that takes the matrix as one
    block.  Where `dstebz` finds one block, as on every model's matrix, the
    vectors are bit for bit those of a call block by block."""
    import ctypes

    vals = lowest_eigenvalues(op, k)
    n = op.size
    dstein, integer = _lapack("dstein")
    vecs = np.empty((n, k), order="F")
    info = integer()
    dstein(ctypes.byref(integer(n)), np.ascontiguousarray(op.diag),
           np.ascontiguousarray(op.offdiag), ctypes.byref(integer(k)), vals,
           np.ones(k, dtype=integer), np.array([n], dtype=integer), vecs,
           ctypes.byref(integer(n)), np.empty(5 * n),
           np.empty(n, dtype=integer), np.empty(k, dtype=integer),
           ctypes.byref(info))
    if info.value:
        raise RuntimeError(f"tridiagonal eigensolve failed: inverse iteration "
                           f"returned info={info.value}")
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
