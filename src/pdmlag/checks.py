"""The `verify` battery, and every route that exists only to check another.

Each closed form of the package has a production route (``v_eff``,
``superpotential``, ``partner_potential``, ``xm_laguerre``, the FD solver)
and, here, an independent route that checks it: each family's potential as
derived by hand, the master identity of the point canonical transformation,
W from the log-derivative of the ground state, the partner potential built
from W, the denominator-cleared X_m ODE, the X_m inner product (a
Gauss-Laguerre rule, built in numpy) and the observed order of the FD
solver.  `CHECKS` is the battery that ``pdmlag verify`` runs and times.

No production module and no data command imports this module, so a
`spectrum`, `profile` or `density2d` process never loads it.  It loads no
scipy submodule itself.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cli import _default_config, _plot_grid, _profile_grid
from .models import (Case1Params, Case2Params, ModelKind, _bracket, _points,
                     _ret, default_domain, energy, energy_fraction, mass,
                     v_eff, wavefunction)
from .orthopoly import (Polynomial, XmFamilySpec, _integer,
                        _laguerre_or_zero, eval_poly, eval_xm_laguerre,
                        laguerre_data, xm_laguerre)
from .solver import (Grid, _auto_grid, _model_operator, _nested_fit, _stebz,
                     align_sign, discretize, lowest_eigenvalues, quadrature)
from .susy import (_inv_sqrt_mass, _ratio_s, _w1, apply_A, apply_A_dagger,
                   partner_model, partner_wavefunction)

# The sizes of the Gauss rules `xm_inner_product` tries in turn, and the
# agreement of two successive rules, relative to sum |w f|, that ends it.
_GAUSS_NODES, _GAUSS_RTOL = (64, 128, 256, 512, 1024), 1e-12


# ---------------------------------------------------------------------------
# X_m-Laguerre polynomials: the ODE and the inner product

def xm_ode_residual(p: Polynomial, nu: int, spec: XmFamilySpec) -> Polynomial:
    """Residual of `p` in the denominator-cleared X_m ODE with parameter `nu`.

    Returns g*h*p'' + [(alpha+1-g)*h - 2*g*h1]*p' + [nu*h - 2*alpha*h1]*p
    with h = L_m^(alpha-1)(-g) and h1 = L_{m-1}^(alpha)(-g); the zero
    polynomial certifies that `p` solves the ODE with that parameter.  The
    operator is assembled from the ODE coefficients, not from the product
    form ``xm_laguerre`` uses, so a zero residual is an independent check.
    """
    m, alpha = spec.m, spec.alpha
    h = _laguerre_or_zero(m, alpha - 1).reflected()
    h1 = _laguerre_or_zero(m - 1, alpha).reflected()
    g = Polynomial((0, 1))
    dp = p.derivative()
    return (g * h * dp.derivative()
            + (Polynomial((alpha + 1, -1)) * h - 2 * g * h1) * dp
            + (nu * h - 2 * alpha * h1) * p)


@lru_cache(maxsize=None)
def _gauss_laguerre(alpha: float, n: int):
    """Nodes and weights of the n-point Gauss rule for g^alpha e^(-g), g > 0.

    Nodes: the eigenvalues of the Jacobi matrix, diagonal 2k+alpha+1 and
    off-diagonal b_k = sqrt(k(k+alpha)) (Golub and Welsch, Math. Comp. 23
    (1969) 221), by the solver's one-thread LAPACK bisection at its most
    accurate tolerance (a dense eigensolver's threaded BLAS can stall for
    tenths of a second).  Weights: the Christoffel numbers 1 / sum_k
    p_k(g)^2 of the orthonormal recurrence, 0 where the sum overflows,
    accurate relative to their own size, unlike Gamma(alpha+1) v_0^2.
    """
    k = np.arange(n, dtype=float)
    diag, b = 2.0 * k + alpha + 1.0, np.sqrt(k * (k + alpha))
    nodes = _stebz(diag, b[1:], b"A", 0, 0, 0, 0, 2 * np.finfo(float).tiny)[1]
    with np.errstate(all="ignore"):
        prev, p = 0.0, np.full(n, math.gamma(alpha + 1.0) ** -0.5)
        total = p * p
        for j in range(n - 1):  # b_{j+1} p_{j+1} = (g - a_j) p_j - b_j p_{j-1}
            prev, p = p, ((nodes - diag[j]) * p - b[j] * prev) / b[j + 1]
            total += p * p
        return nodes, np.nan_to_num(1.0 / total, nan=0.0)


def xm_inner_product(nu1: int, nu2: int, spec: XmFamilySpec) -> float:
    """Weighted inner product of two family members over (0, inf).

    The weight is g^alpha e^(-g) / h^2 with h = L_m^(alpha-1)(-g), whose
    zeros lie at g < 0, so the Gauss rule for g^alpha e^(-g) is applied to
    the smooth f = X_nu1 X_nu2 / h^2, with `_GAUSS_NODES` nodes in turn
    until two rules agree to `_GAUSS_RTOL` of sum |w f|; RuntimeError if
    the last two do not.
    """
    if nu1 < spec.m or nu2 < spec.m:
        raise ValueError("both degrees must be >= m")
    h = laguerre_data(spec.m, spec.alpha).h
    value = math.nan
    for n in _GAUSS_NODES:
        g, w = _gauss_laguerre(float(spec.alpha), n)
        terms = (w * eval_xm_laguerre(nu1, spec, g)
                 * eval_xm_laguerre(nu2, spec, g) / eval_poly(h, g) ** 2)
        last, value = value, float(np.sum(terms))
        if abs(value - last) <= _GAUSS_RTOL * np.sum(np.abs(terms)):
            return value
    raise RuntimeError(
        f"the X_m inner product did not converge by {n} Gauss-Laguerre "
        f"nodes: {last:.17g} with the rule before, {value:.17g} with {n}")


# ---------------------------------------------------------------------------
# the effective potential: hand-derived forms and the master identity

def v_eff_by_hand(model: ModelKind, x):
    """Each family's V_eff as derived by hand, at in-domain points x.

    Case 1: b^2/4 [(alpha^2-1)/g + g] + b^2 B(g) g + vc with g = e^(-b x);
    Case 2: [(alpha^2-1)/g + g]/4 + B(g) g + (2l-1)/(4 l^2 g) + vc with
    g = x^l; B is ``models._bracket``.  It is the reference that
    ``pct_master_residual`` checks the generic ``v_eff`` against.
    """
    af = float(model.alpha)
    if isinstance(model, Case1Params):
        bf = float(model.b)
        g = np.exp(-bf * x)
        return (bf * bf / 4.0 * ((af * af - 1.0) * np.exp(bf * x) + g)
                + bf * bf * _bracket(model, g) * g + float(model.vc))
    l = model.l
    g, inv = x ** l, x ** (-l)
    return (0.25 * ((af * af - 1.0) * inv + g) + _bracket(model, g) * g
            + (2 * l - 1) / (4.0 * l * l) * inv + float(model.vc))


def v_eff_m1_closed_form(p: Case1Params, x):
    """Closed-form m=1 effective potential of the exponential-mass model.

    Identical to ``v_eff`` at m=1; kept as an independent evaluation path
    for cross-checking.
    """
    if not isinstance(p, Case1Params) or p.m != 1:
        raise ValueError("closed form applies to Case 1 with m = 1 only")
    xa = np.asarray(x, dtype=float)
    bf, af = float(p.b), float(p.alpha)
    ebx = np.exp(bf * xa)
    out = (bf * bf / 4.0 * (ebx * (af * af - 1.0) + np.exp(-bf * xa)
                            + 4.0 / (af * (1.0 + af * ebx))
                            + 8.0 * ebx / (1.0 + af * ebx) ** 2)
           + float(p.vc))
    return _ret(x, out)


def pct_master_residual(model: ModelKind, n: int, x):
    """Defect of ``v_eff`` against the family's hand-derived potential.

    The transformation's master identity is E_n - V_eff = C g (R - Q'/2 -
    Q^2/4) - K, with Q = (alpha+1)/g - 1 - 2u and R = (n + m - 2 alpha u)/g
    the X_m equation's coefficients in g (u = h'/h) and K the
    Schwarzian-and-mass term.  The result is the sum of two defects that
    vanish when every formula is consistent: the hand-derived closed form
    ``v_eff_by_hand`` minus the production ``v_eff``, and (E_n - vc) - C
    [(alpha^2-1)/(4g) + g/4 + g B(g) + g (R - Q'/2 - Q^2/4)], the identity
    with K taken out.
    """
    pm, xa = _points(model, x)
    g = pm.g(xa)
    data = laguerre_data(model.m, model.alpha)
    af = float(model.alpha)
    hv, h1v, h2v = (eval_poly(p, g) for p in (data.h, data.h1, data.h2))
    u = h1v / hv
    du = (h2v * hv - h1v * h1v) / hv ** 2
    q = (af + 1.0) / g - 1.0 - 2.0 * u
    dq = -(af + 1.0) / g ** 2 - 2.0 * du
    r = (n + model.m - 2.0 * af * u) / g
    xm_defect = (float(energy_fraction(model, n) - model.vc) - float(pm.c) * (
        (af * af - 1.0) / (4.0 * g) + g / 4.0 + g * _bracket(model, g)
        + g * (r - dq / 2.0 - q ** 2 / 4.0)))
    out = v_eff_by_hand(model, xa) - v_eff(model, xa) + xm_defect
    return _ret(x, out)


# ---------------------------------------------------------------------------
# supersymmetry: W and the partner potential by a second route

def superpotential_from_groundstate(model: ModelKind, x):
    """W(x) = -(1/sqrt(M)) psi_0'/psi_0 by high-order log-derivative stencils.

    Independent of the closed form in ``superpotential``: the only shared
    ingredient is the analytic ground state itself.
    """
    pm, xa = _points(model, np.atleast_1d(x))
    # Near a finite domain end the log-derivative behaves like 1/x, so a
    # step proportional to the distance keeps the stencil error flat.
    h = 1e-3 * (xa - pm.lo if pm.lo > -math.inf else np.maximum(1.0, np.abs(xa)))

    def logpsi(pts):
        return np.log(np.abs(wavefunction(model, 0, pts)))

    dlog = (logpsi(xa - 2 * h) - 8.0 * logpsi(xa - h)
            + 8.0 * logpsi(xa + h) - logpsi(xa + 2 * h)) / (12.0 * h)
    out = -_inv_sqrt_mass(model, xa) * dlog
    return _ret(x, out[0] if np.ndim(x) == 0 else out)


def _ratio_s_deriv(model: ModelKind, g):
    """dS/dg via the raising identity d/dg L_n^a(-g) = L_{n-1}^(a+1)(-g)."""
    data = laguerre_data(model.m, model.alpha)
    hv, h1v, h2v, hav, q1v, q2v = (eval_poly(p, g) for p in (
        data.h, data.h1, data.h2, data.ha, data.q1, data.q2))
    return ((h2v * hv - h1v * h1v) / hv ** 2
            - (q2v * hav - q1v * q1v) / hav ** 2)


def _v2_route(model: ModelKind, x):
    """Partner potential via W: V + 2 W'/sqrt(M) - (1/sqrt(M)) (1/sqrt(M))''.

    Through g'/sqrt(M) = s sqrt(C g), W'/sqrt(M) = C [g S' + (1/2 + S)/2 +
    w1/(2g)]; the curvature term is C (3 e1^2/4 - e2/2)/(d1^2 g).
    """
    pm, xa = _points(model, x)
    g = pm.g(xa)
    curvature = float((3 * pm.e1 ** 2 - 2 * pm.e2) / (4 * pm.d1 ** 2))
    dw = (g * _ratio_s_deriv(model, g) + (0.5 + _ratio_s(model, g)) / 2.0
          + _w1(model, pm) / (2.0 * g))
    out = v_eff(model, xa) + float(pm.c) * (2.0 * dw - curvature / g)
    return _ret(x, out)


def shape_invariance_residual(model: ModelKind, x):
    """V_partner(x; alpha) - V(x; alpha -> alpha+1) - R_shift.

    The partner side is built from the superpotential (the W route), so the
    cancellation against the alpha+1 potential is a genuine identity check
    rather than a restatement of the closed form.
    """
    pm = partner_model(model)
    return _v2_route(model, x) - v_eff(pm.comparison, x) - float(pm.r_shift)


# ---------------------------------------------------------------------------
# the FD solver's observed order

def convergence_order(model, level: int, base_points: int = 251) -> float:
    """Observed FD order from Richardson triples of the lowest eigenvalue.

    `level` counts grid halvings from the base grid, so `level` >= 2 gives
    the minimum three nested grids; accepts a ModelKind or a raw problem
    tuple (massfn, potfn, lo, hi).  The nested grids are solved by the
    solver's `_nested_fit`.
    """
    level = _integer(level, "level", 2)
    if isinstance(model, tuple):
        massfn, potfn, lo, hi = model
        op = discretize(massfn, potfn, Grid(lo, hi, base_points))
    else:
        op = _model_operator(model, 1,
                             Grid(*default_domain(model, 0), base_points))
    ladder = tuple((base_points - 1) * 2 ** j + 1 for j in range(level + 1))
    levels = _nested_fit(op, 1, ladder, 0.0)[2]
    diffs = np.diff([values[0] for values in levels])
    orders = []
    for j in range(diffs.size - 1):
        if diffs[j] * diffs[j + 1] <= 0 or abs(diffs[j + 1]) >= abs(diffs[j]):
            raise RuntimeError(
                "non-monotone eigenvalue error sequence; refine the base grid")
        orders.append(float(np.log2(abs(diffs[j]) / abs(diffs[j + 1]))))
    return orders[-1]


# ---------------------------------------------------------------------------
# the battery's measures

def _check_xm_ode_exact() -> float:
    worst = Fraction(0)
    for m in range(1, 5):
        spec = XmFamilySpec(m, Fraction(2))
        for nu in range(m, m + 7):
            res = xm_ode_residual(xm_laguerre(nu, spec), nu, spec)
            for c in res.coeffs:
                worst = max(worst, abs(Fraction(c)))
    return float(worst)


def _check_xm_orthogonality() -> float:
    worst = 0.0
    for m in (1, 2, 3):
        spec = XmFamilySpec(m, Fraction(2))
        for nu1, nu2 in combinations(range(m, m + 4), 2):
            worst = max(worst, abs(xm_inner_product(nu1, nu2, spec)))
    return worst


def _check_m1_closed_form() -> float:
    model = Case1Params(1, 2, 1)
    xs = np.linspace(-3.0, 3.0, 1000)
    return float(np.max(np.abs(v_eff(model, xs)
                               - v_eff_m1_closed_form(model, xs))))


def _pct_worst(models, xs) -> float:
    worst = 0.0
    for model in models:
        for n in range(4):
            worst = max(worst, float(np.max(np.abs(
                pct_master_residual(model, n, xs)))))
    return worst


def _orthonormality_worst(model: ModelKind) -> float:
    lo, hi = default_domain(model, 4)
    pad = 0.25 * (hi - lo)
    grid = Grid(lo if model.pct_map.lo > -math.inf else lo - pad, hi + pad, 4001)
    xs = grid.xs()
    psis = [wavefunction(model, n, xs) for n in range(5)]
    worst = 0.0
    for i in range(5):
        for j in range(5):
            val = quadrature(psis[i] * psis[j], grid)
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    return worst


def _corrupted_spectrum(model: ModelKind, k: int, delta: float):
    op = discretize(lambda t: mass(model, t),
                    lambda t: v_eff(model, t) + delta, _auto_grid(model, k))
    return lowest_eigenvalues(op, k)


def _oracle_worst(models, k: int, delta: float) -> float:
    """Worst relative error of levels 0..k-1 of V_eff + delta (FD) against
    the closed-form levels."""
    worst = 0.0
    for model in models:
        vals = _corrupted_spectrum(model, k, delta)
        for n in range(k):
            exact = energy(model, n)
            worst = max(worst, abs(vals[n] - exact) / abs(exact))
    return worst


def _check_isochronous_gaps(delta: float) -> float:
    worst = 0.0
    for eta in (0, 1, 2, 3):
        model = Case2Params(eta, 2, 1)
        vals = _corrupted_spectrum(model, 4, delta)
        gaps = np.diff(vals)
        worst = max(worst, float(np.max(np.abs(gaps - 1.0))))
    return worst


def _check_susy_e0() -> float:
    worst = Fraction(0)
    for model in (Case1Params.susy_zero(1, 2, 1), Case1Params.susy_zero(2, 3, 2),
                  Case2Params.susy_zero(1, 2, 1), Case2Params.susy_zero(0, 2, 3)):
        worst = max(worst, abs(energy_fraction(model, 0)))
    return float(worst)


def _check_ground_annihilation() -> float:
    worst = 0.0
    for model in (Case1Params.susy_zero(1, 2, 1), Case1Params.susy_zero(1, 2, 3),
                  Case2Params.susy_zero(1, 2, 2)):
        grid = _auto_grid(model, 4, 3001)
        psi0 = wavefunction(model, 0, grid.xs())
        ratio = (np.sqrt(quadrature(apply_A(model, psi0, grid) ** 2, grid))
                 / np.sqrt(quadrature(psi0 ** 2, grid)))
        worst = max(worst, float(ratio))
    return worst


def _check_shape_invariance() -> float:
    xs1 = np.linspace(-4.0, 3.0, 100)
    xs2 = np.linspace(0.2, 3.0, 100)
    cases = [(Case1Params(1, alpha, m), xs1) for m in (1, 2, 3)
             for alpha in (Fraction(3, 2), Fraction(2), Fraction(3))]
    cases += [(Case2Params(eta, 2, m), xs2) for eta in (0, 1, 2) for m in (1, 2)]
    cases += [(Case1Params(2, 2, 2), xs1),
              # the cases of the retired susy-partner-route check, whose
              # residual was this one's negation
              (Case1Params(1, 2, 2), np.linspace(-4.0, 3.0, 50)),
              (Case2Params(1, 2, 1), np.linspace(0.2, 3.0, 50))]
    return max(float(np.max(np.abs(shape_invariance_residual(model, xs))))
               for model, xs in cases)


def _check_intertwining() -> float:
    worst = 0.0
    for model in (Case1Params.susy_zero(1, 2, 1), Case2Params.susy_zero(1, 2, 1)):
        grid = _auto_grid(model, 4, 3001)
        xs = grid.xs()
        for n in (0, 1):
            lowered = apply_A(model, wavefunction(model, n + 1, xs), grid)
            lowered /= np.sqrt(quadrature(lowered ** 2, grid))
            target = partner_wavefunction(model, n, xs)
            target /= np.sqrt(quadrature(target ** 2, grid))
            worst = max(worst, float(np.max(np.abs(
                align_sign(lowered) - align_sign(target)))))
            raised = apply_A_dagger(model, target, grid)
            raised /= np.sqrt(quadrature(raised ** 2, grid))
            base = wavefunction(model, n + 1, xs)
            worst = max(worst, float(np.max(np.abs(
                align_sign(raised) - align_sign(base)))))
    return worst


def _check_partner_spectrum() -> float:
    worst = 0.0
    for model in (Case1Params.susy_zero(1, 2, 1), Case2Params.susy_zero(1, 2, 2)):
        pm = partner_model(model)
        vals = lowest_eigenvalues(_model_operator(pm.comparison, 3), 3)
        for n in range(3):
            exact = energy(model, n + 1)
            worst = max(worst, abs(vals[n] + float(pm.r_shift)
                                   - exact) / abs(exact))
    return worst


def _check_ho_spectrum() -> float:
    # h^2 error on E_3 = 7 forces h <= ~2.5e-3 to clear the 1e-5 target
    grid = Grid(-10.0, 10.0, 12001)
    op = discretize(lambda t: np.ones_like(t), lambda t: t ** 2, grid)
    vals = lowest_eigenvalues(op, 4)
    return float(np.max(np.abs(vals - (2.0 * np.arange(4) + 1.0))))


def _check_ho_order() -> float:
    p = convergence_order((lambda t: np.ones_like(t), lambda t: t ** 2,
                           -10.0, 10.0), 2)
    return abs(p - 2.0)


def _check_profile_normalization() -> float:
    worst = 0.0
    for case, eta in ((1, 0), (2, 1)):
        cfg = _default_config(case=case, eta=eta)
        model = cfg.model()
        grid = _profile_grid(cfg, model)
        xs = grid.xs()
        for n in range(3):
            dens = wavefunction(model, n, xs) ** 2
            worst = max(worst, abs(quadrature(dens, grid) - 1.0))
    return worst


def _count_nodes(model: ModelKind, n: int) -> int:
    vals = wavefunction(model, n, _plot_grid(model, n, 4000).xs())
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _check_node_counts() -> float:
    worst = 0
    for model in (Case1Params(1, 2, 1), Case1Params(1, 2, 3),
                  Case2Params(1, 2, 1), Case2Params(0, 2, 2)):
        for n in range(4):
            worst = max(worst, abs(_count_nodes(model, n) - n))
    return float(worst)


def _density2d_mesh(n1: int, n2: int, npoints: int = 161):
    model = Case2Params(1, 2, 1)
    grid = _plot_grid(model, max(n1, n2, 2), npoints)
    px, py = (wavefunction(model, n, grid.xs()) ** 2 for n in (n1, n2))
    return grid, px, py


def _check_density2d_integral() -> float:
    grid, px, py = _density2d_mesh(1, 2)
    return abs(quadrature(px, grid) * quadrature(py, grid) - 1.0)


def _count_lobes(mesh: np.ndarray) -> int:
    """Interior points that are the unique maximum of their 3x3 window and
    exceed 1e-3 of the peak."""
    windows = np.lib.stride_tricks.sliding_window_view(mesh, (3, 3))
    centre = mesh[1:-1, 1:-1]
    unique_max = ((windows.max(axis=(2, 3)) == centre)
                  & ((windows == centre[..., None, None]).sum(axis=(2, 3)) == 1))
    return int(np.count_nonzero(unique_max & (centre > 1e-3 * mesh.max())))


def _check_density2d_lobes() -> float:
    worst = 0
    for n1, n2 in ((0, 0), (1, 2)):
        grid, px, py = _density2d_mesh(n1, n2)
        mesh = np.outer(px, py)
        worst = max(worst, abs(_count_lobes(mesh) - (n1 + 1) * (n2 + 1)))
    return float(worst)


# (name, tolerance, measure): measure(delta) is the check's measured value,
# which passes at or below the tolerance; delta is --corrupt-veff, the
# constant the FD oracle checks add to V_eff.
CHECKS = [
    ("xm-ode-exact", 0.0, lambda d: _check_xm_ode_exact()),
    ("xm-orthogonality", 1e-8, lambda d: _check_xm_orthogonality()),
    ("m1-closed-form", 1e-12, lambda d: _check_m1_closed_form()),
    ("pct-identity-case1", 1e-9, lambda d: _pct_worst(
        [Case1Params(1, 2, m) for m in (1, 2, 3)], np.linspace(-4.0, 3.0, 50))),
    ("pct-identity-case2", 1e-9, lambda d: _pct_worst(
        [Case2Params(eta, 2, m) for eta in (0, 1, 2) for m in (1, 2, 3)],
        np.linspace(0.2, 3.0, 50))),
    ("orthonormality-case1", 1e-6,
     lambda d: _orthonormality_worst(Case1Params(1, 2, 1))),
    ("orthonormality-case2", 1e-6,
     lambda d: _orthonormality_worst(Case2Params(1, 2, 2))),
    ("oracle-spectrum-case1", 1e-4, lambda d: _oracle_worst(
        [Case1Params(1, 2, m) for m in (1, 2, 3, 4)], 3, d)),
    ("oracle-spectrum-case2", 1e-3, lambda d: _oracle_worst(
        [Case2Params(eta, 2, m) for eta in (0, 1, 2, 3) for m in (1, 2)], 4, d)),
    ("isochronous-gaps", 1e-3, _check_isochronous_gaps),
    ("susy-e0-zero", 0.0, lambda d: _check_susy_e0()),
    ("susy-ground-annihilation", 1e-6, lambda d: _check_ground_annihilation()),
    ("susy-shape-invariance", 1e-9, lambda d: _check_shape_invariance()),
    ("susy-intertwine", 1e-5, lambda d: _check_intertwining()),
    ("susy-partner-spectrum", 1e-3, lambda d: _check_partner_spectrum()),
    ("solver-ho-spectrum", 1e-5, lambda d: _check_ho_spectrum()),
    ("solver-ho-order", 0.2, lambda d: _check_ho_order()),
    ("profile-normalization", 1e-6, lambda d: _check_profile_normalization()),
    ("profile-node-counts", 0.0, lambda d: _check_node_counts()),
    ("density2d-integral", 1e-4, lambda d: _check_density2d_integral()),
    ("density2d-lobes", 0.0, lambda d: _check_density2d_lobes()),
]
