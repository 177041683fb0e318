"""Analytic engine for the two solvable position-dependent-mass families.

Case 1 uses an exponential mass M(x) = e^(-b x) on the whole line; Case 2
uses a power-law mass M(x) = l^2 x^(l-2) (l = 2*eta + 2) on the half line.
Both are mapped by the change of variable g(x) onto the X_m-Laguerre
equation, which fixes the effective potential, the equispaced spectrum, and
the bound states.  Everything here is closed-form: a bound state is the
prefactor times the X_m polynomial in its Laguerre product form, scaled by
the closed-form normalization constant, so no state needs an exact
polynomial construction or a quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .orthopoly import XmFamilySpec, eval_poly, eval_xm_laguerre, laguerre_data


def _frac(value) -> Fraction:
    """Coerce int/float/str/Fraction to an exact Fraction."""
    if isinstance(value, (int, float, str, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def _susy_vc(b2: Fraction, alpha: Fraction, m: int) -> Fraction:
    """Additive constant that places the ground level exactly at zero."""
    return -b2 * (2 * m + alpha + alpha * alpha) / (2 * alpha)


@dataclass(frozen=True)
class Case1Params:
    """Exponential-mass model: M(x) = g(x) = e^(-b x) on the real line."""

    b: Fraction
    alpha: Fraction
    m: int
    vc: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "b", _frac(self.b))
        object.__setattr__(self, "alpha", _frac(self.alpha))
        object.__setattr__(self, "vc", _frac(self.vc))
        if self.b <= 0:
            raise ValueError(f"b must be > 0, got {self.b}")
        if self.alpha <= 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")

    @property
    def lam(self) -> Fraction:
        """Deformation parameter lambda = -1/b of the underlying algebra."""
        return -1 / self.b

    @property
    def big_c(self) -> Fraction:
        """Scale constant C = b^2 (so that lam * C = -b)."""
        return self.b * self.b

    @classmethod
    def susy_zero(cls, b, alpha, m: int) -> "Case1Params":
        """Instance with vc chosen so the ground-state energy is exactly 0."""
        b, alpha = _frac(b), _frac(alpha)
        return cls(b, alpha, m, _susy_vc(b * b, alpha, m))


@dataclass(frozen=True)
class Case2Params:
    """Power-law-mass model: M(x) = l^2 x^(l-2), g(x) = x^l on x > 0.

    l = 2*eta + 2 is always an even integer; nu = 2*eta/(2*eta+1) is the
    mass-deformation label, and c = l^2, kappa = 1 are carried as nominal
    bookkeeping constants.
    """

    eta: int
    alpha: Fraction
    m: int
    vc: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frac(self.alpha))
        object.__setattr__(self, "vc", _frac(self.vc))
        if not isinstance(self.eta, int) or self.eta < 0:
            raise ValueError(f"eta must be a non-negative integer, got {self.eta!r}")
        if self.alpha <= 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")

    @property
    def nu(self) -> Fraction:
        return Fraction(2 * self.eta, 2 * self.eta + 1)

    @property
    def l(self) -> int:
        return 2 * self.eta + 2

    @property
    def c(self) -> int:
        return self.l ** 2

    @property
    def kappa(self) -> int:
        return 1

    @classmethod
    def susy_zero(cls, eta: int, alpha, m: int) -> "Case2Params":
        """Instance with vc chosen so the ground-state energy is exactly 0."""
        return cls(eta, _frac(alpha), m, _susy_vc(Fraction(1), _frac(alpha), m))


ModelKind = Union[Case1Params, Case2Params]


def susy_constant(model: ModelKind) -> Fraction:
    """The vc value for which the model's ground level sits exactly at 0."""
    if isinstance(model, Case1Params):
        return _susy_vc(model.b * model.b, model.alpha, model.m)
    return _susy_vc(Fraction(1), model.alpha, model.m)


def _scalar_in(x) -> bool:
    return np.ndim(x) == 0


def _ret(x, out):
    return float(out) if _scalar_in(x) else out


def mass(model: ModelKind, x):
    """Position-dependent mass M(x); strictly positive on the domain."""
    xa = np.asarray(x, dtype=float)
    if isinstance(model, Case1Params):
        return _ret(x, np.exp(-float(model.b) * xa))
    if np.any(xa <= 0):
        raise ValueError("Case 2 mass is defined for x > 0 only")
    l = model.l
    return _ret(x, float(l * l) * xa ** (l - 2))


def g_map(model: ModelKind, x):
    """Change of variable g(x) mapping the model onto the X_m equation."""
    xa = np.asarray(x, dtype=float)
    if isinstance(model, Case1Params):
        return _ret(x, np.exp(-float(model.b) * xa))
    if np.any(xa <= 0):
        raise ValueError("Case 2 map is defined for x > 0 only")
    return _ret(x, xa ** model.l)


def _bracket(model: ModelKind, g):
    """Common Laguerre-ratio bracket multiplying g in the effective potential."""
    data = laguerre_data(model.m, model.alpha)
    af = float(model.alpha)
    hv = eval_poly(data.h, g)
    h1v = eval_poly(data.h1, g)
    h2v = eval_poly(data.h2, g)
    q1v = eval_poly(data.q1, g)
    return (2.0 * (h1v / hv) ** 2 - h2v / hv + q1v / (af * hv)
            + h1v / hv - q1v / hv)


def v_eff(model: ModelKind, x):
    """Full m-dependent effective potential, including the constant vc."""
    xa = np.asarray(x, dtype=float)
    af = float(model.alpha)
    vcf = float(model.vc)
    if isinstance(model, Case1Params):
        bf = float(model.b)
        g = np.exp(-bf * xa)
        out = (bf * bf / 4.0 * ((af * af - 1.0) * np.exp(bf * xa) + g)
               + bf * bf * _bracket(model, g) * g + vcf)
        return _ret(x, out)
    if np.any(xa <= 0):
        raise ValueError("Case 2 potential is defined for x > 0 only")
    l = model.l
    g = xa ** l
    inv = xa ** (-l)
    extra = (2 * l - 1) / (4.0 * l * l)
    out = (0.25 * ((af * af - 1.0) * inv + g)
           + _bracket(model, g) * g + extra * inv + vcf)
    return _ret(x, out)


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


def energy_fraction(model: ModelKind, n: int) -> Fraction:
    """Exact analytic eigenvalue as a Fraction."""
    if n < 0:
        raise ValueError("n must be non-negative")
    base = n + Fraction(model.alpha + 1, 2) + Fraction(model.m) / model.alpha
    if isinstance(model, Case1Params):
        return model.b * model.b * base + model.vc
    return base + model.vc


def energy(model: ModelKind, n: int) -> float:
    """Analytic eigenvalue E_n (equispaced: b^2 steps for Case 1, 1 for Case 2)."""
    return float(energy_fraction(model, n))


def level_spacing(model: ModelKind) -> float:
    """Constant gap between consecutive analytic eigenvalues."""
    return float(model.b * model.b) if isinstance(model, Case1Params) else 1.0


def pct_prefactor(model: ModelKind, x):
    """Wavefunction prefactor f(x) with psi_n = const * f * P_(n+m)(g).

    f is sqrt(M/g') * exp(half the antiderivative of the ODE's first-order
    coefficient), carried out in closed form; constant factors are dropped.
    """
    xa = np.asarray(x, dtype=float)
    data = laguerre_data(model.m, model.alpha)
    af = float(model.alpha)
    if isinstance(model, Case1Params):
        bf = float(model.b)
        g = np.exp(-bf * xa)
        out = np.exp(-((af + 1.0) * bf * xa + g) / 2.0) / eval_poly(data.h, g)
        return _ret(x, out)
    if np.any(xa < 0):
        raise ValueError("Case 2 wavefunctions are defined for x >= 0 only")
    l = model.l
    g = xa ** l
    expo = (l * (1.0 + af) - 1.0) / 2.0
    out = xa ** expo * np.exp(-g / 2.0) / eval_poly(data.h, g)
    return _ret(x, out)


def wavefunction(model: ModelKind, n: int, x):
    """Analytic bound state psi_n(x), normalized to unit L2 in closed form.

    psi_n = N_n * s * f(x) * P(g(x)), where f is ``pct_prefactor``, P is the
    standard-scale X_m polynomial of degree n + m evaluated by its Laguerre
    product form (``eval_xm_laguerre``), N_n is
    ``norm_constant_closed_form`` and s is 1 in Case 1 and sqrt(l) in Case 2
    (the Jacobian factor the closed-form constant leaves out).  The sign
    makes the polynomial's leading coefficient positive.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    pref = pct_prefactor(model, x)
    xa = np.asarray(x, dtype=float)
    if isinstance(model, Case1Params):
        g, s = np.exp(-float(model.b) * xa), 1.0
    else:
        g, s = xa ** model.l, math.sqrt(model.l)
    spec = XmFamilySpec(model.m, model.alpha, "standard")
    with np.errstate(over="ignore", invalid="ignore"):
        poly = eval_xm_laguerre(n + model.m, spec, g)
        psi = s * norm_constant_closed_form(model, n) * pref * poly
    # Deep in the barrier the prefactor underflows to 0 where the polynomial
    # may overflow; the state is 0 there.
    psi = np.where(pref == 0.0, 0.0, psi)
    if not np.all(np.isfinite(psi)):
        raise RuntimeError(f"bound state n={n} overflows in floating point")
    return _ret(x, psi)


def norm_constant_closed_form(model: ModelKind, n: int) -> float:
    """Closed-form normalization constant N for the standard polynomial scale.

    N = sqrt(b * n! / ((n+m+alpha) * Gamma(n+alpha))) for Case 1 and the same
    with b -> 1 for Case 2.  ``wavefunction`` uses it directly (times sqrt(l)
    in Case 2); the tests check it against a quadrature normalizer.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    af, m = float(model.alpha), model.m
    bf = float(model.b) if isinstance(model, Case1Params) else 1.0
    # n!/Gamma(n+alpha) via log-gamma: each factor alone overflows past n = 170
    return math.sqrt(bf / (n + m + af)) * math.exp(
        (math.lgamma(n + 1) - math.lgamma(n + af)) / 2)


def pct_master_residual(model: ModelKind, n: int, x):
    """Defect of the analytic data in the change-of-variable master identity.

    Evaluates [E_n - V_eff(x)] minus the closed-form right-hand side built
    from g, M, and the X_m equation coefficients Q and R (with parameter
    n + m); identically zero when every formula is consistent.
    """
    xa = np.asarray(x, dtype=float)
    data = laguerre_data(model.m, model.alpha)
    af = float(model.alpha)
    p = n + model.m
    if isinstance(model, Case1Params):
        bf = float(model.b)
        g = np.exp(-bf * xa)
        g1, g2, g3 = -bf * g, bf * bf * g, -bf ** 3 * g
        mm, m1, m2 = g, -bf * g, bf * bf * g
    else:
        if np.any(xa <= 0):
            raise ValueError("Case 2 identity is defined for x > 0 only")
        l = model.l
        g = xa ** l
        g1 = l * xa ** (l - 1)
        g2 = l * (l - 1) * xa ** (l - 2)
        g3 = l * (l - 1) * (l - 2) * xa ** (l - 3)
        mm = float(l * l) * xa ** (l - 2)
        m1 = float(l * l * (l - 2)) * xa ** (l - 3)
        m2 = float(l * l * (l - 2) * (l - 3)) * xa ** (l - 4)
    hv = eval_poly(data.h, g)
    h1v = eval_poly(data.h1, g)
    h2v = eval_poly(data.h2, g)
    u = h1v / hv
    du = (h2v * hv - h1v * h1v) / hv ** 2
    q = (af + 1.0) / g - 1.0 - 2.0 * u
    dq = -(af + 1.0) / g ** 2 - 2.0 * du
    r = (p - 2.0 * af * u) / g
    rhs = (g3 / (2.0 * mm * g1) - 3.0 / (4.0 * mm) * (g2 / g1) ** 2
           + g1 ** 2 / mm * (r - dq / 2.0 - q ** 2 / 4.0)
           - m2 / (2.0 * mm ** 2) + 3.0 * m1 ** 2 / (4.0 * mm ** 3))
    out = (energy(model, n) - v_eff(model, x)) - rhs
    return _ret(x, out)


def density2d(model: ModelKind, n1: int, n2: int, x, y):
    """Separable two-dimensional probability density |psi_n1(x) psi_n2(y)|^2."""
    px = wavefunction(model, n1, x)
    py = wavefunction(model, n2, y)
    return px ** 2 * py ** 2


def default_domain(model: ModelKind, n_max: int) -> tuple:
    """Truncated domain (lo, hi) certified by the potential barrier.

    Endpoints are pushed outward until V_eff there exceeds
    E(n_max) + 25 * (level spacing); Case 2 is truncated to [0, hi] (the
    half-line origin is kept as a Dirichlet endpoint).
    """
    thr = energy(model, n_max) + 25.0 * level_spacing(model)
    hi = 1.0
    while v_eff(model, hi) <= thr:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("domain expansion failed on the right")
    if isinstance(model, Case2Params):
        return 0.0, hi
    # The right tail of Case 1 decays only like exp(-(alpha+1) b x) (the
    # barrier there grows just exponentially), so the height criterion alone
    # leaves visible tail mass; additionally require alpha*b*hi >= 16, which
    # certifies Dirichlet truncation effects below ~1e-7.
    bf, af = float(model.b), float(model.alpha)
    while af * bf * hi < 16.0:
        hi *= 2.0
    lo = -1.0
    while v_eff(model, lo) <= thr:
        lo *= 2.0
        if lo < -1e6:
            raise RuntimeError("domain expansion failed on the left")
    return lo, hi
