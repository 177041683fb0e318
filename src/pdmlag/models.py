"""Analytic engine for the two solvable position-dependent-mass families.

Both families are one point canonical transformation (PCT) of the
X_m-Laguerre equation: a change of variable g(x) and a mass M(x) with
g'^2/(M g) = C constant.  Case 1 has M = g = e^(-b x) on the whole line
(C = b^2), Case 2 M = l^2 x^(l-2), g = x^l on the half line (l = 2*eta + 2,
C = 1).  A params class supplies only its map (``pct_map``); the effective
potential, the equispaced spectrum and the constant vc that puts its ground
level at 0, the closed-form bound states, the superpotential of ``susy``
and the truncated domain are derived from it once, for both families.
The domain (``default_domain``) is chosen in g, where the states' weight
is the X_m weight for both families, from closed-form bounds of its tails
at one target mass (``_TAIL_MASS``), and mapped back to x.
The constructors apply the input rules of ``orthopoly``: b, alpha and vc
are stored as exact Fractions (never parsed from strings), m and eta as ints.
Each family's hand-derived potential, the reference that ``v_eff`` is
checked against, is in ``checks``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .orthopoly import (_exact_scalar, _family_params, _integer, _xm_values,
                        eval_poly, laguerre_data)


def _family_fields(params) -> None:
    """Check m >= 1, alpha > 1 and vc, the fields both families share."""
    m, alpha = _family_params(params.m, params.alpha)
    object.__setattr__(params, "m", m)
    object.__setattr__(params, "alpha", alpha)
    object.__setattr__(params, "vc", _exact_scalar(params.vc, "vc"))


@dataclass(frozen=True)
class PctMap:
    """A family's point canonical transformation.

    ``g``, ``log_g`` and ``mass`` take sample points x to g(x), log g(x) and
    M(x).  The derivatives enter through their log-derivative ratios, and a
    ratio of derivative order k is a constant times t^k with t = g^tau
    (t = 1 in Case 1, t = 1/x in Case 2).  The constants are d1 = g'/g,
    d2 = g''/g', d3 = g'''/g', e1 = M'/M and e2 = M''/M in those units, so
    M = d1^2 t^2 g / C.  ``c`` is C = g'^2/(M g) and ``lo`` the left end of
    the domain.  ``x_of_log_g`` inverts the map: it takes L = log g to x.
    ``k_g`` is the Schwarzian-and-mass term K(x) times g: as every ratio
    carries t^k and t^2/M = C/(d1^2 g), K is a constant over g.
    """

    g: Callable
    log_g: Callable
    x_of_log_g: Callable
    mass: Callable
    d1: Fraction
    d2: Fraction
    d3: Fraction
    e1: Fraction
    e2: Fraction
    tau: Fraction
    c: Fraction
    lo: float
    k_g: Fraction = field(init=False)

    def __post_init__(self):
        # K = [3 (g''/g')^2/4 - (g'''/g')/2 + (M''/M)/2 - 3 (M'/M)^2/4] / M
        k = (3 * self.d2 ** 2 - 2 * self.d3 + 2 * self.e2 - 3 * self.e1 ** 2) / 4
        object.__setattr__(self, "k_g", self.c * k / self.d1 ** 2)


@lru_cache(maxsize=64)
def _exponential_map(b: Fraction) -> PctMap:
    bf = float(b)
    return PctMap(g=lambda x: np.exp(-bf * x), log_g=lambda x: -bf * x,
                  x_of_log_g=lambda L: -L / bf, mass=lambda x: np.exp(-bf * x),
                  d1=-b, d2=-b, d3=b * b, e1=-b, e2=b * b, tau=Fraction(0),
                  c=b * b, lo=-math.inf)


@dataclass(frozen=True)
class Case1Params:
    """Exponential-mass model: M(x) = g(x) = e^(-b x) on the real line."""

    b: Fraction
    alpha: Fraction
    m: int
    vc: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "b", _exact_scalar(self.b, "b"))
        _family_fields(self)
        if self.b <= 0:
            raise ValueError(f"b must be > 0, got {self.b}")

    @property
    def lam(self) -> Fraction:
        """Deformation parameter lambda = -1/b of the underlying algebra."""
        return -1 / self.b

    @property
    def pct_map(self) -> PctMap:
        """g = M = e^(-b x): every ratio is constant, C = b^2, x > -inf."""
        return _exponential_map(self.b)

    @classmethod
    def susy_zero(cls, b, alpha, m: int) -> "Case1Params":
        """Instance with vc chosen so the ground-state energy is exactly 0."""
        base = cls(b, alpha, m)
        return replace(base, vc=susy_constant(base))


@lru_cache(maxsize=64)
def _power_map(l: int) -> PctMap:
    return PctMap(g=lambda x: x ** l, log_g=lambda x: l * np.log(x),
                  x_of_log_g=lambda L: math.exp(L / l),
                  mass=lambda x: float(l * l) * x ** (l - 2), d1=Fraction(l),
                  d2=Fraction(l - 1), d3=Fraction((l - 1) * (l - 2)),
                  e1=Fraction(l - 2), e2=Fraction((l - 2) * (l - 3)),
                  tau=Fraction(-1, l), c=Fraction(1), lo=0.0)


@dataclass(frozen=True)
class Case2Params:
    """Power-law-mass model: M(x) = l^2 x^(l-2), g(x) = x^l on x > 0.

    l = 2*eta + 2 is always an even integer and C = g'^2/(M g) = 1;
    nu = 2*eta/(2*eta+1) is the mass-deformation label.
    """

    eta: int
    alpha: Fraction
    m: int
    vc: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "eta", _integer(self.eta, "eta", 0))
        _family_fields(self)

    @property
    def nu(self) -> Fraction:
        return Fraction(2 * self.eta, 2 * self.eta + 1)

    @property
    def l(self) -> int:
        return 2 * self.eta + 2

    @property
    def pct_map(self) -> PctMap:
        """g = x^l, M = l^2 x^(l-2): ratios c/x^k (t = 1/x), C = 1, x > 0."""
        return _power_map(self.l)

    @classmethod
    def susy_zero(cls, eta: int, alpha, m: int) -> "Case2Params":
        """Instance with vc chosen so the ground-state energy is exactly 0."""
        base = cls(eta, alpha, m)
        return replace(base, vc=susy_constant(base))


ModelKind = Union[Case1Params, Case2Params]


def susy_constant(model: ModelKind) -> Fraction:
    """The vc that puts the ground level at 0: -C ((alpha+1)/2 + m/alpha)."""
    return -model.pct_map.c * ((model.alpha + 1) / 2 + model.m / model.alpha)


def _ret(x, out):
    return float(out) if np.ndim(x) == 0 else out


def _points(model: ModelKind, x, closed: bool = False):
    """The model's map and x as floats, inside the domain (its end if closed)."""
    pm = model.pct_map
    xa = np.asarray(x, dtype=float)
    if pm.lo > -math.inf and np.any(xa < pm.lo if closed else xa <= pm.lo):
        sign = ">=" if closed else ">"
        raise ValueError(f"the model is defined for x {sign} {pm.lo} only")
    return pm, xa


def mass(model: ModelKind, x):
    """Position-dependent mass M(x); strictly positive on the domain."""
    pm, xa = _points(model, x)
    return _ret(x, pm.mass(xa))


def g_map(model: ModelKind, x):
    """Change of variable g(x) mapping the model onto the X_m equation."""
    pm, xa = _points(model, x)
    return _ret(x, pm.g(xa))


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
    """Effective potential vc + C [(alpha^2-1)/(4g) + g/4 + g B(g)] + K(x).

    B is ``_bracket`` and K = ``PctMap.k_g``/g the Schwarzian-and-mass term
    (0 for Case 1), folded into the 1/g coefficient.
    """
    pm, xa = _points(model, x)
    g = pm.g(xa)
    af, cf = float(model.alpha), float(pm.c)
    inv_coeff = cf * (af * af - 1.0) / 4.0 + float(pm.k_g)
    out = (inv_coeff / g + cf * g * (0.25 + _bracket(model, g))
           + float(model.vc))
    return _ret(x, out)


def energy_fraction(model: ModelKind, n: int) -> Fraction:
    """Exact analytic eigenvalue C (n + (alpha+1)/2 + m/alpha) + vc."""
    n = _integer(n, "n", 0)
    base = n + Fraction(model.alpha + 1, 2) + Fraction(model.m) / model.alpha
    return model.pct_map.c * base + model.vc


def energy(model: ModelKind, n: int) -> float:
    """Analytic eigenvalue E_n (equispaced: b^2 steps for Case 1, 1 for Case 2)."""
    try:
        return float(energy_fraction(model, n))
    except OverflowError:
        raise ValueError(f"E_{n} is too large for a float") from None


def _prefactor(model: ModelKind, pm: PctMap, xa):
    """g and sqrt(g^alpha e^(-g) |g'|)/h(g), |g'| = |d1| g^(1+tau), at xa.

    One exponential of the log-sum is 0, not NaN, where a factor alone
    overflows against e^(-g/2) = 0; callers silence those warnings.
    """
    log_g, g = pm.log_g(xa), pm.g(xa)
    h = eval_poly(laguerre_data(model.m, model.alpha).h, g)
    a = (float(model.alpha + 1 + pm.tau) * log_g + math.log(abs(pm.d1))) / 2.0
    a = a - np.log(h)
    # a - g/2 is rounded at the scale of g/2 (1e-13 relative in the tails),
    # so its rounding error (TwoSum) is restored to first order.
    s = a - g / 2.0
    back = s - a
    err = (a - (s - back)) + (-g / 2.0 - back)
    # err is NaN only where s = -inf (x at a finite domain end, or g = inf)
    # and exp(s) = 0; fmax turns it into -1, which keeps the product 0.
    return g, np.exp(s) * (1.0 + np.fmax(err, -1.0))


def pct_prefactor(model: ModelKind, x):
    """Prefactor f with psi_n = N_n * f * P_(n+m)(g), Jacobian included.

    f = sqrt(g^alpha e^(-g) |g'|)/h(g), h = L_m^(alpha-1)(-g): f^2 is the
    X_m weight times |dg/dx|.
    """
    pm, xa = _points(model, x, closed=True)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _ret(x, _prefactor(model, pm, xa)[1])


def wavefunction(model: ModelKind, n: int, x):
    """Analytic bound state psi_n(x), normalized to unit L2 in closed form.

    psi_n = N_n * f(x) * P(g(x)) with f = ``pct_prefactor``, P the
    standard-scale X_m polynomial of degree n + m in its Laguerre product
    form (``eval_xm_laguerre``, leading coefficient positive) and N_n =
    ``norm_constant_closed_form``.  psi_n is 0 where f is, even if g or P
    overflows there; a non-finite value elsewhere raises RuntimeError.
    """
    n = _integer(n, "n", 0)
    pm, xa = _points(model, x, closed=True)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g, pref = _prefactor(model, pm, xa)
        poly = _xm_values(model.m, n, float(model.alpha), g)
        psi = _norm_constant(model, n) * pref * poly
    psi = np.where(pref == 0.0, 0.0, psi)
    if not np.all(np.isfinite(psi)):
        raise RuntimeError(f"bound state n={n} overflows in floating point")
    return _ret(x, psi)


def norm_constant_closed_form(model: ModelKind, n: int) -> float:
    """Closed-form normalization constant N for the standard polynomial scale.

    N = sqrt(n! / ((n+m+alpha) * Gamma(n+alpha))) for both families, as
    ``pct_prefactor`` carries the Jacobian; the tests check it against a
    quadrature normalizer.
    """
    return _norm_constant(model, _integer(n, "n", 0))


def _norm_constant(model: ModelKind, n: int) -> float:
    """``norm_constant_closed_form`` for an n >= 0 already checked."""
    af, m = float(model.alpha), model.m
    # n!/Gamma(n+alpha) via log-gamma: each factor alone overflows past n = 170
    return math.sqrt(1.0 / (n + m + af)) * math.exp(
        (math.lgamma(n + 1) - math.lgamma(n + af)) / 2)


def density2d(model: ModelKind, n1: int, n2: int, x, y):
    """Separable two-dimensional probability density |psi_n1(x) psi_n2(y)|^2."""
    px = wavefunction(model, n1, x)
    py = wavefunction(model, n2, y)
    return px ** 2 * py ** 2


# The mass of each state n <= n_max that ``default_domain`` may leave
# outside, half at each end: a few units in the last place of a unit norm
# (2^-52 = 2.2e-16), so that the truncation is lost in the rounding of what
# is computed on the domain.  A smaller target would only widen the domain,
# and so coarsen a grid of a given size.
_TAIL_MASS = 1e-15


def default_domain(model: ModelKind, n_max: int) -> tuple:
    """Truncated domain (lo, hi) outside which each state n <= n_max holds
    at most ``_TAIL_MASS``.

    For both families psi_n^2 dx = N_n^2 g^alpha e^(-g) (P/h)^2 dg, so the
    ends are chosen in g, from the weight of level n_max, and mapped to x
    by ``PctMap.x_of_log_g``: they depend on alpha, m and n_max alone, and
    on b or eta only through the map.  Below g_lo, P/h is taken at its
    value at 0, (-1)^n C(n+alpha, n) (n+m+alpha)/(n+alpha); above g_hi it is
    at most (g^n/n!) (1 + m (g+n)/g^2), whose factor is largest at g = p =
    alpha + 2n + 1.  Each tail is then a constant times an incomplete gamma
    function, gamma(alpha+1, g_lo) or Gamma(p, g_hi), and each end is where
    ``_tail_end``'s bound of it is half the target.  Lower levels leave less
    outside both ends.

    A model whose E_(n_max) is no float, or so large that the level spacing
    is lost in its rounding, is refused with ValueError: no grid resolves
    its levels.
    """
    if math.ulp(energy(model, n_max)) >= 2.0 * float(model.pct_map.c):
        raise ValueError(f"E_{n_max} hides the level spacing in its rounding")
    n, m, a = n_max, model.m, float(model.alpha)
    # with N_n^2 = n!/e^t and f = log n!, the constants of the two tails are
    # N_n^2 (P(0)/h(0))^2 = e^(t-f)/Gamma(a+1)^2 and
    # N_n^2 (1 + m (p+n)/p^2)^2/n!^2 = (1 + m (p+n)/p^2)^2 e^(-t-f)
    t, f = math.log(n + m + a) + math.lgamma(n + a), math.lgamma(n + 1)
    p = a + 2 * n + 1.0
    log_lo = _tail_end(t - f - 2.0 * math.lgamma(a + 1.0), a + 1.0, -1.0)
    log_hi = _tail_end(2.0 * math.log1p(m * (p + n) / (p * p)) - t - f, p, 1.0)
    return tuple(sorted(map(model.pct_map.x_of_log_g, (log_lo, log_hi))))


def _tail_end(log_c: float, q: float, side: float) -> float:
    """L = log g where c g^q e^(-g)/|q - g| falls to half of
    ``_TAIL_MASS``, below q (``side`` -1) or above it (``side`` 1).

    In L the integrand of an incomplete gamma function of order q is
    exp(q L - e^L), whose exponent is concave, so its tangent at L bounds
    the tail beyond L by that expression (DLMF 8.10).  The end is found by
    Newton's method in L from g = q + side sqrt(q).  The log of the bound
    is concave beyond that start, so the first step lands on the side of
    the end that leaves less outside, and the iterates approach it from
    there.
    """
    rhs = math.log(_TAIL_MASS / 2.0) - log_c
    L = math.log(q + side * math.sqrt(q))
    for _ in range(60):
        g = math.exp(L)
        step = (q * L - g - math.log(abs(q - g)) - rhs) / (q - g + g / (q - g))
        L -= step
        if abs(step) < 1e-12:
            break
    return L
