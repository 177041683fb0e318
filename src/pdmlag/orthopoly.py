"""Classical and exceptional (X_m) Laguerre polynomials.

Everything exact here is in rational arithmetic: every parameter is an int,
Fraction or float, and a float is taken at its exact binary value.
Generalized Laguerre polynomials are built by the three-term recurrence.  The
codimension-m exceptional (X_m) Laguerre family is built from its type-I
product form, a sum of two products of classical Laguerre polynomials
(Gomez-Ullate, Kamran and Milson, J. Math. Anal. Appl. 359 (2009) 352).
Membership is certified separately by an exact zero residual in the
denominator-cleared ODE, whose operator is assembled from the ODE
coefficients.  Float values of a family member come from the same product
form with each classical factor evaluated in numpy by the recurrence
scipy.special uses, so importing this module loads no scipy submodule.
Weights, inner products, and the residual operator itself are exposed for
verification; the inner product loads scipy.integrate when first called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

Scalar = Union[int, float, Fraction]

# Beyond this point the e^{-g} factor has underflowed to zero while powers of
# g may still overflow, so mapped semi-infinite integrands are cut off.
_QUAD_G_CUTOFF = 800.0


def _exact_scalar(value: Scalar) -> Fraction:
    """Return `value` as an exact Fraction; a float keeps its binary value."""
    if isinstance(value, (int, float, Fraction)):
        return Fraction(value)
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; ``coeffs[k]`` multiplies x**k.

    Coefficients are exact (int/Fraction) or floats.  Trailing zeros are
    stripped on construction, so the highest stored coefficient is nonzero
    unless the polynomial is identically zero (empty coefficient tuple).
    """

    coeffs: tuple

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        return eval_poly(self, x)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(tuple(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(tuple(out))
        return Polynomial(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def reflected(self) -> "Polynomial":
        """The polynomial x -> p(-x)."""
        return Polynomial(tuple(c if k % 2 == 0 else -c
                                for k, c in enumerate(self.coeffs)))

    def as_float(self) -> "Polynomial":
        return Polynomial(tuple(float(c) for c in self.coeffs))


def eval_poly(p: Polynomial, x):
    """Evaluate `p` at `x` by Horner's scheme.

    Accepts scalars (int/float/Fraction) or numpy arrays; exact inputs with
    exact coefficients give an exact result.
    """
    if isinstance(x, np.ndarray):
        # Start from the leading coefficient, not 0 * x: that is NaN at x = inf.
        top = float(p.coeffs[-1]) if p.coeffs else 0.0
        acc = np.full(x.shape, top)
        for c in reversed(p.coeffs[:-1]):
            acc = acc * x + float(c)
        return acc
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def classical_laguerre(n: int, alpha: Scalar) -> Polynomial:
    """Generalized Laguerre polynomial L_n^(alpha) via the three-term recurrence.

    Coefficients are exact Fractions.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    a = _exact_scalar(alpha)
    prev = Polynomial((Fraction(1),))
    if n == 0:
        return prev
    curr = Polynomial((1 + a, Fraction(-1)))
    for k in range(1, n):
        # (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}
        nxt = Polynomial((2 * k + 1 + a, -1)) * curr - (k + a) * prev
        curr, prev = nxt * Fraction(1, k + 1), curr
    return curr


def _binom_int(n: float, k: int) -> float:
    """Binomial coefficient C(n, k) for real n > 0 and integer k >= 0.

    The multiplicative loop of scipy.special.binom, with its rescaling of
    large partial numerators and its reduction k -> n - k for integer n.
    scipy switches to a beta function once the reduced k reaches 20; this
    loop does not, and agrees with it there to about 1e-13 relative.
    """
    kx = float(k)
    if n == math.floor(n) and kx > n / 2:
        kx = n - kx
    num = den = 1.0
    for i in range(1, 1 + int(kx)):
        num *= i + n - kx
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def _eval_genlaguerre(n: int, alpha: float, x):
    """Float values of L_n^(alpha) at the points `x`, for integer n >= 0.

    Runs the recurrence scipy.special.eval_genlaguerre uses for an integer
    degree, in the same operation order, vectorised over the points: it
    tracks p_k = L_k^(alpha)(x) / C(k + alpha, k) and the step d_k =
    p_k - p_(k-1), and scales by the binomial at the end.  Degree 1 is the
    closed form 1 + alpha - x, as in scipy.
    """
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return -x + alpha + 1
    nx = -x
    d = nx / (alpha + 1)
    p = d + 1
    for k in range(1, n):
        c = k + alpha + 1
        d = nx / c * p + (k / c) * d
        p = d + p
    return _binom_int(n + alpha, n) * p


def _laguerre_or_zero(n: int, alpha) -> Polynomial:
    """L_n^(alpha), with the convention L_{-1} = L_{-2} = 0."""
    if n < 0:
        return Polynomial(())
    return classical_laguerre(n, alpha)


class LaguerreData(NamedTuple):
    """Float-coefficient Laguerre factors evaluated as functions of g.

    h  = L_m^(alpha-1)(-g)      h1 = L_{m-1}^(alpha)(-g)
    h2 = L_{m-2}^(alpha+1)(-g)  q1 = L_{m-1}^(alpha+1)(-g)
    q2 = L_{m-2}^(alpha+2)(-g)  ha = L_m^(alpha)(-g)
    """

    h: Polynomial
    h1: Polynomial
    h2: Polynomial
    q1: Polynomial
    q2: Polynomial
    ha: Polynomial


@lru_cache(maxsize=None)
def laguerre_data(m: int, alpha: Fraction) -> LaguerreData:
    def refl(n, a):
        return _laguerre_or_zero(n, a).reflected().as_float()

    return LaguerreData(h=refl(m, alpha - 1), h1=refl(m - 1, alpha),
                        h2=refl(m - 2, alpha + 1), q1=refl(m - 1, alpha + 1),
                        q2=refl(m - 2, alpha + 2), ha=refl(m, alpha))


@dataclass(frozen=True)
class XmFamilySpec:
    """Parameters of an X_m (codimension-m) exceptional Laguerre family.

    `alpha` is stored as an exact Fraction (an int, Fraction or float is
    converted exactly).  `convention` fixes the scale of the returned
    polynomials; the sign always makes the leading coefficient positive.

    - "monic": unit leading coefficient (default).
    - "standard": leading coefficient 1/(m! * n!) with n = degree - m; this is
      the scale for which the weighted norm of the degree-(n+m) member is
      (n+m+alpha) * Gamma(n+alpha) / n!.  Hence monic = m! * n! * standard.
    """

    m: int
    alpha: Fraction
    convention: str = "monic"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _exact_scalar(self.alpha))
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not self.alpha > 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if self.convention not in ("monic", "standard"):
            raise ValueError(f"unknown convention {self.convention!r}")


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
def xm_laguerre(nu: int, spec: XmFamilySpec) -> Polynomial:
    """Degree-`nu` member of the X_m-Laguerre family described by `spec`.

    The family starts at degree m, so `nu >= spec.m` is required.  With
    n = nu - m and a = alpha the member is, exactly in Fractions,

        (-1)^n [L_m^(a)(-g) L_n^(a-1)(g) + L_m^(a-1)(-g) L_{n-1}^(a)(g)]

    (L_{-1} = 0), whose leading coefficient is 1/(m! n!): the "standard"
    convention.  The "monic" member is m! n! times it.  It is the unique
    (up to scale) degree-nu polynomial solving the family ODE with
    parameter nu.
    """
    if nu < spec.m:
        raise ValueError(f"nu must be >= m (family starts at degree m): "
                         f"got nu={nu}, m={spec.m}")
    m, n, a = spec.m, nu - spec.m, spec.alpha
    poly = (classical_laguerre(m, a).reflected() * classical_laguerre(n, a - 1)
            + classical_laguerre(m, a - 1).reflected() * _laguerre_or_zero(n - 1, a))
    scale = (-1) ** n
    if spec.convention == "monic":
        scale *= math.factorial(m) * math.factorial(n)
    return poly * scale


def eval_xm_laguerre(nu: int, spec: XmFamilySpec, g):
    """Float values at `g` of the degree-`nu` member ``xm_laguerre(nu, spec)``.

    Uses the type-I product form (Gomez-Ullate, Kamran and Milson, J. Math.
    Anal. Appl. 359 (2009) 352), with n = nu - m and a = alpha:

        L_m^(a)(-g) L_n^(a-1)(g) + L_m^(a-1)(-g) L_{n-1}^(a)(g),

    whose leading coefficient is (-1)^n / (m! n!).  Each classical factor is
    evaluated in numpy by the recurrence scipy.special.eval_genlaguerre runs
    for an integer degree, so the monomial expansion, which cancels
    catastrophically at large g, is never formed.
    """
    if nu < spec.m:
        raise ValueError(f"nu must be >= m (family starts at degree m): "
                         f"got nu={nu}, m={spec.m}")
    m, n, a = spec.m, nu - spec.m, float(spec.alpha)
    ga = np.asarray(g, dtype=float)
    out = _eval_genlaguerre(m, a, -ga) * _eval_genlaguerre(n, a - 1.0, ga)
    if n > 0:
        out = out + _eval_genlaguerre(m, a - 1.0, -ga) * _eval_genlaguerre(n - 1, a, ga)
    scale = -1.0 if n % 2 else 1.0
    if spec.convention == "monic":
        scale *= math.factorial(m) * math.factorial(n)
    out = scale * out
    return float(out) if np.ndim(g) == 0 else out


def xm_weight(spec: XmFamilySpec, g):
    """Orthogonality weight g^alpha * e^(-g) / L_m^(alpha-1)(-g)^2 at g > 0."""
    garr = np.asarray(g, dtype=float)
    if np.any(garr <= 0):
        raise ValueError("weight is defined for g > 0 only")
    denom = eval_poly(laguerre_data(spec.m, spec.alpha).h, garr)
    out = garr ** float(spec.alpha) * np.exp(-garr) / denom ** 2
    return float(out) if np.isscalar(g) else out


def xm_inner_product(nu1: int, nu2: int, spec: XmFamilySpec) -> float:
    """Weighted inner product of two family members over (0, inf).

    Computed by adaptive quadrature (scipy.integrate.quad, imported here
    because only verification calls this) after the substitution
    g = t/(1-t); raises RuntimeError with the achieved error estimate if the
    quadrature does not reach its target.
    """
    from scipy import integrate

    if nu1 < spec.m or nu2 < spec.m:
        raise ValueError("both degrees must be >= m")
    p1 = xm_laguerre(nu1, spec).as_float()
    p2 = p1 if nu2 == nu1 else xm_laguerre(nu2, spec).as_float()
    denom = laguerre_data(spec.m, spec.alpha).h
    alpha = float(spec.alpha)

    def integrand(t):
        if t >= 1.0:
            return 0.0
        g = t / (1.0 - t)
        if g > _QUAD_G_CUTOFF:
            return 0.0
        w = g ** alpha * math.exp(-g) / eval_poly(denom, g) ** 2
        return eval_poly(p1, g) * eval_poly(p2, g) * w / (1.0 - t) ** 2

    out = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11,
                         limit=200, full_output=1)
    result, abserr = out[0], out[1]
    # A quadpack warning with a tiny error estimate (roundoff chatter on a
    # vanishing integral) is still a converged answer; judge by the estimate.
    if abserr > max(1e-10, 1e-9 * abs(result)):
        raise RuntimeError(
            f"inner-product quadrature did not converge to target "
            f"(value {result:.6e}, estimated error {abserr:.3e})")
    return result
