"""Classical and exceptional (X_m) Laguerre polynomials.

Everything exact here is in rational arithmetic.  The package's two input
rules are here, each applied once where a value enters and before any
cache: ``_exact_scalar`` (any rational but bool, or a finite float at its
exact value) and ``_integer`` (any integer type but bool, in its bounds).
Generalized Laguerre polynomials are built by the three-term recurrence.  The
codimension-m exceptional (X_m) Laguerre family is built from its type-I
product form, a sum of two products of classical Laguerre polynomials
(Gomez-Ullate, Kamran and Milson, J. Math. Anal. Appl. 359 (2009) 352).
Float values of a family member come from the same form rewritten at one
parameter alpha by the contiguous relation L_n^(alpha-1) = L_n^(alpha) -
L_(n-1)^(alpha) (DLMF 18.9.13): with A_j = L_j^(alpha)(-g) and B_j =
L_j^(alpha)(g), the degree-(m + n) member is (-1)^n [A_m B_n - A_(m-1)
B_(n-1)].  Each consecutive pair is one run of the recurrence
scipy.special uses, in numpy, so importing this module loads no scipy
submodule.  The checks of the family (the residual in the
denominator-cleared ODE and the inner product) are in ``checks``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

Scalar = Union[numbers.Rational, float]


def _exact_scalar(value: Scalar, name: str) -> Fraction:
    """``value`` as an exact Fraction of Python ints; TypeError unless it is
    a rational (any but bool) or a finite float, which keeps its binary
    value."""
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Rational):
        raise TypeError(f"{name} must be a rational or a finite float, "
                        f"got {value!r}")
    # int(): a numpy integer's numerator is itself, and Fraction keeps it
    return Fraction(int(value.numerator), int(value.denominator))


def _integer(value, name: str, least: int, most: Optional[int] = None) -> int:
    """``value`` as an int; ValueError unless it is a non-bool integer >= least
    and, when `most` is given, <= most."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or (most is not None and value > most)):
        bounds = (f"an integer >= {least}" if most is None
                  else f"in {least}..{most}")
        raise ValueError(f"{name} must be {bounds}, got {value!r}")
    return int(value)


def _family_params(m, alpha) -> tuple:
    """(m, alpha) of an X_m family as (int, Fraction): m an integer >= 1,
    alpha exact and > 1."""
    m, alpha = _integer(m, "m", 1), _exact_scalar(alpha, "alpha")
    if alpha <= 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    return m, alpha


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

    n is an integer >= 0 and alpha follows ``_exact_scalar``; coefficients
    are exact Fractions.
    """
    return _classical_laguerre(_integer(n, "n", 0), _exact_scalar(alpha, "alpha"))


@lru_cache(maxsize=1024)
def _classical_laguerre(n: int, a: Fraction) -> Polynomial:
    """``classical_laguerre`` of a checked n and a.  The last 1024 results
    are cached, as are those of ``laguerre_data`` and ``_xm_laguerre``:
    Polynomials are frozen, so the members that share a factor share one
    instance, and a process that meets a new alpha at every call holds a
    bounded number of them."""
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


def _genlaguerre_pair(n: int, alpha: float, x: np.ndarray):
    """Float values of (L_(n-1)^(alpha), L_n^(alpha)) at the points `x`.

    For integer n >= 0, with L_(-1) = 0, and an array `x` of at least one
    dimension.  Runs the recurrence scipy.special.eval_genlaguerre uses for
    an integer degree, in the same operation order, vectorised over the
    points: it tracks p_k = L_k^(alpha)(x) / C(k + alpha, k) and the step
    d_k = p_k - p_(k-1), and scales by the binomial.  So each member is
    scipy's value of its degree, bit for bit below degree 20 (see
    ``_binom_int``); degree 1 is the closed form 1 + alpha - x, as in scipy.
    Each step writes into the buffers of the last, so a call allocates a
    fixed handful of arrays whatever n is.
    """
    if n == 0:
        return np.zeros_like(x), np.ones_like(x)
    if n == 1:
        return np.ones_like(x), -x + alpha + 1
    nx = -x
    d = nx / (alpha + 1)
    p = d + 1
    t = np.empty_like(p)
    for k in range(1, n):
        if k == n - 1:
            prev = -x + alpha + 1 if k == 1 else _binom_int(k + alpha, k) * p
        # d = -x / c * p + (k / c) * d, then p = d + p
        c = k + alpha + 1
        np.divide(nx, c, out=t)
        t *= p
        d *= k / c
        d += t
        p += d
    p *= _binom_int(n + alpha, n)
    return prev, p


def _laguerre_or_zero(n: int, alpha: Fraction) -> Polynomial:
    """L_n^(alpha) of a checked n and alpha, with L_{-1} = L_{-2} = 0."""
    if n < 0:
        return Polynomial(())
    return _classical_laguerre(n, alpha)


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


@lru_cache(maxsize=1024)
def laguerre_data(m: int, alpha: Fraction) -> LaguerreData:
    def refl(n, a):
        return _laguerre_or_zero(n, a).reflected().as_float()

    return LaguerreData(h=refl(m, alpha - 1), h1=refl(m - 1, alpha),
                        h2=refl(m - 2, alpha + 1), q1=refl(m - 1, alpha + 1),
                        q2=refl(m - 2, alpha + 2), ha=refl(m, alpha))


@dataclass(frozen=True)
class XmFamilySpec:
    """Parameters of an X_m (codimension-m) exceptional Laguerre family.

    `m` is stored as an int and `alpha` as an exact Fraction, by the rule
    of ``_family_params``.
    """

    m: int
    alpha: Fraction

    def __post_init__(self):
        m, alpha = _family_params(self.m, self.alpha)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "alpha", alpha)


def _member_degree(nu, spec: XmFamilySpec) -> int:
    """``nu`` as an int: an integer >= m, where the family starts."""
    return _integer(nu, "nu", spec.m)


def xm_laguerre(nu: int, spec: XmFamilySpec) -> Polynomial:
    """Degree-`nu` member of the X_m-Laguerre family described by `spec`.

    The family starts at degree m, so `nu` must be an integer >= spec.m.
    With n = nu - m and a = alpha the member is, exactly in Fractions,

        (-1)^n [L_m^(a)(-g) L_n^(a-1)(g) + L_m^(a-1)(-g) L_{n-1}^(a)(g)]

    (L_{-1} = 0), whose leading coefficient is 1/(m! n!): the standard
    scale, in which the squared weighted norm is (n+m+a) Gamma(n+a) / n!.
    It is the unique (up to scale) degree-nu polynomial solving the family
    ODE with parameter nu.
    """
    return _xm_laguerre(_member_degree(nu, spec), spec)


@lru_cache(maxsize=1024)
def _xm_laguerre(nu: int, spec: XmFamilySpec) -> Polynomial:
    """``xm_laguerre`` of a checked degree; the last 1024 are cached."""
    m, n, a = spec.m, nu - spec.m, spec.alpha
    poly = (_classical_laguerre(m, a).reflected() * _classical_laguerre(n, a - 1)
            + _classical_laguerre(m, a - 1).reflected()
            * _laguerre_or_zero(n - 1, a))
    return poly * (-1) ** n


def eval_xm_laguerre(nu: int, spec: XmFamilySpec, g):
    """Float values at `g` of the degree-`nu` member ``xm_laguerre(nu, spec)``.

    With n = nu - m, a = alpha, A_j = L_j^(a)(-g) and B_j = L_j^(a)(g), the
    member is

        (-1)^n [A_m B_n - A_(m-1) B_(n-1)]        (B_(-1) = 0),

    the type-I product form of ``xm_laguerre`` rewritten at the one
    parameter a by the contiguous relation L_j^(a-1) = L_j^(a) - L_(j-1)^(a)
    (DLMF 18.9.13), applied to both of its a - 1 factors.  One classical
    recurrence per argument gives both terms as consecutive pairs: m + n
    steps in all, each in the operation order of
    scipy.special.eval_genlaguerre.  The monomial expansion, which cancels
    catastrophically at large g, is never formed.
    """
    return _xm_values(spec.m, _member_degree(nu, spec) - spec.m,
                      float(spec.alpha), g)


def _xm_values(m: int, n: int, a: float, g):
    """``eval_xm_laguerre`` of the member of degree n + m at parameter a,
    for an m >= 1 and n >= 0 already checked."""
    # at least 1-d, so that every step of the recurrence writes into buffers
    ga = np.atleast_1d(np.asarray(g, dtype=float))
    a_prev, out = _genlaguerre_pair(m, a, -ga)
    b_prev, b = _genlaguerre_pair(n, a, ga)
    out *= b
    if n > 0:
        a_prev *= b_prev
        out -= a_prev
    if n % 2:
        np.negative(out, out=out)
    return float(out[0]) if np.ndim(g) == 0 else out
