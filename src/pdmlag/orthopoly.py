"""Classical and exceptional (X_m) Laguerre polynomials.

Generalized Laguerre polynomials are built by the three-term recurrence in
exact rational arithmetic whenever the parameter allows it.  The codimension-m
exceptional (X_m) Laguerre family is constructed degree by degree as the
one-dimensional nullspace of its defining second-order ODE, after clearing
denominators, so membership can be certified by an exact zero residual
polynomial; that construction is the exact reference.  Float values of a
family member come from its closed form as a sum of two products of
classical Laguerre polynomials, each evaluated in numpy by the recurrence
scipy.special uses, so importing this module loads no scipy submodule.
Weights, inner products, and the residual operator itself are exposed for
verification; the inner product loads scipy.integrate when first called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

Scalar = Union[int, float, Fraction]

# Floats whose exact binary value has a denominator up to this bound are
# treated as rational inputs (covers 1.5, 2.0, 2.25, ...); anything else
# falls back to floating-point construction.
_EXACT_DENOM_LIMIT = 4096

# Beyond this point the e^{-g} factor has underflowed to zero while powers of
# g may still overflow, so mapped semi-infinite integrands are cut off.
_QUAD_G_CUTOFF = 800.0


def _exact_scalar(value: Scalar) -> Union[Fraction, float]:
    """Return `value` as a Fraction when it is (near-)rational, else a float."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        as_frac = Fraction(value)
        if as_frac.denominator <= _EXACT_DENOM_LIMIT:
            return as_frac
        return value
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
        acc = np.zeros(x.shape, dtype=float)
        for c in reversed(p.coeffs):
            acc = acc * x + float(c)
        return acc
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def classical_laguerre(n: int, alpha: Scalar) -> Polynomial:
    """Generalized Laguerre polynomial L_n^(alpha) via the three-term recurrence.

    Exact (Fraction coefficients) when `alpha` is rational; float otherwise.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    a = _exact_scalar(alpha)
    one = Fraction(1) if isinstance(a, Fraction) else 1.0
    prev = Polynomial((one,))
    if n == 0:
        return prev
    curr = Polynomial((one + a, -one))
    for k in range(1, n):
        # (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}
        nxt = Polynomial((2 * k + 1 + a, -one)) * curr - (k + a) * prev
        curr, prev = nxt * (one / (k + 1)), curr
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


@dataclass(frozen=True)
class XmFamilySpec:
    """Parameters of an X_m (codimension-m) exceptional Laguerre family.

    `convention` fixes the scale of the returned polynomials; the sign always
    makes the leading coefficient positive.

    - "monic": unit leading coefficient (default).
    - "standard": leading coefficient 1/(m! * n!) with n = degree - m; this is
      the scale for which the weighted norm of the degree-(n+m) member is
      (n+m+alpha) * Gamma(n+alpha) / n!.  Hence monic = m! * n! * standard.
    """

    m: int
    alpha: Scalar
    convention: str = "monic"

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not self.alpha > 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if self.convention not in ("monic", "standard"):
            raise ValueError(f"unknown convention {self.convention!r}")


def _ode_operator(p: Polynomial, param, m: int, alpha) -> Polynomial:
    """Denominator-cleared X_m-Laguerre ODE operator applied to `p`.

    Returns g*h*p'' + [(alpha+1-g)*h - 2*g*h1]*p' + [param*h - 2*alpha*h1]*p
    with h = L_m^(alpha-1)(-g) and h1 = L_{m-1}^(alpha)(-g); the zero
    polynomial certifies that `p` solves the ODE with that parameter.
    """
    one = Fraction(1) if isinstance(alpha, Fraction) else 1.0
    h = _laguerre_or_zero(m, alpha - 1).reflected()
    h1 = _laguerre_or_zero(m - 1, alpha).reflected()
    g = Polynomial((0 * one, one))
    dp = p.derivative()
    return (g * h * dp.derivative()
            + (Polynomial((alpha + one, -one)) * h - 2 * g * h1) * dp
            + (param * h - 2 * alpha * h1) * p)


def xm_ode_residual(p: Polynomial, nu: int, spec: XmFamilySpec) -> Polynomial:
    """Residual of `p` in the denominator-cleared X_m ODE with parameter `nu`."""
    return _ode_operator(p, nu, spec.m, _exact_scalar(spec.alpha))


def _fraction_nullspace(rows: list, ncols: int) -> list:
    """Nullspace basis of a matrix of Fractions (rows of length ncols)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    return basis


@lru_cache(maxsize=None)
def _xm_laguerre_cached(nu: int, spec: XmFamilySpec) -> Polynomial:
    m, a = spec.m, _exact_scalar(spec.alpha)
    ncols = nu + 1
    if isinstance(a, Fraction):
        one = Fraction(1)
        cols = []
        for j in range(ncols):
            basis = Polynomial((0 * one,) * j + (one,))
            image = _ode_operator(basis, nu, m, a)
            cs = list(image.coeffs) + [Fraction(0)] * (nu + m + 1 - len(image.coeffs))
            cols.append(cs)
        rows = [[cols[j][i] for j in range(ncols)] for i in range(nu + m + 1)]
        null = _fraction_nullspace(rows, ncols)
        if len(null) != 1:
            raise ValueError(
                f"ODE nullspace has dimension {len(null)}, expected 1: "
                f"inconsistent (nu={nu}, m={m}, alpha={spec.alpha})")
        poly = Polynomial(tuple(null[0]))
    else:
        cols = []
        for j in range(ncols):
            basis = Polynomial((0.0,) * j + (1.0,))
            image = _ode_operator(basis, nu, m, a)
            cs = list(image.coeffs) + [0.0] * (nu + m + 1 - len(image.coeffs))
            cols.append([float(c) for c in cs])
        mat = np.array(cols, dtype=float).T
        _, svals, vt = np.linalg.svd(mat)
        nullity = int(np.sum(svals < 1e-12 * svals[0]))
        if nullity != 1:
            raise ValueError(
                f"ODE nullspace has dimension {nullity}, expected 1: "
                f"inconsistent (nu={nu}, m={m}, alpha={spec.alpha})")
        vec = vt[-1]
        resid = np.linalg.norm(mat @ vec)
        if resid > 1e-10 * np.linalg.norm(mat):
            raise RuntimeError(
                f"floating nullspace residual {resid:.3e} exceeds threshold")
        poly = Polynomial(tuple(vec))
    if poly.degree != nu:
        raise ValueError(
            f"nullspace polynomial has degree {poly.degree}, expected {nu}: "
            f"inconsistent (nu={nu}, m={m}, alpha={spec.alpha})")
    lead = poly.coeffs[-1]
    if spec.convention == "monic":
        target = Fraction(1) if isinstance(a, Fraction) else 1.0
    else:
        nfac = math.factorial(m) * math.factorial(nu - m)
        target = Fraction(1, nfac) if isinstance(a, Fraction) else 1.0 / nfac
    return poly * (target / lead)


def xm_laguerre(nu: int, spec: XmFamilySpec) -> Polynomial:
    """Degree-`nu` member of the X_m-Laguerre family described by `spec`.

    The family starts at degree m, so `nu >= spec.m` is required.  The result
    is the unique (up to scale) degree-nu polynomial solving the family ODE
    with parameter nu, normalized per ``spec.convention``.
    """
    if nu < spec.m:
        raise ValueError(f"nu must be >= m (family starts at degree m): "
                         f"got nu={nu}, m={spec.m}")
    return _xm_laguerre_cached(nu, spec)


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


@lru_cache(maxsize=None)
def _weight_denominator(spec: XmFamilySpec) -> Polynomial:
    return _laguerre_or_zero(spec.m, _exact_scalar(spec.alpha) - 1).reflected().as_float()


def xm_weight(spec: XmFamilySpec, g):
    """Orthogonality weight g^alpha * e^(-g) / L_m^(alpha-1)(-g)^2 at g > 0."""
    garr = np.asarray(g, dtype=float)
    if np.any(garr <= 0):
        raise ValueError("weight is defined for g > 0 only")
    denom = eval_poly(_weight_denominator(spec), garr)
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
    denom = _weight_denominator(spec)
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
