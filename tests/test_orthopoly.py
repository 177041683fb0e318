"""Tests for classical and exceptional (X_m) Laguerre polynomials.

The independent oracle for the X_m family is the uniqueness of its ODE
solution: the degree-nu member spans the one-dimensional nullspace of the
denominator-cleared ODE operator acting on polynomials of degree <= nu.
That nullspace is found here by Gauss-Jordan elimination in Fractions and
compared coefficient-by-coefficient with the product form the package
builds.
"""
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from pdmlag import checks, solver
from pdmlag.checks import _gauss_laguerre, xm_inner_product, xm_ode_residual
from pdmlag.orthopoly import (Polynomial, XmFamilySpec, _genlaguerre_pair,
                              _laguerre_or_zero, classical_laguerre, eval_poly,
                              eval_xm_laguerre, laguerre_data, xm_laguerre)


# ---------------------------------------------------------------------------
# classical Laguerre

@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 1.5, 3.25])
def test_classical_laguerre_matches_scipy(n, alpha):
    p = classical_laguerre(n, alpha)
    xs = np.linspace(-4.0, 6.0, 13)
    expected = eval_genlaguerre(n, alpha, xs)
    np.testing.assert_allclose(eval_poly(p, xs), expected, rtol=1e-12, atol=1e-12)


# Both signs of the argument: eval_xm_laguerre evaluates its m-factors at -g.
_PORT_XS = np.concatenate([np.linspace(-100.0, 300.0, 401),
                           -np.logspace(-8.0, 2.0, 41), np.logspace(-8.0, 2.0, 41)])


@pytest.mark.parametrize("alpha", [1.0, 4 / 3, 2.0, 7 / 3, 19 / 7, 3.0, 5.0])
def test_eval_genlaguerre_port_matches_scipy(alpha):
    # Both members of each pair.  Below degree 20 scipy runs the same
    # recurrence and binomial loop, so the values are equal bit for bit; from
    # 20 on scipy's binomial switches to a beta function, and only the
    # constant scale factor may differ.
    prev, curr = _genlaguerre_pair(0, alpha, _PORT_XS)
    assert not prev.any() and np.array_equal(curr, np.ones_like(_PORT_XS))
    for n in range(1, 202):
        for k, got in zip((n - 1, n), _genlaguerre_pair(n, alpha, _PORT_XS)):
            want = eval_genlaguerre(k, alpha, _PORT_XS)
            if k < 20:
                assert np.array_equal(got, want), (n, k)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0,
                                           err_msg=f"n={n}, k={k}")
    # A scalar g is lifted to one point, and the value is that point's.
    if alpha > 1:
        spec, line = XmFamilySpec(3, alpha), _PORT_XS[::7]
        for nu in (3, 4, 5, 17):
            values = eval_xm_laguerre(nu, spec, line)
            for g, want in zip(line, values):
                for scalar in (float(g), np.float64(g), np.array(g)):
                    got = eval_xm_laguerre(nu, spec, scalar)
                    assert type(got) is float and got == want, (nu, g)


def test_classical_laguerre_small_cases():
    assert classical_laguerre(0, Fraction(2)).coeffs == (Fraction(1),)
    # L_1^(2) = 3 - x
    assert classical_laguerre(1, Fraction(2)).coeffs == (Fraction(3), Fraction(-1))
    # L_2^(2)(-1) = 6 + 4 + 1/2
    val = eval_poly(classical_laguerre(2, Fraction(2)), Fraction(-1))
    assert val == Fraction(21, 2)


def test_classical_laguerre_rejects_negative_degree():
    with pytest.raises(ValueError):
        classical_laguerre(-1, 2.0)


def test_polynomial_algebra():
    p = Polynomial((1, 2, 3))  # 1 + 2x + 3x^2
    q = Polynomial((0, 1))
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert p.derivative().coeffs == (2, 6)
    assert p.reflected().coeffs == (1, -2, 3)
    assert (p - p).is_zero
    assert p.degree == 2
    assert p(2) == 17


# ---------------------------------------------------------------------------
# X_m construction

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


def _ode_matrix(nu: int, spec: XmFamilySpec) -> list:
    """Rows of the ODE operator with parameter nu on the monomials 1..g^nu."""
    nrows = nu + spec.m + 1
    cols = []
    for j in range(nu + 1):
        image = xm_ode_residual(Polynomial((0,) * j + (1,)), nu, spec)
        cols.append(list(image.coeffs) + [Fraction(0)] * (nrows - len(image.coeffs)))
    return [[col[i] for col in cols] for i in range(nrows)]


@lru_cache(maxsize=None)
def _xm_nullspace(nu: int, m: int, alpha: Fraction) -> list:
    return _fraction_nullspace(_ode_matrix(nu, XmFamilySpec(m, alpha)), nu + 1)


def xm_nullspace_oracle(nu: int, spec: XmFamilySpec, lead=None) -> Polynomial:
    """The degree-nu X_m member as the ODE's unique polynomial solution.

    Asserts that the nullspace is one-dimensional and its polynomial has
    degree nu, then scales it to the leading coefficient `lead`, by default
    the standard scale's 1/(m! n!).
    """
    null = _xm_nullspace(nu, spec.m, spec.alpha)
    assert len(null) == 1, f"nullspace dimension {len(null)} at nu={nu}, {spec}"
    poly = Polynomial(tuple(null[0]))
    assert poly.degree == nu, f"nullspace degree {poly.degree} at nu={nu}, {spec}"
    if lead is None:
        lead = Fraction(1, math.factorial(spec.m) * math.factorial(nu - spec.m))
    return poly * (lead / poly.coeffs[-1])


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3, 2), Fraction(7, 3),
                                   Fraction(19, 7)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_xm_laguerre_equals_nullspace_oracle(m, alpha):
    spec = XmFamilySpec(m, alpha)
    for nu in range(m, m + 9):
        assert xm_laguerre(nu, spec).coeffs == xm_nullspace_oracle(nu, spec).coeffs, \
            f"nu={nu}, {spec}"


def test_xm_lowest_member_is_monic_shift():
    # nu = m = 1: leading coefficient 1/(1! 0!) = 1, so x + alpha + 1
    p = xm_laguerre(1, XmFamilySpec(1, Fraction(2)))
    assert p.coeffs == (Fraction(3), Fraction(1))


def test_xm_even_member_frozen_coeffs():
    # m=2, alpha=2, nu=4 is even: x^4/4 - 9 x^2 + 27, a quarter of the
    # monic x^4 - 36 x^2 + 108
    p = xm_laguerre(4, XmFamilySpec(2, Fraction(2)))
    assert p.coeffs == (27, 0, -9, 0, Fraction(1, 4))


def _product_form(nu: int, m: int, alpha: Fraction) -> Polynomial:
    """Closed product form of the X_m polynomial (exact arithmetic)."""
    n = nu - m
    first = (classical_laguerre(m, alpha).reflected()
             * classical_laguerre(n, alpha - 1))
    if n >= 1:
        second = (classical_laguerre(m, alpha - 1).reflected()
                  * classical_laguerre(n - 1, alpha))
    else:
        second = Polynomial((0,))
    return first + second


@pytest.mark.parametrize("m", [1, 2, 3])
def test_xm_matches_product_form_exactly(m):
    alpha = Fraction(2)
    spec = XmFamilySpec(m, alpha)
    for nu in range(m, m + 5):
        n = nu - m
        built = xm_nullspace_oracle(nu, spec)
        oracle = _product_form(nu, m, alpha)
        if n % 2 == 1:
            oracle = -1 * oracle
        assert built.coeffs == oracle.coeffs, f"nu={nu}, m={m}"


# alpha of the one-alpha form's tests: non-dyadic, near 1, integer, and half-integer
_ONE_ALPHA = [Fraction(21, 20), Fraction(2), Fraction(7, 3), Fraction(19, 7),
              Fraction(7, 2)]


def test_one_alpha_two_term_form_is_the_xm_member():
    # L_j^(a-1) = L_j^(a) - L_(j-1)^(a) (DLMF 18.9.13) in both a - 1 factors
    # of the product form leaves (-1)^n [A_m B_n - A_(m-1) B_(n-1)], A_j =
    # L_j^(a)(-g), B_j = L_j^(a)(g): the form eval_xm_laguerre evaluates.
    for alpha in _ONE_ALPHA:
        b = [_laguerre_or_zero(j, alpha) for j in range(-1, 31)]  # b[j + 1] = B_j
        for m in range(1, 7):
            a_m, a_m1 = b[m + 1].reflected(), b[m].reflected()
            spec = XmFamilySpec(m, alpha)
            for n in range(31):
                form = a_m * b[n + 1] - a_m1 * b[n]
                assert form * (-1) ** n == xm_laguerre(n + m, spec), (alpha, m, n)


def test_monic_is_scaled_standard():
    # m! n! times the standard member is the monic one: the ODE's solution
    # with unit leading coefficient
    spec = XmFamilySpec(2, Fraction(2))
    for nu in (2, 3, 5):
        scale = math.factorial(2) * math.factorial(nu - 2)
        monic = xm_nullspace_oracle(nu, spec, lead=Fraction(1))
        assert monic.coeffs == tuple(scale * c for c in
                                     xm_laguerre(nu, spec).coeffs)


def test_xm_spec_takes_a_numpy_integer_m():
    spec = XmFamilySpec(np.int64(2), Fraction(2))
    assert type(spec.m) is int and spec == XmFamilySpec(2, Fraction(2))
    assert xm_laguerre(4, spec) == xm_laguerre(4, XmFamilySpec(2, Fraction(2)))


def test_xm_spec_rejects_a_bool_m():
    for bad in (True, 2.0, 0):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            XmFamilySpec(bad, Fraction(2))


def test_xm_spec_has_no_scale_option():
    with pytest.raises(TypeError):
        XmFamilySpec(2, Fraction(2), "standard")


def test_xm_degree_below_m_rejected():
    with pytest.raises(ValueError):
        xm_laguerre(1, XmFamilySpec(2, Fraction(2)))


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3, 2)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_xm_ode_residual_exact_zero(m, alpha):
    spec = XmFamilySpec(m, alpha)
    for nu in range(m, m + 7):
        res = xm_ode_residual(xm_laguerre(nu, spec), nu, spec)
        assert res.is_zero, f"nonzero residual at m={m}, nu={nu}, alpha={alpha}"


def test_xm_ode_residual_detects_wrong_polynomial():
    spec = XmFamilySpec(2, Fraction(2))
    res = xm_ode_residual(Polynomial((1,)), 2, spec)
    assert not res.is_zero


def test_xm_float_alpha_is_built_exactly():
    # a float alpha that is not a dyadic of small denominator is taken at its
    # exact binary value, so the member is exact and its residual is zero;
    # it still tracks the alpha = 2 member
    spec = XmFamilySpec(2, 2.0 + 1e-7)
    p = xm_laguerre(4, spec)
    exact = xm_laguerre(4, XmFamilySpec(2, Fraction(2)))
    np.testing.assert_allclose([float(c) for c in p.coeffs],
                               [float(c) for c in exact.coeffs],
                               rtol=1e-5, atol=1e-5)
    res = xm_ode_residual(p, 4, spec)
    worst = max((abs(float(c)) for c in res.coeffs), default=0.0)
    assert worst < 1e-8


def test_xm_spec_stores_alpha_exactly():
    assert XmFamilySpec(2, 2.5).alpha == Fraction(5, 2)
    assert XmFamilySpec(2, 3).alpha == Fraction(3)
    assert XmFamilySpec(2, 2.0 + 1e-7).alpha == Fraction(2.0 + 1e-7)
    assert isinstance(XmFamilySpec(2, 3).alpha, Fraction)
    with pytest.raises(TypeError):
        XmFamilySpec(2, "7/3")


@st.composite
def _xm_members(draw):
    """(nu, spec) with m <= 6, n <= 12 and non-dyadic alpha = p/q, q <= 9."""
    q = draw(st.integers(3, 9))
    # 1 < alpha <= 6, and a denominator that is not a power of two in lowest
    # terms, so alpha has no exact binary float
    alpha = draw(st.integers(q + 1, 6 * q).map(lambda p: Fraction(p, q)).filter(
        lambda a: a.denominator & (a.denominator - 1) != 0))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 12))
    return m + n, XmFamilySpec(m, alpha)


@settings(max_examples=300)
@given(_xm_members())
def test_xm_members_are_exact_ode_solutions(member):
    nu, spec = member
    p = xm_laguerre(nu, spec)
    assert xm_ode_residual(p, nu, spec).is_zero
    assert p.degree == nu
    n = nu - spec.m
    assert p.coeffs[-1] == Fraction(1, math.factorial(spec.m) * math.factorial(n))
    for g in (Fraction(1, 2), Fraction(5), Fraction(20)):
        want = float(eval_poly(p, g))
        assert eval_xm_laguerre(nu, spec, float(g)) == pytest.approx(want, rel=1e-12), g


def _exact_laguerre_values(jmax: int, alpha: Fraction, x: Fraction) -> list:
    """[L_0^(alpha)(x), ..., L_jmax^(alpha)(x)] exactly, by the recurrence,
    each as a (numerator, denominator) pair of ints."""
    out = [Fraction(1), 1 + alpha - x]
    for k in range(1, jmax):
        out.append(((2 * k + 1 + alpha - x) * out[k]
                    - (k + alpha) * out[k - 1]) / (k + 1))
    return [(v.numerator, v.denominator) for v in out]


@pytest.mark.parametrize("alpha", _ONE_ALPHA)
def test_one_alpha_form_is_accurate_to_its_factors(alpha):
    # With A_j = L_j^(alpha)(-g) and B_j = L_j^(alpha)(g) exact, the float
    # value errs by at most C eps (|A_m| (|B_n| + |B_(n-1)|) + |A_(m-1)|
    # (|B_(n-1)| + |B_(n-2)|)).  Each B is weighed with its lower neighbour:
    # near a zero of B_j the recurrence's error is set by the size of the
    # polynomial around it, not by |B_j|, while A_m / A_(m-1) grows like g / m.
    # C is fixed beforehand from the dtype; the largest reading on this sweep
    # is 54.
    c = 256
    rng = np.random.default_rng(2009)
    gs = np.sort(np.concatenate([[0.01, 20.0, 150.0],
                                 10.0 ** rng.uniform(-2.0, np.log10(150.0), 37)]))
    exact_a, exact_b, float_a, float_b = [], [], [], []
    for g in gs:
        a = _exact_laguerre_values(6, alpha, -Fraction(g))
        b = [(0, 1), (0, 1)] + _exact_laguerre_values(40, alpha, Fraction(g))
        exact_a.append(a)
        exact_b.append(b)  # b[j + 2] = B_j, with B_(-1) = B_(-2) = 0
        float_a.append([num / den for num, den in a])
        float_b.append([num / den for num, den in b])
    float_a, float_b = np.abs(float_a), np.abs(float_b)
    for m in range(1, 7):
        spec = XmFamilySpec(m, alpha)
        for n in range(41):
            got = eval_xm_laguerre(n + m, spec, gs)
            want = []
            for a, b in zip(exact_a, exact_b):
                (p1, q1), (p2, q2) = a[m], b[n + 2]
                (p3, q3), (p4, q4) = a[m - 1], b[n + 1]
                # exact P rounded once: int / int is correctly rounded
                want.append((-1) ** n * (p1 * p2 * q3 * q4 - p3 * p4 * q1 * q2)
                            / (q1 * q2 * q3 * q4))
            scale = (float_a[:, m] * (float_b[:, n + 2] + float_b[:, n + 1])
                     + float_a[:, m - 1] * (float_b[:, n + 1] + float_b[:, n]))
            bad = np.abs(got - np.array(want)) > c * np.finfo(float).eps * scale
            assert not bad.any(), (m, n, gs[bad])


# ---------------------------------------------------------------------------
# the weight's denominator and inner products

@pytest.mark.parametrize("m, alpha", [(1, Fraction(3, 2)), (2, Fraction(2)),
                                      (3, Fraction(2)), (4, Fraction(3))])
def test_weight_denominator_never_vanishes(m, alpha):
    # the zeros of h = L_m^(alpha-1)(-g) lie at g < 0, so f = X X / h^2 is
    # smooth on g >= 0 and the Gauss rule for g^alpha e^-g integrates it
    gs = np.linspace(1e-3, 50.0, 10_000)
    assert np.all(eval_poly(laguerre_data(m, alpha).h, gs) > 0)


def _norm_closed_form(nu, spec):
    """Standard scale: ||X_nu||^2 = (n + m + alpha) Gamma(n + alpha) / n!."""
    n, alpha = nu - spec.m, float(spec.alpha)
    return (n + spec.m + alpha) * math.gamma(n + alpha) / math.factorial(n)


def test_diagonal_norms_match_closed_form():
    cases = [(1, Fraction(2), (1, 2, 3)), (2, Fraction(2), (2, 3)),
             # Golub-Welsch weights Gamma(alpha+1) v_0^2 miss ||X_8||^2 = 80
             # here by tens of percent at 512 nodes
             (1, Fraction(2), (8,)),
             (2, Fraction(7, 3), (2, 3, 5, 9))]
    for m, alpha, degrees in cases:
        spec = XmFamilySpec(m, alpha)
        for nu in degrees:
            assert xm_inner_product(nu, nu, spec) == pytest.approx(
                _norm_closed_form(nu, spec), rel=1e-10), (m, alpha, nu)
    assert _norm_closed_form(8, XmFamilySpec(1, 2)) == 80.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_orthogonality_off_diagonals(m):
    spec = XmFamilySpec(m, Fraction(2))
    degrees = range(m, m + 4)
    for nu1 in degrees:
        for nu2 in degrees:
            if nu1 < nu2:
                assert abs(xm_inner_product(nu1, nu2, spec)) < 1e-8


def _quad_gram(spec, degrees):
    """Oracle: the Gram matrix of X_nu / ||X_nu|| by scipy's adaptive
    quadrature (quad_vec) over (0, inf), with the monomial form of each
    member; the identity matrix is the exact answer."""
    from scipy import integrate

    polys = [xm_laguerre(nu, spec).as_float() for nu in degrees]
    scale = np.array([_norm_closed_form(nu, spec) ** -0.5 for nu in degrees])
    h = laguerre_data(spec.m, spec.alpha).h
    alpha = float(spec.alpha)

    def integrand(g):
        v = scale * np.array([eval_poly(p, g) for p in polys])
        return np.outer(v, v) * (g ** alpha * math.exp(-g) / eval_poly(h, g) ** 2)

    return integrate.quad_vec(integrand, 0.0, math.inf, epsabs=1e-12,
                              epsrel=0.0, norm="max")[0]


@pytest.mark.parametrize("m", range(1, 7))
def test_inner_product_sweep_matches_quad_oracle(m):
    # degrees up to m + 7, alpha near 1, rational and integer; the hardest
    # inputs (14 pairs at m = 6, alpha = 11/10, each with degree 12 or 13)
    # stop only at the 1024-node rule, the last one allowed
    degrees = range(m, m + 8)
    for alpha in (Fraction(11, 10), Fraction(3, 2), Fraction(2),
                  Fraction(7, 3), Fraction(4), Fraction(6)):
        spec = XmFamilySpec(m, alpha)
        # the scale of an off-diagonal entry, sum |w f|, is within 2.1 % of
        # its 1024-node value on the 128-node rule
        gauss_g, gauss_w = _gauss_laguerre(float(alpha), 128)
        oracle = _quad_gram(spec, degrees)
        for i, nu1 in enumerate(degrees):
            for j, nu2 in enumerate(degrees[i:], start=i):
                ours = xm_inner_product(nu1, nu2, spec)
                norms = math.sqrt(_norm_closed_form(nu1, spec)
                                  * _norm_closed_form(nu2, spec))
                assert abs(ours - norms * oracle[i, j]) <= 1e-10 * norms
                if i == j:
                    assert ours == pytest.approx(norms, rel=1e-10)
                    continue
                # off the diagonal, zero to 1e-10 of sum |w f|
                f = (eval_xm_laguerre(nu1, spec, gauss_g)
                     * eval_xm_laguerre(nu2, spec, gauss_g)
                     / eval_poly(laguerre_data(m, alpha).h, gauss_g) ** 2)
                assert abs(ours) <= 1e-10 * np.sum(np.abs(gauss_w * f))


@pytest.mark.parametrize("n", checks._GAUSS_NODES)
@pytest.mark.parametrize("alpha", [1.25, 2.0, 3.5, 10.0])
def test_gauss_nodes_are_dstebz_over_the_whole_spectrum(alpha, n):
    # the nodes come from the solver's index bisection of levels 1..n, which
    # `dstebz` runs as RANGE 'A'; `dstebz` with RANGE 'A' is the reference
    k = np.arange(n, dtype=float)
    diag, b = 2.0 * k + alpha + 1.0, np.sqrt(k * (k + alpha))
    m, ref, info = solver._stebz(diag, b[1:], b"A", 0, 0, 0, 0,
                                 2 * np.finfo(float).tiny)
    assert (m, info) == (n, 0)
    nodes = _gauss_laguerre.__wrapped__(alpha, n)[0]
    assert nodes.tobytes() == ref.tobytes()


def test_xm_orthogonality_reading_is_an_accuracy():
    # `verify`'s reading, the largest off-diagonal entry for m = 1..3: in the
    # standard scale it is a rounding error (4.8e-14); a scale that carried
    # (m!)^2 n1! n2! into each entry read 2.0e-11 here
    assert checks._check_xm_orthogonality() <= 1e-12


def test_inner_product_refuses_an_unconverged_rule(monkeypatch):
    # m = 3, alpha = 2 needs 256 nodes for X_5 against X_6
    monkeypatch.setattr(checks, "_GAUSS_NODES", (64, 128))
    with pytest.raises(RuntimeError, match="by 128 Gauss-Laguerre nodes"):
        xm_inner_product(5, 6, XmFamilySpec(3, Fraction(2)))


def test_inner_product_rejects_degrees_below_m():
    with pytest.raises(ValueError):
        xm_inner_product(1, 3, XmFamilySpec(2, Fraction(2)))
