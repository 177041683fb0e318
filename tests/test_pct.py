"""Property tests of the generic point-canonical-transformation core.

Every family formula (V_eff, W, W', 1/sqrt(M), the partner curvature term)
is derived once from a model's map.  On derandomized draws of the case,
rational b and alpha (denominators up to 9, so most have no exact binary
float), m <= 6 and eta <= 10, the derived formulas are checked against
routes that do not share them.  Tolerances, fixed before the first run:

- ``v_eff`` against the family's hand-derived closed form, over the
  401-point default domain of level 3: 1e-14 * max(1, |V|);
- W against the log-derivative of the ground state
  (``superpotential_from_groundstate``): 1e-8, as in the fixed-model tests
  of test_susy;
- ``shape_invariance_residual``: 1e-9, as in its fixed-model tests.

The last two are taken where V_eff <= E_3 (the classically allowed
region of the first four levels), where the states live and the
log-derivative stencil resolves them.
"""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmlag.checks import (shape_invariance_residual,
                           superpotential_from_groundstate, v_eff_by_hand)
from pdmlag.models import Case1Params, Case2Params, default_domain, energy, v_eff
from pdmlag.solver import Grid
from pdmlag.susy import superpotential

_rational = st.builds(Fraction, st.integers(1, 12), st.integers(1, 9))


@st.composite
def _models(draw):
    alpha = 1 + draw(_rational)
    m = draw(st.integers(1, 6))
    if draw(st.sampled_from((1, 2))) == 1:
        return Case1Params(draw(_rational.filter(lambda b: b <= 3)), alpha, m)
    return Case2Params(draw(st.integers(0, 10)), alpha, m)


def _domain_points(model):
    lo, hi = default_domain(model, 3)
    if model.pct_map.lo > -np.inf:
        lo = hi / 400
    return Grid(lo, hi, 401).xs()


@settings(max_examples=40)
@given(_models())
def test_generic_formulas_match_independent_routes(model):
    xs = _domain_points(model)
    v = v_eff(model, xs)
    hand = v_eff_by_hand(model, xs)
    assert np.all(np.abs(v - hand) <= 1e-14 * np.maximum(1.0, np.abs(v)))

    inside = xs[v <= energy(model, 3)]
    assert inside.size >= 10
    w_gap = superpotential(model, inside) - superpotential_from_groundstate(model, inside)
    assert np.max(np.abs(w_gap)) < 1e-8
    assert np.max(np.abs(shape_invariance_residual(model, inside))) < 1e-9
