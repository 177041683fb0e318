"""Exactly solvable position-dependent-mass models with X_m-Laguerre states.

Two families are implemented: an exponential mass profile on the whole line
and a power-law profile on the half line.  Both have exactly equispaced
spectra, bound states built from exceptional (X_m) Laguerre polynomials, and
a shape-invariant supersymmetric structure.  An independent finite-difference
eigensolver serves as a numerical oracle for every closed form.
"""

__version__ = "0.1.0"

from .models import (Case1Params, Case2Params, ModelKind, default_domain,
                     density2d, energy, energy_fraction, g_map, mass,
                     norm_constant_closed_form, pct_master_residual, pct_prefactor,
                     susy_constant, v_eff, v_eff_m1_closed_form, wavefunction)
from .orthopoly import (Polynomial, XmFamilySpec, classical_laguerre,
                        eval_poly, eval_xm_laguerre, xm_inner_product,
                        xm_laguerre, xm_ode_residual, xm_weight)
from .solver import (DiscretizedOperator, Grid, SpectrumResult,
                     convergence_order, discretize, eigen_lowest,
                     lowest_eigenvalues, quadrature, solve_model)
from .susy import (PartnerModel, SuperpotentialFn, apply_A, apply_A_dagger,
                   partner_model, partner_potential, partner_route_residual,
                   partner_wavefunction, shape_invariance_residual,
                   superpotential, superpotential_from_groundstate)

__all__ = [
    "__version__",
    "Polynomial", "XmFamilySpec", "classical_laguerre", "eval_poly",
    "eval_xm_laguerre", "xm_laguerre", "xm_ode_residual", "xm_weight", "xm_inner_product",
    "Case1Params", "Case2Params", "ModelKind", "mass", "g_map", "v_eff",
    "v_eff_m1_closed_form", "energy", "energy_fraction", "wavefunction",
    "norm_constant_closed_form", "pct_prefactor", "pct_master_residual",
    "density2d", "default_domain", "susy_constant",
    "SuperpotentialFn", "PartnerModel", "superpotential",
    "superpotential_from_groundstate", "partner_model", "partner_potential",
    "partner_route_residual", "shape_invariance_residual", "apply_A",
    "apply_A_dagger", "partner_wavefunction",
    "Grid", "DiscretizedOperator", "SpectrumResult", "discretize",
    "eigen_lowest", "lowest_eigenvalues", "solve_model", "convergence_order",
    "quadrature",
]
