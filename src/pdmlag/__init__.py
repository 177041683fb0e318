"""Exactly solvable position-dependent-mass models with X_m-Laguerre states.

Two families are implemented: an exponential mass profile on the whole line
and a power-law profile on the half line.  Both have exactly equispaced
spectra, bound states built from exceptional (X_m) Laguerre polynomials, and
a shape-invariant supersymmetric structure.  An independent finite-difference
eigensolver serves as a numerical oracle for every closed form; the checks
that compare them are in ``pdmlag.checks``.
"""

__version__ = "0.1.0"

from .models import (Case1Params, Case2Params, ModelKind, default_domain,
                     density2d, energy, energy_fraction, g_map, mass,
                     norm_constant_closed_form, pct_prefactor, susy_constant,
                     v_eff, wavefunction)
from .orthopoly import (Polynomial, XmFamilySpec, classical_laguerre,
                        eval_poly, eval_xm_laguerre, xm_laguerre)
from .solver import (DiscretizedOperator, Grid, SpectrumResult, discretize,
                     eigen_lowest, lowest_eigenvalues, quadrature, solve_model)
from .susy import (PartnerModel, apply_A, apply_A_dagger, partner_model,
                   partner_potential, partner_wavefunction, superpotential)

__all__ = [
    "__version__",
    "Polynomial", "XmFamilySpec", "classical_laguerre", "eval_poly",
    "eval_xm_laguerre", "xm_laguerre",
    "Case1Params", "Case2Params", "ModelKind", "mass", "g_map", "v_eff",
    "energy", "energy_fraction", "wavefunction", "norm_constant_closed_form",
    "pct_prefactor", "density2d", "default_domain", "susy_constant",
    "PartnerModel", "superpotential", "partner_model", "partner_potential",
    "apply_A", "apply_A_dagger", "partner_wavefunction",
    "Grid", "DiscretizedOperator", "SpectrumResult", "discretize",
    "eigen_lowest", "lowest_eigenvalues", "solve_model", "quadrature",
]
