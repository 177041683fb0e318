"""Supersymmetric layer: superpotentials, ladder operators, partner models.

The ground state factorizes H - E_0 = A^dagger A with A = (1/sqrt(M)) d/dx
+ W and W = -(1/sqrt(M)) psi_0'/psi_0; W and 1/sqrt(M) come from the
model's map (``models.PctMap``).  Both families are shape invariant: the
partner potential is the alpha -> alpha+1 member of the same family shifted
by C, so partner eigenstates are base eigenstates with alpha raised by one.
The partner potential built from W instead, which checks that identity, is
in ``checks``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .models import (ModelKind, PctMap, _points, _ret, susy_constant, v_eff,
                     wavefunction)
from .orthopoly import eval_poly, laguerre_data


@dataclass(frozen=True)
class PartnerModel:
    """Partner data: the alpha+1 comparison model and the spectral shift."""

    base: ModelKind
    comparison: ModelKind
    r_shift: Fraction


def partner_model(model: ModelKind) -> PartnerModel:
    """Shape-invariance data for a model.

    The comparison model raises alpha by one while keeping the caller's
    offset from the zero-ground-energy constant fixed, so the displayed
    identity V_partner(x; alpha) = V(x; alpha+1) + shift holds for every vc.
    """
    offset = model.vc - susy_constant(model)
    comparison = replace(model, alpha=model.alpha + 1, vc=0)
    comparison = replace(comparison, vc=susy_constant(comparison) + offset)
    return PartnerModel(base=model, comparison=comparison, r_shift=model.pct_map.c)


def _ratio_s(model: ModelKind, g):
    """S(g) = L_{m-1}^a/L_m^(a-1) - L_{m-1}^(a+1)/L_m^a, as functions of g."""
    data = laguerre_data(model.m, model.alpha)
    return (eval_poly(data.h1, g) / eval_poly(data.h, g)
            - eval_poly(data.q1, g) / eval_poly(data.ha, g))


def _w1(model: ModelKind, pm: PctMap) -> float:
    """w1 = alpha/2 + d2/(2 d1), the 1/sqrt(g) coefficient of s W/sqrt(C)."""
    return float(model.alpha / 2 + pm.d2 / (2 * pm.d1))


def superpotential(model: ModelKind, x):
    """Closed-form superpotential W = -(1/sqrt(M)) (log psi_0)'.

    psi_0 ~ sqrt(g^alpha e^(-g) |g'|) L_m^alpha(-g)/h(g) gives (log psi_0)' =
    g' [alpha/(2g) - 1/2 - S(g)] + g''/(2g'); as g'/sqrt(M) = s sqrt(C g)
    (s = sign g') and (g''/g')/sqrt(M) = s d2 sqrt(C)/(d1 sqrt(g)),
    W = s sqrt(C) [(1/2 + S) sqrt(g) - w1/sqrt(g)].
    """
    pm, xa = _points(model, x)
    g = pm.g(xa)
    root = np.sqrt(g)
    scale = math.copysign(math.sqrt(pm.c), pm.d1)
    out = scale * ((0.5 + _ratio_s(model, g)) * root - _w1(model, pm) / root)
    return _ret(x, out)


def _inv_sqrt_mass(model: ModelKind, xa):
    return 1.0 / np.sqrt(model.pct_map.mass(xa))


def partner_potential(model: ModelKind, x):
    """Supersymmetric partner potential, by the shape-invariant closed form."""
    pm = partner_model(model)
    return v_eff(pm.comparison, x) + float(pm.r_shift)


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative on a uniform grid, one-sided at the ends
    (a Grid has at least 16 points, the stencil needs 5)."""
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2]
              + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2]
              - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3]
               - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3]
               + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    return out


def _grid_geometry(model: ModelKind, psi, grid):
    """psi as floats, W and 1/sqrt(M) on the grid, and the mask of points
    inside the domain; callers zero the output at a finite domain end
    (Case 2's Dirichlet origin).
    """
    f = np.asarray(psi, dtype=float)
    if f.size != grid.npoints:
        raise ValueError("psi length does not match the grid")
    xs = grid.xs()
    valid = xs > model.pct_map.lo
    w, inv = np.zeros_like(xs), np.zeros_like(xs)
    w[valid] = superpotential(model, xs[valid])
    inv[valid] = _inv_sqrt_mass(model, xs[valid])
    return f, w, inv, valid


def apply_A(model: ModelKind, psi, grid) -> np.ndarray:
    """Lowering operator on grid samples: (A psi)(x) = psi'/sqrt(M) + W psi."""
    f, w, inv, valid = _grid_geometry(model, psi, grid)
    out = inv * _derivative(f, grid.h) + w * f
    out[~valid] = 0.0
    return out


def apply_A_dagger(model: ModelKind, psi, grid) -> np.ndarray:
    """Raising operator on grid samples: (A+ psi)(x) = -(psi/sqrt(M))' + W psi."""
    f, w, inv, valid = _grid_geometry(model, psi, grid)
    out = -_derivative(inv * f, grid.h) + w * f
    out[~valid] = 0.0
    return out


def partner_wavefunction(model: ModelKind, n: int, x):
    """Normalized partner eigenstate: the alpha+1 base state (shape invariance)."""
    return wavefunction(partner_model(model).comparison, n, x)
