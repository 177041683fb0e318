"""Acceptance battery: every published contract of the package, end to end.

Each test prints one ``[PASS]``/``[FAIL]`` line naming the contract it
checks (run with ``-s`` to see the lines as they happen).  The checks mirror
what a user of the package relies on: closed-form spectra reproduced by the
independent finite-difference solver, exact polynomial identities, the
supersymmetric ladder, and the figure-data pipeline through the CLI.
"""
import functools
import sys
from fractions import Fraction

import numpy as np
from scipy.integrate import simpson

from pdmlag.checks import (convergence_order, pct_master_residual,
                           shape_invariance_residual, v_eff_m1_closed_form,
                           xm_inner_product, xm_ode_residual)
from pdmlag.cli import main
from pdmlag.models import (Case1Params, Case2Params, default_domain, energy,
                           energy_fraction, v_eff, wavefunction)
from pdmlag.orthopoly import XmFamilySpec, xm_laguerre
from pdmlag.solver import (Grid, discretize, eigen_lowest, quadrature,
                           solve_model)
from pdmlag.susy import apply_A, partner_model


def _emit(ok: bool, description: str) -> None:
    sys.__stdout__.write(f"[{'PASS' if ok else 'FAIL'}] {description}\n")
    sys.__stdout__.flush()


def _contract(description):
    """Report one visible pass/fail line per check, even when a test blows up."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except BaseException:
                _emit(False, description)
                raise
            _emit(ok, description)
            assert ok, f"{description} -- worst: {detail}"
        return run
    return wrap


@_contract("exponential-mass spectra: solver matches E_n = b^2(n + (a+1)/2 + m/a) "
           "to 1e-4 relative, m = 1..4")
def test_exponential_mass_spectrum_against_solver():
    worst = 0.0
    for m in (1, 2, 3, 4):
        model = Case1Params(1, 2, m)
        res = solve_model(model, 3)
        for n in range(3):
            exact = energy(model, n)
            worst = max(worst, abs(res.eigenvalues[n] - exact) / abs(exact))
    return worst < 1e-4, worst


@_contract("power-law-mass spectra: solver matches the closed form to 1e-3 "
           "relative with unit gaps, eta = 0..3, m = 1..2")
def test_powerlaw_mass_spectrum_and_uniform_gaps():
    worst = 0.0
    worst_gap = 0.0
    for eta in (0, 1, 2, 3):
        for m in (1, 2):
            model = Case2Params(eta, 2, m)
            res = solve_model(model, 4)
            for n in range(4):
                exact = energy(model, n)
                worst = max(worst, abs(res.eigenvalues[n] - exact) / abs(exact))
            worst_gap = max(worst_gap,
                            float(np.max(np.abs(np.diff(res.eigenvalues) - 1.0))))
    return worst < 1e-3 and worst_gap < 1e-3, (worst, worst_gap)


@_contract("exceptional Laguerre family: ODE residual exactly zero and "
           "off-diagonal weighted inner products below 1e-8")
def test_polynomial_ode_and_orthogonality():
    worst_res = Fraction(0)
    for m in range(1, 5):
        spec = XmFamilySpec(m, Fraction(2))
        for nu in range(m, m + 7):
            res = xm_ode_residual(xm_laguerre(nu, spec), nu, spec)
            for c in res.coeffs:
                worst_res = max(worst_res, abs(Fraction(c)))
    worst_ip = 0.0
    for m in (1, 2, 3):
        spec = XmFamilySpec(m, Fraction(2))
        for nu1 in range(m, m + 4):
            for nu2 in range(m, m + 4):
                if nu1 < nu2:
                    worst_ip = max(worst_ip,
                                   abs(xm_inner_product(nu1, nu2, spec)))
    return worst_res == 0 and worst_ip < 1e-8, (float(worst_res), worst_ip)


@_contract("m = 1 potential reduces to its rational closed form within 1e-12")
def test_codimension_one_potential_reduction():
    model = Case1Params(1, 2, 1)
    xs = np.linspace(-3.0, 3.0, 1000)
    worst = float(np.max(np.abs(v_eff(model, xs)
                                - v_eff_m1_closed_form(model, xs))))
    return worst <= 1e-12, worst


@_contract("point-canonical-transform master identity holds to 1e-9 on both "
           "families, n <= 3, m <= 3")
def test_master_equation_residuals():
    worst = 0.0
    xs1 = np.linspace(-4.0, 3.0, 50)
    for m in (1, 2, 3):
        for n in range(4):
            worst = max(worst, float(np.max(np.abs(
                pct_master_residual(Case1Params(1, 2, m), n, xs1)))))
    xs2 = np.linspace(0.2, 3.0, 50)
    for eta in (0, 1, 2):
        for m in (1, 2, 3):
            for n in range(4):
                worst = max(worst, float(np.max(np.abs(
                    pct_master_residual(Case2Params(eta, 2, m), n, xs2)))))
    return worst < 1e-9, worst


@_contract("SUSY chain: E_0 = 0 exactly, A annihilates the ground state to "
           "1e-6, shape invariance to 1e-9, partner spectrum to 1e-3")
def test_susy_chain():
    details = {}
    # (a) zero ground energy, exact rational arithmetic
    e0 = max(abs(energy_fraction(Case1Params.susy_zero(1, 2, 1), 0)),
             abs(energy_fraction(Case2Params.susy_zero(1, 2, 2), 0)))
    details["E0"] = float(e0)
    # (b) the lowering operator annihilates the ground state
    ann = 0.0
    for model in (Case1Params.susy_zero(1, 2, 1),
                  Case2Params.susy_zero(1, 2, 2)):
        lo, hi = default_domain(model, 3)
        grid = Grid(lo, hi, 3001)
        psi0 = wavefunction(model, 0, grid.xs())
        ann = max(ann, float(
            np.sqrt(quadrature(apply_A(model, psi0, grid) ** 2, grid))
            / np.sqrt(quadrature(psi0 ** 2, grid))))
    details["annihilation"] = ann
    # (c) partner potential is the alpha+1 potential plus the constant shift
    shape = 0.0
    xs1 = np.linspace(-4.0, 3.0, 100)
    for m in (1, 2, 3):
        for alpha in (Fraction(3, 2), Fraction(2), Fraction(3)):
            shape = max(shape, float(np.max(np.abs(
                shape_invariance_residual(Case1Params(1, alpha, m), xs1)))))
    shape = max(shape, float(np.max(np.abs(
        shape_invariance_residual(Case1Params(2, 2, 2),
                                  np.linspace(-2.0, 2.0, 100))))))
    xs2 = np.linspace(0.2, 3.0, 100)
    for eta in (0, 1, 2):
        for m in (1, 2):
            shape = max(shape, float(np.max(np.abs(
                shape_invariance_residual(Case2Params(eta, 2, m), xs2)))))
    details["shape"] = shape
    # (d) numeric partner spectrum sits one rung up the base ladder
    spec = 0.0
    for model in (Case1Params.susy_zero(1, 2, 1),
                  Case2Params.susy_zero(1, 2, 2)):
        pm = partner_model(model)
        res = solve_model(pm.comparison, 3)
        for n in range(3):
            exact = energy(model, n + 1)
            spec = max(spec, abs(res.eigenvalues[n] + float(pm.r_shift)
                                 - exact) / abs(exact))
    details["partner spectrum"] = spec
    ok = e0 == 0 and ann < 1e-6 and shape < 1e-9 and spec < 1e-3
    return ok, details


@_contract("bound states are orthonormal to 1e-6 for n, n' <= 4 on both "
           "families")
def test_bound_state_orthonormality():
    worst = 0.0
    for model in (Case1Params(1, 2, 1), Case2Params(1, 2, 2)):
        lo, hi = default_domain(model, 4)
        pad = 0.25 * (hi - lo)
        grid = Grid(lo if isinstance(model, Case2Params) else lo - pad,
                    hi + pad, 4001)
        xs = grid.xs()
        psis = [wavefunction(model, n, xs) for n in range(5)]
        for i in range(5):
            for j in range(5):
                val = quadrature(psis[i] * psis[j], grid)
                worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    return worst < 1e-6, worst


@_contract("solver calibration: harmonic-oscillator levels 2n+1 to 1e-5 and "
           "second-order grid convergence")
def test_solver_calibration():
    grid = Grid(-10.0, 10.0, 12001)
    op = discretize(lambda t: np.ones_like(t), lambda t: t ** 2, grid)
    vals = eigen_lowest(op, 4).eigenvalues
    worst = float(np.max(np.abs(vals - (2.0 * np.arange(4) + 1.0))))
    order = convergence_order((lambda t: np.ones_like(t), lambda t: t ** 2,
                               -10.0, 10.0), 2)
    return worst < 1e-5 and abs(order - 2.0) <= 0.2, (worst, order)


def _profile_csv(tmp_path, args, name):
    path = tmp_path / name
    code = main(["profile", *args, "--out", str(path)])
    assert code == 0
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])


def _count_sign_changes(vals):
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


@_contract("figure-data pipeline: profile densities from the CLI integrate "
           "to 1 within 1e-6 and psi_n carries n nodes, all presets")
def test_profile_figure_presets(tmp_path):
    worst = 0.0
    node_errors = 0
    presets = [(["--case", "1", "--m", str(m)], Case1Params(1, 2, m))
               for m in (1, 2, 3, 4)]
    presets += [(["--case", "2", "--eta", str(eta), "--m", str(m)],
                 Case2Params(eta, 2, m))
                for m in (1, 2, 3) for eta in (0, 1, 2, 3)]
    for idx, (args, model) in enumerate(presets):
        data = _profile_csv(tmp_path, args, f"profile_{idx}.csv")
        xs = data[:, 0]
        for n in range(3):
            total = simpson(data[:, 3 + n], x=xs)
            worst = max(worst, abs(total - 1.0))
            node_errors += _count_sign_changes(wavefunction(model, n, xs)) != n
    return worst < 1e-6 and node_errors == 0, (worst, node_errors)


@_contract("figure-data pipeline: 2D density meshes from the CLI integrate "
           "to 1 within 1e-4 and show (n1+1)(n2+1) lobes")
def test_density2d_figure_presets(tmp_path):
    worst = 0.0
    lobe_errors = []
    for n1, n2 in ((0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3)):
        path = tmp_path / f"density_{n1}_{n2}.csv"
        code = main(["density2d", "--case", "2", "--eta", "1",
                     "--n1", str(n1), "--n2", str(n2),
                     "--npoints", "161", "--out", str(path)])
        assert code == 0
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        data = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        xs = data[::161, 0]
        rho = data[:, 2].reshape(161, 161)
        total = np.trapezoid(np.trapezoid(rho, xs, axis=1), xs)
        worst = max(worst, abs(total - 1.0))
        peak = rho.max()
        lobes = 0
        for i in range(1, 160):
            for j in range(1, 160):
                window = rho[i - 1:i + 2, j - 1:j + 2]
                if rho[i, j] == window.max() and rho[i, j] > 1e-3 * peak \
                        and np.sum(window == rho[i, j]) == 1:
                    lobes += 1
        if lobes != (n1 + 1) * (n2 + 1):
            lobe_errors.append((n1, n2, lobes))
    return worst < 1e-4 and not lobe_errors, (worst, lobe_errors)
