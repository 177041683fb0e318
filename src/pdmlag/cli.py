"""Command-line front end: spectra, figure data, and verification reports.

Subcommands: ``spectrum`` (analytic vs numeric eigenvalues), ``profile``
(x, M, V_eff, first three densities), ``density2d`` (separable 2D density
meshes), and ``verify`` (the full invariant battery as a JSON report).
Numbers are printed with 17 significant digits so identical configurations
yield byte-identical files.

Table data is formatted a column at a time by `emit.format_column`, which
gives exactly the bytes of ``'%.17g' % x`` from vectorised integer digits
and hands the rare values it cannot decide (near-ties, subnormals, the ends
of the float range), and short columns whole, to ``'%.17g'`` itself.  Every
column is checked for NaN and infinity before the first byte is written;
the table is then streamed to its destination in chunks of at most
`_CHUNK_ROWS` rows, so it is never built whole.  Metadata and the `verify`
report go through `_fmt` and `_json_value`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Optional

import numpy as np
import scipy

from . import __version__, emit
from .models import (Case1Params, Case2Params, ModelKind, default_domain,
                     energy, energy_fraction, mass, pct_master_residual,
                     susy_constant, v_eff, v_eff_m1_closed_form, wavefunction)
from .orthopoly import XmFamilySpec, xm_inner_product, xm_laguerre, xm_ode_residual
from .solver import (Grid, _auto_grid, _model_operator, align_sign,
                     convergence_order, discretize, lowest_eigenvalues,
                     quadrature)
from .susy import (apply_A, apply_A_dagger, partner_model,
                   partner_route_residual, partner_wavefunction,
                   shape_invariance_residual)

OUTDIR_ENV = "PDMLAG_OUTDIR"

_DEFAULTS = {
    "case": 1, "b": "1", "alpha": "2", "m": 1, "eta": 0,
    "vc": None, "preset": None, "nmax": 3,
    "grid_lo": None, "grid_hi": None, "npoints": None,
    "format": "csv", "out": None, "n1": 0, "n2": 0,
    "corrupt_veff": 0.0,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one command invocation."""

    case: int
    b: Fraction
    alpha: Fraction
    m: int
    eta: int
    vc: Optional[Fraction]
    preset: Optional[str]
    nmax: int
    grid_lo: Optional[float]
    grid_hi: Optional[float]
    npoints: Optional[int]
    format: str
    out: Optional[str]
    n1: int
    n2: int
    corrupt_veff: float

    def model(self) -> ModelKind:
        if self.vc is not None and self.preset is not None:
            raise ValueError("give either vc or preset, not both")
        if self.preset is not None and self.preset != "susy-zero":
            raise ValueError(f"unknown preset {self.preset!r} (known: susy-zero)")
        if self.case == 1:
            base = Case1Params(self.b, self.alpha, self.m)
        elif self.case == 2:
            base = Case2Params(self.eta, self.alpha, self.m)
        else:
            raise ValueError(f"case must be 1 or 2, got {self.case}")
        if self.preset == "susy-zero":
            vc = susy_constant(base)
        else:
            vc = self.vc if self.vc is not None else Fraction(0)
        if self.case == 1:
            return Case1Params(self.b, self.alpha, self.m, vc)
        return Case2Params(self.eta, self.alpha, self.m, vc)


def _parse_config_file(path: str) -> dict:
    """Flat key=value lines or a JSON object mirroring RunConfig fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    stripped = text.lstrip()
    raw = {}
    if stripped.startswith("{"):
        parsed = json.loads(text)
        if not isinstance(parsed, dict):
            raise ValueError("config file JSON must be an object")
        raw = parsed
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno} is not key=value: {line!r}")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    out = {}
    for key, value in raw.items():
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = value
    return out


_INT_KEYS = {"case", "m", "eta", "nmax", "npoints", "n1", "n2"}
_FRACTION_KEYS = {"b", "alpha", "vc"}
_FLOAT_KEYS = {"grid_lo", "grid_hi", "corrupt_veff"}


def _coerce(key: str, value):
    if value is None:
        return None
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FRACTION_KEYS:
            frac = Fraction(str(value))
            float(frac)                     # OverflowError beyond ~1.8e308
            return frac
        if key in _FLOAT_KEYS:
            return float(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid value for {key}: {value!r} ({exc})") from None
    except OverflowError:
        raise ValueError(f"invalid value for {key}: {value!r} "
                         "(too large for a float)") from None
    if key == "format":
        value = str(value)
        if value not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {value!r}")
        return value
    return str(value)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(_parse_config_file(config_path))
    for key in _DEFAULTS:
        if hasattr(args, key):
            merged[key] = getattr(args, key)
    values = {key: _coerce(key, merged[key]) for key in _DEFAULTS}
    cfg = RunConfig(**values)
    if cfg.nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {cfg.nmax}")
    if cfg.npoints is not None and cfg.npoints < 16:
        raise ValueError(f"npoints must be >= 16, got {cfg.npoints}")
    if cfg.n1 < 0 or cfg.n2 < 0:
        raise ValueError("n1 and n2 must be >= 0")
    return cfg


# ---------------------------------------------------------------------------
# deterministic emitters

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise RuntimeError("non-finite value in output")
    return f"{value:.17g}"


def _json_value(value, indent: int) -> str:
    pad = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f'{pad}{json.dumps(str(k))}: {_json_value(v, indent + 1)}'
                 for k, v in value.items())
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating))
                   for v in value)
        if flat:
            return "[" + ", ".join(_fmt(v) for v in value) + "]"
        items = (f"{pad}{_json_value(v, indent + 1)}" for v in value)
        return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    return _fmt(value)


def _versions() -> dict:
    return {"pdmlag": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3])}


def _metadata(command: str, cfg: RunConfig, model: ModelKind,
              grid: Optional[Grid]) -> dict:
    params = {"case": cfg.case, "b": str(model.b) if cfg.case == 1 else None,
              "eta": model.eta if cfg.case == 2 else None,
              "alpha": str(model.alpha), "m": model.m, "vc": str(model.vc),
              "nmax": cfg.nmax}
    md = {"command": command,
          "parameters": {k: v for k, v in params.items() if v is not None},
          "versions": _versions()}
    if grid is not None:
        md["grid"] = {"lo": grid.lo, "hi": grid.hi, "npoints": grid.npoints}
    return md


def _check_finite(*arrays) -> None:
    """Refuse NaN or infinity anywhere in the data, before any output."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise RuntimeError("non-finite value in output")


def _fmt_column(values: np.ndarray) -> np.ndarray:
    """One data column as NUL-padded ASCII slots: `str` of an integer,
    `'%.17g'` of a float (see `emit`)."""
    if values.dtype.kind == "i":
        return values.astype("S").view(np.uint8).reshape(len(values), -1)
    return emit.format_column(values)


def _column_cells(data: list):
    """Row-range formatter over whole columns; a non-finite value is
    refused now, not when its chunk is written."""
    _check_finite(*data)
    return lambda start, stop: [_fmt_column(c[start:stop]) for c in data]


_CHUNK_ROWS = 8192


def _render_table(cfg: RunConfig, metadata: dict, columns: list, nrows: int,
                  cells) -> Iterator[str]:
    """Yield the table as text, at most `_CHUNK_ROWS` data rows per chunk.

    `cells(start, stop)` gives rows [start, stop) as one slot array per
    column (`_fmt_column`); each chunk is joined by `emit.join_rows`, so
    the whole table never exists at once.  The JSON layout is the one
    `_json_value` gives a {"metadata", "columns", "data"} document with one
    flat list per row.
    """
    json_format = cfg.format == "json"
    if json_format:
        yield ("{\n"
               f'  "metadata": {_json_value(metadata, 1)},\n'
               f'  "columns": {_json_value(columns, 1)},\n'
               '  "data": [\n')
        head, sep, tail = [b"    ["], b", ", b"],\n"
    else:
        yield ",".join(columns) + "\n"
        head, sep, tail = [], b",", b"\n"
    for start in range(0, nrows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, nrows)
        parts = list(head)
        for slots in cells(start, stop):
            parts += [slots, sep]
        parts[-1] = tail
        text = emit.join_rows(parts).decode("ascii")
        if json_format and stop == nrows:
            text = text[:-2] + "\n"        # no comma after the last row
        yield text
    if json_format:
        yield "  ]\n}\n"


def _output_path(cfg: RunConfig) -> Optional[str]:
    """Resolved --out path (relative paths go under $PDMLAG_OUTDIR); None: stdout."""
    path = cfg.out
    if path is not None and not os.path.isabs(path):
        outdir = os.environ.get(OUTDIR_ENV)
        if outdir:
            path = os.path.join(outdir, path)
    return path


def _write_output(cfg: RunConfig, chunks: Iterable[str]) -> None:
    """Write the text chunks in order to --out or stdout."""
    path = _output_path(cfg)
    if path is None:
        sys.stdout.writelines(chunks)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


# ---------------------------------------------------------------------------
# data commands

def _user_grid(cfg: RunConfig, lo: float, hi: float, npoints: int) -> Grid:
    """Grid on [lo, hi], with --grid-lo and --grid-hi in their place where
    given."""
    return Grid(lo if cfg.grid_lo is None else cfg.grid_lo,
                hi if cfg.grid_hi is None else cfg.grid_hi, npoints)


def _spectrum_grid(cfg: RunConfig, model: ModelKind, k: int) -> Grid:
    npoints = cfg.npoints if cfg.npoints is not None else 4001
    grid = _auto_grid(model, k, npoints)
    return _user_grid(cfg, grid.lo, grid.hi, npoints)


def cmd_spectrum(cfg: RunConfig) -> Iterator[str]:
    model = cfg.model()
    k = cfg.nmax + 1
    grid = _spectrum_grid(cfg, model, k)
    numeric = lowest_eigenvalues(_model_operator(model, k, grid), k)
    exact = np.array([energy(model, n) for n in range(k)])
    abs_err = np.abs(numeric - exact)
    rel_err = np.divide(abs_err, np.abs(exact), out=abs_err.copy(),
                        where=exact != 0.0)
    columns = ["n", "E_analytic", "E_numeric", "abs_err", "rel_err"]
    cells = _column_cells([np.arange(k), exact, numeric, abs_err, rel_err])
    return _render_table(cfg, _metadata("spectrum", cfg, model, grid),
                         columns, k, cells)


def _profile_grid(cfg: RunConfig, model: ModelKind) -> Grid:
    npoints = cfg.npoints if cfg.npoints is not None else 2001
    lo, hi = default_domain(model, max(cfg.nmax, 2))
    if model.pct_map.lo > -math.inf:
        lo = hi / npoints  # keep the barrier at a finite end off the samples
    return _user_grid(cfg, lo, hi, npoints)


def cmd_profile(cfg: RunConfig) -> Iterator[str]:
    model = cfg.model()
    grid = _profile_grid(cfg, model)
    xs = grid.xs()
    data = [xs, mass(model, xs), v_eff(model, xs)]
    data += [wavefunction(model, n, xs) ** 2 for n in range(3)]
    columns = ["x", "M", "V_eff", "psi0_sq", "psi1_sq", "psi2_sq"]
    return _render_table(cfg, _metadata("profile", cfg, model, grid),
                         columns, grid.npoints, _column_cells(data))


def _density2d_grid(cfg: RunConfig, model: ModelKind) -> Grid:
    npoints = cfg.npoints if cfg.npoints is not None else 201
    lo, hi = default_domain(model, max(cfg.n1, cfg.n2, 2))
    lo = hi / npoints
    return _user_grid(cfg, lo, hi, npoints)


def cmd_density2d(cfg: RunConfig) -> Iterator[str]:
    model = cfg.model()
    if model.pct_map.lo == -math.inf:
        raise ValueError("density2d supports Case 2 only "
                         "(the 2D figure is built on the half-line model)")
    grid = _density2d_grid(cfg, model)
    xs = grid.xs()
    px = wavefunction(model, cfg.n1, xs) ** 2
    py = wavefunction(model, cfg.n2, xs) ** 2
    # px, py >= 0, so every product px[i] * py[j] is finite iff the largest is
    _check_finite(xs, px, py, px.max() * py.max())
    npoints = grid.npoints
    xcol = _fmt_column(xs)                  # x is formatted once

    def cells(start, stop):
        # row i * npoints + j is (x_i, x_j, px[i] * py[j])
        i, j = np.divmod(np.arange(start, stop), npoints)
        return [xcol[i], xcol[j], _fmt_column(px[i] * py[j])]

    md = _metadata("density2d", cfg, model, grid)
    md["parameters"]["n1"] = cfg.n1
    md["parameters"]["n2"] = cfg.n2
    return _render_table(cfg, md, ["x", "y", "rho"], npoints ** 2, cells)


# ---------------------------------------------------------------------------
# verification battery

def _check_xm_ode_exact():
    worst = Fraction(0)
    for m in range(1, 5):
        spec = XmFamilySpec(m, Fraction(2))
        for nu in range(m, m + 7):
            res = xm_ode_residual(xm_laguerre(nu, spec), nu, spec)
            for c in res.coeffs:
                worst = max(worst, abs(Fraction(c)))
    return float(worst), 0.0


def _check_xm_orthogonality():
    worst = 0.0
    for m in (1, 2, 3):
        spec = XmFamilySpec(m, Fraction(2))
        degrees = range(m, m + 4)
        for nu1 in degrees:
            for nu2 in degrees:
                if nu1 < nu2:
                    worst = max(worst, abs(xm_inner_product(nu1, nu2, spec)))
    return worst, 1e-8


def _check_m1_closed_form():
    model = Case1Params(1, 2, 1)
    xs = np.linspace(-3.0, 3.0, 1000)
    return float(np.max(np.abs(v_eff(model, xs)
                               - v_eff_m1_closed_form(model, xs)))), 1e-12


def _pct_worst(models, xs):
    worst = 0.0
    for model in models:
        for n in range(4):
            worst = max(worst, float(np.max(np.abs(
                pct_master_residual(model, n, xs)))))
    return worst


def _check_pct_case1():
    xs = np.linspace(-4.0, 3.0, 50)
    models = [Case1Params(1, 2, m) for m in (1, 2, 3)]
    return _pct_worst(models, xs), 1e-9


def _check_pct_case2():
    xs = np.linspace(0.2, 3.0, 50)
    models = [Case2Params(eta, 2, m) for eta in (0, 1, 2) for m in (1, 2, 3)]
    return _pct_worst(models, xs), 1e-9


def _orthonormality_worst(model: ModelKind) -> float:
    lo, hi = default_domain(model, 4)
    pad = 0.25 * (hi - lo)
    grid = Grid(lo if model.pct_map.lo > -math.inf else lo - pad, hi + pad, 4001)
    xs = grid.xs()
    psis = [wavefunction(model, n, xs) for n in range(5)]
    worst = 0.0
    for i in range(5):
        for j in range(5):
            val = quadrature(psis[i] * psis[j], grid)
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    return worst


def _check_orthonormality_case1():
    return _orthonormality_worst(Case1Params(1, 2, 1)), 1e-6


def _check_orthonormality_case2():
    return _orthonormality_worst(Case2Params(1, 2, 2)), 1e-6


def _corrupted_spectrum(model: ModelKind, k: int, delta: float):
    op = discretize(lambda t: mass(model, t),
                    lambda t: v_eff(model, t) + delta, _auto_grid(model, k))
    return lowest_eigenvalues(op, k)


def _check_oracle_case1(delta: float):
    worst = 0.0
    for m in (1, 2, 3, 4):
        model = Case1Params(1, 2, m)
        vals = _corrupted_spectrum(model, 3, delta)
        for n in range(3):
            exact = energy(model, n)
            worst = max(worst, abs(vals[n] - exact) / abs(exact))
    return worst, 1e-4


def _check_oracle_case2(delta: float):
    worst = 0.0
    for eta in (0, 1, 2, 3):
        for m in (1, 2):
            model = Case2Params(eta, 2, m)
            vals = _corrupted_spectrum(model, 4, delta)
            for n in range(4):
                exact = energy(model, n)
                worst = max(worst, abs(vals[n] - exact) / abs(exact))
    return worst, 1e-3


def _check_isochronous_gaps(delta: float):
    worst = 0.0
    for eta in (0, 1, 2, 3):
        model = Case2Params(eta, 2, 1)
        vals = _corrupted_spectrum(model, 4, delta)
        gaps = np.diff(vals)
        worst = max(worst, float(np.max(np.abs(gaps - 1.0))))
    return worst, 1e-3


def _check_susy_e0():
    worst = Fraction(0)
    for model in (Case1Params.susy_zero(1, 2, 1), Case1Params.susy_zero(2, 3, 2),
                  Case2Params.susy_zero(1, 2, 1), Case2Params.susy_zero(0, 2, 3)):
        worst = max(worst, abs(energy_fraction(model, 0)))
    return float(worst), 0.0


def _susy_grid(model: ModelKind) -> Grid:
    lo, hi = default_domain(model, 3)
    return Grid(lo, hi, 3001)


def _check_ground_annihilation():
    worst = 0.0
    for model in (Case1Params.susy_zero(1, 2, 1), Case1Params.susy_zero(1, 2, 3),
                  Case2Params.susy_zero(1, 2, 2)):
        grid = _susy_grid(model)
        psi0 = wavefunction(model, 0, grid.xs())
        ratio = (np.sqrt(quadrature(apply_A(model, psi0, grid) ** 2, grid))
                 / np.sqrt(quadrature(psi0 ** 2, grid)))
        worst = max(worst, float(ratio))
    return worst, 1e-6


def _check_shape_invariance():
    worst = 0.0
    xs1 = np.linspace(-4.0, 3.0, 100)
    for m in (1, 2, 3):
        for alpha in (Fraction(3, 2), Fraction(2), Fraction(3)):
            worst = max(worst, float(np.max(np.abs(
                shape_invariance_residual(Case1Params(1, alpha, m), xs1)))))
    xs2 = np.linspace(0.2, 3.0, 100)
    for eta in (0, 1, 2):
        for m in (1, 2):
            worst = max(worst, float(np.max(np.abs(
                shape_invariance_residual(Case2Params(eta, 2, m), xs2)))))
    worst = max(worst, float(np.max(np.abs(
        shape_invariance_residual(Case1Params(2, 2, 2), xs1)))))
    return worst, 1e-9


def _check_partner_route():
    xs1 = np.linspace(-4.0, 3.0, 50)
    xs2 = np.linspace(0.2, 3.0, 50)
    worst = float(np.max(np.abs(partner_route_residual(Case1Params(1, 2, 2), xs1))))
    worst = max(worst, float(np.max(np.abs(
        partner_route_residual(Case2Params(1, 2, 1), xs2)))))
    return worst, 1e-8


def _check_intertwining():
    worst = 0.0
    for model in (Case1Params.susy_zero(1, 2, 1), Case2Params.susy_zero(1, 2, 1)):
        grid = _susy_grid(model)
        xs = grid.xs()
        for n in (0, 1):
            lowered = apply_A(model, wavefunction(model, n + 1, xs), grid)
            lowered /= np.sqrt(quadrature(lowered ** 2, grid))
            target = partner_wavefunction(model, n, xs)
            target /= np.sqrt(quadrature(target ** 2, grid))
            worst = max(worst, float(np.max(np.abs(
                align_sign(lowered) - align_sign(target)))))
            raised = apply_A_dagger(model, target, grid)
            raised /= np.sqrt(quadrature(raised ** 2, grid))
            base = wavefunction(model, n + 1, xs)
            worst = max(worst, float(np.max(np.abs(
                align_sign(raised) - align_sign(base)))))
    return worst, 1e-5


def _check_partner_spectrum():
    worst = 0.0
    for model in (Case1Params.susy_zero(1, 2, 1), Case2Params.susy_zero(1, 2, 2)):
        pm = partner_model(model)
        vals = lowest_eigenvalues(_model_operator(pm.comparison, 3), 3)
        for n in range(3):
            exact = energy(model, n + 1)
            worst = max(worst, abs(vals[n] + float(pm.r_shift)
                                   - exact) / abs(exact))
    return worst, 1e-3


def _check_ho_spectrum():
    # h^2 error on E_3 = 7 forces h <= ~2.5e-3 to clear the 1e-5 target
    grid = Grid(-10.0, 10.0, 12001)
    op = discretize(lambda t: np.ones_like(t), lambda t: t ** 2, grid)
    vals = lowest_eigenvalues(op, 4)
    worst = float(np.max(np.abs(vals - (2.0 * np.arange(4) + 1.0))))
    return worst, 1e-5


def _check_ho_order():
    p = convergence_order((lambda t: np.ones_like(t), lambda t: t ** 2,
                           -10.0, 10.0), 2)
    return abs(p - 2.0), 0.2


def _profile_density_worst(cfg: RunConfig) -> float:
    model = cfg.model()
    grid = _profile_grid(cfg, model)
    xs = grid.xs()
    worst = 0.0
    for n in range(3):
        dens = wavefunction(model, n, xs) ** 2
        worst = max(worst, abs(quadrature(dens, grid) - 1.0))
    return worst


def _check_profile_normalization():
    worst = 0.0
    for case, eta in ((1, 0), (2, 1)):
        cfg = _default_config(case=case, eta=eta)
        worst = max(worst, _profile_density_worst(cfg))
    return worst, 1e-6


def _count_nodes(model: ModelKind, n: int) -> int:
    lo, hi = default_domain(model, n)
    if model.pct_map.lo > -math.inf:
        lo = hi / 4000
    xs = np.linspace(lo, hi, 4000)
    vals = wavefunction(model, n, xs)
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _check_node_counts():
    worst = 0
    for model in (Case1Params(1, 2, 1), Case1Params(1, 2, 3),
                  Case2Params(1, 2, 1), Case2Params(0, 2, 2)):
        for n in range(4):
            worst = max(worst, abs(_count_nodes(model, n) - n))
    return float(worst), 0.0


def _density2d_mesh(n1: int, n2: int, npoints: int = 161):
    model = Case2Params(1, 2, 1)
    lo, hi = default_domain(model, max(n1, n2, 2))
    grid = Grid(hi / npoints, hi, npoints)
    xs = grid.xs()
    px = wavefunction(model, n1, xs) ** 2
    py = wavefunction(model, n2, xs) ** 2
    return grid, px, py


def _check_density2d_integral():
    grid, px, py = _density2d_mesh(1, 2)
    total = quadrature(px, grid) * quadrature(py, grid)
    return abs(total - 1.0), 1e-4


def _count_lobes(mesh: np.ndarray) -> int:
    """Interior points that are the unique maximum of their 3x3 window and
    exceed 1e-3 of the peak."""
    windows = np.lib.stride_tricks.sliding_window_view(mesh, (3, 3))
    centre = mesh[1:-1, 1:-1]
    unique_max = ((windows.max(axis=(2, 3)) == centre)
                  & ((windows == centre[..., None, None]).sum(axis=(2, 3)) == 1))
    return int(np.count_nonzero(unique_max & (centre > 1e-3 * mesh.max())))


def _check_density2d_lobes():
    worst = 0
    for n1, n2 in ((0, 0), (1, 2)):
        grid, px, py = _density2d_mesh(n1, n2)
        mesh = np.outer(px, py)
        worst = max(worst, abs(_count_lobes(mesh) - (n1 + 1) * (n2 + 1)))
    return float(worst), 0.0


def _default_config(**overrides) -> RunConfig:
    values = dict(_DEFAULTS)
    values.update(overrides)
    return RunConfig(**{k: _coerce(k, values[k]) for k in _DEFAULTS})


_CHECKS = [
    ("xm-ode-exact", lambda d: _check_xm_ode_exact()),
    ("xm-orthogonality", lambda d: _check_xm_orthogonality()),
    ("m1-closed-form", lambda d: _check_m1_closed_form()),
    ("pct-identity-case1", lambda d: _check_pct_case1()),
    ("pct-identity-case2", lambda d: _check_pct_case2()),
    ("orthonormality-case1", lambda d: _check_orthonormality_case1()),
    ("orthonormality-case2", lambda d: _check_orthonormality_case2()),
    ("oracle-spectrum-case1", _check_oracle_case1),
    ("oracle-spectrum-case2", _check_oracle_case2),
    ("isochronous-gaps", _check_isochronous_gaps),
    ("susy-e0-zero", lambda d: _check_susy_e0()),
    ("susy-ground-annihilation", lambda d: _check_ground_annihilation()),
    ("susy-shape-invariance", lambda d: _check_shape_invariance()),
    ("susy-partner-route", lambda d: _check_partner_route()),
    ("susy-intertwine", lambda d: _check_intertwining()),
    ("susy-partner-spectrum", lambda d: _check_partner_spectrum()),
    ("solver-ho-spectrum", lambda d: _check_ho_spectrum()),
    ("solver-ho-order", lambda d: _check_ho_order()),
    ("profile-normalization", lambda d: _check_profile_normalization()),
    ("profile-node-counts", lambda d: _check_node_counts()),
    ("density2d-integral", lambda d: _check_density2d_integral()),
    ("density2d-lobes", lambda d: _check_density2d_lobes()),
]


def cmd_verify(cfg: RunConfig) -> tuple:
    """Run every registered invariant check; returns (report text, all_pass)."""
    # The library imports this on first use; load it before the timed
    # battery so no check's runtime_s includes an import.
    import scipy.integrate  # noqa: F401

    delta = cfg.corrupt_veff
    checks = []
    failed = 0
    for name, fn in _CHECKS:
        start = time.perf_counter()
        measured, tolerance = fn(delta)
        runtime = time.perf_counter() - start
        status = "pass" if measured <= tolerance else "fail"
        failed += status == "fail"
        checks.append({"name": name, "status": status, "measured": measured,
                       "tolerance": tolerance, "runtime_s": runtime})
    report = {
        "metadata": {"command": "verify", "versions": _versions(),
                     "corrupt_veff": delta},
        "checks": checks,
        "summary": {"total": len(checks), "passed": len(checks) - failed,
                    "failed": failed},
    }
    return _json_value(report, 0) + "\n", failed == 0


# ---------------------------------------------------------------------------
# argument parsing and entry point

def _add_common(sub: argparse.ArgumentParser, with_model: bool = True) -> None:
    sub.add_argument("--config", help="config file (key=value lines or JSON)")
    sub.add_argument("--format", choices=("csv", "json"),
                     default=argparse.SUPPRESS, help="output format")
    sub.add_argument("--out", default=argparse.SUPPRESS,
                     help=f"output path (relative paths resolve under "
                          f"${OUTDIR_ENV} when set; stdout if omitted)")
    if not with_model:
        return
    sub.add_argument("--case", type=int, default=argparse.SUPPRESS,
                     help="model family: 1 (exponential mass) or 2 (power-law)")
    sub.add_argument("--b", default=argparse.SUPPRESS,
                     help="Case-1 mass decay rate (rational, e.g. 1 or 3/2)")
    sub.add_argument("--alpha", default=argparse.SUPPRESS,
                     help="family parameter alpha > 1 (rational)")
    sub.add_argument("--m", type=int, default=argparse.SUPPRESS,
                     help="codimension m >= 1")
    sub.add_argument("--eta", type=int, default=argparse.SUPPRESS,
                     help="Case-2 deformation index eta >= 0 (nu = 2eta/(2eta+1))")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--vc", default=argparse.SUPPRESS,
                       help="additive potential constant (rational)")
    group.add_argument("--preset", default=argparse.SUPPRESS,
                       choices=("susy-zero",),
                       help="named vc preset (susy-zero puts E_0 at 0)")
    sub.add_argument("--nmax", type=int, default=argparse.SUPPRESS,
                     help="highest level n to emit")
    sub.add_argument("--grid-lo", dest="grid_lo", type=float,
                     default=argparse.SUPPRESS, help="grid left endpoint")
    sub.add_argument("--grid-hi", dest="grid_hi", type=float,
                     default=argparse.SUPPRESS, help="grid right endpoint")
    sub.add_argument("--npoints", type=int, default=argparse.SUPPRESS,
                     help="number of grid points")


_DATA_COMMANDS = {"spectrum": cmd_spectrum, "profile": cmd_profile,
                  "density2d": cmd_density2d}


def _build_table(command: str, cfg: RunConfig) -> Iterator[str]:
    """Compute a data command's table, to be streamed by `_write_output`.

    A floating-point overflow, invalid operation or division by zero while
    the data is computed means the parameters or grid take the model out of
    the range of doubles; it is refused as invalid input (ValueError, exit
    1) before any numpy warning is printed.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _DATA_COMMANDS[command](cfg)
    except FloatingPointError as exc:
        raise ValueError(f"the model leaves double precision at these "
                         f"parameters and grid ({exc})") from None


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="pdmlag",
        description="Exactly solvable position-dependent-mass models with "
                    "X_m-Laguerre bound states: spectra, figure data, and "
                    "verification.")
    subs = parser.add_subparsers(dest="command", required=True)
    sp = subs.add_parser("spectrum", help="analytic vs numeric eigenvalues")
    _add_common(sp)
    pr = subs.add_parser("profile", help="x, M, V_eff and first densities")
    _add_common(pr)
    dd = subs.add_parser("density2d", help="separable 2D density mesh (Case 2)")
    _add_common(dd)
    dd.add_argument("--n1", type=int, default=argparse.SUPPRESS,
                    help="x-direction quantum number")
    dd.add_argument("--n2", type=int, default=argparse.SUPPRESS,
                    help="y-direction quantum number")
    vf = subs.add_parser("verify", help="run the invariant battery")
    _add_common(vf, with_model=False)
    vf.add_argument("--corrupt-veff", dest="corrupt_veff", type=float,
                    default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    status = 0
    try:
        cfg = _resolve_config(args)
        if args.command == "verify":
            text, ok = cmd_verify(cfg)
            chunks = [text]
            status = 0 if ok else 2
        else:
            chunks = _build_table(args.command, cfg)
        try:
            _write_output(cfg, chunks)
        except OSError as exc:
            print(f"error: cannot write {_output_path(cfg) or 'stdout'}: {exc}",
                  file=sys.stderr)
            return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
