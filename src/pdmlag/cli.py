"""Command-line front end: spectra, figure data, and verification reports.

Subcommands: ``spectrum`` (analytic vs numeric eigenvalues), ``profile``
(x, M, V_eff, first three densities), ``density2d`` (separable 2D density
meshes), and ``verify`` (the invariant battery of `checks`, run and timed
here, as a JSON report).
Numbers are printed with 17 significant digits so identical configurations
yield byte-identical files.

Table data is formatted and joined a chunk of rows at a time by
`emit.rows`, which writes every field with exactly the bytes of
``'%.17g' % x``, in one pass of a C kernel where that can be built and value
by value in Python where it cannot.  Every column, the level column n
included, is a float64 array: ``'%.17g'`` of an integer below 2**53 is its
`str`.  Every column is checked for NaN and infinity before the first byte
is written; the table is then streamed to its destination in chunks of at
most `_CHUNK_ROWS` rows, so it is never built whole.  Metadata and the
`verify` report go through `_fmt` and `_json_value`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Optional

import numpy as np
import scipy

from . import __version__, emit
from .models import (Case1Params, Case2Params, ModelKind, default_domain,
                     energy, mass, susy_constant, v_eff, wavefunction)
from .orthopoly import _integer
from .solver import Grid, _model_operator, lowest_eigenvalues

OUTDIR_ENV = "PDMLAG_OUTDIR"

_TABLES = ("spectrum", "profile", "density2d")

# The settings, one row per RunConfig field: (default, kind, the subcommands
# that take it as a flag, help).  A flag, a `key = value` line and a JSON
# value all reach RunConfig through `_coerce`.
_OPTIONS = {
    "case": (1, int, _TABLES,
             "model family: 1 (exponential mass) or 2 (power-law)"),
    "b": (Fraction(1), Fraction, _TABLES,
          "Case-1 mass decay rate (rational, e.g. 1 or 3/2)"),
    "alpha": (Fraction(2), Fraction, _TABLES,
              "family parameter alpha > 1 (rational)"),
    "m": (1, int, _TABLES, "codimension m >= 1"),
    "eta": (0, int, _TABLES,
            "Case-2 deformation index eta >= 0 (nu = 2eta/(2eta+1))"),
    "vc": (None, Fraction, _TABLES,
           "additive potential constant (rational; not with --preset)"),
    "preset": (None, str, _TABLES, "named vc preset (susy-zero puts E_0 at 0)"),
    "nmax": (3, int, _TABLES, "highest level n to emit"),
    "grid_lo": (None, float, _TABLES, "grid left endpoint"),
    "grid_hi": (None, float, _TABLES, "grid right endpoint"),
    "npoints": (None, int, _TABLES, "number of grid points"),
    "format": ("csv", str, _TABLES, "output format: csv or json"),
    "out": (None, str, _TABLES + ("verify",),
            f"output path (relative paths resolve under ${OUTDIR_ENV} when "
            f"set; stdout if omitted)"),
    "n1": (0, int, ("density2d",), "x-direction quantum number"),
    "n2": (0, int, ("density2d",), "y-direction quantum number"),
    "corrupt_veff": (0.0, float, ("verify",), argparse.SUPPRESS),
}
_CHOICES = {"case": (1, 2), "format": ("csv", "json"), "preset": ("susy-zero",)}
# The least value of each integer setting the models do not check.
_LEAST = {"nmax": 0, "npoints": 16, "n1": 0, "n2": 0}


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
        if self.case == 1:
            base = Case1Params(self.b, self.alpha, self.m)
        else:
            base = Case2Params(self.eta, self.alpha, self.m)
        if self.preset == "susy-zero":
            return replace(base, vc=susy_constant(base))
        return base if self.vc is None else replace(base, vc=self.vc)


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
    return {key.replace("-", "_"): value for key, value in raw.items()}


def _coerce(key: str, value):
    """A setting from a flag, a config line or JSON as its RunConfig field.
    Strings are parsed; a JSON value must be an integer for an int key, a
    number for a Fraction or float key, a string for the rest (never
    empty), and null only where the default is.  The value must be one of
    its `_CHOICES`, and an integer at least its `_LEAST`."""
    if key not in _OPTIONS:
        raise ValueError(f"unknown config key {key!r}")
    default, kind = _OPTIONS[key][:2]
    if value is None and default is None:
        return None
    if kind is int:
        kinds, expected = (int, str), "an integer"
    elif kind is str:
        kinds, expected = (str,), "a string"
    else:
        kinds, expected = (int, float, str), "a number"
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"invalid value for {key}: {value!r} (not {expected})")
    try:
        if kind is Fraction:
            parsed = Fraction(str(value))
            float(parsed)                   # OverflowError beyond ~1.8e308
        else:
            parsed = kind(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid value for {key}: {value!r} ({exc})") from None
    except OverflowError:
        raise ValueError(f"invalid value for {key}: {value!r} "
                         "(too large for a float)") from None
    if parsed == "":
        raise ValueError(f"invalid value for {key}: '' (empty)")
    if parsed not in _CHOICES.get(key, (parsed,)):
        raise ValueError(f"invalid value for {key}: {value!r} (known: "
                         f"{', '.join(str(c) for c in _CHOICES[key])})")
    return _integer(parsed, key, _LEAST[key]) if key in _LEAST else parsed


def _default_config(**overrides) -> RunConfig:
    """The defaults with `overrides` in their place, each coerced."""
    values = {key: row[0] for key, row in _OPTIONS.items()}
    values.update({k: _coerce(k, v) for k, v in overrides.items()})
    return RunConfig(**values)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file, then the flags given.  A file key
    must be one the command takes as a flag."""
    overrides = {} if args.config is None else _parse_config_file(args.config)
    for key in overrides:
        if key in _OPTIONS and args.command not in _OPTIONS[key][2]:
            raise ValueError(f"config key {key!r} does not apply to "
                             f"{args.command}")
    overrides.update((k, v) for k, v in vars(args).items() if k in _OPTIONS)
    return _default_config(**overrides)


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
    params = {"case": cfg.case}
    for f in fields(model):     # b or eta, alpha, m, vc
        value = getattr(model, f.name)
        params[f.name] = str(value) if isinstance(value, Fraction) else value
    params["nmax"] = cfg.nmax
    md = {"command": command, "parameters": params, "versions": _versions()}
    if grid is not None:
        md["grid"] = {"lo": grid.lo, "hi": grid.hi, "npoints": grid.npoints}
    return md


def _check_finite(*arrays) -> None:
    """Refuse NaN or infinity anywhere in the data, before any output."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise RuntimeError("non-finite value in output")


def _column_cells(data: list):
    """Row-range slicer over whole float columns; a non-finite value is
    refused now, not when its chunk is written."""
    _check_finite(*data)
    return lambda start, stop: [c[start:stop] for c in data]


_CHUNK_ROWS = 8192


def _render_table(cfg: RunConfig, metadata: dict, columns: list, nrows: int,
                  cells) -> Iterator[str]:
    """Yield the table as text, at most `_CHUNK_ROWS` data rows per chunk.

    `cells(start, stop)` gives rows [start, stop) as one float array per
    column; each chunk is formatted and joined by `emit.rows`, so the whole
    table never exists at once.  The JSON layout is the one
    `_json_value` gives a {"metadata", "columns", "data"} document with one
    flat list per row.
    """
    json_format = cfg.format == "json"
    if json_format:
        yield ("{\n"
               f'  "metadata": {_json_value(metadata, 1)},\n'
               f'  "columns": {_json_value(columns, 1)},\n'
               '  "data": [\n')
        head, sep, tail = "    [", ", ", "],\n"
    else:
        yield ",".join(columns) + "\n"
        head, sep, tail = "", ",", "\n"
    for start in range(0, nrows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, nrows)
        text = emit.rows(cells(start, stop), head, sep, tail)
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

def _table_grid(model: ModelKind, n: int, npoints: int,
                lo: Optional[float] = None, hi: Optional[float] = None, *,
                gap: bool = True) -> Grid:
    """`npoints` samples of default_domain(model, n), with `lo` and `hi`
    (--grid-lo and --grid-hi) in place of its ends where given, so that
    default_domain runs only for an end not given.  Where `gap`, a grid on
    the half-line without a given lo starts one of its own spacings in from
    x = 0, keeping the barrier at a finite end off the samples."""
    if lo is None or hi is None:
        domain = default_domain(model, n)
        hi = domain[1] if hi is None else hi
        if lo is None:
            lo = (hi / npoints if gap and model.pct_map.lo > -math.inf
                  else domain[0])
    return Grid(lo, hi, npoints)


def _spectrum_grid(cfg: RunConfig, model: ModelKind, k: int) -> Grid:
    # the solver samples no grid end, so Case 2's grid may start at x = 0
    npoints = cfg.npoints if cfg.npoints is not None else 4001
    return _table_grid(model, max(k - 1, 3), npoints, cfg.grid_lo,
                       cfg.grid_hi, gap=False)


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
    cells = _column_cells([np.arange(k, dtype=float), exact, numeric,
                           abs_err, rel_err])
    return _render_table(cfg, _metadata("spectrum", cfg, model, grid),
                         columns, k, cells)


def _profile_grid(cfg: RunConfig, model: ModelKind) -> Grid:
    npoints = cfg.npoints if cfg.npoints is not None else 2001
    return _table_grid(model, max(cfg.nmax, 2), npoints, cfg.grid_lo,
                       cfg.grid_hi)


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
    return _table_grid(model, max(cfg.n1, cfg.n2, 2), npoints, cfg.grid_lo,
                       cfg.grid_hi)


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

    def cells(start, stop):
        # row i * npoints + j is (x_i, x_j, px[i] * py[j])
        i, j = np.divmod(np.arange(start, stop), npoints)
        return [xs[i], xs[j], px[i] * py[j]]

    md = _metadata("density2d", cfg, model, grid)
    md["parameters"]["n1"] = cfg.n1
    md["parameters"]["n2"] = cfg.n2
    return _render_table(cfg, md, ["x", "y", "rho"], npoints ** 2, cells)


# ---------------------------------------------------------------------------
# verification report

def cmd_verify(cfg: RunConfig) -> tuple:
    """Run and time every check of `checks.CHECKS`; returns (report text,
    all_pass)."""
    # Imported here, so that no data command loads the battery, and before
    # the timing, so that no check's runtime_s includes an import.
    from .checks import CHECKS

    delta = cfg.corrupt_veff
    checks = []
    failed = 0
    for name, tolerance, measure in CHECKS:
        start = time.perf_counter()
        measured = measure(delta)
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


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as ValueError (exit 1), not by
    argparse's exit 2, which means a failed verify."""

    def error(self, message):
        raise ValueError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged).  Each flag is a row of `_OPTIONS`, kept as its string for
    `_coerce`."""
    parser = _Parser(
        prog="pdmlag",
        description="Exactly solvable position-dependent-mass models with "
                    "X_m-Laguerre bound states: spectra, figure data, and "
                    "verification.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
            ("spectrum", "analytic vs numeric eigenvalues"),
            ("profile", "x, M, V_eff and first densities"),
            ("density2d", "separable 2D density mesh (Case 2)"),
            ("verify", "run the invariant battery")):
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="config file (key=value lines or JSON)")
        for key, (_, _, commands, help_key) in _OPTIONS.items():
            if command in commands:
                sub.add_argument("--" + key.replace("_", "-"), dest=key,
                                 default=argparse.SUPPRESS, help=help_key)
    return parser


def main(argv=None) -> int:
    status = 0
    try:
        args = _build_parser().parse_args(argv)
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
    except MemoryError as exc:
        # a grid too large to allocate is an invalid parameter too; numpy's
        # message names the array
        print(f"error: not enough memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
