"""Seeded inputs, timed operations and output checks for the pdmlag benchmark.

Each workload object yields an endless stream of operations drawn from its
seed (`ops`), runs one operation through pdmlag's public entry points
(`run`, the timed part) and checks that operation's output (`check`, never
timed).  Library calls go through the module attributes (`models.wavefunction`,
not a name imported here) so that the traced run can wrap them in place.

Draws are stratified: every block of operations holds each size class or
(case, m, n) combination in fixed proportion, in a seeded order, so that two
seeds differ in parameters and order but not in the mix of work.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import pdmlag.cli
from pdmlag import models, solver, susy


class CheckFailed(Exception):
    """An operation's output is wrong or missing."""


class Refused(Exception):
    """pdmlag declined the input with its documented numerical-failure error.

    That is a `RuntimeError` from the library, or exit code 3 from the CLI.
    """


@dataclass
class Op:
    """One operation: a label for logs and the parameters that define it."""

    label: str
    params: dict


@dataclass
class Checked:
    """What a served operation delivered, as counted by its check."""

    points: int            # grid points solved, emitted as rows, or evaluated
    rows: int = 0          # table rows read back from the CLI output
    bytes_out: int = 0     # size of the CLI output file
    max_rel_err: float = 0.0


def _fractions(denominators, lo, hi) -> list:
    """Sorted distinct fractions p/q with q in `denominators` and lo < p/q <= hi."""
    return sorted({Fraction(p, q) for q in denominators
                   for p in range(int(lo * q) + 1, int(hi * q) + 1)})


def _cli(argv: list) -> None:
    """Run `pdmlag` in-process; map its exit codes onto the op outcome."""
    try:
        code = pdmlag.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed command line
        code = exc.code
    if code == 3:
        raise Refused(f"exit code 3: {' '.join(argv)}")
    if code != 0:
        raise CheckFailed(f"exit code {code}: {' '.join(argv)}")


def _closed_form_energy(case: int, b: Fraction, alpha: Fraction, m: int,
                        n: int) -> Fraction:
    """E_n with vc = 0, from the spectrum formulas of the two families."""
    level = n + (alpha + 1) / 2 + Fraction(m) / alpha
    return b * b * level if case == 1 else level


def _sign_changes(values: np.ndarray) -> int:
    """Sign changes of sampled values, ignoring round-off in the tails."""
    signs = np.sign(values[np.abs(values) > 1e-10 * np.abs(values).max()])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _table(path: str, fmt: str) -> tuple:
    """Read a CLI table back: (columns, float array with one row per line)."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc["columns"], np.asarray(doc["data"], dtype=float)
    with open(path, encoding="utf-8") as fh:
        columns = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return columns, data


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class FdSpectrum:
    """`pdmlag spectrum`: analytic against finite-difference eigenvalues."""

    name = "fd-spectrum"
    # Its time is in LAPACK's eigensolver, which does not follow the host's
    # interpreter-speed phases (see PROBE_REF_S in run.py).
    INTERPRETER_BOUND = False
    # Per block of 5 ops: 2 small, 2 medium and 1 large grid.  The median
    # then falls a quarter of the way into the 40001-point mode and the 90th
    # percentile halfway into the 200001-point mode, away from the edges.
    SIZES = (4001, 4001, 40001, 40001, 200001)
    B = _fractions((1, 2, 3), Fraction(1, 3), 2)
    ALPHA = _fractions((1, 2, 3, 4, 5, 7), 1, 4)
    COLUMNS = ["n", "E_analytic", "E_numeric", "abs_err", "rel_err"]

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.path = os.path.join(workdir, "spectrum.csv")

    @staticmethod
    def tolerance(npoints: int) -> float:
        """Stated bound on rel_err: 1e-3 at 4001 points, scaled by h^2.

        The 1e-6 floor covers the error of truncating the domain, which no
        grid refinement removes (measured up to 5.8e-7 at 200001 points).
        """
        return 1e-3 * (4000 / (npoints - 1)) ** 2 + 1e-6

    def ops(self):
        cycles = {size: [] for size in set(self.SIZES)}
        while True:
            for npoints in self.rng.sample(self.SIZES, len(self.SIZES)):
                if not cycles[npoints]:
                    cycles[npoints] = self._case_nmax_cycle()
                case, nmax = cycles[npoints].pop()
                yield self._op(case, nmax, npoints)

    def _case_nmax_cycle(self) -> list:
        """Every (case, nmax) once, in a seeded order; case and nmax set most
        of an op's cost.  nmax k in one case is followed by 12 - k in the
        other, so a cycle cut short still averages nmax 6."""
        first = self.rng.choice((1, 2))
        cycle = []
        for k in self.rng.sample(range(3, 10), 7):
            cycle += [(first, k), (3 - first, 12 - k)]
        return cycle[::-1]  # consumed from the end

    def _op(self, case: int, nmax: int, npoints: int) -> Op:
        rng = self.rng
        p = {"case": case, "nmax": nmax, "npoints": npoints, "m": rng.randint(1, 4),
             "alpha": rng.choice(self.ALPHA), "b": Fraction(1), "eta": 0}
        if case == 1:
            p["b"] = rng.choice(self.B)
        else:
            p["eta"] = rng.randint(0, 3)
        label = (f"spectrum case={case} b={p['b']} eta={p['eta']} "
                 f"alpha={p['alpha']} m={p['m']} nmax={nmax} npoints={npoints}")
        return Op(label, p)

    def warm_up(self) -> None:
        self.run(self._op(2, 3, 4001))

    def run(self, op: Op) -> str:
        p = op.params
        argv = ["spectrum", "--case", str(p["case"]), "--alpha", str(p["alpha"]),
                "--m", str(p["m"]), "--nmax", str(p["nmax"]),
                "--npoints", str(p["npoints"]), "--out", self.path]
        argv += ["--b", str(p["b"])] if p["case"] == 1 else ["--eta", str(p["eta"])]
        _cli(argv)
        return self.path

    def check(self, op: Op, path: str) -> Checked:
        p = op.params
        columns, data = _table(path, "csv")
        _expect(columns == self.COLUMNS, f"columns {columns}")
        _expect(data.shape == (p["nmax"] + 1, 5), f"table shape {data.shape}")
        _expect(bool(np.all(np.isfinite(data))), "non-finite value")
        n, analytic, numeric, abs_err, rel_err = data.T
        _expect(bool(np.all(n == np.arange(p["nmax"] + 1))), "level column")
        exact = np.array([float(_closed_form_energy(p["case"], p["b"], p["alpha"],
                                                    p["m"], k))
                          for k in range(p["nmax"] + 1)])
        _expect(bool(np.allclose(analytic, exact, rtol=1e-14, atol=0)),
                "E_analytic differs from the closed form")
        _expect(bool(np.allclose(abs_err, np.abs(numeric - exact),
                                 rtol=1e-6, atol=1e-15)), "abs_err column")
        worst = float(rel_err.max())
        _expect(bool(np.all(np.abs(rel_err - abs_err / np.abs(exact))
                            <= 1e-6 * rel_err + 1e-300)), "rel_err column")
        _expect(worst <= self.tolerance(p["npoints"]),
                f"rel_err {worst:.3e} above {self.tolerance(p['npoints']):.3e}")
        return Checked(points=p["npoints"], rows=data.shape[0],
                       bytes_out=os.path.getsize(path), max_rel_err=worst)


class FigureData:
    """The README's standard data sets, replayed through the CLI."""

    name = "figure-data"
    INTERPRETER_BOUND = True
    PROFILES = ([("1", "0", str(m)) for m in range(1, 5)]
                + [("2", str(eta), str(m)) for m in range(1, 4) for eta in range(4)])
    PAIRS = ((0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))
    PROFILE_COLUMNS = ["x", "M", "V_eff", "psi0_sq", "psi1_sq", "psi2_sq"]

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def _configs(self) -> list:
        return ([("profile", case, eta, m, None) for case, eta, m in self.PROFILES]
                + [("density2d", "2", "1", "1", pair) for pair in self.PAIRS])

    def ops(self):
        # Each block of 44 ops runs every README command twice, in two of its
        # four (size, format) variants, so each variant has the same share.
        # The large density2d meshes, which set the 90th percentile, are
        # spread evenly through the block with alternating formats, so a run
        # cut short mid-block still has its share of them.
        pairings = ((0, 3), (1, 2))  # small CSV + large JSON, small JSON + large CSV
        profiles, densities = len(self.PROFILES), len(self.PAIRS)
        while True:
            flips = (self.rng.sample([0, 1] * (profiles // 2), profiles)
                     + self.rng.sample([0, 1] * (densities // 2), densities))
            for half in (0, 1):
                light, large = [], []
                for config, flip in zip(self._configs(), flips):
                    sizes = (2001, 20001) if config[0] == "profile" else (201, 401)
                    variants = [(n, fmt) for n in sizes for fmt in ("csv", "json")]
                    for k in pairings[flip ^ half]:
                        (large if variants[k][0] == 401 else light).append(
                            config + variants[k])
                csv = [v for v in large if v[-1] == "csv"]
                json_ = [v for v in large if v[-1] == "json"]
                large = [v for pair in zip(csv, json_) for v in self.rng.sample(pair, 2)]
                block = self.rng.sample(light, len(light))
                step = (len(light) + len(large)) / len(large)
                for i, variant in enumerate(large):
                    block.insert(int((i + 0.5) * step), variant)
                for variant in block:
                    yield self._op(*variant)

    @staticmethod
    def _op(command, case, eta, m, pair, npoints, fmt) -> Op:
        label = f"{command} case={case} eta={eta} m={m} npoints={npoints} {fmt}"
        if pair is not None:
            label += f" n1={pair[0]} n2={pair[1]}"
        return Op(label, {"command": command, "case": case, "eta": eta, "m": m,
                          "pair": pair, "npoints": npoints, "format": fmt})

    def warm_up(self) -> None:
        # Fill the state caches once, as the first run of each README command
        # would; the timed ops then measure row building and emission.
        for config in self._configs():
            self.run(self._op(*config, 101, "csv"))

    def run(self, op: Op) -> str:
        p = op.params
        path = os.path.join(self.workdir, f"figure.{p['format']}")
        argv = [p["command"], "--case", p["case"], "--alpha", "2", "--m", p["m"],
                "--format", p["format"], "--npoints", str(p["npoints"]),
                "--out", path]
        argv += ["--b", "1"] if p["case"] == "1" else ["--eta", p["eta"]]
        if p["pair"] is not None:
            argv += ["--n1", str(p["pair"][0]), "--n2", str(p["pair"][1])]
        _cli(argv)
        return path

    def check(self, op: Op, path: str) -> Checked:
        p = op.params
        npoints = p["npoints"]
        columns, data = _table(path, p["format"])
        _expect(bool(np.all(np.isfinite(data))), "non-finite value")
        if p["command"] == "profile":
            _expect(columns == self.PROFILE_COLUMNS, f"columns {columns}")
            _expect(data.shape == (npoints, 6), f"table shape {data.shape}")
            grid = solver.Grid(data[0, 0], data[-1, 0], npoints)
            _expect(bool(np.allclose(data[:, 0], grid.xs(), rtol=1e-12, atol=0)),
                    "x is not the uniform grid")
            for k in range(3):
                total = solver.quadrature(data[:, 3 + k], grid)
                _expect(abs(total - 1.0) <= 1e-6, f"psi{k}_sq integrates to {total!r}")
        else:
            _expect(columns == ["x", "y", "rho"], f"columns {columns}")
            _expect(data.shape == (npoints * npoints, 3), f"table shape {data.shape}")
            xs = data[::npoints, 0]
            grid = solver.Grid(xs[0], xs[-1], npoints)
            mesh = data[:, 2].reshape(npoints, npoints)
            total = solver.quadrature(
                np.array([solver.quadrature(row, grid) for row in mesh]), grid)
            _expect(abs(total - 1.0) <= 1e-4, f"rho integrates to {total!r}")
        return Checked(points=data.shape[0], rows=data.shape[0],
                       bytes_out=os.path.getsize(path))


class ClosedFormSweep:
    """Library API only: cold bound states, each (model, n) new to the process."""

    name = "closed-form-sweep"
    INTERPRETER_BOUND = True
    NPOINTS = 2001
    N_MAX = 24
    ALPHA = {q: [a for a in _fractions((q,), 1, 5) if a.denominator == q]
             for q in (3, 5, 7)}
    B = _fractions((1, 2, 3, 4), Fraction(1, 4), 3)

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        # (m, alpha, degree) of every X_m polynomial the ops have asked for,
        # so that no op is answered from the polynomial cache
        self.seen = set()

    def ops(self):
        # Each block holds every (m, denominator of alpha, n) once, in a
        # seeded order, so the share of n >= 16 (known to be refused) and the
        # cost of the exact arithmetic do not depend on the seed.  Level n is
        # followed by N_MAX - n, so a block cut short is balanced as well.
        units = [(m, q, n) for m in range(1, 5) for q in self.ALPHA
                 for n in range(self.N_MAX // 2 + 1)]
        while True:
            for m, q, n in self.rng.sample(units, len(units)):
                case = self.rng.choice((1, 2))
                yield self._op(case, m, q, n)
                if n != self.N_MAX - n:
                    yield self._op(3 - case, m, q, self.N_MAX - n)

    def _op(self, case: int, m: int, q: int, n: int) -> Op:
        rng = self.rng
        for _ in range(100):
            alpha = rng.choice(self.ALPHA[q])
            if (m, alpha, n + m) not in self.seen:
                break
        self.seen.update({(m, alpha, n + m), (m, alpha + 1, n - 1 + m)})
        b, eta = (rng.choice(self.B), 0) if case == 1 else (Fraction(1), rng.randint(0, 5))
        return Op(f"state case={case} b={b} eta={eta} alpha={alpha} m={m} n={n}",
                  {"case": case, "b": b, "eta": eta, "alpha": alpha, "m": m, "n": n})

    @staticmethod
    def _model(p: dict):
        if p["case"] == 1:
            return models.Case1Params(p["b"], p["alpha"], p["m"])
        return models.Case2Params(p["eta"], p["alpha"], p["m"])

    def warm_up(self) -> None:
        # alpha = 2 lies outside the drawn values, so no timed op reuses it
        self.run(Op("warm-up", {"case": 1, "b": Fraction(1), "eta": 0,
                                "alpha": Fraction(2), "m": 1, "n": 3}))

    def run(self, op: Op) -> tuple:
        p = op.params
        model = self._model(p)
        try:
            lo, hi = models.default_domain(model, p["n"])
            if p["case"] == 2:
                lo = hi / self.NPOINTS  # W and the barrier are singular at 0
            grid = solver.Grid(lo, hi, self.NPOINTS)
            xs = grid.xs()
            psi = models.wavefunction(model, p["n"], xs)
            w = susy.superpotential(model, xs)
            lowered = susy.apply_A(model, psi, grid)
            partner = (susy.partner_wavefunction(model, p["n"] - 1, xs)
                       if p["n"] > 0 else None)
        except RuntimeError as exc:
            raise Refused(str(exc)) from exc
        return grid, psi, w, lowered, partner

    def check(self, op: Op, out: tuple) -> Checked:
        p = op.params
        grid, psi, w, lowered, partner = out
        n = p["n"]
        for name, values in (("psi", psi), ("W", w), ("A psi", lowered)):
            _expect(values.shape == (self.NPOINTS,), f"{name} shape {values.shape}")
            _expect(bool(np.all(np.isfinite(values))), f"non-finite {name}")
        states = [(psi, n)] + ([(partner, n - 1)] if partner is not None else [])
        for values, level in states:
            norm = solver.quadrature(values ** 2, grid)
            _expect(abs(norm - 1.0) <= 1e-6, f"state {level} has norm {norm!r}")
            nodes = _sign_changes(values)
            _expect(nodes == level, f"state {level} has {nodes} sign changes")
        # <psi_n|A^dagger A|psi_n> = E_n - E_0, up to the 4th-order stencil
        # error of apply_A on this grid.
        energies = [_closed_form_energy(p["case"], p["b"], p["alpha"], p["m"], k)
                    for k in (0, 1, n)]
        gap = float(energies[2] - energies[0])
        spacing = float(energies[1] - energies[0])
        lowered_sq = solver.quadrature(lowered ** 2, grid)
        _expect(abs(lowered_sq - gap) <= 1e-3 * (gap + spacing),
                f"|A psi|^2 = {lowered_sq!r}, expected E_n - E_0 = {gap!r}")
        return Checked(points=self.NPOINTS)


WORKLOADS = {cls.name: cls for cls in (FdSpectrum, FigureData, ClosedFormSweep)}
