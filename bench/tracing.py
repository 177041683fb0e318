"""In-memory spans around pdmlag's public functions, one layer per module.

`Tracer.install` replaces each traced function by a wrapper in its defining
module and in every other pdmlag module that imported it by name, so calls
between modules are seen too.  A wrapper records a span (name, start, end,
parent span, op id, raised) only while `active` is set; otherwise it calls
straight through.  Spans stay in memory until `write`.
"""
from __future__ import annotations

import functools
import json
import random
import sys
import time

import numpy as np

LAYERS = {
    "cli": ("main",),
    "solver": ("discretize", "eigen_lowest", "align_sign", "quadrature", "solve_model"),
    "models": ("v_eff", "default_domain", "wavefunction"),
    "orthopoly": ("xm_laguerre",),
    "susy": ("superpotential", "partner_wavefunction", "apply_A"),
}

# Per-layer metric names and units, in the order they are printed.
METRICS = {
    "solver.eigen_lowest_s": "s", "solver.discretize_s": "s",
    "solver.align_sign_s": "s", "solver.align_sign_calls": "count",
    "solver.quadrature_s": "s", "solver.quadrature_calls": "count",
    "solver.solve_model_s": "s", "solver.self_s": "s", "solver.self_share": "ratio",
    "solver.points": "count", "solver.errors": "count", "solver.max_rel_err": "ratio",
    "cli.main_s": "s", "cli.self_s": "s", "cli.self_share": "ratio",
    "cli.bytes_out": "bytes", "cli.rows_out": "count", "cli.errors": "count",
    "orthopoly.xm_laguerre_s": "s", "orthopoly.xm_laguerre_calls": "count",
    "orthopoly.self_s": "s", "orthopoly.self_share": "ratio",
    "orthopoly.max_degree": "count", "orthopoly.errors": "count",
    "models.wavefunction_s": "s", "models.wavefunction_calls": "count",
    "models.new_state_ratio": "ratio", "models.v_eff_s": "s",
    "models.v_eff_points": "count", "models.default_domain_s": "s",
    "models.self_s": "s", "models.self_share": "ratio", "models.errors": "count",
    "susy.partner_wavefunction_s": "s", "susy.superpotential_s": "s",
    "susy.apply_A_s": "s", "susy.self_s": "s", "susy.self_share": "ratio",
    "susy.errors": "count",
    "trace.ops": "count", "trace.op_s": "s", "trace.overhead_ratio": "ratio",
}

NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    """Spans and counters for the ops run while `active` is set."""

    def __init__(self, seed: int):
        self.coin = random.Random(seed)  # picks the ops to trace
        self.active = False
        self.op_id = -1
        self.spans = []
        self.stack = []
        self.counts = {"models.v_eff_points": 0, "solver.points": 0,
                       "orthopoly.max_degree": 0, "models.new_states": 0,
                       "cli.errors": 0}
        self.errors = {layer: 0 for layer in LAYERS}
        self._op_errors = set()
        self._seen_states = set()
        self._patched = []

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if (name == "pdmlag" or name.startswith("pdmlag.")) and mod]
        for layer, names in LAYERS.items():
            home = sys.modules[f"pdmlag.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_errors.clear()
        self.active = True

    def end(self) -> None:
        self.active = False
        for layer in self._op_errors:
            self.errors[layer] += 1

    def _wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        is_state = span_name == "models.wavefunction"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_state:
                # kept up to date in untraced ops too: the process cache is
                # warm for every state seen since start-up
                key = (args[0], args[1])
                new = key not in self._seen_states
                self._seen_states.add(key)
            if not self.active:
                return fn(*args, **kwargs)
            if is_state and new:
                self.counts["models.new_states"] += 1
            span = [span_name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, self.op_id, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                self._op_errors.add(layer)
                raise
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            self._count(span_name, args, result)
            return result

        return wrapper

    def _count(self, span_name: str, args: tuple, result) -> None:
        if span_name == "models.v_eff":
            self.counts["models.v_eff_points"] += int(np.size(args[1]))
        elif span_name == "solver.solve_model":
            self.counts["solver.points"] += result.grid.npoints
        elif span_name == "orthopoly.xm_laguerre":
            self.counts["orthopoly.max_degree"] = max(
                self.counts["orthopoly.max_degree"], int(args[0]))
        elif span_name == "cli.main" and result != 0:
            self.counts["cli.errors"] += 1

    def metrics(self, traced_op_s: float) -> dict:
        """Per-layer totals over the traced ops, as {name: value}."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        total, calls, self_s = {}, {}, {layer: 0.0 for layer in LAYERS}
        for span, inner in zip(self.spans, child):
            duration = span[END] - span[START]
            total[span[NAME]] = total.get(span[NAME], 0.0) + duration
            calls[span[NAME]] = calls.get(span[NAME], 0) + 1
            self_s[span[NAME].split(".")[0]] += duration - inner
        out = {}
        for layer, names in LAYERS.items():
            for name in names:
                out[f"{layer}.{name}_s"] = total.get(f"{layer}.{name}", 0.0)
                out[f"{layer}.{name}_calls"] = calls.get(f"{layer}.{name}", 0)
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.self_share"] = self_s[layer] / traced_op_s if traced_op_s else 0.0
            out[f"{layer}.errors"] = self.errors[layer]
        out["cli.errors"] += self.counts["cli.errors"]  # non-zero exit codes
        out["models.v_eff_points"] = self.counts["models.v_eff_points"]
        out["solver.points"] = self.counts["solver.points"]
        out["orthopoly.max_degree"] = self.counts["orthopoly.max_degree"]
        state_calls = out["models.wavefunction_calls"]
        out["models.new_state_ratio"] = (self.counts["models.new_states"] / state_calls
                                         if state_calls else 0.0)
        return out

    def write(self, path: str, origin: float) -> None:
        """Spans as JSON lines, times in seconds since `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span[NAME], span[START] - origin,
                                     span[END] - origin, span[PARENT], span[OP],
                                     span[RAISED]]) + "\n")
