"""pdmlag benchmark: one closed-loop client driving pdmlag's public entry points.

    python3 bench/run.py --workload fd-spectrum --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pdmlag is imported from its `src`
directory, and the run fails if that is missing.  Operations are issued one
after another, each only once the previous one finished, for `--seconds` of
wall time.  Each op is timed, then its output is checked outside the timed
region.  An op is *refused* when pdmlag raises its documented
numerical-failure error (CLI exit code 3), and *failed* when its output is
wrong or it fails any other way.

Interpreter-bound timings are adjusted for the host's speed.  Before and
after each set-up import, and each op of an interpreter-bound workload,
`probe` times a fixed piece of pure-Python work that does not use pdmlag.
Those wall times are scaled by PROBE_REF_S over the mean of the two probe
times.  Raw wall times are printed and kept in the result record too.

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the public
functions of every module (see tracing.py), traces a seeded half of the ops
and prints the per-layer metrics.  The last line of standard output is the
result as one JSON object; the lines before it give the environment and
sample counts.  Spans and the full result record are written under
bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import numpy
import scipy

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5
SETUP_CODE = "import pdmlag, pdmlag.cli; print(pdmlag.__file__)"

# On the 2-vCPU VM this benchmark was built on, interpreter-bound code ran
# up to 1.8x slower in phases lasting minutes, while LAPACK-bound code mostly
# kept its speed (per-run speed 0.86-1.27 of the median for figure-data and
# closed-form-sweep, 0.95-1.04 for fd-spectrum).  PROBE_REF_S is the median
# time of `probe` there in a fast phase.  Each set-up import, and each op of
# an interpreter-bound workload, is timed between two probes and its wall
# time scaled by PROBE_REF_S / (mean of the two probe times), so that these
# metrics compare pdmlag rather than the host's phase.  fd-spectrum ops are
# neither probed nor scaled.
PROBE_REF_S = 4.0e-3

# End-to-end metric names and units, in the order they are printed.
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "mpts_per_s": "Mpts/s", "served_ratio": "ratio",
              "peak_rss_mb": "MB"}


def _from_src(path: str) -> bool:
    return os.path.abspath(path).startswith(SRC + os.sep)


def load_pdmlag():
    """Import pdmlag from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import pdmlag
        import pdmlag.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pdmlag from {SRC}: {exc}")
    if not _from_src(pdmlag.__file__):
        raise SystemExit(f"error: pdmlag was imported from {pdmlag.__file__}, "
                         f"not from {SRC}")


def measure_setup() -> list:
    """Wall time for a fresh interpreter to import pdmlag and its CLI, as
    records like the ops': {"seconds", "probe_s"}, probing around each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    records = []
    for i in range(SETUP_REPEATS + 1):
        before = probe()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not _from_src(proc.stdout.strip()):
            raise SystemExit(f"error: import in a fresh interpreter failed: "
                             f"{proc.stderr.strip() or proc.stdout.strip()}")
        if i:  # the first import also writes the bytecode cache
            records.append({"seconds": elapsed, "probe_s": (before + probe()) / 2})
    return records


def _blas(module) -> str:
    try:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(args) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas(numpy), "scipy_blas": _blas(scipy),
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "host": platform.node(), "commit": commit}


def execute(workload, op, tracer=None, op_id: int = 0) -> dict:
    """Run one op (timed, traced when a tracer is given), then check it."""
    from workloads import Refused
    record = {"op": op.label, "traced": tracer is not None, "status": "ok",
              "error": None, "checked": None}
    if tracer is not None:
        tracer.begin(op_id)
    start = time.perf_counter()
    try:
        out = workload.run(op)
    except Refused as exc:
        record.update(status="refused", error=str(exc))
    except Exception as exc:  # any other failure of the op is counted, not fatal
        record.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    finally:
        record["seconds"] = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
    if record["status"] == "ok":
        try:
            record["checked"] = workload.check(op, out)
        except Exception as exc:  # a wrong or unreadable output fails the op
            record.update(status="failed", error=f"check: {type(exc).__name__}: {exc}")
    return record


def probe() -> float:
    """Wall time of fixed interpreter-bound work that does not use pdmlag:
    exact rational arithmetic and %.17g formatting."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k, 3 * k + 1) * Fraction(7, 5) ** (k % 7)
    "\n".join(f"{x:.17g},{x / 2:.17g},{x / 4:.17g}" for x in map(float, range(3000)))
    return time.perf_counter() - start


def measure(workload, seconds: float, tracer=None) -> list:
    """Closed loop: issue ops one at a time until `seconds` of wall time pass."""
    ops = workload.ops()
    records = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        # Probing between LAPACK-bound ops would slow them (by 15 % on
        # fd-spectrum), and their times are not adjusted anyway.
        before = probe() if workload.INTERPRETER_BOUND else None
        # in a traced run a seeded coin picks the traced ops; the others give
        # the untraced baseline for trace.overhead_ratio
        traced = tracer is not None and tracer.coin.random() < 0.5
        record = execute(workload, next(ops), tracer if traced else None, len(records))
        if workload.INTERPRETER_BOUND:
            record["probe_s"] = (before + probe()) / 2
        records.append(record)
    return records


def _p(values: list, q: float) -> float:
    return float(numpy.percentile(values, q))


def _seconds_per_point(records: list) -> float:
    """Op time per grid point delivered, over the served ops."""
    served = [r for r in records if r["status"] == "ok"]
    points = sum(r["checked"].points for r in served)
    return sum(r["seconds"] for r in served) / points if points else 0.0


def host_speed(records: list) -> float:
    """Median of PROBE_REF_S / probe time: below 1 on a slow host."""
    return statistics.median(PROBE_REF_S / r["probe_s"] for r in records)


def _adjusted(record: dict) -> float:
    """Wall time scaled by the host's speed around it (see PROBE_REF_S)."""
    return record["seconds"] * PROBE_REF_S / record["probe_s"]


def end_to_end(records: list, setup: list, interpreter_bound: bool) -> dict:
    """The end-to-end metrics, with times adjusted for the host's speed."""
    times = [_adjusted(r) if interpreter_bound else r["seconds"] for r in records]
    served = [r for r in records if r["status"] == "ok"]
    points = sum(r["checked"].points for r in served)
    return {"setup_s": statistics.median(_adjusted(r) for r in setup),
            "op_p50_s": _p(times, 50), "op_p90_s": _p(times, 90),
            "mpts_per_s": points / sum(times) / 1e6,
            "served_ratio": len(served) / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(records: list, tracer) -> dict:
    from tracing import METRICS
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    traced_s = sum(r["seconds"] for r in traced)
    out = tracer.metrics(traced_s)
    checked = [r["checked"] for r in traced if r["checked"] is not None]
    out["cli.bytes_out"] = sum(c.bytes_out for c in checked)
    out["cli.rows_out"] = sum(c.rows for c in checked)
    out["solver.max_rel_err"] = max((r["checked"].max_rel_err for r in records
                                     if r["checked"] is not None), default=0.0)
    out["trace.ops"] = len(traced)
    out["trace.op_s"] = traced_s
    # Per point rather than per op: the op mix is multimodal, so the median
    # of either half can land in a different mode.
    plain_spp = _seconds_per_point(plain)
    out["trace.overhead_ratio"] = (_seconds_per_point(traced) / plain_spp
                                   if plain_spp else 0.0)
    return {name: out[name] for name in METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_pdmlag()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    env = environment(args)
    setup = None if args.trace else measure_setup()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tracer = tracing.Tracer(args.seed) if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if tracer is not None:
            tracer.install()
        try:
            workload.warm_up()
            origin = time.perf_counter()
            records = measure(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        metrics, units = per_layer(records, tracer), tracing.METRICS
        tracer.write(stem + "-spans.jsonl", origin)
    else:
        metrics, units = end_to_end(records, setup, workload.INTERPRETER_BOUND), END_TO_END
    failed = sum(r["status"] == "failed" for r in records)
    refused = sum(r["status"] == "refused" for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "refused": refused,
                   "setup": setup,
                   "ops": [{k: v for k, v in r.items() if k != "checked"}
                           for r in records]}, fh, indent=1)

    print("env " + json.dumps(env))
    for r in records:
        if r["status"] == "failed":
            print(f"FAILED {r['op']}: {r['error']}")
    print(f"ops {len(records)}: served {len(records) - failed - refused}, "
          f"refused {refused}, failed {failed}")
    if tracer is None:
        raw = [r["seconds"] for r in records]
        during = (f"{host_speed(records):.3f} during the ops"
                  if workload.INTERPRETER_BOUND else "not applied to the ops")
        print(f"host speed: {host_speed(setup):.3f} at set-up, {during}")
        raw_setup = statistics.median(r["seconds"] for r in setup)
        print(f"raw wall times: setup {raw_setup:.6g} s, "
              f"op p50 {_p(raw, 50):.6g} s, op p90 {_p(raw, 90):.6g} s")
        beyond = sum(r > _p(raw, 90) for r in raw)
        print(f"op_p90_s has {beyond} of {len(records)} samples beyond it")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
