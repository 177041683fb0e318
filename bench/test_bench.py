"""Smoke test of the benchmark itself:  python3 -m pytest bench/test_bench.py

Runs every workload briefly in both modes and checks that the result line
names exactly the metrics BENCHMARK.json registers, each with its unit.  Feeds
corrupted CLI output through the checker and expects a failed op, and checks
that the benchmark refuses to run without the pdmlag sources.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_pdmlag()
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd: str, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, m["name"]


def _truncate(path):
    with open(path, "r+", encoding="utf-8") as fh:
        text = fh.read()
        fh.seek(0)
        fh.truncate()
        fh.write(text[: len(text) // 2])


def _wrong_eigenvalue(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[2].split(",")
    fields[2] = repr(float(fields[2]) * 1.01)
    lines[2] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt", [_truncate, _wrong_eigenvalue])
def test_corrupted_output_counts_as_failed_op(tmp_path, corrupt):
    workload = workloads.FdSpectrum(1, str(tmp_path))
    op = next(workload.ops())
    assert run.execute(workload, op)["status"] == "ok"

    real_run = workload.run

    def corrupted_run(op):
        path = real_run(op)
        corrupt(path)
        return path

    workload.run = corrupted_run
    record = run.execute(workload, op)
    assert record["status"] == "failed", record
    record["probe_s"] = run.probe()
    setup = [{"seconds": 1.0, "probe_s": run.probe()}]
    assert run.end_to_end([record], setup, False)["served_ratio"] == 0.0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(str(tmp_path), "fd-spectrum", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
