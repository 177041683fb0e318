"""Which modules pdmlag loads, and when, and what the package exports.

Importing the package, emitting closed-form data (`profile`, `density2d`)
and solving on the finite-difference grid (`spectrum`) load no scipy
submodule: both solver paths run in the Sturm kernel, which binds no LAPACK
routine.  Only `dstein` (eigenvectors) and what the kernel does not run
bind LAPACK, from scipy.linalg.cython_lapack.  The warm start's thread pool
is concurrent.futures, which is loaded on the first warm-started solve.
The verify battery, `pdmlag.checks`, is loaded by `verify` alone, and loads
no scipy submodule either: its Gauss rules take their nodes from the
kernel's index bisection too.
Each case runs in a fresh interpreter, because this test process has
imported all of scipy already.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmlag

SRC = Path(__file__).resolve().parents[1] / "src"
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

DEFERRED = ("scipy.linalg", "scipy.special", "scipy.integrate",
            "scipy.optimize", "scipy.sparse", "scipy.linalg.cython_lapack",
            "concurrent.futures", "pdmlag.checks")

_MODEL2 = ["--case", "2", "--alpha", "2", "--m", "1", "--eta", "1"]


def _run(argvs, tmp_path):
    """Run `main` on each argv in a fresh interpreter; return the exit codes,
    the deferred modules loaded afterwards and the threads then alive."""
    script = f"""
import json, sys, threading
import pdmlag, pdmlag.cli
codes = [pdmlag.cli.main(argv) for argv in {argvs!r}]
loaded = [m for m in {DEFERRED!r} if m in sys.modules]
print(json.dumps({{"codes": codes, "loaded": loaded,
                  "threads": threading.active_count()}}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["codes"], set(out["loaded"]), out["threads"]


def test_import_loads_no_scipy_submodule(tmp_path):
    _, loaded, _ = _run([], tmp_path)
    assert loaded == set()


@pytest.mark.parametrize("argv", [
    ["profile", "--case", "1", "--b", "1", "--alpha", "2", "--m", "2"],
    ["profile"] + _MODEL2,
    ["density2d"] + _MODEL2 + ["--n1", "1", "--n2", "2"],
], ids=["profile-case1", "profile-case2", "density2d"])
def test_closed_form_commands_load_no_scipy_submodule(argv, tmp_path):
    codes, loaded, _ = _run([argv + ["--out", "data.csv"]], tmp_path)
    assert codes == [0]
    assert (tmp_path / "data.csv").stat().st_size > 0
    assert loaded == set()


def test_verify_loads_the_checks(tmp_path):
    codes, loaded, _ = _run([["verify", "--out", "verify.json"]], tmp_path)
    assert codes == [0]
    assert "pdmlag.checks" in loaded
    # the X_m inner product is a Gauss rule built in numpy on the kernel's
    # nodes, so no check loads a scipy submodule
    assert {m for m in loaded if m.startswith("scipy.")} == set()


def test_spectrum_loads_no_scipy_submodule(tmp_path):
    # the default grid takes plain bisection; 40001 points the warm start
    plain = ["spectrum"] + _MODEL2 + ["--out", "spectrum.csv"]
    codes, loaded, _ = _run([plain], tmp_path)
    assert codes == [0]
    assert loaded == set()
    codes, loaded, threads = _run(
        [plain, ["spectrum"] + _MODEL2 + ["--npoints", "40001",
                                          "--out", "fine.csv"]], tmp_path)
    assert codes == [0, 0]
    assert loaded == {"concurrent.futures"}
    # the warm start's pool threads are gone once the solve returns, and the
    # interpreter exits cleanly (`_run` checks its exit code)
    assert threads == 1


def test_import_and_help_build_no_kernel(tmp_path):
    # the Sturm kernel is compiled on the first finite-difference solve,
    # never on import, so no set-up time holds a compile
    cache = tmp_path / "cache"
    cache.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache))
    for args in (["-c", "import pdmlag, pdmlag.cli"],
                 ["-m", "pdmlag.cli", "--help"]):
        proc = subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert list(cache.iterdir()) == []


# The public API.  The oracles of the closed forms are in `pdmlag.checks`,
# which the package does not import, so none of them is listed here.
PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert pdmlag.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(pdmlag, name), name


def test_every_traced_name_is_a_function_of_its_layer():
    # the benchmark's tracer wraps these by name; a refactor that folds one
    # away would otherwise break only `bench/run.py --trace`
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"pdmlag.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"pdmlag.{layer}.{name}"
            assert fn.__module__ == module.__name__, f"pdmlag.{layer}.{name}"


def test_the_kernel_sources_are_package_data():
    # the kernels are read through importlib.resources, so an installed
    # package must carry their sources
    from importlib import resources

    for stem, routine in (("_sturm", b"void sturm_bisect("),
                          ("_emit", b"int64_t emit_rows(")):
        source = resources.files("pdmlag").joinpath(f"{stem}.c")
        assert source.is_file()
        assert routine in source.read_bytes()
