"""Which scipy submodules pdmlag loads, and when.

Importing the package, and emitting closed-form data (`profile`,
`density2d`), loads none of them; the finite-difference solver loads
scipy.linalg on its first solve, on the plain and the warm-started path
alike.  Each case runs in a fresh interpreter, because this test process
has imported all of scipy already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

DEFERRED = ("scipy.linalg", "scipy.special", "scipy.integrate",
            "scipy.optimize", "scipy.sparse")

_MODEL2 = ["--case", "2", "--alpha", "2", "--m", "1", "--eta", "1"]


def _run(argvs, tmp_path):
    """Run `main` on each argv in a fresh interpreter; return the exit codes
    and the deferred modules loaded afterwards."""
    script = f"""
import json, sys
import pdmlag, pdmlag.cli
codes = [pdmlag.cli.main(argv) for argv in {argvs!r}]
loaded = [m for m in {DEFERRED!r} if m in sys.modules]
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["codes"], set(out["loaded"])


def test_import_loads_no_scipy_submodule(tmp_path):
    _, loaded = _run([], tmp_path)
    assert loaded == set()


@pytest.mark.parametrize("argv", [
    ["profile", "--case", "1", "--b", "1", "--alpha", "2", "--m", "2"],
    ["profile"] + _MODEL2,
    ["density2d"] + _MODEL2 + ["--n1", "1", "--n2", "2"],
], ids=["profile-case1", "profile-case2", "density2d"])
def test_closed_form_commands_load_no_scipy_submodule(argv, tmp_path):
    codes, loaded = _run([argv + ["--out", "data.csv"]], tmp_path)
    assert codes == [0]
    assert (tmp_path / "data.csv").stat().st_size > 0
    assert loaded == set()


def test_spectrum_loads_only_scipy_linalg(tmp_path):
    # the default grid takes plain bisection; 40001 points the warm start
    codes, loaded = _run([["spectrum"] + _MODEL2 + ["--out", "spectrum.csv"],
                          ["spectrum"] + _MODEL2 + ["--npoints", "40001",
                                                    "--out", "fine.csv"]],
                         tmp_path)
    assert codes == [0, 0]
    assert loaded == {"scipy.linalg"}
