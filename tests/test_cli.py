"""End-to-end tests of the command-line interface.

All invocations go through ``main(argv)`` directly so exit codes, stdout,
stderr, and file outputs are exercised exactly as a shell user sees them.
"""
import io
import json
import math
import sys

import numpy as np
import pytest

import pdmlag.solver
from pdmlag import checks, cli
from pdmlag.cli import main
from pdmlag.models import energy, mass, v_eff, wavefunction
from pdmlag.solver import solve_model


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_csv_default(capsys):
    code, out, err = _run(capsys, ["spectrum", "--case", "1", "--m", "2"])
    assert code == 0 and err == ""
    header, rows = _csv_rows(out)
    assert header == ["n", "E_analytic", "E_numeric", "abs_err", "rel_err"]
    assert len(rows) == 4
    assert [r[0] for r in rows] == [0.0, 1.0, 2.0, 3.0]
    for row in rows:
        assert row[4] < 1e-4


def test_spectrum_susy_zero_preset(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--case", "1", "--m", "1",
                                 "--preset", "susy-zero", "--nmax", "2"])
    assert code == 0
    _, rows = _csv_rows(out)
    assert [r[1] for r in rows] == [0.0, 1.0, 2.0]


def test_spectrum_json_format(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--case", "2", "--eta", "1",
                                 "--format", "json", "--nmax", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["n", "E_analytic", "E_numeric", "abs_err",
                              "rel_err"]
    assert doc["metadata"]["parameters"]["eta"] == 1
    assert doc["metadata"]["parameters"]["alpha"] == "2"
    assert len(doc["data"]) == 2
    assert doc["data"][0][1] == pytest.approx(2.0)  # (alpha+1)/2 + m/alpha


@pytest.mark.parametrize("argv", [
    ["spectrum", "--case", "1", "--b", "3/2", "--alpha", "7/3", "--m", "2",
     "--nmax", "9"],
    ["spectrum", "--case", "2", "--eta", "3", "--alpha", "19/7", "--m", "4",
     "--nmax", "9", "--format", "json"],
], ids=["case1", "case2"])
def test_spectrum_computes_no_eigenvectors(capsys, monkeypatch, argv):
    expected = _reference_output(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum asked for eigenvectors")
    for module in (pdmlag.solver, cli):
        for name in ("eigen_lowest", "solve_model"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert out == expected


def test_spectrum_too_few_points_exits_one(capsys):
    code, out, err = _run(capsys, ["spectrum", "--npoints", "16", "--nmax", "20"])
    assert code == 1
    assert out == ""
    assert err == "error: k must be at most npoints-2 = 14\n"


def test_invalid_alpha_exits_one(capsys):
    code, out, err = _run(capsys, ["spectrum", "--case", "1", "--alpha", "1"])
    assert code == 1
    assert out == ""
    assert "alpha must be > 1" in err


@pytest.mark.parametrize("command", ["profile", "spectrum"])
@pytest.mark.parametrize("key", ["alpha", "b", "vc"])
def test_parameter_beyond_float_range_exits_one(capsys, command, key):
    code, out, err = _run(capsys, [command, "--case", "1", f"--{key}", "1e400"])
    assert code == 1
    assert out == ""
    assert err == f"error: invalid value for {key}: '1e400' (too large for a float)\n"


def test_energy_beyond_float_range_exits_one(capsys):
    # b is a float, but E_n = b^2 (n + ...) is not
    code, out, err = _run(capsys, ["profile", "--case", "1", "--b", "1e200"])
    assert code == 1
    assert out == ""
    assert err == "error: E_3 is too large for a float\n"


@pytest.mark.filterwarnings("error")       # a numpy warning fails the test
@pytest.mark.parametrize("key", ["alpha", "vc"])
@pytest.mark.parametrize("command", ["spectrum", "profile", "density2d"])
def test_large_finite_parameter_exits_one(tmp_path, capsys, command, key):
    # 1e300 is a float, but the model overflows double precision
    case = "2" if command == "density2d" else "1"
    path = tmp_path / "data.csv"
    code, out, err = _run(capsys, [command, "--case", case, f"--{key}", "1e300",
                                   "--out", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert not path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, shown", [
    (["--grid-lo", "0", "--grid-hi", "1e200", "--npoints", "101"],
     "the grid leaves double precision: the square of its spacing 1e+198 "
     "overflows"),
    (["--case", "2", "--grid-hi", "1e160"],
     "the grid leaves double precision: the square of its spacing 2.5e+156 "
     "overflows"),
    # the barrier's off-diagonal entries reach 2.6e159 at the origin, and
    # their squares overflow in the Sturm counts
    (["--case", "2", "--eta", "25"],
     "the matrix leaves double precision: the square of its off-diagonal "
     "entry 2.61e+159 overflows"),
], ids=["grid-span", "grid-hi", "eta-25"])
def test_spectrum_past_double_precision_exits_one(tmp_path, capsys, argv,
                                                  shown):
    path = tmp_path / "spectrum.csv"
    code, out, err = _run(capsys, ["spectrum", *argv, "--out", str(path)])
    assert (code, out, err) == (1, "", f"error: {shown}\n")
    assert not path.exists()


def test_spectrum_serves_eta_24(tmp_path):
    # the last eta whose off-diagonal squares stay finite at the defaults
    path = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--case", "2", "--eta", "24", "--out",
                 str(path)]) == 0
    assert len(path.read_text().splitlines()) == 5


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 745. GiB for an array with shape (100000000000,) "
     "and data type float64",
     "Unable to allocate 745. GiB for an array with shape (100000000000,) "
     "and data type float64"),
    ("", "allocation failed"),
], ids=["numpy-message", "bare"])
def test_grid_too_large_to_allocate_exits_one(monkeypatch, tmp_path, capsys,
                                              message, shown):
    # the grid is refused where it would be allocated; nothing is allocated
    def no_memory(grid):
        raise MemoryError(message)

    monkeypatch.setattr(pdmlag.solver.Grid, "xs", no_memory)
    path = tmp_path / "spectrum.csv"
    code, out, err = _run(capsys, ["spectrum", "--npoints", "100000000000",
                                   "--out", str(path)])
    assert code == 1
    assert out == ""
    assert err == f"error: not enough memory: {shown}\n"
    assert not path.exists()


def test_vc_and_preset_conflict(tmp_path, capsys):
    # both flags at once are refused like any other conflict, with exit 1
    code, out, err = _run(capsys, ["spectrum", "--vc", "1",
                                   "--preset", "susy-zero"])
    assert (code, out) == (1, "")
    assert err == "error: give either vc or preset, not both\n"
    # so is a config-file vc combined with a --preset flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vc = -2\n", encoding="utf-8")
    code, _, err = _run(capsys, ["spectrum", "--config", str(cfg),
                                 "--preset", "susy-zero"])
    assert code == 1
    assert "not both" in err


def test_float_repr_round_trips(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--case", "1", "--m", "1",
                                 "--format", "json", "--nmax", "0"])
    assert code == 0
    doc = json.loads(out)
    numeric = doc["data"][0][2]
    # 17 significant digits reproduce the binary double exactly
    assert float(f"{numeric:.17g}") == numeric


# ---------------------------------------------------------------------------
# profile

def test_profile_columns_and_mass(capsys):
    code, out, _ = _run(capsys, ["profile", "--case", "2", "--eta", "1",
                                 "--npoints", "501"])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["x", "M", "V_eff", "psi0_sq", "psi1_sq", "psi2_sq"]
    data = np.array(rows)
    # eta=1: l=4, M = 16 x^2
    np.testing.assert_allclose(data[:, 1], 16.0 * data[:, 0] ** 2, rtol=1e-12)
    assert np.all(data[:, 3:] >= 0.0)


@pytest.mark.parametrize("argv", [
    ["profile", "--case", "1", "--m", "2"],
    ["profile", "--case", "2", "--eta", "2", "--m", "1"],
])
def test_profile_densities_normalized(capsys, argv):
    from scipy.integrate import simpson
    code, out, _ = _run(capsys, argv)
    assert code == 0
    _, rows = _csv_rows(out)
    data = np.array(rows)
    for col in (3, 4, 5):
        total = simpson(data[:, col], x=data[:, 0])
        assert total == pytest.approx(1.0, abs=1e-6), col


# ---------------------------------------------------------------------------
# density2d

def test_density2d_rejects_case1(capsys):
    code, _, err = _run(capsys, ["density2d", "--case", "1"])
    assert code == 1
    assert "Case 2" in err


def test_density2d_mesh(capsys):
    code, out, _ = _run(capsys, ["density2d", "--case", "2", "--eta", "1",
                                 "--n1", "1", "--n2", "2", "--npoints", "161"])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["x", "y", "rho"]
    data = np.array(rows)
    assert data.shape == (161 * 161, 3)
    xs = data[::161, 0]
    rho = data[:, 2].reshape(161, 161)
    # separable density integrates to 1 over the quadrant
    total = np.trapezoid(np.trapezoid(rho, xs, axis=1), xs)
    assert total == pytest.approx(1.0, abs=1e-4)
    # (n1+1)*(n2+1) = 6 lobes
    assert _reference_count_lobes(rho) == 6


def _reference_count_lobes(mesh):
    """The loop `checks._count_lobes` replaced: the reference it must match."""
    peak = mesh.max()
    count = 0
    for i in range(1, mesh.shape[0] - 1):
        for j in range(1, mesh.shape[1] - 1):
            window = mesh[i - 1:i + 2, j - 1:j + 2]
            if mesh[i, j] == window.max() and mesh[i, j] > 1e-3 * peak \
                    and np.sum(window == mesh[i, j]) == 1:
                count += 1
    return count


@pytest.mark.parametrize("n1,n2", [(0, 0), (1, 2)])
def test_count_lobes_matches_reference_loop_on_verify_meshes(n1, n2):
    _, px, py = checks._density2d_mesh(n1, n2)
    mesh = np.outer(px, py)
    assert checks._count_lobes(mesh) == _reference_count_lobes(mesh) \
        == (n1 + 1) * (n2 + 1)


def test_count_lobes_matches_reference_loop_on_tied_plateaus():
    # values on a 0.1 lattice tie often; a flat plateau has no unique maximum
    mesh = np.round(np.random.default_rng(7).random((23, 31)), 1)
    mesh[4:6, 4:7] = 2.0
    mesh[15:18, 20:23] = 0.0
    mesh[16, 21] = 1e-3            # a unique local maximum below 1e-3 * peak
    count = checks._count_lobes(mesh)
    assert count == _reference_count_lobes(mesh) > 0
    assert checks._count_lobes(np.ones((5, 5))) == 0


# ---------------------------------------------------------------------------
# verify

def _load_schema():
    from importlib import resources
    ref = resources.files("pdmlag") / "schemas" / "verify_report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def test_verify_passes_and_matches_schema(capsys):
    import jsonschema
    code, out, err = _run(capsys, ["verify"])
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, _load_schema())
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == len(names)


def test_verify_corruption_trips_oracle_checks(capsys):
    code, out, _ = _run(capsys, ["verify", "--corrupt-veff", "0.1"])
    assert code == 2
    report = json.loads(out)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["oracle-spectrum-case1"] == "fail"
    assert status["oracle-spectrum-case2"] == "fail"
    # checks that do not consult the numeric spectrum stay green
    assert status["xm-ode-exact"] == "pass"
    assert status["orthonormality-case1"] == "pass"
    # a constant shift moves levels but not gaps
    assert status["isochronous-gaps"] == "pass"
    assert report["summary"]["failed"] >= 2


# The tolerance of each check, in report order.  A tolerance is part of what
# verify certifies, so loosening one must show up as a change to this list.
VERIFY_TOLERANCES = [
    ("xm-ode-exact", 0.0), ("xm-orthogonality", 1e-8),
    ("m1-closed-form", 1e-12), ("pct-identity-case1", 1e-9),
    ("pct-identity-case2", 1e-9), ("orthonormality-case1", 1e-6),
    ("orthonormality-case2", 1e-6), ("oracle-spectrum-case1", 1e-4),
    ("oracle-spectrum-case2", 1e-3), ("isochronous-gaps", 1e-3),
    ("susy-e0-zero", 0.0), ("susy-ground-annihilation", 1e-6),
    ("susy-shape-invariance", 1e-9), ("susy-intertwine", 1e-5),
    ("susy-partner-spectrum", 1e-3),
    ("solver-ho-spectrum", 1e-5), ("solver-ho-order", 0.2),
    ("profile-normalization", 1e-6), ("profile-node-counts", 0.0),
    ("density2d-integral", 1e-4), ("density2d-lobes", 0.0),
]


def test_verify_reports_every_check_with_its_pinned_tolerance(capsys):
    code, out, err = _run(capsys, ["verify"])
    assert code == 0, err
    report = json.loads(out)
    assert [(c["name"], c["tolerance"]) for c in report["checks"]] \
        == VERIFY_TOLERANCES


# ---------------------------------------------------------------------------
# determinism, config files, output paths

def test_byte_identical_reruns(capsys):
    argv = ["spectrum", "--case", "2", "--eta", "2", "--m", "2",
            "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    argv_csv = ["profile", "--case", "1", "--npoints", "101"]
    _, first, _ = _run(capsys, argv_csv)
    _, second, _ = _run(capsys, argv_csv)
    assert first == second
    argv_mesh = ["density2d", "--case", "2", "--eta", "1", "--n1", "1",
                 "--npoints", "31", "--format", "json"]
    _, first, _ = _run(capsys, argv_mesh)
    _, second, _ = _run(capsys, argv_mesh)
    assert first == second


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    parser = cli._build_parser()
    base = ["spectrum", "--case", "2", "--eta", "2", "--m", "2"]
    _, first, _ = _run(capsys, base + ["--nmax", "1"])
    code, _, err = _run(capsys, base + ["--no-such-flag"])
    assert code == 1
    assert err == "error: unrecognized arguments: --no-such-flag\n"
    code, out, err = _run(capsys, base)   # --nmax back to its default, 3
    assert code == 0 and err == ""
    assert len(_csv_rows(out)[1]) == 4
    assert _run(capsys, base + ["--nmax", "1"])[1] == first
    assert cli._build_parser() is parser


@pytest.mark.parametrize("argv", [
    ["spectrum", "--m", "two"],
    ["spectrum", "--m", "2.5"],
    ["spectrum", "--npoints", "4001.0"],
    ["spectrum", "--format", "xml"],
    ["spectrum", "--preset", "foo"],
    ["profile", "--grid-hi", "abc"],
    ["spectrum", "--vc", "1", "--preset", "susy-zero"],
    ["spectrum", "--no-such-flag"],
    ["verify", "--corrupt-veff", "x"],
    ["verify", "--format", "json"],
], ids=["m-word", "m-decimal", "npoints-decimal", "format-xml", "preset-foo",
        "grid_hi-word", "vc-and-preset", "unknown-flag", "corrupt_veff-word",
        "verify-format"])
def test_malformed_command_line_exits_one(tmp_path, capsys, monkeypatch, argv):
    # exit 2 is left to a failed verify
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    code, out, err = _run(capsys, argv + ["--out", "data.txt"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "key-value", "json"])
def test_empty_out_exits_one(tmp_path, capsys, monkeypatch, source):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    argv = ["spectrum", "--nmax", "0"]
    if source == "flag":
        argv += ["--out", ""]
    else:
        text = "out = \n" if source == "key-value" else '{"out": ""}'
        (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
        argv += ["--config", "run.cfg"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: invalid value for out: '' (empty)\n"
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if source == "flag" else ["run.cfg"])


def test_empty_config_path_exits_one(capsys):
    code, out, err = _run(capsys, ["spectrum", "--config", ""])
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read config : ")
    assert len(err.splitlines()) == 1


# The same settings as flags, as key = value lines and as JSON values
_SETTINGS = [
    {"case": 1, "b": "3/2", "alpha": "7/3", "m": 2, "vc": "-1/3", "nmax": 2,
     "grid_lo": -6.5, "grid_hi": 4.25, "npoints": 801, "format": "json"},
    {"case": 2, "eta": 1, "alpha": "19/7", "m": 1, "preset": "susy-zero",
     "nmax": 1, "npoints": 301},
]


@pytest.mark.parametrize("command,settings", [
    ("spectrum", _SETTINGS[0]), ("spectrum", _SETTINGS[1]),
    ("profile", _SETTINGS[0]),
    ("density2d", dict(_SETTINGS[1], n1=1, n2=2, npoints=41)),
], ids=["spectrum-case1", "spectrum-case2", "profile-case1", "density2d"])
def test_flags_and_config_files_give_the_same_bytes(tmp_path, capsys, command,
                                                    settings):
    # --vc=-1/3: argparse takes a lone "-1/3" for a flag, not a value
    flags = [command] + [f"--{k.replace('_', '-')}={v}"
                         for k, v in settings.items()]
    lines = tmp_path / "run.cfg"
    lines.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                     encoding="utf-8")
    doc = tmp_path / "run.json"
    doc.write_text(json.dumps(settings), encoding="utf-8")
    outputs = [_run(capsys, argv) for argv in (
        flags, [command, "--config", str(lines)],
        [command, "--config", str(doc)])]
    assert outputs[0][0] == 0 and outputs[0][2] == "", outputs[0][2]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_config_file_key_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ncase = 2\neta = 1\nnmax = 1\n"
                   "grid-hi = 6.5\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 0
    _, rows = _csv_rows(out)
    assert len(rows) == 2
    assert rows[0][1] == pytest.approx(2.0)


def test_config_file_json(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"case": 2, "eta": 1, "nmax": 1}),
                   encoding="utf-8")
    code, out, _ = _run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 0
    _, rows = _csv_rows(out)
    assert rows[0][1] == pytest.approx(2.0)


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = 2\neta = 1\nnmax = 1\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["spectrum", "--config", str(cfg),
                                 "--nmax", "3"])
    assert code == 0
    _, rows = _csv_rows(out)
    assert len(rows) == 4


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n", encoding="utf-8")
    code, _, err = _run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 1
    assert "wibble" in err


@pytest.mark.parametrize("command, key, text", [
    ("verify", "format", "format = json\n"),
    ("verify", "format", '{"format": "json"}'),
    ("spectrum", "n1", "n1 = 3\n"),
    ("spectrum", "corrupt_veff", "corrupt_veff = 0.5\n"),
], ids=["verify-format", "verify-format-json", "spectrum-n1",
        "spectrum-corrupt_veff"])
def test_config_key_the_command_does_not_take_exits_one(tmp_path, capsys,
                                                       monkeypatch, command,
                                                       key, text):
    # a flag the command lacks is refused, and so is the same file key
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, [command, "--config", "run.cfg"])
    assert (code, out) == (1, "")
    assert err == f"error: config key {key!r} does not apply to {command}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_json_config_takes_numbers_and_numeric_strings(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"case": "2", "eta": 1, "alpha": 2.5, "b": 1,
                               "vc": "1/2", "grid_hi": 6, "nmax": 1}),
                   encoding="utf-8")
    code, out, err = _run(capsys, ["spectrum", "--config", str(cfg)])
    flags = ["spectrum", "--case", "2", "--eta", "1", "--alpha", "5/2",
             "--vc", "1/2", "--grid-hi", "6", "--nmax", "1"]
    assert code == 0 and err == ""
    assert out == _run(capsys, flags)[1]


@pytest.mark.parametrize("config", [
    {"m": [2]}, {"grid_hi": [3]}, {"out": 5},
    {"m": 2.7}, {"nmax": True}, {"npoints": 4001.9}, {"nmax": None},
], ids=["m-list", "grid_hi-list", "out-number", "m-float", "nmax-bool",
        "npoints-float", "nmax-null"])
def test_json_config_value_of_wrong_kind_exits_one(tmp_path, capsys,
                                                   monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = _run(capsys, ["spectrum", "--config", str(path)])
    (key,) = config
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: invalid value for {key}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_missing_config_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, out, err = _run(capsys, ["spectrum", "--config", str(missing)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read config {missing}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "nested" / "spec.csv"
    code, out, _ = _run(capsys, ["spectrum", "--case", "1",
                                 "--out", str(target)])
    assert code == 0
    assert out == ""
    header, rows = _csv_rows(target.read_text(encoding="utf-8"))
    assert header[0] == "n" and len(rows) == 4


def test_unwritable_out_exits_four(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("", encoding="utf-8")
    target = blocker / "spec.csv"  # its parent is a regular file
    code, out, err = _run(capsys, ["spectrum", "--case", "1", "--nmax", "0",
                                   "--out", str(target)])
    assert code == 4
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_outdir_env_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PDMLAG_OUTDIR", str(tmp_path))
    code, out, _ = _run(capsys, ["spectrum", "--case", "1",
                                 "--out", "sub/run.csv"])
    assert code == 0
    assert (tmp_path / "sub" / "run.csv").exists()


# ---------------------------------------------------------------------------
# table emission against the row-by-row reference

def _reference_render(fmt, metadata, columns, rows):
    """The row-based emitter the column-wise one replaced: one list per row,
    `_fmt` per value, and the generic `_json_value` layout."""
    if fmt == "json":
        doc = {"metadata": metadata, "columns": columns,
               "data": [list(r) for r in rows]}
        return cli._json_value(doc, 0) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_output(argv):
    """What the row-based emitter wrote for ``main(argv)``."""
    cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
    model = cfg.model()
    if argv[0] == "spectrum":
        k = cfg.nmax + 1
        grid = cli._spectrum_grid(cfg, model, k)
        res = solve_model(model, k, grid)
        rows = []
        for n in range(k):
            exact = energy(model, n)
            numeric = float(res.eigenvalues[n])
            abs_err = abs(numeric - exact)
            rel_err = abs_err / abs(exact) if exact != 0.0 else abs_err
            rows.append([n, exact, numeric, abs_err, rel_err])
        columns = ["n", "E_analytic", "E_numeric", "abs_err", "rel_err"]
        md = cli._metadata("spectrum", cfg, model, grid)
    elif argv[0] == "profile":
        grid = cli._profile_grid(cfg, model)
        xs = grid.xs()
        mvals, vvals = mass(model, xs), v_eff(model, xs)
        dens = [wavefunction(model, n, xs) ** 2 for n in range(3)]
        rows = [[xs[i], mvals[i], vvals[i], dens[0][i], dens[1][i], dens[2][i]]
                for i in range(grid.npoints)]
        columns = ["x", "M", "V_eff", "psi0_sq", "psi1_sq", "psi2_sq"]
        md = cli._metadata("profile", cfg, model, grid)
    else:
        grid = cli._density2d_grid(cfg, model)
        xs = grid.xs()
        px = wavefunction(model, cfg.n1, xs) ** 2
        py = wavefunction(model, cfg.n2, xs) ** 2
        rows = [[xs[i], xs[j], px[i] * py[j]]
                for i in range(grid.npoints) for j in range(grid.npoints)]
        columns = ["x", "y", "rho"]
        md = cli._metadata("density2d", cfg, model, grid)
        md["parameters"]["n1"] = cfg.n1
        md["parameters"]["n2"] = cfg.n2
    return _reference_render(cfg.format, md, columns, rows)


_CASE1 = ["--case", "1", "--b", "3/2", "--alpha", "7/3", "--m", "2"]
_CASE2 = ["--case", "2", "--eta", "1", "--m", "2"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["spectrum"] + _CASE1 + ["--nmax", "5"],
    ["spectrum"] + _CASE2 + ["--nmax", "5"],
    ["spectrum"] + _CASE1 + ["--preset", "susy-zero", "--nmax", "2"],
    ["profile"] + _CASE1 + ["--npoints", "301"],
    ["profile"] + _CASE2 + ["--npoints", "301"],
    ["density2d"] + _CASE2 + ["--n1", "1", "--n2", "2", "--npoints", "41"],
    # 10201 and 20001 rows: more than one chunk of _CHUNK_ROWS
    ["density2d"] + _CASE2 + ["--n1", "1", "--n2", "2", "--npoints", "101"],
    ["profile"] + _CASE1 + ["--npoints", "20001"],
], ids=["spectrum-case1", "spectrum-case2", "spectrum-susy-zero",
        "profile-case1", "profile-case2", "density2d-case2",
        "density2d-chunks", "profile-chunks"])
def test_emission_matches_row_reference(capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert out == _reference_output(argv)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_text_only_stdout_matches_out_file(tmp_path, capsys, monkeypatch, fmt):
    argv = (["density2d"] + _CASE2
            + ["--n1", "1", "--n2", "2", "--npoints", "101", "--format", fmt])
    assert main(argv + ["--out", str(tmp_path / "mesh")]) == 0
    stdout = io.StringIO()                  # no .buffer: text writes only
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.getvalue() == (tmp_path / "mesh").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["profile"] + _CASE2 + ["--npoints", "101"],
    ["density2d"] + _CASE2 + ["--npoints", "21", "--format", "json"],
])
def test_non_finite_data_exits_three(tmp_path, capsys, monkeypatch, argv):
    def poisoned(model, n, x):
        psi = wavefunction(model, n, x)
        psi[len(psi) // 2] = np.nan
        return psi
    monkeypatch.setattr(cli, "wavefunction", poisoned)
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "error: non-finite value in output\n"
    # with --out the refusal comes before the file is opened
    path = tmp_path / "data.txt"
    code, out, err = _run(capsys, argv + ["--out", str(path)])
    assert code == 3
    assert err == "error: non-finite value in output\n"
    assert not path.exists()
