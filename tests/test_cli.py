"""End-to-end tests of the command-line interface.

All invocations go through ``main(argv)`` directly so exit codes, stdout,
stderr, and file outputs are exercised exactly as a shell user sees them.
"""
import io
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import pdmlag.emit
import pdmlag.solver
from pdmlag import checks, cli
from pdmlag.cli import main
from pdmlag.models import (Case1Params, Case2Params, energy, mass, v_eff,
                           wavefunction)
from pdmlag.solver import Grid, quadrature, solve_model


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


# the first b = 2^j refused at the defaults: b^2 scales b = 1's matrix
_B_REFUSED = str(2 ** 240)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, shown", [
    (["--grid-lo", "0", "--grid-hi", "1e200", "--npoints", "101"],
     "the grid leaves double precision: the square of its spacing 1e+198 "
     "overflows"),
    # hi alone: the grid starts at hi / 4001, one spacing above x = 0
    (["--case", "2", "--grid-hi", "1e160"],
     "the grid leaves double precision: the square of its spacing "
     "2.4993751562109473e+156 overflows"),
    # on [0, 2] the barrier's off-diagonal entries reach 2.6e159 one spacing
    # from the origin, and their squares overflow in the Sturm counts
    (["--case", "2", "--eta", "25", "--grid-lo", "0", "--grid-hi", "2"],
     "the matrix leaves double precision: the square of its off-diagonal "
     "entry 2.61e+159 overflows"),
    (["--case", "1", "--b", _B_REFUSED],
     "the matrix leaves double precision: the square of its off-diagonal "
     "entry 3.04e+154 overflows"),
], ids=["grid-span", "grid-hi", "eta-25", "b-2^240"])
def test_spectrum_past_double_precision_exits_one(tmp_path, capsys, argv,
                                                  shown):
    path = tmp_path / "spectrum.csv"
    code, out, err = _run(capsys, ["spectrum", *argv, "--out", str(path)])
    assert (code, out, err) == (1, "", f"error: {shown}\n")
    assert not path.exists()


def test_spectrum_serves_eta_24(tmp_path):
    # eta = 24, the last eta served before the domain left the origin
    path = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--case", "2", "--eta", "24", "--out",
                 str(path)]) == 0
    assert len(path.read_text().splitlines()) == 5


@pytest.mark.parametrize("argv", [
    *(["--case", "1", "--b", b, "--alpha", "2"]
      for b in ("1/100", "1", "10", "100", "1000", "1000000")),
    *(["--case", "2", "--eta", eta, "--alpha", "5/2"]
      for eta in ("25", "42", "100")),
], ids=lambda argv: f"{argv[2][2:]}-{argv[3]}")
def test_spectrum_serves_large_b_and_eta(capsys, argv):
    # the domain scales with 1/b in Case 1 and leaves the origin in Case 2
    code, out, err = _run(capsys, ["spectrum", *argv, "--m", "2",
                                   "--nmax", "9"])
    assert code == 0 and err == ""
    rel_err = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
    assert len(rel_err) == 10 and max(rel_err) <= 1e-4


_ETA_40001 = ["--case", "2", "--alpha", "5/2", "--m", "2", "--nmax", "9",
              "--npoints", "40001"]


@pytest.mark.parametrize("argv, code, shown", [
    (["--case", "1", "--b", "1000"], 0, None),
    ([*_ETA_40001, "--eta", "18"], 0, None),
    ([*_ETA_40001, "--eta", "19"], 0, None),
    (["--case", "1", "--b", str(2 ** 239)], 0, None),
    (["--case", "2", "--eta", str(10 ** 12)], 0, None),
    (["--case", "1", "--b", _B_REFUSED], 1,
     "the matrix leaves double precision: the square of its off-diagonal "
     "entry 3.04e+154 overflows\n"),
], ids=["b-1000", "eta-18-40001", "eta-19-40001", "b-2^239", "eta-10^12",
        "b-2^240"])
def test_spectrum_frontier(capsys, argv, code, shown):
    # today's served range: the first b = 2^j refused is 2^240, where the
    # off-diagonal squares overflow.  No eta is refused; the domain's width
    # in x shrinks like 1/eta, and past eta = 10^13 or so nears the rounding
    # of x = 1, where the error grows
    got, out, err = _run(capsys, ["spectrum", *argv])
    assert got == code
    if code == 0:
        assert err == "" and len(out.splitlines()) in (5, 11)
    else:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {shown}")


def test_spectrum_sweep_of_the_served_range_is_within_1e_3(capsys):
    # 40 seeded draws over the whole parameter range at the defaults: either
    # case, b = 2^j p/3 (j in -7..10, p in 2..5), eta 0..60, alpha = p/20 in
    # (1, 1000], m 1..4, nmax 0..9; every draw is served within 1e-3
    rng = random.Random(2026)
    for _ in range(40):
        argv = ["spectrum", "--case", str(rng.choice((1, 2))),
                "--b", str(Fraction(2) ** rng.randint(-7, 10)
                           * Fraction(rng.randint(2, 5), 3)),
                "--eta", str(rng.randint(0, 60)),
                "--alpha", str(Fraction(rng.randint(21, 20000), 20)),
                "--m", str(rng.randint(1, 4)),
                "--nmax", str(rng.randint(0, 9))]
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == "", argv
        rel_err = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
        assert max(rel_err) <= 1e-3, argv


_B1000 = ["--case", "1", "--b", "1000", "--alpha", "2", "--m", "2",
          "--nmax", "3", "--grid-lo", "-0.012", "--grid-hi", "0.03"]


def test_both_grid_ends_serve_b_1000(capsys):
    # with both ends given default_domain is not called, and the grid is
    # b = 1's [-12, 30] scaled by 1/b
    code, out, err = _run(capsys, ["spectrum", *_B1000])
    assert code == 0 and err == ""
    rel_err = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
    assert len(rel_err) == 4 and rel_err[0] < 1.6e-6 and max(rel_err) < 1e-4
    code, out, err = _run(capsys, ["profile", *_B1000, "--format", "json"])
    assert code == 0 and err == ""
    data = np.array(json.loads(out)["data"])
    grid = Grid(-0.012, 0.03, 2001)
    assert data[:, 0].tobytes() == grid.xs().tobytes()
    for column in (3, 4, 5):
        assert abs(quadrature(data[:, column], grid) - 1.0) < 1e-12


def _no_domain(*args):
    raise AssertionError("default_domain was called")


@pytest.mark.parametrize("command", ["spectrum", "profile", "density2d"])
def test_both_grid_ends_call_no_default_domain(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "default_domain", _no_domain)
    monkeypatch.setattr(pdmlag.solver, "default_domain", _no_domain)
    code, out, err = _run(capsys, [command, "--case", "2", "--eta", "1",
                                   "--grid-lo", "0.25", "--grid-hi", "8",
                                   "--npoints", "33"])
    assert code == 0 and err == "" and out


@pytest.mark.parametrize("command", ["profile", "density2d"])
def test_case2_grid_hi_alone_starts_one_own_spacing_above_zero(capsys,
                                                               command):
    # lo = hi / npoints, from the given hi, not from default_domain's
    code, out, err = _run(capsys, [command, "--case", "2", "--eta", "1",
                                   "--grid-hi", "10", "--npoints", "21"])
    assert code == 0 and err == ""
    xs = sorted({float(line.split(",")[0]) for line in out.splitlines()[1:]})
    assert xs == Grid(10 / 21, 10.0, 21).xs().tolist()
    assert np.allclose(np.diff(xs), xs[0], rtol=1e-14, atol=0)


def test_spectrum_grid_hi_alone_starts_one_own_spacing_above_zero(capsys):
    # as profile's and density2d's: lo = hi / npoints
    code, out, err = _run(capsys, ["spectrum", "--case", "2", "--eta", "1",
                                   "--grid-hi", "10", "--npoints", "21",
                                   "--format", "json"])
    assert code == 0 and err == ""
    grid = json.loads(out)["metadata"]["grid"]
    assert grid == {"lo": 10 / 21, "hi": 10.0, "npoints": 21}


@pytest.mark.parametrize("command", ["profile", "density2d"])
def test_case2_grid_from_the_origin_exits_one(capsys, command):
    code, out, err = _run(capsys, [command, "--case", "2", "--eta", "1",
                                   "--grid-lo", "0", "--npoints", "21"])
    assert (code, out) == (1, "")
    assert err == "error: the model is defined for x > 0.0 only\n"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_at_the_defaults_is_the_same_without_the_kernel(capsys,
                                                                  monkeypatch,
                                                                  fmt):
    # the Sturm kernel runs `dstebz`'s index bisection bit for bit, and the
    # warm start's windows `dlaebz`'s (from 32001 points), so a machine
    # without a compiler writes the same bytes
    for argv in (["spectrum"], ["spectrum", "--npoints", "40001"]):
        argv = argv + ["--format", fmt]
        _, built, _ = _run(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setattr(pdmlag.solver, "_sturm_kernel", lambda: None)
            _, without, _ = _run(capsys, argv)
        assert built == without


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure_data_is_the_same_without_the_emit_kernel(capsys, monkeypatch,
                                                         fmt):
    # the emit kernel writes the bytes of '%.17g', which formats each value
    # where the kernel cannot be built
    for argv in (["profile"], ["density2d", "--case", "2"]):
        argv = argv + ["--format", fmt]
        _, built, _ = _run(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setattr(pdmlag.emit, "_kernel", lambda: None)
            _, without, _ = _run(capsys, argv)
        assert built == without


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
@pytest.mark.parametrize("loaded", ["kernel", "python"])
def test_rows_either_side_of_a_chunk_match_row_reference(monkeypatch, fmt,
                                                         loaded):
    # one row short of a chunk, a whole chunk, and one row into the next,
    # of integers, scaled normals and the finite doubles of random bits
    if loaded == "python":
        monkeypatch.setattr(pdmlag.emit, "_kernel", lambda: None)
    rng = np.random.default_rng(29)
    cfg = cli._default_config(format=fmt)
    metadata, columns = {"command": "rows"}, ["n", "scaled", "bits"]
    for nrows in (cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1):
        bits = rng.integers(0, 2 ** 64, nrows, dtype=np.uint64).view(float)
        data = [np.arange(nrows, dtype=float),
                rng.standard_normal(nrows) * 10.0 ** rng.integers(-30, 30, nrows),
                np.where(np.isfinite(bits), bits, -0.0)]
        rows = [[float(c[r]) for c in data] for r in range(nrows)]
        text = "".join(cli._render_table(cfg, metadata, columns, nrows,
                                         cli._column_cells(data)))
        assert text == _reference_render(fmt, metadata, columns, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_text_only_stdout_matches_out_file(tmp_path, capsys, monkeypatch, fmt):
    argv = (["density2d"] + _CASE2
            + ["--n1", "1", "--n2", "2", "--npoints", "101", "--format", fmt])
    assert main(argv + ["--out", str(tmp_path / "mesh")]) == 0
    stdout = io.StringIO()                  # no .buffer: text writes only
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.getvalue() == (tmp_path / "mesh").read_text(encoding="utf-8")


@pytest.mark.parametrize("model", [["--case", "1", "--b", "1"],
                                   ["--case", "2", "--eta", "1"]],
                         ids=["case1", "case2"])
def test_states_are_served_up_to_alpha_304(capsys, model):
    # today's frontier in alpha: from 305, N_0 underflows where the
    # prefactor overflows, and even the ground state is refused
    code, out, err = _run(capsys, ["profile", *model, "--m", "2",
                                   "--alpha", "304"])
    assert code == 0 and out and err == ""
    code, out, err = _run(capsys, ["profile", *model, "--m", "2",
                                   "--alpha", "305"])
    assert code == 3 and out == ""
    assert err == "error: bound state n=0 overflows in floating point\n"


@pytest.mark.parametrize("model, served", [
    (Case1Params(Fraction(3, 2), Fraction(7, 3), 2), 300),
    (Case2Params(3, Fraction(19, 7), 4), 294),
], ids=["case1", "case2"])
def test_states_are_served_up_to_a_first_refused_level(model, served):
    # today's frontier in n, on 40001 points of default_domain(model, n)
    # (Case 2's from hi / 40001): past it the polynomial overflows where
    # the prefactor underflows
    xs = cli._table_grid(model, served, 40001).xs()
    assert np.all(np.isfinite(wavefunction(model, served, xs)))
    xs = cli._table_grid(model, served + 1, 40001).xs()
    with pytest.raises(RuntimeError, match=f"^bound state n={served + 1} "
                                           f"overflows in floating point$"):
        wavefunction(model, served + 1, xs)


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
    # with the emit kernel and without it
    for loader in (pdmlag.emit._kernel, lambda: None):
        monkeypatch.setattr(pdmlag.emit, "_kernel", loader)
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
