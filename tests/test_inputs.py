"""The package's two input rules, over every entry point that takes a number.

An exact rational (b, alpha, vc) is any rational but bool, numpy integers
included, or a finite float at its exact binary value; anything else raises
TypeError ``<name> must be a rational or a finite float, got <value>``.  An
integer (m, eta, a level or degree, and the CLI's nmax, npoints, n1, n2) is
any integer type but bool, within its bounds; anything else raises
ValueError ``<name> must be an integer >= <least>, got <value>``.  Each
rule is applied where the value enters, before any cache, so a refused
value stays refused after an equal integer has been cached.
"""
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from pdmlag import cli, orthopoly
from pdmlag.checks import xm_inner_product
from pdmlag.models import Case1Params, Case2Params
from pdmlag.orthopoly import (XmFamilySpec, classical_laguerre,
                              eval_xm_laguerre, xm_laguerre)

_SPEC = XmFamilySpec(2, Fraction(7, 3))
_G = np.linspace(0.5, 4.0, 5)

# name, entry point of the one value, a valid value
RATIONALS = {
    "Case1Params.b": ("b", lambda v: Case1Params(v, 2, 1), 3),
    "Case1Params.alpha": ("alpha", lambda v: Case1Params(1, v, 1), 3),
    "Case1Params.vc": ("vc", lambda v: Case1Params(1, 2, 1, v), 3),
    "Case2Params.alpha": ("alpha", lambda v: Case2Params(1, v, 1), 3),
    "Case2Params.vc": ("vc", lambda v: Case2Params(1, 2, 1, v), 3),
    "XmFamilySpec.alpha": ("alpha", lambda v: XmFamilySpec(1, v), 3),
    "classical_laguerre.alpha": ("alpha", lambda v: classical_laguerre(3, v), 3),
}

# name, least, entry point of the one value, a valid value
INTEGERS = {
    "Case1Params.m": ("m", 1, lambda v: Case1Params(1, 2, v), 2),
    "Case2Params.eta": ("eta", 0, lambda v: Case2Params(v, 2, 1), 2),
    "Case2Params.m": ("m", 1, lambda v: Case2Params(1, 2, v), 2),
    "XmFamilySpec.m": ("m", 1, lambda v: XmFamilySpec(v, 2), 2),
    "classical_laguerre.n": ("n", 0, lambda v: classical_laguerre(v, 2), 2),
    "xm_laguerre.nu": ("nu", 2, lambda v: xm_laguerre(v, _SPEC), 3),
    "eval_xm_laguerre.nu": ("nu", 2, lambda v: eval_xm_laguerre(v, _SPEC, _G), 3),
    "xm_inner_product.nu": ("nu", 2, lambda v: xm_inner_product(v, 3, _SPEC), 3),
}


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("entry", RATIONALS)
def test_rational_inputs_follow_the_one_rule(entry):
    name, call, good = RATIONALS[entry]
    assert _same(call(np.int64(good)), call(good))
    assert _same(call(Fraction(good)), call(good))
    # a non-integral float is taken at its exact binary value
    assert _same(call(2.75), call(Fraction(11, 4)))
    assert _same(call(np.float64(2.75)), call(Fraction(11, 4)))
    for bad in (True, "3", "7/3", None, 2.75j, float("inf"), float("nan")):
        message = f"{name} must be a rational or a finite float, got {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(bad)


@pytest.mark.parametrize("entry", INTEGERS)
def test_integer_inputs_follow_the_one_rule(entry):
    name, least, call, good = INTEGERS[entry]
    assert _same(call(np.int64(good)), call(good))
    assert _same(call(np.int32(least)), call(least))
    for bad in (True, float(good), good + 0.5, str(good), least - 1):
        message = f"{name} must be an integer >= {least}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)


def _python_ints(p):
    return all(type(c.numerator) is int and type(c.denominator) is int
               for c in p.coeffs)


def test_a_numpy_integer_alpha_builds_in_python_ints():
    # A numpy integer's numerator is the numpy integer itself.  Kept in a
    # Fraction, it would make every coefficient fixed-width arithmetic
    # (wrong past 2**63, about degree 20), and the caches, keyed on equal
    # Fractions, would hand that result to later int callers too.
    builds = (lambda a: classical_laguerre(25, a),
              lambda a: xm_laguerre(30, XmFamilySpec(2, a)))
    caches = (orthopoly._classical_laguerre, orthopoly.laguerre_data,
              orthopoly._xm_laguerre)
    for build in builds:
        for cache in caches:
            cache.cache_clear()
        from_numpy = build(np.int64(2))
        assert _python_ints(from_numpy)
        for cache in caches:
            cache.cache_clear()
        assert from_numpy == build(2)
    spec = XmFamilySpec(2, np.int64(2))
    assert type(spec.alpha.numerator) is int


def test_a_float_degree_is_refused_before_and_after_the_int_is_cached():
    spec = XmFamilySpec(2, Fraction(13, 11))     # new to the process
    alpha = Fraction(17, 13)
    for call in (lambda n: xm_laguerre(n, spec),
                 lambda n: classical_laguerre(n, alpha)):
        with pytest.raises(ValueError, match="must be an integer >= "):
            call(2.0)
        call(2)
        with pytest.raises(ValueError, match="must be an integer >= "):
            call(2.0)


def _cli(capsys, monkeypatch, tmp_path, command, key, value):
    """Exit code and stderr of `command` with `key` set in a JSON config."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({key: value}),
                                       encoding="utf-8")
    code = cli.main([command, "--config", "run.json"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    return code, captured.err


# command, key, least
CLI_BOUNDS = [("spectrum", "nmax", 0), ("spectrum", "npoints", 16),
              ("density2d", "n1", 0), ("density2d", "n2", 0)]


@pytest.mark.parametrize("command, key, least", CLI_BOUNDS,
                         ids=[key for _, key, _ in CLI_BOUNDS])
def test_cli_integer_settings_follow_the_one_rule(capsys, monkeypatch,
                                                  tmp_path, command, key,
                                                  least):
    for value in (least, str(least)):
        assert getattr(cli._default_config(**{key: value}), key) == least
    flag = "--" + key
    for below in (least - 1, str(least - 1)):
        code, err = _cli(capsys, monkeypatch, tmp_path, command, key, below)
        assert (code, err) == (1, f"error: {key} must be an integer >= "
                                  f"{least}, got {least - 1}\n")
    assert cli.main([command, "--case", "2", flag, str(least - 1)]) == 1
    assert capsys.readouterr().err == (f"error: {key} must be an integer >= "
                                       f"{least}, got {least - 1}\n")
    for bad in (True, least + 0.5, "x", str(least + 0.5)):
        code, err = _cli(capsys, monkeypatch, tmp_path, command, key, bad)
        assert code == 1
        assert err.startswith(f"error: invalid value for {key}: {bad!r} (")
        assert len(err.splitlines()) == 1


def test_cli_case_is_one_of_its_choices(capsys, monkeypatch, tmp_path):
    assert cli._default_config(case="2").case == 2
    for bad in (0, 3, "3"):
        code, err = _cli(capsys, monkeypatch, tmp_path, "spectrum", "case", bad)
        assert (code, err) == (1, f"error: invalid value for case: {bad!r} "
                                  "(known: 1, 2)\n")
    for bad in (True, 1.5, "x"):
        code, err = _cli(capsys, monkeypatch, tmp_path, "spectrum", "case", bad)
        assert code == 1
        assert err.startswith(f"error: invalid value for case: {bad!r} (")
