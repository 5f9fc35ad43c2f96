"""End-to-end tests of the command-line front end via dispatch()."""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveq import cli, funceq, gridfn, laurent, scaling
from waveq.acceptance import CHECKS, run_all
from waveq.cli import dispatch
from waveq.gridfn import GridFunction, apply_op_grid
from waveq.opalgebra import OpExpr
from waveq.scaling import ScalingSystem
from waveq.spectra import haar_closed_form, iterate_spectrum
from test_golden import GOLDEN
from test_gridfn import real_case


def run(tmp_path, *argv):
    code = dispatch([*argv, "--output", str(tmp_path)])
    return code


def load_manifest(tmp_path, sub):
    with open(tmp_path / f"{sub}.manifest.json") as fh:
        return json.load(fh)


# the verdicts the reports no longer carry: acceptance.py judges the measurements
VERDICT_KEYS = {"x_at_one_ok", "x_at_minus_one_ok", "commutant_ok", "partition_ok",
                "matches_normalized_j", "ladder_ok", "gamma_ladder_ok", "phi_ladder_ok",
                "agree", "normalized", "sum_ok", "orth_ok", "orthonormal", "ok",
                "expected_terms"}


def _keys(node) -> set:
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


SMOKE = [
    ["cascade", "--system", "haar", "--start", "box", "--iters", "1", "--resolution", "8"],
    ["wavelet", "--system", "b2", "--resolution", "6"],
    ["limit", "--preset", "b2", "--n", "8,12", "--resolution", "8"],
    ["spectrum", "--a0", "0.9", "--n", "8"],
    ["ladder", "--n", "0,1,2"],
    ["closure", "--s", "1", "--alpha", "1"],
    ["general-closure", "--j0", "1/2*T^1 + 1/2*T^-1", "--j", "1/2 + 1/2*T^-1"],
    ["solve-b", "--c", "1 + T^-1", "--window", "4"],
    ["casimir", "--n", "0,1,2"],
    ["prop1", "--window", "8"],
    ["gamma", "--points", "20"],
    ["bridge", "--n", "0,1,2"],
    ["fig1", "--n", "2,4", "--grid", "64"],
    ["fig2", "--s-values", "0.5,1", "--n", "10", "--resolution", "7"],
]


@pytest.mark.parametrize("argv", SMOKE, ids=[a[0] for a in SMOKE])
def test_subcommand_writes_csv_and_manifest(tmp_path, argv):
    assert run(tmp_path, *argv) == 0
    sub = argv[0]
    csv_text = (tmp_path / f"{sub}.csv").read_text()
    assert csv_text.endswith("\n")
    assert "," in csv_text.splitlines()[0]
    manifest = load_manifest(tmp_path, sub)
    assert manifest["subcommand"] == sub
    assert manifest["files"]["csv"] == f"{sub}.csv"
    assert "config" in manifest and "results" in manifest
    assert not _keys(manifest) & VERDICT_KEYS


def test_cascade_fixed_point_manifest_residual_zero(tmp_path):
    assert run(tmp_path, "cascade", "--system", "haar", "--start", "box",
               "--iters", "1", "--resolution", "8") == 0
    manifest = load_manifest(tmp_path, "cascade")
    assert manifest["results"]["residual"] == 0.0
    # the effective configuration is echoed in full, defaults included
    assert manifest["config"] == {
        "system": "haar",
        "start": "box",
        "iters": 1,
        "resolution": 8,
        "window": [-1, 2],
    }


def test_fig1_csv_shape_and_crossings(tmp_path):
    assert run(tmp_path, "fig1", "--n", "2,4,6", "--grid", "512") == 0
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert lines[0] == "a0,n,a_n"
    assert len(lines) == 1 + 3 * 512
    manifest = load_manifest(tmp_path, "fig1")
    assert manifest["results"]["zero_crossings"] == {"2": 2, "4": 8, "6": 32}


def test_spectrum_trace_csv_header(tmp_path):
    assert run(tmp_path, "spectrum", "--a0", "0.3", "--n", "5") == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,a_n"
    assert len(lines) == 1 + 6


def test_identical_configs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert dispatch(["fig1", "--n", "2,4", "--grid", "128",
                         "--output", str(out)]) == 0
    assert (a / "fig1.csv").read_bytes() == (b / "fig1.csv").read_bytes()
    assert (a / "fig1.manifest.json").read_bytes() == (
        b / "fig1.manifest.json"
    ).read_bytes()


def test_manifest_contains_no_absolute_paths(tmp_path):
    assert run(tmp_path, "spectrum", "--a0", "0.5", "--n", "4") == 0
    raw = (tmp_path / "spectrum.manifest.json").read_text()
    assert str(tmp_path) not in raw


def test_config_file_supplies_values(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"a0": 0.5, "n": 4}))
    assert run(tmp_path, "spectrum", "--config", str(cfg)) == 0
    manifest = load_manifest(tmp_path, "spectrum")
    assert manifest["config"]["a0"] == 0.5
    assert manifest["config"]["n"] == 4


def test_flags_win_over_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"a0": 0.5, "n": 4}))
    assert run(tmp_path, "spectrum", "--config", str(cfg), "--a0", "0.25") == 0
    manifest = load_manifest(tmp_path, "spectrum")
    assert manifest["config"]["a0"] == 0.25
    assert manifest["config"]["n"] == 4


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"not_a_flag": 1}))
    assert run(tmp_path, "spectrum", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "not_a_flag" in err and "usage:" in err


def test_bad_flag_value_is_usage_error_naming_the_flag(tmp_path, capsys):
    assert run(tmp_path, "cascade", "--iters", "x") == 2
    err = capsys.readouterr().err
    assert "--iters" in err
    assert "usage: waveq cascade" in err


def test_repeated_bad_flags_print_the_same_usage_line(tmp_path, capsys):
    # the parser is built once per process; a second run must not see the first
    usages = []
    for _ in range(2):
        assert run(tmp_path, "cascade", "--iters", "x") == 2
        usages.append(capsys.readouterr().err.splitlines()[-1])
    assert usages[0] == usages[1] and usages[0].startswith("usage: waveq cascade")


def test_exponent_beyond_the_float_range_is_usage_error_naming_the_flag(tmp_path, capsys):
    huge = f"T^{2**1100}"
    assert run(tmp_path, "general-closure", "--j0", huge, "--j", "1/2 + 1/2*T^-1") == 2
    assert "--j0" in capsys.readouterr().err
    for flag, sub in (("--c", "solve-b"), ("--r", "casimir")):
        assert run(tmp_path, sub, flag, f"1 + {huge}") == 2
        err = capsys.readouterr().err
        assert flag in err and "beyond the float range" in err


def test_an_exponent_of_a_400_digit_power_is_named_by_its_digit_count(tmp_path, capsys):
    assert run(tmp_path, "solve-b", "--c", "1 + T^1/2^" + "9" * 400) == 2
    err = capsys.readouterr().err
    assert "~2^-(400-digit integer) is beyond the float range" in err
    assert max(len(line) for line in err.splitlines()) < 200


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["bogus"]) == 2
    assert "usage:" in capsys.readouterr().err


def test_the_readme_table_lists_the_registered_subcommands_in_order():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.+) \|$", section, re.M)
    assert rows == [(name, blurb) for name, (blurb, _, _) in cli._SUBCOMMANDS.items()]


def test_missing_subcommand_is_usage_error(capsys):
    assert dispatch([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "general-closure", "--j", "1/2 + 1/2*T^-1") == 2
    assert "--j0" in capsys.readouterr().err


def test_unparseable_symbol_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "solve-b", "--c", "2T") == 2
    assert "--c" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_non_dyadic_exponent_is_noted_in_one_line_naming_the_flag(tmp_path, capsys, source):
    symbols = {"j0": "T^1/3", "j": "1/2 + 1/2*T^-1"}
    argv = [f"--{key}={value}" for key, value in symbols.items()]
    if source == "config":
        (tmp_path / "run.json").write_text(json.dumps(symbols))
        argv = ["--config", str(tmp_path / "run.json")]
    assert run(tmp_path, "general-closure", *argv) == 0
    assert capsys.readouterr().err == "note: --j0: non-dyadic exponent 1/3 stored as approximate\n"


def test_no_solution_exits_one(tmp_path, capsys):
    assert run(tmp_path, "solve-b", "--c", "1 + T^-4", "--window", "3") == 1
    assert "no solution" in capsys.readouterr().err


def test_non_finite_mask_weight_is_a_computation_error(tmp_path, capsys):
    bad = ScalingSystem("haar", {0: float("inf"), 1: 1.0})
    preset = dataclasses.replace(scaling.PRESETS["haar"], system=bad)
    with mock.patch.dict(scaling.PRESETS, {"haar": preset}):
        assert run(tmp_path, "cascade") == 1
    assert capsys.readouterr().err.startswith("error: NonFiniteWeightError: term ")


REMOVED_OPTIONS = [
    (("solve-b", "--c", "1 + T^-1"), "--nullspace-tol"),
    (("prop1",), "--nullspace-tol"),
    (("casimir",), "--tol"),
]


@pytest.mark.parametrize("argv, flag", REMOVED_OPTIONS,
                         ids=[f"{a[0]} {f}" for a, f in REMOVED_OPTIONS])
def test_nullspace_tol_is_no_longer_an_option(tmp_path, capsys, argv, flag):
    assert run(tmp_path, *argv, flag, "1e-10") == 2
    assert flag in capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: 1e-10}))
    assert run(tmp_path, *argv, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert key in err and "(offending flag: --config)" in err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_check_passes_and_lists_every_named_subcheck(tmp_path, capsys):
    assert run(tmp_path, "check") == 0
    out = capsys.readouterr().out
    names = [name for name, _ in CHECKS]
    for name in names:
        assert f"PASS  {name}" in out or f"PASS {name}" in out
    lines = (tmp_path / "check.csv").read_text().splitlines()
    assert lines[0] == "name,status"
    assert [ln.split(",")[0] for ln in lines[1:]] == names
    manifest = load_manifest(tmp_path, "check")
    assert manifest["results"]["passed"] == manifest["results"]["total"] == len(names)
    assert not _keys(manifest) & VERDICT_KEYS


def test_check_manifest_carries_every_claim_and_the_csv_its_recorded_bytes(tmp_path):
    assert run(tmp_path, "check") == 0
    csv = hashlib.sha256((tmp_path / "check.csv").read_bytes()).hexdigest()
    assert csv == GOLDEN[("check",)][0]
    by_name = {r.name: r for r in run_all()}
    for entry in load_manifest(tmp_path, "check")["results"]["checks"]:
        claims = entry["details"]
        assert sorted(claims) == sorted(by_name[entry["name"]].details)
        for claim in claims.values():
            assert sorted(claim) == ["bound", "margin", "relation", "value"]
            assert claim["relation"] in ("==", "<", "<=")
            exact = claim["relation"] == "==" or claim["value"] == 0
            assert (claim["margin"] is None) == exact
            if not exact:
                assert claim["margin"] == claim["bound"] / claim["value"] >= 1
        assert entry["message"] == by_name[entry["name"]].message


def test_rate_doublings_beyond_the_float_range_exit_one_naming_n(tmp_path, capsys):
    for argv, n in ((("ladder", "--n=2000"), 2000), (("fig1", "--n=5000", "--grid", "4"), 5000)):
        assert run(tmp_path, *argv) == 1
        err = capsys.readouterr().err
        assert err == ("error: EvaluationOverflowError: evaluation overflow: "
                       f"2^n is beyond the float range at n = {n}\n")
    assert not list(tmp_path.iterdir())


FLOAT_OVERFLOWS = [
    (("ladder", "--a-tilde=700"), "cosh(2^(n+1) a_tilde) is beyond the float range at n = 0"),
    (("bridge", "--n=11,12"), "a_n = cosh(2^n a_tilde) is beyond the float range at n = 11"),
    (("bridge", "--a-tilde=1e300"), "a_n = cosh(2^n a_tilde) is beyond the float range at n = 0"),
    (("bridge", "--j0=-2000"),
     "xi = cosh(b 2^(-sign J0)) is beyond the float range at J0 = -2000.0"),
    (("bridge", "--s=800"), "q = e^s is beyond the float range at s = 800.0"),
    (("bridge", "--s=300", "--a-tilde=50"),
     "phi_n = q^(-Gamma(a_n)) is beyond the float range at n = 3, s = 300.0"),
    (("gamma", "--b=1e300"), "cosh(b) is beyond the float range at b = 1e+300"),
    (("closure", "--s=2000"), "sinh(s) is beyond the float range at s = 2000.0"),
    (("closure", "--s=1100"), "sinh(s) is beyond the float range at s = 1100.0"),
    (("closure", "--s=-2000"), "sinh(s) is beyond the float range at s = -2000.0"),
    (("general-closure", "--j0=1/2*T^1 + 1/2*T^-1", "--j=1/2 + 1/2*T^-1", "--s=2000"),
     "2^s is beyond the float range at s = 2000.0"),
    (("general-closure", "--j0=1/2*T^1 + 1/2*T^-1", "--j=1/2 + 1/2*T^-1", "--s=-2000"),
     "2^-s is beyond the float range at s = -2000.0"),
]


@pytest.mark.parametrize("argv, named", FLOAT_OVERFLOWS,
                         ids=[" ".join(a) for a, _ in FLOAT_OVERFLOWS])
def test_float_overflows_exit_one_naming_the_error_and_the_quantity(tmp_path, capsys, argv,
                                                                     named):
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: EvaluationOverflowError: evaluation overflow: ")
    assert named in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [[-1], [0, 2], [0, 0, 1]])
def test_bridge_steps_that_are_not_consecutive_are_usage_errors(tmp_path, capsys, bad):
    text = ",".join(map(str, bad))
    assert run(tmp_path, "bridge", f"--n={text}") == 2
    err = capsys.readouterr().err
    assert f"invalid value for --n: expected at least two consecutive indices, got {bad}" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": bad}))
    assert run(tmp_path, "bridge", "--config", str(cfg)) == 2
    assert "(offending flag: --n)" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
    assert run(tmp_path, "bridge", "--n=3,1,2") == 0


def test_window_flag_round_trips(tmp_path):
    # a leading minus needs the = form, as usual for argparse-style flags
    assert run(tmp_path, "cascade", "--window=-2,3", "--resolution", "6") == 0
    manifest = load_manifest(tmp_path, "cascade")
    assert manifest["config"]["window"] == [-2, 3]


def test_dilation_convention_is_no_longer_an_option(tmp_path, capsys):
    for sub in ("cascade", "wavelet"):
        assert run(tmp_path, sub, "--dilation-convention", "one") == 2
        assert "--dilation-convention" in capsys.readouterr().err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dilation_convention": "one"}))
        assert run(tmp_path, sub, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "dilation_convention" in err and "(offending flag: --config)" in err
    assert not list(tmp_path.glob("*.manifest.json"))


NON_FINITE = [
    ("spectrum", "--a0", "nan"),
    ("spectrum", "--a0", "-inf"),
    ("ladder", "--a-tilde", "nan"),
    ("closure", "--s", "nan"),
    ("closure", "--alpha", "inf"),
    ("gamma", "--b", "inf"),
    ("bridge", "--j0", "0,nan"),
    ("fig2", "--s-values", "0.5,inf"),
]


@pytest.mark.parametrize("sub, flag, value", NON_FINITE,
                         ids=[f"{sub}{flag}={v}" for sub, flag, v in NON_FINITE])
def test_non_finite_float_flag_is_usage_error_naming_the_flag(tmp_path, capsys, sub, flag, value):
    assert run(tmp_path, sub, f"{flag}={value}") == 2
    err = capsys.readouterr().err
    assert f"invalid value for {flag}: expected a finite number" in err
    assert f"(offending flag: {flag})" in err
    assert not list(tmp_path.iterdir())


def test_non_finite_config_value_is_usage_error_naming_the_flag(tmp_path, capsys):
    # JSON as Python writes and reads it may hold NaN and Infinity; strings go the same way
    for value, sub, flag in ((float("nan"), "spectrum", "--a0"), ("inf", "spectrum", "--a0"),
                             ([0.0, float("-inf")], "bridge", "--j0")):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({flag[2:]: value}))
        assert run(tmp_path, sub, "--config", str(cfg)) == 2
        assert f"(offending flag: {flag})" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["cascade", "wavelet", "limit", "fig2"])
def test_negative_resolution_is_usage_error_naming_the_flag(tmp_path, capsys, sub):
    assert run(tmp_path, sub, "--resolution", "-1") == 2
    err = capsys.readouterr().err
    assert "invalid value for --resolution: expected a nonnegative integer, got -1" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"resolution": -3}))
    assert run(tmp_path, sub, "--config", str(cfg)) == 2
    assert "(offending flag: --resolution)" in capsys.readouterr().err
    assert run(tmp_path, sub, "--resolution", "0") == 0  # one sample per unit is a valid lattice


def test_mode_order_below_one_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "ladder", "--modes", "2,0") == 2
    assert "--modes" in capsys.readouterr().err


INT_BOUNDS = [  # (subcommand, flag, refused value, smallest valid value, arguments for a quick run)
    ("cascade", "--iters", -1, 0, ()),
    ("solve-b", "--window", 0, 1, ("--c", "1 + T^-1")),
    ("prop1", "--window", 3, 4, ()),
    ("fig1", "--grid", 1, 2, ()),
    ("fig1", "--n", [2, -1], [0], ("--grid", "8")),
    ("gamma", "--points", 1, 2, ()),
    ("spectrum", "--n", -1, 0, ()),
    ("fig2", "--n", 0, 1, ("--s-values", "0.5,1", "--resolution", "3")),
    ("limit", "--n", [4, 0], [1], ("--resolution", "6")),
]


def _flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("sub, flag, bad, good, extra", INT_BOUNDS,
                         ids=[f"{sub}{flag}" for sub, flag, *_ in INT_BOUNDS])
def test_integer_below_its_bound_is_usage_error_naming_the_flag(tmp_path, capsys, sub, flag,
                                                                 bad, good, extra):
    low = min(bad) if isinstance(bad, list) else bad
    assert run(tmp_path, sub, *extra, f"{flag}={_flag_text(bad)}") == 2
    err = capsys.readouterr().err
    assert f"invalid value for {flag}: expected " in err
    assert f", got {low} (offending flag: {flag})" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag[2:]: bad}))
    assert run(tmp_path, sub, *extra, "--config", str(cfg)) == 2
    assert f"(offending flag: {flag})" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
    assert run(tmp_path, sub, *extra, f"{flag}={_flag_text(good)}") == 0
    cfg.write_text(json.dumps({flag[2:]: good}))
    assert run(tmp_path, sub, *extra, "--config", str(cfg)) == 0


def test_programming_error_propagates_instead_of_exit_one(tmp_path, monkeypatch):
    import waveq.cli as cli

    def broken(params):
        raise TypeError("a bug, not a computation error")

    blurb, opts, _ = cli._SUBCOMMANDS["closure"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "closure", (blurb, opts, broken))
    with pytest.raises(TypeError):
        run(tmp_path, "closure")


def test_oversized_deformed_word_exits_one_naming_the_error(tmp_path, capsys, monkeypatch):
    import waveq.scaling as scaling

    def no_word(s):
        raise AssertionError("the word was built")

    monkeypatch.setattr(scaling, "w_minus", no_word)
    assert run(tmp_path, "fig2", "--n", "40") == 1
    assert "WordTooLargeError" in capsys.readouterr().err
    assert not (tmp_path / "fig2.csv").exists()


def test_oversized_lattice_exits_one_naming_the_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert dispatch(["cascade", "--resolution", "40", "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: GridTooLargeError: ")
    assert not out.exists()


def test_half_map_runs_from_a_large_negative_start(tmp_path):
    assert run(tmp_path, "spectrum", "--map", "half", "--a0=-1e8") == 0


def test_gamma_writes_the_report_rows_and_keeps_them_out_of_the_manifest(tmp_path):
    from waveq.funceq import GammaMap, gamma_ladder_report

    assert run(tmp_path, "gamma", "--points", "20") == 0
    lines = (tmp_path / "gamma.csv").read_text().splitlines()
    rows = gamma_ladder_report(GammaMap(), 20)["rows"]
    assert lines[0] == "xi,gamma,gamma_after_step,step_error"
    assert [[float(v) for v in ln.split(",")] for ln in lines[1:]] == rows
    results = load_manifest(tmp_path, "gamma")["results"]
    assert "rows" not in results and results["points"] == 20


def test_non_finite_csv_cell_exits_one_naming_the_column_and_writes_nothing(tmp_path, capsys):
    assert run(tmp_path, "gamma", "--hi=1e300") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NonFiniteOutputError: CSV column gamma_after_step is ")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_non_finite_manifest_value_exits_one_naming_the_key_and_writes_nothing(tmp_path, capsys):
    def spectrum(p):
        return cli.RunResult("a\n", {"trace": {"last": [1.0, float("nan")]}}, "done")

    blurb, opts, _ = cli._SUBCOMMANDS["spectrum"]
    with mock.patch.dict(cli._SUBCOMMANDS, {"spectrum": (blurb, opts, spectrum)}):
        assert run(tmp_path, "spectrum") == 1
    assert capsys.readouterr().err == (
        "error: NonFiniteOutputError: manifest value results.trace.last[1] is nan\n")
    assert not list(tmp_path.iterdir())
    assert issubclass(cli.NonFiniteOutputError, ValueError)
    with pytest.raises(cli.NonFiniteOutputError, match=r"results\[0\] is -inf"):
        cli._jsonable([complex(1.0, float("-inf"))], "results")


def test_non_finite_grid_sample_exits_one_naming_the_column_and_writes_nothing(tmp_path, capsys,
                                                                                 monkeypatch):
    def cascade(*args):
        res = scaling.cascade(*args)
        res.phi.values[3] = float("nan")
        return res

    monkeypatch.setattr(cli, "cascade", cascade)
    assert run(tmp_path, "cascade") == 1
    assert capsys.readouterr().err == "error: NonFiniteOutputError: CSV column re is nan\n"
    assert not list(tmp_path.iterdir())


def test_trace_and_fig1_columns_are_checked_for_non_finite_cells(tmp_path, capsys, monkeypatch):
    trace = cli.iterate_spectrum(0.5, n=3)
    trace = dataclasses.replace(trace, values=(*trace.values[:-1], (3, -math.inf)))
    monkeypatch.setattr(cli, "iterate_spectrum", lambda *a, **k: trace)
    rows = [(0.0, 2, 1.0), (1.0, 2, math.inf)]
    monkeypatch.setattr(cli, "fig1_report", lambda *a: {"rows": rows, "zero_crossings": {}})
    for sub, column in (("spectrum", "a_n is -inf"), ("fig1", "a_n is inf")):
        assert run(tmp_path, sub) == 1
        assert capsys.readouterr().err == f"error: NonFiniteOutputError: CSV column {column}\n"
    assert not list(tmp_path.iterdir())
    with pytest.raises(cli.NonFiniteOutputError, match="^CSV column im is inf$"):
        cli._grid_csv(gridfn.GridFunction(0, (0, 2), [1.0, complex(0.0, math.inf)]))


# -- the one CSV writer ----------------------------------------------------------------


def test_each_cell_is_written_by_one_rule_whatever_its_column_holds():
    rows = [(1, -0.0, "info-0", -0.0), (2, 1 / 3, "nan", 7)]  # the last column mixes kinds
    assert cli._csv("n,v,name,mixed", rows) == (
        "n,v,name,mixed\n1,0,info-0,0\n2,0.33333333333333331,nan,7\n")
    assert cli._csv("a,b", []) == "a,b\n"
    for rows, refused in (([(1.0, 2.0), (math.inf, 3.0)], "a is inf"),
                          ([(1.0, "s"), (-math.inf, math.nan)], "a is -inf"),
                          ([("s", 1.0), ("t", 2)], None), ([(0, "s"), (math.nan, "t")], "a is nan")):
        if refused is None:
            assert cli._csv("a,b", rows) == "a,b\ns,1\nt,2\n"
            continue
        with pytest.raises(cli.NonFiniteOutputError, match=f"^CSV column {refused}$"):
            cli._csv("a,b", rows)


def test_csv_shape_and_roundtrip():
    text = cli._grid_csv(GridFunction(2, (0, 1), [0.0, 1.0, 2.0, 1.0]))
    lines = text.splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 1 + 4
    x, re, im = lines[2].split(",")
    assert float(x) == 0.25 and float(re) == 1.0 and float(im) == 0.0


def test_csv_17_digit_fidelity():
    vals = [1 / 3 + 1e-17j, math.pi, -2.7182818284590452]
    for line, v in zip(cli._grid_csv(GridFunction(0, (0, 3), vals)).splitlines()[1:], vals):
        _, re, im = line.split(",")
        assert float(re) == complex(v).real
        assert float(im) == complex(v).imag


def _written(g: GridFunction) -> str:
    """The grid's CSV text, or the message that refuses it."""
    try:
        return cli._grid_csv(g)
    except cli.NonFiniteOutputError as exc:
        return f"refused: {exc}"


def cell_by_cell_csv(g: GridFunction) -> str:
    """The grid CSV written one numpy scalar at a time, or the first inf or nan by column."""
    columns = {"x": g.x_points(), "re": g.values.real, "im": g.values.imag}
    for name, col in columns.items():
        bad = [v for v in col if not math.isfinite(v)]
        if bad:
            return f"refused: CSV column {name} is {float(bad[0])!r}"
    rows = (",".join(f"{v + 0.0:.17g}" for v in row) for row in zip(*columns.values()))
    return "".join(f"{line}\n" for line in ["x,re,im", *rows])


EDGE_FLOATS = [-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308,
               1e-300, -1e300, 1.7976931348623157e308]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    resolution=st.integers(0, 3),
    lo=st.integers(-3, 3),
    parts=st.lists(st.floats() | st.sampled_from(EDGE_FLOATS) | st.floats(1e299, 1e301)
                   | st.floats(-1e-299, -1e-301), min_size=16, max_size=16),
)
@example(resolution=3, lo=-1, parts=EDGE_FLOATS + EDGE_FLOATS[::-1][:6])
@example(resolution=3, lo=-1, parts=[-0.0, 1.0] * 8)
def test_grid_csv_writes_each_finite_cell_at_17_digits_and_refuses_the_rest(resolution, lo, parts):
    n = 1 << resolution
    g = GridFunction(resolution, (lo, lo + 1),
                     [complex(parts[2 * i % 16], parts[(2 * i + 1) % 16]) for i in range(n)])
    assert _written(g) == cell_by_cell_csv(g)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=real_case())
@example(case=(OpExpr.identity() - OpExpr.translation(-1),
               GridFunction(0, (0, 4), [math.inf, -0.0, 5e-324, -math.inf]),
               GridFunction(0, (0, 4), [-0.0, 1.0, -5e-324, 2.0]), 0, (-1, 5)))
def test_a_real_grid_and_its_complex_copy_write_the_same_csv(case):
    """A real grid's im column is zeros, a complex copy's is +0.0 where the value is finite."""
    op, src, other, res_out, window = case
    src_c, other_c = (GridFunction(g.resolution, g.window, g.values.astype(complex))
                      for g in (src, other))
    got, got_c = (apply_op_grid(op, g, out_resolution=res_out, out_window=window)
                  for g in (src, src_c))
    for real, cplx in ((src, src_c), (other, other_c), (got, got_c)):
        assert _written(real) == _written(cplx)


def test_trace_csv_roundtrip(tmp_path):
    assert run(tmp_path, "spectrum", "--a0", "0.3", "--n", "4") == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,a_n"
    assert len(lines) == 6
    for line, (n, a_n) in zip(lines[1:], iterate_spectrum(0.3, n=4).values):
        ns, vs = line.split(",")
        assert int(ns) == n
        assert float(vs) == a_n


def test_fig1_csv_header_and_digits(tmp_path):
    assert run(tmp_path, "fig1", "--n", "2", "--grid", "3") == 0
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert lines[0] == "a0,n,a_n"
    a0, n, a_n = lines[2].split(",")
    assert float(a0) == 0.5
    assert int(n) == 2
    assert float(a_n) == haar_closed_form(0.5, 2)


def test_a_negative_zero_start_is_written_as_zero(tmp_path):
    assert run(tmp_path, "spectrum", "--a0=-0.0") == 0
    assert (tmp_path / "spectrum.csv").read_text().splitlines()[1] == "0,0"


@pytest.mark.parametrize("argv, flag", [
    (("gamma", "--b=1e-9"), "--b"),
    (("gamma", "--b=-1.4901161193847656e-08"), "--b"),
    (("bridge", "--a-tilde=1e-300"), "--a-tilde"),
    (("bridge", "--a-tilde=1e-9", "--b=1"), "--a-tilde"),
    (("bridge", "--n=-30,-29"), "--n"),
])
def test_cosh_that_rounds_to_one_is_a_usage_error_naming_the_flag(tmp_path, capsys, argv, flag):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "rounds to 1.0" in err and "2^-26 (about 1.49e-08)" in err
    assert f"(offending flag: {flag})" in err
    assert not list(tmp_path.iterdir())


DOMAIN_REFUSALS = [  # (arguments, the flag whose domain the value leaves, the message)
    (("gamma", "--b=-1"), "--b", "invalid value for --b: expected a positive number, got -1.0"),
    (("gamma", "--lo=0"), "--lo", "invalid value for --lo: expected a number > 1, got 0.0"),
    (("closure", "--s=0"), "--s", "invalid value for --s: expected a nonzero number, got 0.0"),
    (("bridge", "--s=0"), "--s", "invalid value for --s: expected a nonzero number, got 0.0"),
    (("ladder", "--a-tilde=0"), "--a-tilde",
     "invalid value for --a-tilde: expected a nonzero number, got 0.0"),
    # conditions on two flags
    (("gamma", "--lo=2000"), "--hi", "--hi must exceed --lo, got --lo=2000.0, --hi=1000.0"),
    (("gamma", "--lo=5", "--hi=5"), "--hi", "--hi must exceed --lo, got --lo=5.0, --hi=5.0"),
    (("bridge", "--a-tilde=-1"), "--a-tilde",
     "the relabeling scale b must be positive, got --a-tilde=-1.0"),
    (("bridge", "--b=-0.0"), "--b", "the relabeling scale b must be positive, got --b=-0.0"),
    # symbols outside the solver's domain
    (("solve-b", "--c=0"), "--c", "invalid value for --c: mask must not vanish at T = 1"),
    (("solve-b", "--c=1 + T^1/16"), "--c", "invalid value for --c: mask exponents must be "
     "dyadic with denominator at most 8, got Exponent[1/2^4]"),
    (("casimir", "--r=1 + T^1"), "--r",
     "invalid value for --r: the right-hand side must have zero constant term"),
    (("casimir", "--r=T^1"), "--r", "invalid value for --r: inconsistent chain: exponents [1.0] "
     "sum to (1+0j), so no finitely supported solution exists"),
]


@pytest.mark.parametrize("argv, flag, message", DOMAIN_REFUSALS,
                         ids=[" ".join(argv) for argv, *_ in DOMAIN_REFUSALS])
def test_value_outside_the_flag_domain_is_a_usage_error_naming_the_flag(tmp_path, capsys, argv,
                                                                        flag, message):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert f"error: {message} (offending flag: {flag})" in err
    assert not list(tmp_path.iterdir())


def test_cosh_just_above_one_still_runs(tmp_path):
    assert run(tmp_path, "gamma", "--b=1e-7") == 0
    assert run(tmp_path, "gamma", "--b=1.490116119384766e-08") == 0
    # bridge evaluates Gamma at cosh(2^n a_tilde), not at cosh(b): a tiny --b runs
    assert run(tmp_path, "bridge", "--b=1e-9") == 0


def test_an_explicit_b_overrides_the_sign_of_a_tilde(tmp_path):
    assert run(tmp_path, "bridge", "--a-tilde=-1", "--b=2") == 0


EDGE_VALUES = ["0", "-0.0", "-1", "1e-300", "1e-9", "1.5", "700", "1e300", "-1e300"]
# sizes 40 and 64 are refused up front where they would allocate (GridTooLargeError)
INT_EDGE_VALUES = ["0", "1", "2", "-1", "40", "64", "1e3", "2.5", ""]
SYMBOL_EDGE_VALUES = ["0", "T^1/3", "T^1e300", "nan*T", "1/0", "T^^1", "(1+T)", "T^²", "1e400",
                      "T^1e400", "T^" + "1" * 5000]

FLOAT_FLAGS = [  # every float flag of every subcommand but fig2 and check
    ("spectrum", "--a0"), ("ladder", "--a-tilde"), ("closure", "--s"), ("closure", "--alpha"),
    ("general-closure", "--s"), ("casimir", "--a-tilde"), ("gamma", "--b"), ("gamma", "--lo"),
    ("gamma", "--hi"), ("bridge", "--s"), ("bridge", "--a-tilde"), ("bridge", "--b"),
    ("bridge", "--j0"),
]

INT_FLAGS = [  # every integer flag of every subcommand but fig2 and check
    ("cascade", "--iters"), ("cascade", "--resolution"), ("cascade", "--window"),
    ("wavelet", "--resolution"), ("limit", "--n"), ("limit", "--resolution"), ("limit", "--window"),
    ("spectrum", "--n"), ("ladder", "--n"), ("ladder", "--modes"), ("solve-b", "--window"),
    ("casimir", "--n"), ("prop1", "--window"), ("gamma", "--points"), ("bridge", "--n"),
    ("fig1", "--n"), ("fig1", "--grid"),
]

SYMBOL_FLAGS = [("general-closure", "--j0"), ("general-closure", "--j"), ("solve-b", "--c"),
                ("casimir", "--r")]

EDGE_SWEEP = [*((sub, flag, EDGE_VALUES) for sub, flag in FLOAT_FLAGS),
              *((sub, flag, INT_EDGE_VALUES) for sub, flag in INT_FLAGS),
              *((sub, flag, SYMBOL_EDGE_VALUES) for sub, flag in SYMBOL_FLAGS)]

SYMBOLS = {"general-closure": ("--j0=1/2*T^1 + 1/2*T^-1", "--j=1/2 + 1/2*T^-1"),
           "solve-b": ("--c=1 + T^-1",)}

WAVEQ_ERRORS = {name for module in (cli, laurent, gridfn, scaling, funceq)
                for name, obj in vars(module).items()
                if isinstance(obj, type) and issubclass(obj, Exception)
                and not issubclass(obj, Warning) and obj.__module__.startswith("waveq.")}


def _finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return True  # not a number: a name or a flag


@pytest.mark.parametrize("sub, flag, values", EDGE_SWEEP, ids=[f"{s}{f}" for s, f, _ in EDGE_SWEEP])
def test_edge_values_exit_with_a_code_that_tells_the_truth(tmp_path, capsys, sub, flag, values):
    for i, value in enumerate(values):
        out = tmp_path / str(i)
        code = dispatch([sub, *SYMBOLS.get(sub, ()), f"{flag}={value}", "--output", str(out)])
        err, where = capsys.readouterr().err, f"{sub} {flag}={value}"
        if code == 0:
            cells = (out / f"{sub}.csv").read_text().replace("\n", ",").split(",")
            assert all(map(_finite_number, cells)), where
            json.loads((out / f"{sub}.manifest.json").read_text(),
                       parse_constant=lambda c: pytest.fail(f"{where}: manifest holds {c}"))
            continue
        assert not out.exists(), where
        if code == 2:
            assert re.search(r"\(offending flag: --[a-z0-9-]+\)", err), (where, err)
        else:
            assert code == 1, where
            assert (m := re.match(r"error: (\w+): ", err)) and m[1] in WAVEQ_ERRORS, (where, err)


@pytest.mark.parametrize("argv", [
    ["solve-b", "--c=1e400 + T^-1"],
    ["general-closure", "--j0=1/2*T^1e400 + 1/2*T^-1", "--j=1/2 + 1/2*T^-1"],
], ids=["solve-b", "general-closure"])
def test_a_literal_beyond_the_float_range_is_refused_at_its_position(tmp_path, capsys, argv):
    # read as inf, the first died on a bare ValueError and the second reported residual 0
    assert dispatch([*argv, "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "number beyond the float range (position " in err
    assert f"(offending flag: {argv[1].split('=')[0]})" in err
    assert not (tmp_path / "out").exists()


NUMPY_FREE = [  # the subcommands whose work is exact algebra or scalar math
    ["spectrum"], ["ladder"], ["closure"], ["general-closure", *SYMBOLS["general-closure"]],
    ["solve-b", "--c=1 + T^-1"], ["casimir"], ["gamma"], ["bridge"], ["fig1"],
]

NUMPY_FREE_SCRIPT = """
import sys
out = sys.argv[1]
import waveq, waveq.cli
assert "numpy" not in sys.modules, "import waveq"
from waveq import AlgebraParams, check_closure, parse_laurent, verify_general_closure
from waveq.qdeform import w_minus
(2.0 * w_minus(0.6)) ** 9
waveq.ExpSum.constant().eval(0.5)
check_closure(AlgebraParams(0.6, 1.3))
verify_general_closure(parse_laurent("1/2*T^1 + 1/2*T^-1"), parse_laurent("1/2 + 1/2*T^-1"), 0.5)
assert "numpy" not in sys.modules, "the L1 algebra"
for argv in %r:
    assert waveq.cli.dispatch([*argv, "--output", out]) == 0
    assert "numpy" not in sys.modules, argv[0]
assert waveq.cli.dispatch(["cascade", "--output", out]) == 0
assert "numpy" in sys.modules, "cascade"
"""


def test_the_algebra_and_nine_subcommands_run_without_numpy(tmp_path):
    # this process holds numpy already (the pytest warning filter names it), so ask a fresh one
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT % (NUMPY_FREE,), str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    csv = hashlib.sha256((tmp_path / "cascade.csv").read_bytes()).hexdigest()
    assert csv == GOLDEN[("cascade",)][0]  # the first sample loads numpy and keeps the bytes


def _files(out: pathlib.Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_a_rewrite_leaves_the_bytes_a_fresh_directory_gets(tmp_path):
    shared = tmp_path / "shared"
    # a first write, an identical rewrite, a shorter one and a longer one
    for i, points in enumerate(["100", "100", "10", "1000"]):
        assert run(tmp_path / f"fresh{i}", "gamma", "--points", points) == 0
        assert run(shared, "gamma", "--points", points) == 0
        assert _files(shared) == _files(tmp_path / f"fresh{i}")
        if points == "10":
            assert len(_files(shared)["gamma.csv"].splitlines()) == 11


@pytest.mark.parametrize("argv, code", [(("gamma", "--lo=2000"), 2), (("gamma", "--hi=1e300"), 1)])
def test_a_refused_run_leaves_earlier_outputs_unchanged(tmp_path, capsys, argv, code):
    assert run(tmp_path, "gamma") == 0
    before = _files(tmp_path)
    assert run(tmp_path, *argv) == code
    assert _files(tmp_path) == before


def test_outputs_are_written_over_the_old_file_never_opened_with_o_trunc(tmp_path, monkeypatch):
    opened, os_open = [], os.open

    def recording_open(path, flags, *args):
        opened.append((os.path.basename(path), flags))
        return os_open(path, flags, *args)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):  # the second pass writes over existing files
        assert run(tmp_path, "gamma") == 0
    assert [name for name, _ in opened] == 2 * ["gamma.csv", "gamma.manifest.json"]
    assert not any(flags & os.O_TRUNC for _, flags in opened)
