"""End-to-end tests of the command-line front end via dispatch()."""

import json

import pytest

from waveq.acceptance import CHECKS
from waveq.cli import dispatch


def run(tmp_path, *argv):
    code = dispatch([*argv, "--output", str(tmp_path)])
    return code


def load_manifest(tmp_path, sub):
    with open(tmp_path / f"{sub}.manifest.json") as fh:
        return json.load(fh)


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
        "dilation_convention": "one",
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


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["bogus"]) == 2
    assert "usage:" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert dispatch([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "general-closure", "--j", "1/2 + 1/2*T^-1") == 2
    assert "--j0" in capsys.readouterr().err


def test_unparseable_symbol_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "solve-b", "--c", "2T") == 2
    assert "--c" in capsys.readouterr().err


def test_no_solution_exits_one(tmp_path, capsys):
    assert run(tmp_path, "solve-b", "--c", "1 + T^-4", "--window", "3") == 1
    assert "no solution" in capsys.readouterr().err


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


def test_window_flag_round_trips(tmp_path):
    # a leading minus needs the = form, as usual for argparse-style flags
    assert run(tmp_path, "cascade", "--window=-2,3", "--resolution", "6") == 0
    manifest = load_manifest(tmp_path, "cascade")
    assert manifest["config"]["window"] == [-2, 3]


def test_mode_order_below_one_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "ladder", "--modes", "2,0") == 2
    assert "--modes" in capsys.readouterr().err


def test_programming_error_propagates_instead_of_exit_one(tmp_path, monkeypatch):
    import waveq.cli as cli

    def broken(params):
        raise TypeError("a bug, not a computation error")

    monkeypatch.setitem(cli._RUNNERS, "closure", broken)
    with pytest.raises(TypeError):
        run(tmp_path, "closure")
