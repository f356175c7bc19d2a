import json
import math
import subprocess
import sys
from fractions import Fraction as F

import pytest

from mbeval import catalog as cat
from mbeval.result import EvalResult
from mbeval import cli
from mbeval.symcore import LinearForm

L = LinearForm


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "mbeval.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def test_linform_string_round_trip():
    for text, form in [
        ("k+1", L({"k": 1}, 1)),
        ("2*k-3/2", L({"k": 2}, F(-3, 2))),
        ("-z1+1/2", L({"z1": -1}, F(1, 2))),
        ("5", L.constant(5)),
    ]:
        assert cli.linform_from_string(text) == form
        assert cli.linform_from_string(repr(form)) == form


def test_mb_json_round_trip_h1():
    mb = cat.h1_mb()
    doc = cli.mb_to_json(mb)
    mb2 = cli.mb_from_json(doc)
    assert mb2.prefactor == mb.prefactor
    assert sorted(map(repr, mb2.canonical_gammas())) \
        == sorted(map(repr, mb.canonical_gammas()))
    assert json.dumps(cli.mb_to_json(mb2)) == json.dumps(doc)


def test_cli_ising_value_and_schema():
    code, out, err = run_cli("ising", "--n", "4", "--k", "1",
                             "--method", "contour", "--tol", "1e-8")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["entry"] == "ising"
    assert doc["results"][0]["value"] == pytest.approx(0.701199860176430, abs=1e-8)
    assert doc["results"][0]["abs_err_est"] <= 1e-8
    assert "runtime_ms" not in doc["results"][0]


def test_cli_box_closed():
    code, out, _ = run_cli("box", "--n", "1", "--s", "1", "--method", "closed")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["value"] == 0.5


def test_cli_byte_identical_reruns():
    args = ("box", "--n", "2", "--s", "1", "--method", "oracle",
            "--tol", "1e-5", "--seed", "7")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_cli_timings_flag_adds_runtime():
    code, out, _ = run_cli("box", "--n", "1", "--s", "1",
                           "--method", "closed", "--timings")
    doc = json.loads(out)
    assert "runtime_ms" in doc["results"][0]


def test_cli_usage_error_exit_64():
    code, out, err = run_cli("nonsense-subcommand")
    assert code == 64


def test_cli_eval_error_exit_1():
    code, out, err = run_cli("box", "--n", "1", "--s", "-1",
                             "--method", "closed")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "PoleError"


def test_cli_mb_file_h1(tmp_path):
    doc = cli.mb_to_json(cat.h1_mb())
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("mb", "--file", str(path),
                             "--param", "a=1", "--param", "b=1",
                             "--method", "contour", "--tol", "1e-9")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["value"] == pytest.approx(math.pi ** 2 / 4, abs=1e-8)


def test_cli_mb_schema_from_spec_text(tmp_path):
    # hand-written document following the wire schema
    doc = {
        "schema": 1, "dim": 1,
        "prefactor": {"rational": "1", "gammas": []},
        "num": [{"coeffs": {"z": "-1"}, "const": "0", "mult": 1},
                {"coeffs": {"z": "1"}, "const": "1", "mult": 1}],
        "den": [],
        "powers": [{"param": "x", "coeffs": {"z": "1"}, "const": "0"}],
        "free_params": ["x"],
    }
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("mb", "--file", str(path), "--param", "x=1/2",
                           "--method", "series", "--tol", "1e-10")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["value"] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "mbeval.cfg"
    cfg.write_text("tol=1e-5\nseed=3\n")
    code, out, _ = run_cli("box", "--n", "2", "--s", "1",
                           "--method", "oracle", "--config", str(cfg))
    assert code == 0


def test_verify_suite_subset():
    rc = cli.dispatch(["verify", "--suite", "jellium", "--tol", "1e-8"])
    assert rc == 0


def test_verify_pairwise_gate_detects_disagreement():
    ok, deltas = cli._pairwise_pass([
        ("a", EvalResult(1.0, 1e-10, "x", {})),
        ("b", EvalResult(1.1, 1e-10, "y", {})),
    ])
    assert not ok
    ok, _ = cli._pairwise_pass([
        ("a", EvalResult(1.0, 1e-10, "x", {})),
        ("b", EvalResult(1.0 + 1e-11, 1e-10, "y", {})),
    ])
    assert ok


@pytest.mark.parametrize("line", ["max_jet_order=4", "contour_node_budget=60000000",
                                  "tol"])
def test_cli_config_sets_only_tol_and_seed(tmp_path, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"# defaults\n\ntol=1e-6\n{line}\nseed=1\n")
    _assert_usage_error(*run_cli("jellium", "--n", "3", "--method", "closed",
                                 "--config", str(cfg)), repr(line))


def test_config_file_leaves_no_state_behind(tmp_path, capsys):
    # a config file applies to its own call only: a later call without it
    # evaluates exactly as an earlier one did
    c5 = ["c5", "--k", "1", "--alpha", "1/25", "--beta", "1/25", "--method", "series"]
    assert cli.dispatch(c5) == 0
    first = capsys.readouterr().out
    cfg = tmp_path / "cfg"
    cfg.write_text("max_jet_order=1\n")
    assert cli.dispatch(["jellium", "--n", "3", "--method", "closed",
                         "--config", str(cfg)]) == 64
    capsys.readouterr()
    assert cli.dispatch(c5) == 0
    assert capsys.readouterr().out == first


def test_cli_report_that_fails_its_tol_exits_two():
    # the Delta_4 relation takes a QMC estimate above this tol (cube_integral
    # returns it without raising); the report says "pass": false and so must
    # the exit code, with stdout unchanged
    code, out, _ = run_cli("delta", "--n", "4", "--s", "1", "--tol", "2e-5")
    assert code == 2
    assert out == ('{"schema":1,"entry":"delta","params":{"n":4,"s":1.0},"results":'
                   '[{"method":"relation","value":0.777639392069062,'
                   '"abs_err_est":0.000384}],"pass":false}\n')
    assert json.loads(out)["pass"] is False


def _dispatch_report(argv, capsys):
    rc = cli.dispatch(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)["results"][0]


def test_config_tol_yields_to_the_tol_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("tol=1e-3\n")
    base = ["ising", "--n", "3", "--k", "1", "--method", "contour"]
    for flag in (["--tol", "1e-12"], ["--tol=1e-12"]):
        rc, res = _dispatch_report(base + flag + ["--config", str(cfg)], capsys)
        assert rc == 0 and res["abs_err_est"] <= 1e-12
    # without the flag the config file's tol applies
    rc, res = _dispatch_report(base + ["--config", str(cfg)], capsys)
    assert rc == 0 and 1e-12 < res["abs_err_est"] <= 1e-3


def _assert_usage_error(code, out, err, needle):
    assert code == 64
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error:") and needle in err


def test_cli_missing_files_exit_64(tmp_path):
    missing = str(tmp_path / "absent.json")
    _assert_usage_error(*run_cli("mb", "--file", missing), "absent.json")
    _assert_usage_error(*run_cli("box", "--n", "1", "--s", "1", "--method", "closed",
                                 "--config", missing), "absent.json")


def test_cli_malformed_json_exit_64(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1, "dim": ')
    _assert_usage_error(*run_cli("mb", "--file", str(path)), "malformed JSON")


def test_cli_non_rational_coefficient_exit_64(tmp_path):
    doc = cli.mb_to_json(cat.h1_mb())
    doc["num"][0]["coeffs"] = {"z": "abc"}
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(doc))
    _assert_usage_error(*run_cli("mb", "--file", str(path), "--param", "a=1",
                                 "--param", "b=1"), "'abc'")


def test_cli_bad_config_value_and_number_exit_64(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("tol=small\n")
    _assert_usage_error(*run_cli("box", "--n", "1", "--s", "1", "--method", "closed",
                                 "--config", str(cfg)), "'small'")
    _assert_usage_error(*run_cli("box", "--n", "1", "--s", "x/2"), "'x/2'")


@pytest.mark.parametrize("argv, needle", [
    (("box", "--n", "0", "--s", "1"), "n >= 1"),
    (("delta", "--n", "7", "--s", "1"), "n = 1..5"),
    (("jellium", "--n", "2"), "n >= 3"),
    (("ising", "--n", "7", "--k", "1"), "1 <= n <= 5"),
    (("ising-param", "--n", "5", "--k", "1", "--exponents", "1,1,1,1,1"), "n = 3, 4"),
    (("ising-param", "--n", "3", "--k", "1", "--exponents", "1/2,1/3"), "3 exponents"),
    (("ruby", "--l", "0", "--d", "3", "--a", "1,1", "--R", "1"), "radii"),
    (("c5", "--k", "-1", "--alpha", "1/25", "--beta", "1/25", "--method", "series"),
     "k >= 0"),
])
def test_cli_out_of_range_arguments_exit_1(argv, needle):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert json.loads(out)["error"] == "DomainError"
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("evaluation error:") and needle in err


def test_dispatch_reuses_one_parser_without_leaking_params(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(cli.mb_to_json(cat.h1_mb())))
    base = ["mb", "--file", str(path), "--method", "contour", "--tol", "1e-6"]
    rc = cli.dispatch(base + ["--param", "a=1", "--param", "b=2"])
    first = json.loads(capsys.readouterr().out)
    rc2 = cli.dispatch(base + ["--param", "b=1", "--param", "a=1"])
    second = json.loads(capsys.readouterr().out)
    assert rc == rc2 == 0
    # a list shared between parses would put a=1, b=2 ahead of b=1, a=1
    assert list(first["params"]["values"].items()) == [("a", 1.0), ("b", 2.0)]
    assert list(second["params"]["values"].items()) == [("b", 1.0), ("a", 1.0)]
    assert second["results"][0]["value"] == pytest.approx(math.pi ** 2 / 4, abs=1e-6)
