import json
from pathlib import Path

import pytest

from vep import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    body = "\n".join(l for l in out.splitlines() if not l.startswith("time:"))
    return code, body


def test_eval_golden(capsys):
    code, body = run_cli(capsys, "eval", "example:paper", "--xi", "0", "--x", "0")
    assert code == 0
    assert "nu: 1" in body and "mu: 0" in body and "merit: 1" in body


def test_eval_solution_point(capsys):
    code, body = run_cli(capsys, "eval", "example:paper", "--xi", "0", "--x", "1")
    assert code == 0
    assert "merit: 0" in body


def test_eval_scaled_excess(capsys):
    code, body = run_cli(capsys, "eval", "example:paper", "--xi", "1", "--x", "0")
    assert code == 0
    assert "nu: 2" in body


def test_eval_with_enlargement(capsys):
    code, body = run_cli(capsys, "eval", "example:paper",
                         "--xi", "0", "--x", "1", "--epsilon", "0.1")
    assert code == 0
    assert "nu: 0.1" in body


def test_eval_json_like_format(capsys):
    code, body = run_cli(capsys, "--format", "json-like",
                         "eval", "example:paper", "--xi", "0", "--x", "0")
    assert code == 0
    payload = json.loads(body)
    assert payload["results"]["nu"] == 1.0
    assert payload["command"] == "eval"


def test_load_error_exit_code(capsys):
    assert cli.main(["eval", "missing.vep", "--xi", "0", "--x", "0"]) == 2
    capsys.readouterr()


def test_precondition_exit_code(capsys):
    code = cli.main(["check-stationarity", "example:paper",
                     "--xi-bar", "0", "--x-bar", "2", "--gamma", "0.5"])
    assert code == 2
    capsys.readouterr()


def test_stationarity_exit_codes(capsys):
    code, body = run_cli(capsys, "check-stationarity", "example:paper",
                         "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.5",
                         "--lambda-grid", "0.5")
    assert code == 0
    assert "stationary-within-tol" in body


def test_refuted_exit_code(capsys, tmp_path):
    text = """
[problem]
p = 1
n = 1
m = 1
window_xi = -2, 2
window_x = -2, 2
asserts = K-concave, nu-convex

[cone]
type = orthant

[K]
type = box
lower = -1
upper = 1

[f]
components = x1 - z1

[objective]
expr = xi1
"""
    path = tmp_path / "drift.vep"
    path.write_text(text)
    code, body = run_cli(capsys, "check-stationarity", str(path),
                         "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.5")
    assert code == 4
    assert "refuted-by-direction" in body


def test_refuted_off_the_solution(capsys):
    code, body = run_cli(capsys, "check-stationarity", "example:paper",
                         "--xi-bar", "0.5", "--x-bar", "1.5", "--gamma", "0.5")
    assert code == 4
    assert "refuted-by-direction" in body


def test_solve_reports_incumbent(capsys):
    code, body = run_cli(capsys, "solve", "example:paper", "--starts", "2")
    assert code == 0
    assert "incumbent_x" in body and "post_check" in body


def test_solve_infeasible_geometric_set(capsys, tmp_path):
    text = """
[problem]
p = 1
n = 1
m = 1
window_xi = -2, 2
window_x = -2, 2

[cone]
type = orthant

[K]
type = box
lower = -1
upper = 1

[f]
components = x1 - z1

[objective]
expr = x1^2

[Omega]
type = box
lower = 5
upper = 6
"""
    path = tmp_path / "far.vep"
    path.write_text(text)
    code, body = run_cli(capsys, "solve", str(path), "--starts", "1")
    assert code == 6
    assert "no-feasible-incumbent" in body


def test_check_subtransversality_command(capsys):
    code, body = run_cli(capsys, "check-subtransversality", "example:paper",
                         "--xi-bar", "0", "--x-bar", "1")
    assert code == 0
    assert "certified-on-samples" in body


def test_probe_stability_command(capsys):
    code, body = run_cli(capsys, "probe-stability", "example:paper",
                         "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.9")
    assert code == 0
    assert "stability" in body


def test_determinism_of_fast_commands(capsys):
    for argv in (
        ["--seed", "7", "eval", "example:paper", "--xi", "0.25", "--x", "-1.5"],
        ["--seed", "7", "check-stationarity", "example:paper",
         "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.5"],
    ):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("extra, golden", [
    ((), "stationarity_paper_0_1.json"),
    (("--smooth-concave",), "stationarity_paper_0_1_smooth_concave.json"),
])
def test_stationarity_body_golden(capsys, extra, golden):
    code, body = run_cli(capsys, "--format", "json-like", "check-stationarity",
                         "example:paper", "--xi-bar", "0", "--x-bar", "1",
                         "--gamma", "0.5", *extra)
    assert code == 0
    assert body == (DATA / golden).read_text().rstrip("\n")


@pytest.mark.parametrize("argv", [
    ("eval", "example:paper", "--xi", "0", "--x", "0,0"),
    ("eval", "example:paper", "--xi", "0,5,7", "--x", "0"),
    ("check-erbo", "example:paper", "--xi-bar", "0,1"),
])
def test_wrong_length_point_exit_code(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("solve", "example:paper", "--starts", "0"),
    ("solve", "example:paper", "--gamma", "0"),
    ("solve", "example:paper", "--iters", "-3"),
    ("solve", "example:paper", "--lambda0", "0"),
    ("probe-stability", "example:paper", "--xi-bar", "0", "--x-bar", "1",
     "--gamma", "0"),
    ("estimate-constants", "example:paper", "--rho", "-1"),
    ("eval", "example:paper", "--xi", "nan", "--x", "0"),
    ("check-stationarity", "example:paper", "--xi-bar", "0", "--x-bar", "1",
     "--gamma", "0.5", "--lambda-grid", "0"),
    ("check-stationarity", "example:paper", "--xi-bar", "0", "--x-bar", "1",
     "--gamma", "0.5", "--smooth-concave", "--eps-list", "0.05,-1", "--lf", "2"),
    ("check-stationarity", "example:paper", "--xi-bar", "0", "--x-bar", "1",
     "--gamma", "0.5", "--smooth-concave", "--lf", "inf"),
    ("solve", "example:paper", "--growth", "1"),
    ("--seed", "-1", "solve", "example:paper"),
    ("check-subtransversality", "example:paper", "--xi-bar", "0", "--x-bar", "1",
     "--radius", "-0.5"),
    ("eval", "example:paper", "--xi", "0", "--x", "1", "--epsilon", "-1"),
    ("eval", "example:paper", "--xi", "0", "--x", "1", "--epsilon", "nan"),
    ("solve", "example:paper", "--lambda-max", "-1"),
    ("solve", "example:paper", "--lambda-max", "nan"),
])
def test_bad_numeric_flag_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "Traceback" not in err
