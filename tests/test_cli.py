import json
from pathlib import Path

import pytest

from vep import cli

GENCONE = Path(__file__).resolve().parents[1] / "perfbench" / "problems" / "gencone.vep"
POLYTOPE = GENCONE.with_name("polytope.vep")


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


def test_bound_that_fails_to_evaluate_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.vep"
    path.write_text("[problem]\np = 1\nn = 1\nm = 1\n[cone]\ntype = orthant\n"
                    "[K]\ntype = box\nlower = -1\nupper = 1/(xi1 - xi1)\n"
                    "[f]\ncomponents = x1 - z1\n[objective]\nexpr = x1^2\n")
    assert cli.main(["eval", str(path), "--xi", "0", "--x", "0"]) == 2
    assert "error: standing assumption violated" in capsys.readouterr().err


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


def test_solve_unbounded_objective_exits_6(capsys, tmp_path):
    text = GENCONE.read_text().replace("expr = xi1^2 + x1^2", "expr = -1e13 * x1^2")
    path = tmp_path / "unbounded.vep"
    path.write_text(text)
    code, body = run_cli(capsys, "--seed", "3", "solve", str(path), "--starts", "2")
    assert code == 6
    assert "solver_error: penalized objective unbounded below" in body


def test_empty_polytope_slice_exits_2_at_load(capsys, tmp_path):
    # K(xi) = [0, xi], empty for xi < 0
    path = tmp_path / "empty.vep"
    path.write_text("[problem]\np = 1\nn = 1\nm = 1\n[cone]\ntype = orthant\n"
                    "[K]\ntype = polytope\nA = 1 ; -1\nb = xi1 ; 0\n"
                    "[f]\ncomponents = x1 - z1\n[objective]\nexpr = x1^2\n")
    assert cli.main(["eval", str(path), "--xi", "-0.5", "--x", "0"]) == 2
    assert "error: standing assumption violated: empty slice" in capsys.readouterr().err


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


def test_probe_stability_on_the_polytope(capsys):
    code, body = run_cli(capsys, "probe-stability", str(POLYTOPE), "--xi-bar", "0",
                         "--x-bar", "0.5,0.5", "--gamma", "0.9")
    assert code == 0
    assert "certified-on-samples" in body


def test_probe_stability_rejects_p_other_than_one(capsys, tmp_path):
    text = """
[problem]
p = 2
n = 1
m = 1

[cone]
type = orthant

[K]
type = box
lower = -1
upper = 1

[f]
components = x1 - z1

[objective]
expr = xi1 + xi2
"""
    path = tmp_path / "two_params.vep"
    path.write_text(text)
    code = cli.main(["probe-stability", str(path), "--xi-bar", "0,0", "--x-bar", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "error: stability probe implemented for p = 1"


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



def test_polytope_stationarity_at_the_kink(capsys, tmp_path):
    # the minimizer of perfbench/problems/polytope.vep sits on the |xi| kink
    # of its first row; the graph normals there are exact
    text = """
[problem]
p = 1
n = 2
m = 2
window_xi = -2, 2
window_x = -2, 3

[cone]
type = orthant

[K]
type = polytope
A = 1, 1 ; 1, 0 ; 0, 1 ; -1, 0 ; 0, -1
b = 1 + abs(xi1) ; 2 ; 2 ; 1 ; 1

[f]
components = x1 + x2 - z1 - z2 ; abs(xi1)

[objective]
expr = xi1^2 + x1^2 + x2^2

[Omega]
type = box
lower = 0
upper = inf
"""
    path = tmp_path / "polytope.vep"
    path.write_text(text)
    code, body = run_cli(capsys, "check-stationarity", str(path),
                         "--xi-bar", "0", "--x-bar", "0.5,0.5", "--gamma", "0.5")
    assert code == 0
    assert "stationary-within-tol" in body

def test_flat_polytope_slice_is_vertex_exact(capsys, tmp_path):
    # K(xi) is the segment from (-1, 2) to (2, -1): bounded, with no interior
    text = """
[problem]
p = 1
n = 2
m = 2
window_xi = -2, 2
window_x = -2, 3

[cone]
type = orthant

[K]
type = polytope
A = 1, 1 ; -1, -1 ; 1, 0 ; 0, 1 ; -1, 0 ; 0, -1
b = 1 ; -1 ; 2 ; 2 ; 1 ; 1

[f]
components = x1 - z1 ; abs(xi1)

[objective]
expr = xi1^2 + x1^2 + x2^2
"""
    path = tmp_path / "flat.vep"
    path.write_text(text)
    code, body = run_cli(capsys, "eval", str(path), "--xi", "0", "--x", "0.5,0.5")
    assert code == 0
    assert "nu: 1.5" in body and "method: vertex-exact" in body
    assert "flags: []" in body


def test_oracle_rejects_three_dimensional_x(capsys, tmp_path):
    text = """
[problem]
p = 1
n = 3
m = 1
window_xi = -2, 2
window_x = -2, 2

[cone]
type = orthant

[K]
type = box
lower = -1 ; -1 ; -1
upper = 1 ; 1 ; 1

[f]
components = x1 - z1

[objective]
expr = xi1
"""
    path = tmp_path / "cube.vep"
    path.write_text(text)
    code = cli.main(["probe-stability", str(path), "--xi-bar", "0", "--x-bar", "0,0,0",
                     "--gamma", "0.9"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "n <= 2" in err and "Traceback" not in err


def test_check_erbo_witness_when_p_differs_from_n(capsys, tmp_path):
    # f = (z1 - 2, 1) leaves the cone for every z in K, and nu is constant
    # in x, so gamma is refuted; its witness (xi, x) has blocks of 1 and 2
    text = """
[problem]
p = 1
n = 2
m = 2
window_xi = -1, 1
window_x = -1, 1

[cone]
type = orthant

[K]
type = box
lower = -1 ; -1
upper = 1 ; 1

[f]
components = z1 - 2 ; 1

[objective]
expr = xi1^2 + x1^2 + x2^2
"""
    path = tmp_path / "wide.vep"
    path.write_text(text)
    code, body = run_cli(capsys, "--format", "json-like", "check-erbo", str(path),
                         "--xi-bar", "0")
    assert code == 4
    [witness] = json.loads(body)["results"]["gamma_estimate"]["witnesses"]
    assert [len(block) for block in witness] == [1, 2]


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
    ("solve", "example:paper", "--lambda0", "2", "--lambda-max", "1", "--starts", "1"),
])
def test_bad_numeric_flag_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("omega", [
    "A = 1, 0\nb = 0",              # row wider than p = 1
    "A = -1 ; 1\nb = 0, 1, 2",      # three offsets for two rows
    "A = -1\nb = nan",
    "A = 1 ; -1\nb = -1, -1",       # xi <= -1 and xi >= 1: empty
    "A = -1",
])
def test_bad_halfspace_omega_exits_2_at_load(capsys, tmp_path, omega):
    text = GENCONE.read_text()
    path = tmp_path / "omega.vep"
    path.write_text(text[:text.index("[Omega]")] + "[Omega]\ntype = halfspaces\n" + omega + "\n")
    code = cli.main(["check-stationarity", str(path), "--xi-bar", "0", "--x-bar", "1",
                     "--gamma", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: [Omega]") and len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("check-stationarity", str(GENCONE), "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.5"),
    ("eval", str(POLYTOPE), "--xi", "0", "--x", "2.5,-1.5"),
    ("eval", str(POLYTOPE), "--xi", "0", "--x", "2.5,-1.5", "--epsilon", "0.1"),
    ("solve", str(POLYTOPE), "--starts", "1"),
])
def test_projections_call_neither_nnls_nor_linprog(capsys, monkeypatch, argv):
    # the scipy census behind taking scipy off the import path: geometry's
    # projections and cone memberships are closed forms
    from vep import geometry as geo

    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"geometry.{name} called")
        return call

    monkeypatch.setattr(geo, "nnls", refuse("nnls"))
    monkeypatch.setattr(geo, "linprog", refuse("linprog"))
    code = cli.main(list(argv))
    capsys.readouterr()
    assert calls == [] and code == 0
