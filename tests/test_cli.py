import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vep
from vep import cli
from vep import problem as pb

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


@pytest.mark.parametrize("old, new, message", [
    ("upper = abs(xi1) + 1", "uper = abs(xi1) + 1", "error: line 30: unknown key 'uper' in [K]"),
    ("[Omega]", "[Omgea]", "error: line 39: unknown section [Omgea]"),
])
def test_misspelt_key_or_section_exits_2(capsys, tmp_path, old, new, message):
    path = tmp_path / "typo.vep"
    path.write_text(GENCONE.read_text().replace(old, new))
    assert cli.main(["eval", str(path), "--xi", "0", "--x", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


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


def test_check_subtransversality_command(capsys, monkeypatch):
    # the normals, of the thick gencone graph too, come from the finite
    # system: only kappa samples the graph, once per run
    from vep import problem as pb

    calls, sample = [], pb.graph_samples
    monkeypatch.setattr(pb, "graph_samples", lambda *a: calls.append(a) or sample(*a))
    for problem in ("example:paper", str(GENCONE)):
        code, body = run_cli(capsys, "check-subtransversality", problem, "--xi-bar", "0", "--x-bar", "1")
        assert code == 0
        assert "certified-on-samples" in body
    assert len(calls) == 2


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


TWO_PARAMS = """
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


def test_probe_stability_rejects_p_other_than_one(capsys, tmp_path):
    path = tmp_path / "two_params.vep"
    path.write_text(TWO_PARAMS)
    code = cli.main(["probe-stability", str(path), "--xi-bar", "0,0", "--x-bar", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "error: stability probe implemented for p = 1"


@pytest.mark.parametrize("argv", [
    (str(POLYTOPE), "--xi-bar", "0", "--x-bar", "0.5,0.5"),
    ("TWO_PARAMS", "--xi-bar", "0,0", "--x-bar", "1"),
])
def test_check_subtransversality_rejects_p_or_n_other_than_one(capsys, tmp_path, monkeypatch,
                                                               argv):
    from vep import problem as pb

    if argv[0] == "TWO_PARAMS":
        path = tmp_path / "two_params.vep"
        path.write_text(TWO_PARAMS)
        argv = (str(path),) + argv[1:]
    monkeypatch.setattr(pb, "graph_samples", lambda *a, **k: pytest.fail("graph sampled"))
    code = cli.main(["check-subtransversality", *argv])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_LOAD
    assert out == "" and err == "error: solution-graph normals need p = n = 1\n"


def test_check_subtransversality_off_the_graph_exits_2(capsys):
    code = cli.main(["check-subtransversality", "example:paper", "--xi-bar", "0", "--x-bar", "2"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_LOAD and out == ""
    assert err == "error: point is not on the solution graph (merit 1 > 1e-06)\n"


# p = 2 with a kink of the map at xi = 0: K(xi) = [-|xi1| - 1, |xi2| + 1]
KINKED_TWO_PARAMS = """
[problem]
p = 2
n = 1
m = 1

[cone]
type = orthant

[K]
type = box
lower = -abs(xi1) - 1
upper = abs(xi2) + 1

[f]
components = x1 - z1 + abs(xi1)

[objective]
expr = xi1^2 + xi2^2 + x1^2

[Omega]
type = box
lower = 0, 0
upper = inf, inf
"""


@pytest.mark.parametrize("flags", [(), ("--smooth-concave",)])
def test_check_stationarity_at_a_p2_kink_exits_2(capsys, tmp_path, flags):
    path = tmp_path / "kinked_two_params.vep"
    path.write_text(KINKED_TWO_PARAMS)
    code = cli.main(["check-stationarity", str(path), "--xi-bar", "0,0", "--x-bar", "1",
                     "--gamma", "0.5", *flags])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_LOAD
    assert out == "" and err == "error: graph normals at a kink of the map need p = 1\n"


@pytest.mark.parametrize("argv", [
    ("eval", "--xi", "0,0", "--x", "1"),
    ("solve", "--starts", "1"),
    ("check-stationarity", "--xi-bar", "0,0", "--x-bar", "1", "--gamma", "0.5"),
    ("check-stationarity", "--xi-bar", "0,0", "--x-bar", "1", "--gamma", "0.5",
     "--smooth-concave"),
    ("check-subtransversality", "--xi-bar", "0,0", "--x-bar", "1"),
    ("probe-stability", "--xi-bar", "0,0", "--x-bar", "1"),
    ("check-erbo", "--xi-bar", "0,0"),
    ("estimate-constants",),
])
def test_every_command_on_a_p2_problem_ends_in_0_or_2(capsys, tmp_path, argv):
    # a dimension limit is a scope error (2), never a traceback (1) or a
    # failed evaluation (3)
    path = tmp_path / "kinked_two_params.vep"
    path.write_text(KINKED_TWO_PARAMS)
    code = cli.main([argv[0], str(path), *argv[1:]])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_LOAD), err
    assert (code == cli.EXIT_LOAD) == err.startswith("error: ")


def test_determinism_of_fast_commands(capsys):
    for argv in (
        ["--seed", "7", "eval", "example:paper", "--xi", "0.25", "--x", "-1.5"],
        ["--seed", "7", "check-stationarity", "example:paper",
         "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.5"],
    ):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


def test_build_parser_is_built_once(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    # a command function wrapped after the parser was built (as the benchmark
    # tracer wraps them) is still the one called
    calls, original = [], cli.cmd_eval
    monkeypatch.setattr(cli, "cmd_eval", lambda *a: calls.append(a) or original(*a))
    assert run_cli(capsys, "eval", "example:paper", "--xi", "0", "--x", "0")[0] == 0
    assert len(calls) == 1


def test_one_process_gives_the_same_bodies_in_any_order(capsys):
    # loaded problems and their derived data are shared by every command in
    # a process, so no command may leave a value that changes a later body;
    # each order starts from problems loaded afresh
    runs = [("--seed", "3", *argv)
            for source in ("example:paper", str(GENCONE))
            for argv in (
                ("check-stationarity", source, "--xi-bar", "0.5", "--x-bar", "1.5",
                 "--gamma", "0.5"),
                ("check-stationarity", source, "--xi-bar", "0.5", "--x-bar", "1.5",
                 "--gamma", "0.5", "--smooth-concave"),
                ("probe-stability", source, "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.9"),
                ("solve", source, "--starts", "1"),
            )]

    def bodies(order):
        pb._parsed.cache_clear()
        pb._builtin.cache_clear()
        return [run_cli(capsys, *argv) for argv in order]

    assert bodies(runs) == bodies(runs[::-1])[::-1]


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


def test_check_erbo_witness_when_p_differs_from_n(capsys, monkeypatch, tmp_path):
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
    code, body = run_cli(capsys, "--format", "json-like", "estimate-constants", str(path))
    assert code == 0
    [witness] = json.loads(body)["results"]["gamma"]["witnesses"]
    assert [len(block) for block in witness] == [1, 2]
    # check-erbo's error-bound sweep needs p = n = 1: it refuses before sampling
    from vep import diagnostics as dg

    monkeypatch.setattr(dg, "estimate_gamma", lambda *a, **k: pytest.fail("gamma sampled"))
    assert cli.main(["check-erbo", str(path), "--xi-bar", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: error-bound sweep implemented for p = n = 1\n"


def test_estimate_constants_gives_no_normal_strictly_inside_the_slice(capsys):
    # this seed draws a non-solution sample strictly inside K(xi), within
    # geo.truncated_normal's band of the upper bound: it has no normal, so
    # gamma is the closed form 1, not a refuting 0
    code, body = run_cli(capsys, "--seed", "248315638", "--format", "json-like",
                         "estimate-constants", "example:paper", "--xi-bar", "0", "--rho", "1")
    gamma = json.loads(body)["results"]["gamma"]
    assert code == 0
    assert (gamma["verdict"], gamma["constant"]) == ("certified-on-samples", 1.0)


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
    ("estimate-constants", "example:paper", "--rho", "1e308"),
    ("check-erbo", "example:paper", "--xi-bar", "0", "--rho", "1e308"),
])
def test_rho_beyond_the_float_range_exits_2(capsys, argv):
    # xi_bar +- rho spans more than the largest float: no sample can be drawn
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "rho" in err


@pytest.mark.parametrize("window", ["nan, 1", "-1e308, 1e308"])
def test_gamma_on_an_x_window_beyond_the_float_range_exits_2(capsys, tmp_path, window):
    # the random x samples of the gamma sweep cannot be drawn in this window
    path = tmp_path / "wide_window.vep"
    path.write_text("[problem]\np = 1\nn = 1\nm = 1\nwindow_x = " + window + "\n[cone]\n"
                    "type = orthant\n[K]\ntype = box\nlower = -1\nupper = 1\n[f]\n"
                    "components = x1 - z1\n[objective]\nexpr = x1\n")
    code = cli.main(["check-erbo", str(path), "--xi-bar", "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: the x window is not a finite range\n"


@pytest.mark.parametrize("argv", [
    ("estimate-constants", "example:paper", "--rho", "1e200"),
    ("check-erbo", "example:paper", "--xi-bar", "0", "--rho", "1e200"),
])
def test_rho_whose_samples_overflow_exits_2(argv):
    # the range is finite, but squares of its samples overflow: a fresh
    # interpreter shows every warning numpy would print on the way
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "vep.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "RuntimeWarning" not in out.stderr
    assert out.stderr.startswith("error: ") and len(out.stderr.strip().splitlines()) == 1
    assert "rho" in out.stderr


@pytest.mark.parametrize("argv", [
    ("eval", "example:paper", "--xi", "0", "--x", "1e200"),
    ("eval", str(GENCONE), "--xi", "0", "--x", "1", "--epsilon", "1e200"),
    ("eval", str(POLYTOPE), "--xi", "0", "--x", "0.5,0.5", "--epsilon", "1e308"),
])
def test_eval_whose_values_overflow_exits_2(argv):
    # mu, a vertex-exact nu and a grid nu that overflow: no inf merit is
    # printed, and a fresh interpreter shows any warning numpy would print
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "vep.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "RuntimeWarning" not in out.stderr
    assert out.stderr.startswith("error: ") and len(out.stderr.strip().splitlines()) == 1
    assert "overflow" in out.stderr


@pytest.mark.parametrize("argv", [
    ("probe-stability", "example:paper", "--xi-bar", "0", "--x-bar", "1e200", "--gamma", "0.9"),
    ("check-subtransversality", "example:paper", "--xi-bar", "0", "--x-bar", "1e200"),
])
def test_x_bar_whose_samples_overflow_exits_2(argv):
    # a finite x_bar whose merit samples or norm overflow: no verdict on
    # inf and NaN values, and a fresh interpreter shows any warning numpy
    # would print
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "vep.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "RuntimeWarning" not in out.stderr
    assert out.stderr.startswith("error: ") and len(out.stderr.strip().splitlines()) == 1
    assert "overflow" in out.stderr


def test_check_subtransversality_off_omega_exits_2(capsys, monkeypatch):
    # xi_bar = -1 is outside Omega = [0, inf): refused before any sampling
    from vep import subdiff as sd

    monkeypatch.setattr(sd, "graph_E_normals", lambda *a, **k: pytest.fail("graph sampled"))
    code = cli.main(["check-subtransversality", "example:paper", "--xi-bar", "-1", "--x-bar", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: xi is not in the geometric set: point is not on the set (dist 1)\n"


def test_eval_on_a_17_dimensional_box_exits_3(capsys, tmp_path):
    # 2^17 corners are too many to list: the vertex-exact path refuses
    lower, upper = " ; ".join(["-1"] * 17), " ; ".join(["1"] * 17)
    path = tmp_path / "wide.vep"
    path.write_text("[problem]\np = 1\nn = 17\nm = 1\n[cone]\ntype = orthant\n"
                    f"[K]\ntype = box\nlower = {lower}\nupper = {upper}\n"
                    "[f]\ncomponents = x1 - z1\n[objective]\nexpr = x1^2\n")
    code = cli.main(["eval", str(path), "--xi", "0", "--x", ",".join(["0"] * 17)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: box vertex enumeration beyond 16 dims\n"


def test_estimate_constants_default_xi_bar_has_p_entries(capsys, tmp_path):
    path = tmp_path / "two_params.vep"
    path.write_text(TWO_PARAMS)
    code = cli.main(["estimate-constants", str(path)])
    out, err = capsys.readouterr()
    assert "xi has 1 entries" not in err
    assert code in (cli.EXIT_OK, cli.EXIT_LOAD, cli.EXIT_EVAL, cli.EXIT_REFUTED,
                    cli.EXIT_INCONCLUSIVE, cli.EXIT_SOLVER)
    assert code != cli.EXIT_OK or "xi_bar: [0, 0]" in out


@pytest.mark.parametrize("argv", [
    ("solve", "example:paper", "--starts", "0"),
    ("solve", "example:paper", "--gamma", "0"),
    ("solve", "example:paper", "--starts", "2.5"),
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


@pytest.mark.parametrize("window", ["-1e308, 1e308", "nan, 1"])
@pytest.mark.parametrize("argv", [("estimate-constants",), ("solve", "--starts", "1")])
def test_window_that_is_not_a_finite_range_exits_2_at_load(capsys, tmp_path, window, argv):
    # the width of -1e308, 1e308 overflows, and no sample can be drawn
    # between such bounds: the load refuses both before any draw
    path = tmp_path / "window.vep"
    path.write_text(GENCONE.read_text().replace("window_x = -4, 4", f"window_x = {window}"))
    code = cli.main([argv[0], str(path), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: the x window is not a finite range\n"


def test_too_many_tied_switches_exit_3(capsys, tmp_path):
    # eleven switches tied at x1 = 1.5 in the objective: 2^11 sign vectors
    text = GENCONE.read_text()
    path = tmp_path / "eleven.vep"
    path.write_text(text.replace("expr = xi1^2 + x1^2",
                                 "expr = xi1^2 + x1^2" + " + abs(x1 - 1.5)" * 11))
    code = cli.main(["check-stationarity", str(path), "--xi-bar", "0.5", "--x-bar", "1.5",
                     "--gamma", "0.5"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL
    assert out == "" and err == "error: 11 switches tied at one point (at most 10)\n"


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


STARTUP_SCRIPT = """
import contextlib, io, sys
import vep, vep.cli
from vep import cli, problem
for source, x in (("example:paper", "1"), (sys.argv[1], "1"), (sys.argv[2], "0.5,0.5")):
    problem.load(source)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", source, "--xi", "0", "--x", x]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["probe-stability", "example:paper", "--xi-bar", "0", "--x-bar", "1",
                     "--gamma", "0.9"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_startup_and_light_commands_load_no_scipy():
    # scipy is imported on first use (qhull, nnls, Nelder-Mead), so a fresh
    # interpreter that only imports vep, loads problems and evaluates pays nothing for it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(GENCONE), str(POLYTOPE)],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]", out.stdout


LAZY_SCRIPT = """
import sys
import vep
from vep import problem
problem.load("example:paper")
print(sorted(m for m in ("vep.cli", "vep.diagnostics", "vep.solver", "vep.subdiff")
             if m in sys.modules))
print(vep.solver.solve_penalized.__module__, "vep.solver" in sys.modules)
"""


def test_import_vep_and_problem_load_no_command_modules():
    # vep binds its submodules on first use: the benchmark's setup (import vep,
    # load the problems) does not import the command modules, and they still resolve
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", LAZY_SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "vep.solver True"], out.stdout
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        vep.nothing
