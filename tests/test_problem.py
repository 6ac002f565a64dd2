from pathlib import Path

import numpy as np
import pytest

from vep import diagnostics as dg
from vep import expr as ex
from vep import geometry as geo
from vep import merit as mr
from vep import problem as pb
from vep import solver as sv
from vep import subdiff as sd

from _oracles import per_value_cone_dist

GENCONE = Path(__file__).resolve().parents[1] / "perfbench" / "problems" / "gencone.vep"

FILE_TEXT = """
# same instance as the builtin, written through the file format
[problem]
p = 1
n = 1
m = 2
window_xi = -2, 2
window_x = -4, 4
asserts = K-concave, nu-convex

[cone]
type = orthant

[K]
type = box
lower = -abs(xi1) - 1
upper = abs(xi1) + 1
kinks = xi1@0

[f]
components = x1 - z1 ; abs(xi1)

[objective]
expr = xi1^2 + x1^2

[Omega]
type = box
lower = 0
upper = inf
"""


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_builtin_dimensions(tent):
    assert (tent.p, tent.n, tent.m) == (1, 1, 2)
    assert tent.cone.kind == "orthant"
    assert isinstance(tent.K, pb.ParamBox)
    assert geo.dist([0.5], tent.omega) == 0.0
    assert geo.dist([-0.5], tent.omega) == pytest.approx(0.5)


def test_load_from_file_matches_builtin(tmp_path, tent):
    path = tmp_path / "tent.vep"
    path.write_text(FILE_TEXT)
    prob = pb.load(str(path))
    for t in (-1.0, 0.0, 0.7):
        a = pb.slice_at(prob.K, [t])
        b = pb.slice_at(tent.K, [t])
        assert np.allclose(a.lower, b.lower) and np.allclose(a.upper, b.upper)
    assert prob.name.startswith(str(path))
    assert "K-concave" in prob.asserts


def test_load_rejects_crossed_bounds(tmp_path):
    bad = FILE_TEXT.replace("upper = abs(xi1) + 1", "upper = -abs(xi1) - 2")
    path = tmp_path / "bad.vep"
    path.write_text(bad)
    # the message names the first of the 1000 sampled xi, the first bad one
    first = np.random.default_rng(0).uniform(-2.0, 2.0, 1)
    with pytest.raises(pb.ProblemError, match="standing assumption") as err:
        pb.load(str(path))
    assert str(err.value).endswith(f"empty slice at xi={first.tolist()}: lower > upper")


EMPTY_POLYTOPE_TEXT = """
[problem]
p = 1
n = 1
m = 1
window_xi = -2, 2
window_x = -2, 2

[cone]
type = orthant

[K]
type = polytope
A = 1 ; -1
b = xi1 ; 0

[f]
components = x1 - z1

[objective]
expr = x1^2
"""


def test_load_rejects_an_empty_polytope_slice(tmp_path):
    # K(xi) = [0, xi] is empty for xi < 0; the message names the first such
    # xi among the 1000 sampled
    path = tmp_path / "empty.vep"
    path.write_text(EMPTY_POLYTOPE_TEXT)
    XI = np.random.default_rng(0).uniform(-2.0, 2.0, (1000, 1))
    first = XI[np.argmax(XI[:, 0] < 0)]
    with pytest.raises(pb.ProblemError, match="standing assumption") as err:
        pb.load(str(path))
    assert str(err.value).endswith(f"empty slice at xi={first.tolist()}: halfspace set empty")
    path.write_text(EMPTY_POLYTOPE_TEXT.replace("b = xi1 ; 0", "b = abs(xi1) ; 0"))
    assert isinstance(pb.load(str(path)).K, pb.ParamPolytope)


def test_load_rejects_a_bound_that_fails_to_evaluate(tmp_path):
    bad = FILE_TEXT.replace("upper = abs(xi1) + 1", "upper = 1/(xi1 - xi1)")
    path = tmp_path / "bad.vep"
    path.write_text(bad)
    with pytest.raises(pb.ProblemError, match="standing assumption violated: division"):
        pb.load(str(path))


def test_omitted_omega_defaults_to_full_space(tmp_path):
    text = FILE_TEXT.split("[Omega]")[0]
    path = tmp_path / "noomega.vep"
    path.write_text(text)
    prob = pb.load(str(path))
    assert geo.dist([-100.0], prob.omega) == 0.0


def test_load_errors_have_locations(tmp_path):
    path = tmp_path / "broken.vep"
    path.write_text("[problem]\np = 1\nn = 1\nm = 1\n")
    with pytest.raises(pb.ProblemError, match=r"\[cone\]|missing"):
        pb.load(str(path))
    path.write_text(FILE_TEXT.replace("components = x1 - z1 ; abs(xi1)",
                                      "components = x1 - z1"))
    with pytest.raises(pb.ProblemError, match="components"):
        pb.load(str(path))


def test_load_rejects_non_pointed_cone(tmp_path):
    text = FILE_TEXT.replace(
        "[cone]\ntype = orthant",
        "[cone]\ntype = generators\nrows = 1, 0 ; -1, 0",
    )
    path = tmp_path / "cone.vep"
    path.write_text(text)
    with pytest.raises(pb.ProblemError, match="pointed"):
        pb.load(str(path))


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def test_slice_values(tent):
    s0 = pb.slice_at(tent.K, [0.0])
    assert np.allclose([s0.lower[0], s0.upper[0]], [-1.0, 1.0])
    s2 = pb.slice_at(tent.K, [2.0])
    assert np.allclose([s2.lower[0], s2.upper[0]], [-3.0, 3.0])


def test_constant_map_slices_identical(const_box):
    for t in (-1.0, 0.0, 2.0):
        s = pb.slice_at(const_box.K, [t])
        assert np.allclose([s.lower[0], s.upper[0]], [-1.0, 1.0])


def test_slice_projection_idempotent(tent):
    rng = np.random.default_rng(0)
    for _ in range(30):
        t = rng.uniform(-2, 2)
        s = pb.slice_at(tent.K, [t])
        x = rng.uniform(-5, 5, 1)
        q = geo.project(x, s)
        assert s.contains(q, tol=1e-9)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_solution_sets(tent):
    for t, expect in ((0.0, 1.0), (0.5, 1.5)):
        sols = pb.oracle_solutions(tent, [t])
        step = 2 * (abs(t) + 1) / 200
        assert len(sols) >= 1
        assert np.all(np.abs(sols[:, 0] - expect) <= step + 1e-12)


def test_oracle_everything_solves_for_zero_f(zero_f):
    sols = pb.oracle_solutions(zero_f, [0.3])
    assert len(sols) == pb.OracleGrid().x_resolution


def test_oracle_batched_cone_distance_keeps_the_per_value_rows(monkeypatch):
    # gencone's generator-form cone goes through the face kernel; the
    # reference is one scalar nnls distance per value
    prob = pb.load(str(GENCONE))
    for t in (0.0, 0.7, -1.5):
        batched = pb.oracle_solutions(prob, [t])
        with monkeypatch.context() as mp:
            mp.setattr(geo, "dist_cone_batch", per_value_cone_dist)
            reference = pb.oracle_solutions(prob, [t])
        assert len(batched) > 0
        assert np.array_equal(batched, reference)


def test_oracle_distances(tent):
    assert pb.oracle_dist_to_solutions(tent, [0.0], [0.0]) == pytest.approx(1.0, abs=1e-2)
    assert pb.oracle_dist_to_solutions(tent, [0.0], [1.0]) == pytest.approx(0.0, abs=1e-2)
    assert pb.oracle_dist_to_solutions(tent, [1.0], [-3.0]) == pytest.approx(5.0, abs=1e-2)


def test_oracle_merit_zero_level_equivalence(tent):
    # x is an oracle solution iff the merit value vanishes on the grid
    grid = pb.OracleGrid(x_resolution=81, tol_c=1e-9)
    for t in (-0.5, 0.0, 1.0):
        sols = set(np.round(pb.oracle_solutions(tent, [t], grid)[:, 0], 9))
        S = pb.slice_at(tent.K, [t])
        for xv in np.linspace(S.lower[0], S.upper[0], 81):
            merit = mr.eval_merit(tent, [t], [xv]).merit
            assert (round(float(xv), 9) in sols) == (merit <= 1e-9 + 1e-12)


def test_graph_closedness_probe(tent):
    # limits of graph sequences keep zero merit
    for tk in (0.5, 0.25, 0.125, 0.0625):
        sols = pb.oracle_solutions(tent, [tk])
        assert len(sols) > 0
    limit_merit = mr.eval_merit(tent, [0.0], [1.0]).merit
    assert limit_merit <= 1e-9


def test_unbounded_slice_requires_window():
    dims = (1, 1, 1)
    f = ex.VectorFunc((ex.parse("x1 - z1", dims),), dims)
    K = pb.ParamBox((None,), (None,))
    prob = pb.VepProblem("toy:unbounded", 1, 1, 1, f, geo.orthant(1), K,
                         ex.parse("0", (1, 1, 0)), geo.full_space(1))
    with pytest.raises(pb.ProblemError, match="window"):
        pb.oracle_solutions(prob, [0.0])
    windowed = pb.VepProblem(
        "toy:unbounded-window", 1, 1, 1, f, geo.orthant(1), K,
        ex.parse("0", (1, 1, 0)), geo.full_space(1),
        window={"x": (np.array([-2.0]), np.array([2.0]))},
    )
    ne = mr.eval_nu(windowed, [0.0], [0.0])
    assert "unbounded-window" in ne.flags


def test_graph_samples_shape(tent):
    cloud = pb.graph_samples(tent, -0.5, 0.5, 41)
    assert cloud.shape[1] == 2
    assert np.allclose(cloud[:, 1], np.abs(cloud[:, 0]) + 1.0, atol=0.02)


# ---------------------------------------------------------------------------
# the point contract
# ---------------------------------------------------------------------------

ENTRIES = {
    "eval_merit": mr.eval_merit,
    "solve_penalized": lambda prob, xi, x: sv.solve_penalized(
        prob, sv.PenaltyConfig(), [(xi, x)]),
    "check_stationarity_general": lambda prob, xi, x: sv.check_stationarity_general(
        prob, xi, x, None, 0.5),
    "check_stationarity_smooth_concave": lambda prob, xi, x:
        sv.check_stationarity_smooth_concave(prob, xi, x, None, 0.5,
                                             eps_list=[0.05], l_f=1.0),
    "estimate_gamma": lambda prob, xi, x: dg.estimate_gamma(prob, xi, 1.0),
    "verify_error_bound": lambda prob, xi, x: dg.verify_error_bound(prob, xi, 1.0, 0.5),
    "stability_probe": lambda prob, xi, x: dg.stability_probe(prob, xi, x, 0.5),
    "check_c_bounded": dg.check_c_bounded,
    "eval_nu": mr.eval_nu,
    "eval_mu": mr.eval_mu,
    "nu_partial_subgradient_smooth": sd.nu_partial_subgradient_smooth,
    "nu_subgradient_full": sd.nu_subgradient_full,
    "nu_outer_estimate": lambda prob, xi, x: sd.nu_outer_estimate(prob, xi, x, [0.05], 1.0),
    "graph_normal_branches": sd.graph_normal_branches,
    "coderivative_K": lambda prob, xi, x: sd.coderivative_K(prob, xi, x, [1.0]),
    "coderivative_K_ball_image": sd.coderivative_K_ball_image,
    "mu_subgradient_estimate": sd.mu_subgradient_estimate,
    "mu_subgradient_coupled": sd.mu_subgradient_coupled,
    "graph_E_normals": sd.graph_E_normals,
    "oracle_solutions": lambda prob, xi, x: pb.oracle_solutions(prob, xi),
    "oracle_dist_to_solutions": pb.oracle_dist_to_solutions,
}
XI_ONLY = ("estimate_gamma", "verify_error_bound", "oracle_solutions")
# example:paper has p = n = 1
POINT_CASES = ([(name, "xi-long", ([0.0, 5.0], [1.0])) for name in ENTRIES]
               + [(name, "x-long", ([0.0], [1.0, 1.0])) for name in ENTRIES
                  if name not in XI_ONLY]
               + [("eval_merit", "nan", ([float("nan")], [1.0]))])


@pytest.mark.parametrize("name, point", [(name, pt) for name, _, pt in POINT_CASES],
                         ids=[f"{name}-{case}" for name, case, _ in POINT_CASES])
def test_wrong_point_raises_instead_of_broadcasting(tent, name, point):
    with pytest.raises(pb.ProblemError, match="entries, expected 1|non-finite"):
        ENTRIES[name](tent, *point)
