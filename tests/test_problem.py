import hashlib
import re
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

from _oracles import (pairwise_oracle_solutions, per_entry_slice_arrays, per_slice_axis_grids,
                      per_value_cone_dist, per_xi_oracle_rows)

GENCONE = Path(__file__).resolve().parents[1] / "perfbench" / "problems" / "gencone.vep"
POLYTOPE = GENCONE.with_name("polytope.vep")

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


def test_the_readme_example_loads(tent):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    prob = pb.parse_problem_text(block, "readme")
    assert (prob.p, prob.n, prob.m) == (tent.p, tent.n, tent.m)
    for t in (-1.0, 0.0, 0.7):
        a, b = pb.slice_at(prob.K, [t]), pb.slice_at(tent.K, [t])
        assert np.allclose(a.lower, b.lower) and np.allclose(a.upper, b.upper)


def test_load_gives_one_problem_per_file_text(tmp_path):
    path = tmp_path / "tent.vep"
    path.write_text(FILE_TEXT)
    first = pb.load(str(path))
    assert pb.load(str(path)) is first
    # the file is read again on every load, so an edit gives a new problem
    edited = FILE_TEXT.replace("window_x = -4, 4", "window_x = -3, 3")
    path.write_text(edited)
    second = pb.load(str(path))
    digest = hashlib.sha256(edited.encode()).hexdigest()[:12]
    assert second is not first and second.name == f"{path}#{digest}" != first.name
    assert second.x_window()[1].tolist() == [3.0]
    assert pb.load(str(path)) is second


def test_each_builtin_id_is_built_once():
    for source in ("example:paper", "example:tent"):
        assert pb.load(source) is pb.load(source)


def test_a_shared_problem_cannot_be_changed(tent):
    with pytest.raises(ValueError, match="read-only"):
        tent.omega.lower[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        tent.window["xi"][0][0] = 1.0
    with pytest.raises(TypeError):
        tent.window["xi"] = (np.zeros(1), np.ones(1))
    S = pb.slice_at(pb.load(str(POLYTOPE)).K, [0.0])
    with pytest.raises(ValueError, match="read-only"):
        S.A[0, 0] = 1.0


def test_load_rejects_crossed_bounds(tmp_path):
    bad = FILE_TEXT.replace("upper = abs(xi1) + 1", "upper = -abs(xi1) - 2")
    path = tmp_path / "bad.vep"
    path.write_text(bad)
    # the message names the first of the 1000 sampled xi, the first bad one;
    # a failed load is not kept, so the next load fails again
    first = np.random.default_rng(0).uniform(-2.0, 2.0, 1)
    for _ in range(2):
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


@pytest.mark.parametrize("old, new, message", [
    # a key that the section's type does not read (the box [K]'s retired kinks loads)
    ("upper = abs(xi1) + 1", "upper = abs(xi1) + 1\nA = 1", "line 18: unknown key 'a' in [K]"),
    ("type = orthant", "type = orthant\nrows = 1, 0 ; 0, 1", "line 13: unknown key 'rows' in [cone]"),
    ("upper = inf", "upper = inf\na = 1", "line 30: unknown key 'a' in [Omega]"),
    ("m = 2", "m = 2\ntype = box", "line 7: unknown key 'type' in [problem]"),
    # a problem without a finite solution-graph system
    ("x1 - z1 ;", "x1 - z1^2 ;", "the solution-graph system needs f affine in z"),
    ("type = box\nlower = -abs(xi1) - 1\nupper = abs(xi1) + 1", "type = polytope\nA = 1 ; xi1\nb = 1 ; 1",
     "the solution-graph system needs nonzero K rows at xi=[0.0]"),
])
def test_misread_keys_and_problems_without_a_graph_system_are_refused(old, new, message):
    with pytest.raises(pb.ProblemError) as err:
        pb.E_system(pb.parse_problem_text(FILE_TEXT.replace(old, new, 1), "refused"), [0.0])
    assert str(err.value) == message


@pytest.mark.parametrize("source", ["example:paper", str(GENCONE), "unbounded"])
def test_E_system_holds_exactly_where_the_merit_is_zero(source):
    # the vertex form: every row >= 0 iff nu = mu = 0, at random points and at
    # points of E.  "unbounded" has K(xi) = [-|xi| - 1, inf) and f1 = x1 + z1:
    # E(xi) = [|xi| + 1, inf), and the recession row of z -> inf reads 1 >= 0
    prob = pb.load(source) if source != "unbounded" else pb.parse_problem_text(
        FILE_TEXT.replace("upper = abs(xi1) + 1", "upper = inf").replace("x1 - z1", "x1 + z1"), source)
    rng = np.random.default_rng(0)
    for xi in (0.0, 0.3, -0.8):
        X = np.r_[rng.uniform(-3, 3, 40), pb.oracle_solutions(prob, [xi])[::20, 0]]
        hold = np.all([ex.eval_expr(h, xi=[xi], x=[X]) + 0 * X >= -1e-9
                       for h in pb.E_system(prob, [xi])], axis=0)
        zero = mr.eval_merit_batch(prob, np.full((len(X), 1), xi), X[:, None]) <= 1e-9
        assert zero.any() and not zero.all() and np.array_equal(hold, zero)


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


@pytest.mark.parametrize("make", [
    lambda: pb.load("example:paper"),
    lambda: pb.load(str(GENCONE)),
    lambda: pb.load(str(POLYTOPE)),
    lambda: pb.parse_problem_text(FILE_TEXT.replace("lower = -abs(xi1) - 1", "lower = -(2 - 1)"),
                                  "constant-lower"),
    lambda: pb.parse_problem_text(FILE_TEXT.replace("upper = abs(xi1) + 1", "upper = inf"),
                                  "no-upper"),
])
def test_slice_arrays_equal_the_per_entry_evaluation(make):
    prob = make()
    XI = np.random.default_rng(5).uniform(-2, 2, (9, prob.p))
    for _ in range(2):      # the first call fills the constant table, the second reads it
        got, ref = pb.slice_arrays(prob.K, XI), per_entry_slice_arrays(prob.K, XI)
        for g, r in zip(got, ref):
            assert g.shape == r.shape and np.array_equal(g, r)


def test_slice_arrays_evaluate_only_the_variable_entries(monkeypatch):
    # polytope.vep's map has 15 entries; 1 + abs(xi1) is the one with a variable
    prob = pb.load(str(POLYTOPE))
    XI = np.linspace(-2, 2, 7)[:, None]
    pb.slice_arrays(prob.K, XI)
    calls = []
    real = ex.eval_expr
    monkeypatch.setattr(ex, "eval_expr", lambda e, *a, **k: calls.append(e) or real(e, *a, **k))
    per_entry_slice_arrays(prob.K, XI)
    assert len(calls) == 15
    calls.clear()
    pb.slice_arrays(prob.K, XI)
    assert len(calls) == 1


def test_slice_projection_idempotent(tent):
    rng = np.random.default_rng(0)
    for _ in range(30):
        t = rng.uniform(-2, 2)
        s = pb.slice_at(tent.K, [t])
        x = rng.uniform(-5, 5, 1)
        q = geo.project(x, s)
        assert np.all(q >= s.lower - 1e-9) and np.all(q <= s.upper + 1e-9)


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


def _non_affine():
    """f = x1 - z1^2 over the paper's slices: not affine in z, so the
    oracle compares every grid x with every grid z."""
    dims = (1, 1, 1)
    f = ex.VectorFunc((ex.parse("x1 - z1^2", dims),), dims)
    K = pb.ParamBox((ex.parse("-abs(xi1) - 1", (1, 0, 0)),),
                    (ex.parse("abs(xi1) + 1", (1, 0, 0)),))
    return pb.VepProblem("toy:non-affine", 1, 1, 1, f, geo.orthant(1), K,
                         ex.parse("0", (1, 1, 0)), geo.full_space(1))


ORACLE_CASES = [
    ("paper", lambda: pb.load("example:paper"), None, (0.0, 0.3, -0.7, 1.0)),
    ("gencone", lambda: pb.load(str(GENCONE)), None, (0.0, 0.3, 0.7, -1.5)),
    ("non-affine", _non_affine, None, (0.0, 0.4)),
    # 2001 members: the 2,000,000-pair chunks of the full z grid take effect
    ("non-affine-chunked", _non_affine, pb.OracleGrid(x_resolution=2001), (0.0,)),
    ("polytope", lambda: pb.load(str(POLYTOPE)), pb.OracleGrid(x_resolution=41),
     (0.0, 0.05, -0.35, 0.5)),
]


@pytest.mark.parametrize("make, grid, ts", [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_oracle_rows_equal_the_pairwise_grid_oracle(make, grid, ts):
    prob = make()
    for t in ts:
        assert np.array_equal(pb.oracle_solutions(prob, [t], grid),
                              pairwise_oracle_solutions(prob, [t], grid))


def test_stacked_oracle_call_equals_the_per_xi_calls():
    prob = pb.load(str(POLYTOPE))
    grid = pb.OracleGrid(x_resolution=41)
    ts = np.array([0.0, 0.05, -0.35, 0.5])
    per_t, steps = pb._oracle_rows(prob, ts[:, None], grid)
    assert len(per_t) == len(steps) == len(ts)
    for t, sols, step in zip(ts, per_t, steps):
        assert np.array_equal(sols, pb.oracle_solutions(prob, [t], grid))
        # the slice's bounding box is [-1, 2]^2, padded by 1e-9
        assert step == pytest.approx(3.0 / 40, abs=1e-9)


def _degenerate_square():
    """[0, 1 + |xi|]^2 cut by x1 + x2 <= 2 + 2|xi|: three rows meet at the
    corner, so basis points repeat a vertex."""
    return pb.parse_problem_text(
        "[problem]\np = 1\nn = 2\nm = 1\n[cone]\ntype = orthant\n[K]\ntype = polytope\n"
        "A = 1, 0 ; 0, 1 ; 1, 1 ; -1, 0 ; 0, -1\nb = 1 + abs(xi1) ; 1 + abs(xi1) ; 2 + 2*abs(xi1) ; 0 ; 0\n"
        "[f]\ncomponents = x1 + x2 - z1 - z2\n[objective]\nexpr = x1\n", "toy:degenerate")


STACKED_CASES = [
    # the parameter rows of check-erbo, graph_samples and probe-stability
    ("paper", lambda: pb.load("example:paper"), None, np.linspace(-1.0, 1.0, 41)),
    ("paper-graph", lambda: pb.load("example:paper"), None, np.linspace(-0.5, 0.5, 501)),
    ("gencone-graph", lambda: pb.load(str(GENCONE)), None, np.linspace(-0.5, 0.5, 501)),
    # probe-stability's 21 parameter samples and xi_bar
    ("polytope-stability", lambda: pb.load(str(POLYTOPE)), None,
     np.append(np.linspace(-0.5, 0.5, 21), 0.0)),
    ("non-affine", _non_affine, None, np.linspace(-1.0, 1.0, 9)),
    ("non-affine-chunked", _non_affine, pb.OracleGrid(x_resolution=2001), np.array([0.0, 0.3])),
    ("one-point-grid", lambda: pb.load("example:paper"), pb.OracleGrid(x_resolution=1),
     np.array([0.0, 0.5])),
    # point slices at xi >= 0 among intervals: numpy's linspace changes formula
    ("point-slices", lambda: _box_map("xi1", "abs(xi1)"), None, np.array([-0.5, 0.3, 0.0, -0.2])),
    ("degenerate-vertex", _degenerate_square, pb.OracleGrid(x_resolution=41),
     np.array([0.0, 0.3, -0.6])),
]


@pytest.mark.parametrize("make, grid, ts", [c[1:] for c in STACKED_CASES],
                         ids=[c[0] for c in STACKED_CASES])
def test_stacked_oracle_equals_the_per_xi_reference(make, grid, ts):
    prob, grid = make(), grid or pb.OracleGrid()
    per_t, steps = pb._oracle_rows(prob, ts[:, None], grid)
    ref_t, ref_steps = per_xi_oracle_rows(prob, ts[:, None], grid)
    assert len(per_t) == len(ref_t) == len(ts)
    assert all(np.array_equal(a, b) for a, b in zip(per_t, ref_t))
    assert steps == ref_steps and all(type(s) is float for s in steps)


def _box_map(lower, upper, window=None):
    dims = (1, 1, 1)
    f = ex.VectorFunc((ex.parse("x1 - z1", dims),), dims)
    K = pb.ParamBox((None if lower is None else ex.parse(lower, (1, 0, 0)),),
                    (ex.parse(upper, (1, 0, 0)),))
    return pb.VepProblem("toy:box-map", 1, 1, 1, f, geo.orthant(1), K,
                         ex.parse("0", (1, 1, 0)), geo.full_space(1), window=window or {})


def _ray_map(window=None):
    """{x : xi1 x <= 1, -x <= 1}: a segment for xi1 > 0, a half-line for xi1 < 0."""
    dims = (1, 1, 1)
    f = ex.VectorFunc((ex.parse("x1 - z1", dims),), dims)
    K = pb.ParamPolytope(((ex.parse("xi1", (1, 0, 0)),), (ex.parse("0 - 1", (1, 0, 0)),)),
                         (ex.parse("1", (1, 0, 0)), ex.parse("1", (1, 0, 0))))
    return pb.VepProblem("toy:ray-map", 1, 1, 1, f, geo.orthant(1), K,
                         ex.parse("0", (1, 1, 0)), geo.full_space(1), window=window or {})


def test_linspaces_equal_one_linspace_per_entry():
    rng = np.random.default_rng(0)
    lo = rng.normal(size=(50, 2))
    up = lo + rng.uniform(0.0, 3.0, size=(50, 2))
    for flat in ((), (7, 1)):      # with a zero step, numpy scales every entry its other way
        if flat:
            up[flat] = lo[flat]
        got = pb._linspaces(lo, up, 201)
        want = [[np.linspace(a, b, 201) for a, b in zip(l, u)] for l, u in zip(lo, up)]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("make, xi", [
    (lambda: pb.load("example:paper"), 0.3),
    (lambda: pb.load(str(POLYTOPE)), 0.5),
    (_degenerate_square, 0.25),
    (lambda: _box_map("xi1", "abs(xi1)"), 0.4),
    (lambda: _box_map(None, "1", {"x": (np.array([-2.0]), np.array([2.0]))}), 0.0),
    (lambda: _ray_map({"x": (np.array([-2.0]), np.array([3.0]))}), -0.5),
], ids=["box", "polytope", "degenerate-vertex", "point", "window-box", "window-polytope"])
def test_axis_grids_equal_the_per_slice_grids(make, xi):
    prob = make()
    S = pb.slice_at(prob.K, [xi])
    axes, truncated = pb._axis_grids(prob, S, 201)
    ref_axes, ref_truncated = per_slice_axis_grids(prob, S, 201)
    assert truncated == ref_truncated
    assert len(axes) == len(ref_axes) and all(np.array_equal(a, b) for a, b in zip(axes, ref_axes))


@pytest.mark.parametrize("make, ts, bad, message", [
    # an empty box slice at the second row, before an unbounded one
    (lambda: _box_map("2*xi1", "xi1"), (-0.5, 0.25, 0.5), 1,
     "empty slice at xi=[0.25]: lower > upper"),
    (lambda: _box_map(None, "1"), (0.0, 0.5), 0, "requires an explicit window"),
    (lambda: _ray_map(), (0.5, 1.0, -0.5, 0.7, -1.0), 2, "requires an explicit window"),
    (lambda: _ray_map({"x": (np.array([-np.inf]), np.array([2.0]))}), (0.5, -0.5), 1,
     "without an explicit window"),
], ids=["empty-box", "unbounded-box", "unbounded-polytope", "infinite-window"])
def test_stacked_oracle_raises_at_the_first_bad_row(make, ts, bad, message):
    prob, XI = make(), np.array(ts)[:, None]
    with pytest.raises(pb.ProblemError, match=re.escape(message)) as stacked:
        pb._oracle_rows(prob, XI, pb.OracleGrid())
    with pytest.raises(pb.ProblemError) as reference:
        per_xi_oracle_rows(prob, XI, pb.OracleGrid())
    assert str(stacked.value) == str(reference.value)
    # the rows before the bad one have grids
    assert len(pb._oracle_rows(prob, XI[:bad], pb.OracleGrid())[0]) == bad


@pytest.mark.parametrize("source, sizes_seen", [("example:paper", {2}),
                                                (str(POLYTOPE), {3, 4, 5})],
                         ids=["paper", "polytope"])
def test_oracle_z_ranges_over_the_grid_hull(monkeypatch, source, sizes_seen):
    prob = pb.load(source)
    sizes = []
    f_dists = mr._f_dists

    def record(prob, XI, X, Z):
        sizes.append(Z.shape[1])
        return f_dists(prob, XI, X, Z)

    monkeypatch.setattr(mr, "_f_dists", record)
    for t in (0.0, 0.05, -0.35, 0.5):
        assert len(pb.oracle_solutions(prob, [t])) > 0
    assert sizes and set(sizes) <= sizes_seen


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


def test_polytope_graph_samples_lie_on_the_face():
    # polytope.vep: E(xi) is the face x1 + x2 = 1 + |xi| of K(xi)
    prob = pb.load(str(POLYTOPE))
    cloud = pb.graph_samples(prob, -0.5, 0.5, 21)
    ts = np.linspace(-0.5, 0.5, 21)
    steps = dict(zip(ts, pb._oracle_rows(prob, ts[:, None], pb.OracleGrid())[1]))
    assert set(cloud[:, 0]) == set(ts)
    for t, x1, x2 in cloud:
        assert abs(x1 + x2 - (1 + abs(t))) <= 2 * steps[t]


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
