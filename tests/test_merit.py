import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from vep import expr as ex
from vep import merit as mr
from vep import problem as pb

from _oracles import per_point_vertex_nu


# ---------------------------------------------------------------------------
# golden values on the worked instance
# ---------------------------------------------------------------------------

def test_nu_golden_values(tent):
    ne = mr.eval_nu(tent, [0.0], [0.0])
    assert ne.value == pytest.approx(1.0, abs=1e-12)
    assert ne.method == "vertex-exact"
    # the farthest comparison point is the upper slice endpoint
    assert [round(float(z[0]), 9) for z in ne.argmax] == [1.0]
    assert mr.eval_nu(tent, [0.0], [2.0]).value == 0.0
    ne = mr.eval_nu(tent, [1.0], [0.0])
    assert ne.value == pytest.approx(2.0, abs=1e-12)
    assert [round(float(z[0]), 9) for z in ne.argmax] == [2.0]


def test_mu_golden_values(tent):
    assert mr.eval_mu(tent, [0.0], [3.0]) == pytest.approx(2.0)
    assert mr.eval_mu(tent, [0.0], [0.5]) == 0.0
    assert mr.eval_mu(tent, [1.0], [-5.0]) == pytest.approx(3.0)


def test_merit_golden_values(tent):
    assert mr.eval_merit(tent, [0.0], [1.0]).merit == 0.0
    me = mr.eval_merit(tent, [0.0], [0.0])
    assert (me.nu, me.mu, me.merit) == (1.0, 0.0, 1.0)
    me = mr.eval_merit(tent, [0.0], [3.0])
    assert me.nu == 0.0 and me.mu == pytest.approx(2.0) and me.merit == pytest.approx(2.0)


def test_merit_is_nu_plus_mu_and_levels_intersect(tent):
    rng = np.random.default_rng(1)
    for _ in range(50):
        t, xv = rng.uniform(-2, 2), rng.uniform(-4, 4)
        me = mr.eval_merit(tent, [t], [xv])
        assert me.merit == me.nu + me.mu
        assert (me.merit <= 1e-9) == (me.nu <= 1e-9 and me.mu <= 1e-9)


def test_closed_form_on_random_points(tent):
    rng = np.random.default_rng(2)
    for _ in range(200):
        t, xv = rng.uniform(-3, 3), rng.uniform(-3, 3)
        expect = max(abs(t) + 1 - xv, 0.0)
        assert mr.eval_nu(tent, [t], [xv]).value == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------------------
# enlargements
# ---------------------------------------------------------------------------

def test_enlarged_sup_at_solution_point(tent):
    ne = mr.eval_nu(tent, [0.0], [1.0], eps=0.1)
    assert ne.value == pytest.approx(0.1, abs=1e-12)
    assert [round(float(z[0]), 9) for z in ne.argmax] == [1.1]


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
@settings(max_examples=40, deadline=None)
def test_nu_monotone_in_enlargement(tent, e1, e2):
    lo, hi = sorted((e1, e2))
    a = mr.eval_nu(tent, [0.3], [0.4], eps=lo).value
    b = mr.eval_nu(tent, [0.3], [0.4], eps=hi).value
    assert b >= a - 1e-12


# ---------------------------------------------------------------------------
# grid fallback path
# ---------------------------------------------------------------------------

def test_grid_path_for_nonaffine_f():
    import vep.expr as ex
    import vep.geometry as geo
    dims = (1, 1, 1)
    # f quadratic in z: sup of dist over the slice needs the grid path
    f = ex.VectorFunc((ex.parse("x1 - z1^2", dims),), dims)
    K = pb.ParamBox((ex.parse("0 - 1", (1, 0, 0)),), (ex.parse("1", (1, 0, 0)),))
    prob = pb.VepProblem("toy:quad", 1, 1, 1, f, geo.orthant(1), K,
                         ex.parse("0", (1, 1, 0)), geo.full_space(1))
    ne = mr.eval_nu(prob, [0.0], [0.5])
    # sup_z dist(0.5 - z^2, R+) = max(z^2 - 0.5) = 0.5 at z = +-1
    assert ne.method in ("grid", "multistart")
    assert ne.value == pytest.approx(0.5, abs=1e-6)
    assert sorted(round(abs(float(z[0])), 4) for z in ne.argmax) == pytest.approx(
        [1.0] * len(ne.argmax), abs=1e-3
    )


# ---------------------------------------------------------------------------
# hypothesis probes
# ---------------------------------------------------------------------------

def test_lower_semicontinuity_probe(tent):
    ok, worst = mr.probe_lower_semicontinuity(tent, n_sequences=100, seed=0)
    assert ok, f"lsc probe failed with gap {worst}"


def test_midpoint_convexity_of_nu(tent):
    ok, worst = mr.probe_midpoint_convexity(tent, "nu", n_segments=1000, seed=0)
    assert ok, f"nu convexity probe failed with gap {worst}"


def test_midpoint_convexity_of_mu_for_constant_map(const_box):
    ok, worst = mr.probe_midpoint_convexity(const_box, "mu", n_segments=500, seed=0)
    assert ok, f"mu convexity probe failed with gap {worst}"


def test_mu_not_convex_on_tent_is_detected(tent):
    # the tent feasible map is concave, not convex, and mu shows it
    ok, worst = mr.probe_midpoint_convexity(tent, "mu", n_segments=500, seed=3)
    assert not ok and worst > 0.1


# ---------------------------------------------------------------------------
# batched merit kernel
# ---------------------------------------------------------------------------

GENCONE = "perfbench/problems/gencone.vep"
POLYTOPE = "perfbench/problems/polytope.vep"


def _seeded_rows(prob, seed, count=150):
    """Random points in a wide window, a third of them on a coarse grid so
    that some land exactly on slice boundaries and solution sets."""
    rng = np.random.default_rng(seed)
    XI = rng.uniform(-2, 2, (count, prob.p))
    X = rng.uniform(-3, 3, (count, prob.n))
    XI[: count // 3] = np.round(XI[: count // 3], 1)
    X[: count // 3] = np.round(X[: count // 3], 1)
    return XI, X


def _assert_independent_parts(prob, XI, X, nu, mu):
    """mu is ``geo.dist`` to the slice (``eval_mu``) and a vertex-exact nu
    is the per-point enumeration, bit for bit."""
    want = [mr.eval_mu(prob, a, b) for a, b in zip(XI, X)]
    assert np.array_equal(mu, want), np.flatnonzero(mu != want)
    for i, (a, b) in enumerate(zip(XI, X)):
        ref = per_point_vertex_nu(prob, a, b)
        assert ref is None or nu[i] == ref[0], i


def _assert_kernel_is_scalar(prob, XI, X):
    got = mr.eval_merit_batch(prob, XI, X)
    scalar = [mr.eval_merit(prob, a, b) for a, b in zip(XI, X)]
    ref = np.array([me.merit for me in scalar])
    assert got.shape == (len(XI),)
    assert np.array_equal(got, ref), np.flatnonzero(got != ref)
    nu, mu = mr._merit_parts(prob, XI, X)
    for part, want in ((nu, [me.nu for me in scalar]), (mu, [me.mu for me in scalar])):
        assert np.array_equal(part, want), np.flatnonzero(part != want)
    _assert_independent_parts(prob, XI, X, nu, mu)


@pytest.mark.parametrize("source, seed", [("example:paper", 1), (POLYTOPE, 2), (GENCONE, 3)])
def test_merit_batch_equals_scalar_merit_bit_for_bit(source, seed):
    prob = pb.load(source)
    XI, X = _seeded_rows(prob, seed)
    _assert_kernel_is_scalar(prob, XI, X)


def _toy(text: str) -> pb.VepProblem:
    return pb.parse_problem_text("[problem]\np = 1\nn = 1\nm = 1\nwindow_xi = -2, 2\n"
                                 "window_x = -3, 3\n[cone]\ntype = orthant\n" + text
                                 + "\n[objective]\nexpr = xi1^2 + x1^2\n", "toy")


@pytest.mark.parametrize("text", [
    # unbounded box with a window: grid path, flagged unbounded-window
    "[K]\ntype = box\nlower = -inf\nupper = abs(xi1) + 1\n[f]\ncomponents = x1 - z1",
    # f not affine in z: grid and multistart path
    "[K]\ntype = box\nlower = -1\nupper = abs(xi1) + 1\n[f]\ncomponents = x1 - z1^2",
    # a polytope slice with a ray of its recession cone: grid path with the window
    "[K]\ntype = polytope\nA = -1\nb = 1 + abs(xi1)\n[f]\ncomponents = x1 - z1",
])
def test_merit_batch_falls_back_to_the_scalar_path(text):
    prob = _toy(text)
    XI, X = _seeded_rows(prob, 4, count=30)
    _assert_kernel_is_scalar(prob, XI, X)


def test_merit_batch_mixes_exact_and_fallback_points():
    # z in [0, xi1] is a vertex-exact slice for xi1 > 0 and empty for xi1 < 0;
    # the loader rejects such a map, so it replaces the one of a loaded problem
    prob = _toy("[K]\ntype = polytope\nA = 1 ; -1\nb = abs(xi1) ; 0\n[f]\ncomponents = x1 - z1")
    xi1 = ex.parse("xi1", (1, 0, 0))
    prob = dataclasses.replace(prob, K=pb.ParamPolytope(prob.K.rows, (xi1, prob.K.rhs[1])))
    XI = np.array([[0.5], [1.5], [0.25]])
    X = np.array([[0.1], [2.0], [-1.0]])
    _assert_kernel_is_scalar(prob, XI, X)
    with pytest.raises(pb.ProblemError):
        mr.eval_merit(prob, [-0.5], [0.0])
    with pytest.raises(pb.ProblemError):
        mr.eval_merit_batch(prob, np.vstack([XI, [[-0.5]]]), np.vstack([X, [[0.0]]]))


def test_merit_parts_with_and_without_fallback_rows(monkeypatch):
    # A(xi) = (xi1; -1): the slice [-1, 1/xi1] is vertex-exact for xi1 > 0
    # and unbounded, so on the scalar grid path, for xi1 <= 0
    prob = _toy("[K]\ntype = polytope\nA = xi1 ; -1\nb = 1 ; 1\n[f]\ncomponents = x1 - z1")
    XI = np.array([[0.5], [-0.5], [1.5], [0.0], [0.25], [-1.0]])
    X = np.array([[0.1], [2.0], [-1.0], [0.5], [4.0], [-2.0]])
    _assert_kernel_is_scalar(prob, XI, X)
    _, _, far = mr._merit_parts(prob, XI, X, farthest=True)
    assert far.exact.tolist() == [True, False, True, False, True, False]
    _assert_kernel_is_scalar(prob, XI[far.exact], X[far.exact])
    # every row vertex-exact: the full-slice selector, and no grid fallback
    for source, seed in (("example:paper", 6), (GENCONE, 7), (POLYTOPE, 8)):
        prob = pb.load(source)
        XI, X = _seeded_rows(prob, seed, count=60)
        with monkeypatch.context() as mp:
            mp.setattr(mr, "_grid_nu", None)
            nu, mu, far = mr._merit_parts(prob, XI, X, farthest=True)
        assert far.exact.all() and len(far.Z) == len(XI)
        assert all(per_point_vertex_nu(prob, a, b) is not None for a, b in zip(XI, X))
        _assert_independent_parts(prob, XI, X, nu, mu)
        assert np.array_equal(far.mask.any(axis=1), np.ones(len(XI), dtype=bool))


def _assert_nu_is_the_per_point_enumeration(prob, xi, x, eps):
    ne, me = mr.eval_nu(prob, xi, x, eps=eps), mr.eval_merit(prob, xi, x, eps=eps)
    assert (me.nu, me.method, me.flags) == (ne.value, ne.method, ne.flags)
    assert np.array_equal(np.reshape(me.argmax_z, (-1, prob.n)), np.reshape(ne.argmax, (-1, prob.n)))
    ref = per_point_vertex_nu(prob, xi, x, eps)
    if ref is None:
        assert ne.method != "vertex-exact"
        return ne
    value, argmax, flags = ref
    assert (ne.value, ne.method, ne.flags) == (value, "vertex-exact", flags)
    assert np.array_equal(np.reshape(ne.argmax, (-1, prob.n)), argmax)
    return ne


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("source, seed", [("example:paper", 11), (POLYTOPE, 12), (GENCONE, 13)])
def test_eval_nu_equals_the_per_point_enumeration(source, seed, eps):
    prob = pb.load(source)
    XI, X = _seeded_rows(prob, seed, count=40)
    methods = {_assert_nu_is_the_per_point_enumeration(prob, a, b, eps).method
               for a, b in zip(XI, X)}
    # an enlarged polytope takes the grid; every other slice here is exact
    assert methods == ({"grid"} if source == POLYTOPE and eps else {"vertex-exact"})


def test_eval_nu_lists_a_degenerate_vertex_once():
    # at xi = 0 three rows of the polytope meet at (2, -1) and at (-1, 2):
    # the kernel holds each of them once per subsystem it solves
    prob = pb.load(POLYTOPE)
    ne = _assert_nu_is_the_per_point_enumeration(prob, [0.0], [0.5, 0.5], 0.0)
    assert np.array_equal(np.reshape(ne.argmax, (-1, 2)), [[2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]])
    _, _, far = mr._merit_parts(prob, [[0.0]], [[0.5, 0.5]], farthest=True)
    assert far.mask.sum() > 3


@pytest.mark.parametrize("eps", [0.0, 0.25])
def test_eval_nu_on_an_enlarged_plane_box(eps):
    prob = pb.parse_problem_text(
        "[problem]\np = 1\nn = 2\nm = 1\n[cone]\ntype = orthant\n[K]\ntype = box\n"
        "lower = -1 ; -abs(xi1)\nupper = abs(xi1) + 1 ; 1\n[f]\ncomponents = x1 + x2 - z1 - 2 * z2\n"
        "[objective]\nexpr = x1^2\n", "toy:plane-box")
    for xi, x in (([0.5], [0.0, 0.0]), ([-1.0], [3.0, 0.5]), ([0.0], [-2.0, 1.0])):
        ne = _assert_nu_is_the_per_point_enumeration(prob, xi, x, eps)
        assert ne.flags == (("eps-box-superset",) if eps else ())


def test_merit_batch_of_no_points(tent):
    assert mr.eval_merit_batch(tent, np.zeros((0, 1)), np.zeros((0, 1))).shape == (0,)


@pytest.mark.parametrize("XI, X", [
    ([0.0, 1.0], [0.0, 1.0]),             # 1-D arrays are not rows
    ([[0.0, 1.0]], [[0.0]]),              # xi row of length 2, p = 1
    ([[0.0]], [[0.0, 1.0]]),              # x row of length 2, n = 1
    ([[0.0], [1.0]], [[0.0]]),            # two xi rows, one x row
    ([[0.0]], [[np.nan]]),
    ([[np.inf]], [[0.0]]),
])
def test_merit_batch_rejects_bad_rows(tent, XI, X):
    with pytest.raises(pb.ProblemError):
        mr.eval_merit_batch(tent, XI, X)
