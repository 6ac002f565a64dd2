import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from vep import expr as ex
from vep import geometry as geo
from vep import merit as mr
from vep import problem as pb
from vep import solver as sv
from vep import subdiff as sd

from _oracles import fd_gradient, nnls_cone_projection, per_point_nu_gradients


def _vertex_set(body, digits=9):
    return {tuple(np.round(p, digits)) for p in body.points}


# ---------------------------------------------------------------------------
# x-block subgradient of nu
# ---------------------------------------------------------------------------

def test_nu_partial_below_the_bound(tent):
    est = sd.nu_partial_subgradient_smooth(tent, [0.0], [0.5])
    assert _vertex_set(est.body) == {(-1.0,)}
    assert est.exactness == sd.EXACT_CONVEX


def test_nu_partial_above_the_bound(tent):
    est = sd.nu_partial_subgradient_smooth(tent, [0.3], [2.0])
    assert _vertex_set(est.body) == {(0.0,)}


def test_nu_partial_scales_with_f(tent, const_box):
    from conftest import make_const_box
    one = make_const_box(f_comp="x1 - z1")
    two = make_const_box(f_comp="2*x1 - 2*z1")
    g1 = sd.nu_partial_subgradient_smooth(one, [0.0], [0.0]).body.points
    g2 = sd.nu_partial_subgradient_smooth(two, [0.0], [0.0]).body.points
    assert np.allclose(2 * g1, g2)


def test_nu_partial_matches_fd_at_smooth_points(tent):
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(100):
        t, xv = rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)
        if abs(xv - (abs(t) + 1)) < 5e-2:  # skip the solution set
            continue
        est = sd.nu_partial_subgradient_smooth(tent, [t], [xv])
        if len(est.body.points) != 1:
            continue

        def fn(v):
            return mr.eval_nu(tent, [t], v).value

        g = fd_gradient(fn, [xv], h=1e-6)
        assert np.max(np.abs(est.body.points[0] - g)) <= 1e-4
        checked += 1
    assert checked >= 60


# ---------------------------------------------------------------------------
# full subgradient of nu
# ---------------------------------------------------------------------------

def test_nu_full_at_solution_point(tent):
    est = sd.nu_subgradient_full(tent, [0.0], [1.0])
    assert est.exactness == sd.EXACT_CONVEX
    assert _vertex_set(est.body, 8) == {(-1.0, -1.0), (1.0, -1.0), (0.0, 0.0)}


def test_nu_full_on_smooth_graph_branch(tent):
    est = sd.nu_subgradient_full(tent, [0.5], [1.5])
    assert _vertex_set(est.body, 8) == {(1.0, -1.0), (0.0, 0.0)}


def test_nu_full_identically_zero_region(tent):
    est = sd.nu_subgradient_full(tent, [0.0], [3.0])
    assert _vertex_set(est.body, 8) == {(0.0, 0.0)}


PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"
# the stationarity points of the benchmark's check-stationarity jobs
STENCIL_POINTS = {
    "example:paper": [([0.0], [1.0]), ([0.5], [1.5]), ([1.0], [2.0])],
    str(PROBLEMS / "gencone.vep"): [([0.0], [1.0]), ([0.5], [1.5]), ([1.0], [2.0])],
    str(PROBLEMS / "polytope.vep"): [([0.0], [0.5, 0.5]), ([0.5], [0.75, 0.75])],
}


def _seeded_points(prob, seed, count=3):
    rng = np.random.default_rng(seed)
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    return [(rng.uniform(wlo, wup), rng.uniform(xlo, xup)) for _ in range(count)]


@pytest.mark.parametrize("seed, source", enumerate(STENCIL_POINTS))
def test_nu_full_stencil_equals_per_point_differences(seed, source):
    prob = pb.load(source)
    for xi, x in STENCIL_POINTS[source] + _seeded_points(prob, seed):
        got = sd.nu_subgradient_full(prob, xi, x).body.points
        ref = geo.body_from_points(per_point_nu_gradients(prob, xi, x)).points
        assert np.array_equal(got, ref), (xi, x, got, ref)


def test_nu_full_without_a_smooth_ring_point_takes_the_central_difference(tent, monkeypatch):
    monkeypatch.setattr(geo, "_sphere_dirs", lambda dim, n: np.zeros((0, dim)))
    for xi, x in (([0.5], [1.5]), ([0.25], [-1.5])):
        got = sd.nu_subgradient_full(tent, xi, x).body.points
        ref = per_point_nu_gradients(tent, xi, x)
        assert len(ref) == 1 and np.array_equal(got, ref)


def test_stationarity_check_makes_no_scalar_nu_call(monkeypatch):
    calls = []
    scalar = mr.eval_nu
    monkeypatch.setattr(mr, "eval_nu", lambda *a, **k: calls.append(a) or scalar(*a, **k))
    prob = pb.load(str(PROBLEMS / "gencone.vep"))
    sv.check_stationarity_general(prob, [0.0], [1.0], None, 0.5)
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# coderivatives of the feasible-set map
# ---------------------------------------------------------------------------

def test_coderivative_at_the_kink(tent):
    for v in (-1.0, -0.5):
        img = sd.coderivative_K(tent, [0.0], [1.0], [v])
        assert sorted(round(float(p[0]), 9) for p in img.points) == [v, -v]
    img = sd.coderivative_K(tent, [0.0], [1.0], [0.0])
    assert [round(float(p[0]), 9) for p in img.points] == [0.0]
    assert sd.coderivative_K(tent, [0.0], [1.0], [0.5]).is_empty


def test_coderivative_symmetry_at_the_kink(tent):
    img = sd.coderivative_K(tent, [0.0], [1.0], [-0.7])
    us = sorted(float(p[0]) for p in img.points)
    assert us == pytest.approx([-0.7, 0.7])


def test_coderivative_on_smooth_branch(tent):
    # active bound x = xi + 1 near xi = 0.5: normals span (-1, 1)
    img = sd.coderivative_K(tent, [0.5], [1.5], [-0.5])
    assert [round(float(p[0]), 9) for p in img.points] == [-0.5]
    assert sd.coderivative_K(tent, [0.5], [1.5], [0.5]).is_empty


def test_coderivative_requires_graph_point(tent):
    with pytest.raises(sd.SubdiffError, match="not on the graph"):
        sd.coderivative_K(tent, [0.0], [5.0], [0.0])


def _coderivative_of_rows(monkeypatch, tent, G, p, v):
    """coderivative_K of a one-branch graph normal cone with rows G."""
    G = np.asarray(G, dtype=float)
    monkeypatch.setattr(sd, "graph_normal_branches", lambda *a: geo.RayUnion((G,)))
    prob = dataclasses.replace(tent, p=p, n=G.shape[1] - p)
    return sd.coderivative_K(prob, np.zeros(p), np.zeros(prob.n), v)


def _in_cone(y, G):
    y = np.asarray(y, dtype=float)
    gap = y - nnls_cone_projection(y, geo.ConeRepr(len(y), "generators", G))
    return np.linalg.norm(gap) <= 1e-7 * (1.0 + np.linalg.norm(y))


def test_coderivative_of_a_three_row_fan_is_an_interval(monkeypatch, tent):
    # {t1 + 2 t2 + 3 t3 : t >= 0, t1 + t2 + t3 = 1} = [1, 3]
    img = _coderivative_of_rows(monkeypatch, tent, [[1, 1], [2, 1], [3, 1]], 1, [-1.0])
    assert sorted(round(float(u[0]), 9) for u in img.points) == [1.0, 2.0, 3.0]
    assert img.rays == ()


def test_coderivative_of_random_branches_is_exact(monkeypatch, tent):
    # points and rays lie in the branch cone, and every G_xi^T t with
    # G_x^T t = -v, t >= 0, lies in conv(points) + cone(rays)
    rng = np.random.default_rng(11)
    for _ in range(150):
        p, n, k = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 5)
        G = rng.integers(-2, 3, size=(k, p + n)).astype(float)
        t = rng.uniform(0.0, 2.0, k) * (rng.uniform(size=k) < 0.7)
        v = -G[:, p:].T @ t
        img = _coderivative_of_rows(monkeypatch, tent, G, p, v)
        for u in img.points:
            assert _in_cone(np.concatenate([u, -v]), G), (G, v, u)
        for r in img.rays:
            assert _in_cone(np.concatenate([r, np.zeros(n)]), G), (G, r)
        P, R = np.reshape(img.points, (-1, p)), np.reshape(img.rays, (-1, p))
        M = np.block([[P.T, R.T], [np.ones(len(P)), np.zeros(len(R))]])
        want = np.concatenate([G[:, :p].T @ t, [1.0]])
        assert nnls(M, want)[1] <= 1e-7 * (1.0 + np.linalg.norm(want)), (G, t)


def test_coderivative_and_mu_bodies_call_no_nnls(monkeypatch, tent):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("nnls called")

    monkeypatch.setattr(scipy.optimize, "nnls", refuse)
    monkeypatch.setattr(geo, "nnls", refuse)
    up = ex.parse("1 - abs(xi1)", (1, 0, 0))
    fan = dataclasses.replace(tent, n=2, K=pb.ParamBox((None, None), (up, up)))
    for prob, xi, z in ((tent, [0.0], [1.0]), (tent, [0.5], [1.5]), (fan, [0.0], [1.0, 1.0])):
        sd.coderivative_K(prob, xi, z, -np.ones(prob.n))
        sd.coderivative_K_ball_image(prob, xi, z)
        sd.mu_subgradient_estimate(prob, xi, z)
        sd.mu_subgradient_coupled(prob, xi, z)


def test_ball_image_bodies(tent):
    bodies = sd.coderivative_K_ball_image(tent, [0.0], [1.0])
    spans = sorted(
        (round(float(b.points.min()), 9), round(float(b.points.max()), 9))
        for b in bodies
    )
    assert spans == [(-1.0, 0.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# feasibility-gap subdifferential estimate
# ---------------------------------------------------------------------------

def test_mu_estimate_at_the_worked_point(tent):
    est = sd.mu_subgradient_estimate(tent, [0.0], [1.0])
    # union of the two branch boxes covers [-1,1] x [-1,1]
    probes = [(-1.0, -1.0), (1.0, 1.0), (0.0, -1.0), (0.9, 0.3)]
    for q in probes:
        assert any(geo.body_contains(b, q, tol=1e-7) for b in est.bodies)


def test_mu_estimate_interior_point_constant_map(const_box):
    est = sd.mu_subgradient_estimate(const_box, [0.0], [0.2])
    # interior: coderivative image {0}, so the estimate is {0} x B
    assert any(geo.body_contains(b, [0.0, 0.5]) for b in est.bodies)
    assert not any(geo.body_contains(b, [0.3, 0.0], tol=1e-6) for b in est.bodies)


def test_mu_estimate_soundness_fd(tent):
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(100):
        t, xv = rng.uniform(-1.5, 1.5), rng.uniform(-3.5, 3.5)
        if abs(t) < 0.05:  # keep clear of the bound kink
            continue
        if min(abs(xv - (abs(t) + 1)), abs(xv + abs(t) + 1)) < 0.05:
            continue

        def fn(q):
            return mr.eval_mu(tent, q[:1], q[1:])

        g = fd_gradient(fn, [t, xv], h=1e-6)
        est = sd.mu_subgradient_estimate(tent, [t], [xv])
        assert any(geo.body_contains(b, g, tol=0.02) for b in est.bodies), (t, xv, g)
        checked += 1
    assert checked >= 60


def test_mu_coupled_off_the_kink(tent):
    est = sd.mu_subgradient_coupled(tent, [0.5], [1.5])
    # graph normal (-1, 1) of the upper bound |xi| + 1, capped at |v| <= 1
    assert len(est.bodies) == 1
    assert geo.body_contains(est.body, [-0.5, 0.5], tol=1e-9)
    for q in ((-1.0, -1.0), (0.0, -1.0)):
        assert not geo.body_contains(est.body, q, tol=1e-6)


def test_mu_coupled_at_the_kink(tent):
    est = sd.mu_subgradient_coupled(tent, [0.0], [1.0])
    # reentrant corner: conv{0, (1,1)} and conv{0, (-1,1)}, one per branch
    assert len(est.bodies) == 2
    assert {tuple(np.round(b.points[-1], 9)) for b in est.bodies} == {
        (1.0, 1.0), (-1.0, 1.0)}
    assert not any(geo.body_contains(b, [0.0, -1.0], tol=1e-6) for b in est.bodies)


def test_mu_coupled_soundness_fd(tent):
    # gradients of mu at smooth points near a graph point lie in the
    # coupled estimate there (limiting subgradients)
    def fn(q):
        return mr.eval_mu(tent, q[:1], q[1:])

    checked = 0
    for t in (-1.0, -0.5, 0.0, 0.25, 0.75):
        for xv in (abs(t) + 1, -abs(t) - 1, 0.3):
            est = sd.mu_subgradient_coupled(tent, [t], [xv])
            for u in geo._sphere_dirs(2, 24):
                q = np.array([t, xv]) + 1e-3 * u
                if abs(q[0]) < 1e-5 or min(abs(q[1] - abs(q[0]) - 1),
                                           abs(q[1] + abs(q[0]) + 1)) < 1e-5:
                    continue
                g = fd_gradient(fn, q, h=1e-6)
                assert any(geo.body_contains(b, g, tol=1e-4)
                           for b in est.bodies), (t, xv, q, g)
                checked += 1
    assert checked >= 300


def test_mu_coupled_none_where_not_exact(tent):
    # polytope map
    A = ((ex.parse("1", (1, 0, 0)),), (ex.parse("0 - 1", (1, 0, 0)),))
    b = (ex.parse("1", (1, 0, 0)), ex.parse("1", (1, 0, 0)))
    poly = dataclasses.replace(tent, K=pb.ParamPolytope(A, b))
    assert sd.mu_subgradient_coupled(poly, [0.0], [1.0]) is None
    # off the slice
    assert sd.mu_subgradient_coupled(tent, [0.0], [1.5]) is None


def test_a_curved_bound_has_one_graph_normal():
    # K(xi) = [-xi^2 - 1, xi^2 + 1] is smooth: the active upper bound at
    # (0.3, 1.09) has the one normal (-2 xi, 1), its slope read exactly
    prob = pb.load(str(Path(__file__).parent / "data" / "curved_box.vep"))
    normals = sd.graph_normal_branches(prob, [0.3], [1.09])
    assert normals.exact
    assert [b.tolist() for b in normals.branches] == [[[-2 * 0.3, 1.0]]]


def test_graph_normals_add_over_active_coordinates(tent):
    # p = 1, n = 2 with both upper bounds active at xi = 0, z = (1, 1): the
    # graph normal cone is cone{(-1, 1, 0)} + cone{(-2, 0, 1)}, so it holds
    # (-3, 1, 1) and the coderivative at v = (-1, -1) contains -3
    dims = (1, 0, 0)
    K = pb.ParamBox((None, None), (ex.parse("xi1 + 1", dims), ex.parse("2*xi1 + 1", dims)))
    prob = dataclasses.replace(tent, n=2, K=K)
    normals = sd.graph_normal_branches(prob, [0.0], [1.0, 1.0])
    assert normals.exact
    assert len(normals.branches) == 1
    assert {tuple(r) for r in normals.branches[0]} == {(-1.0, 1.0, 0.0), (-2.0, 0.0, 1.0)}
    img = sd.coderivative_K(prob, [0.0], [1.0, 1.0], [-1.0, -1.0])
    assert any(abs(u[0] + 3.0) <= 1e-9 for u in img.points)
    # rows with different x-parts: the coupled mu estimate still declines
    assert sd.mu_subgradient_coupled(prob, [0.0], [1.0, 1.0]) is None


def test_ball_image_of_a_summed_fan(tent):
    # both upper bounds 1 - |xi1| have salient corners at xi = 0, z = (1, 1):
    # one four-row branch, whose unit-ball image {t2 + t4 - t1 - t3 :
    # t >= 0, |(t1 + t2, t3 + t4)| <= 1} is [-sqrt(2), sqrt(2)]
    up = ex.parse("1 - abs(xi1)", (1, 0, 0))
    prob = dataclasses.replace(tent, n=2, K=pb.ParamBox((None, None), (up, up)))
    (body,) = sd.coderivative_K_ball_image(prob, [0.0], [1.0, 1.0])
    for d in (1.0, -1.0):
        assert geo.support(body, [d]) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def _branch_set(normals):
    return sorted(sorted(tuple(float(v) for v in row) for row in br)
                  for br in normals.branches)


def test_tent_as_polytope_has_the_box_normals(tent):
    # the same map written as rows z <= |xi| + 1 and -z <= |xi| + 1: its
    # graph normals are those of the box map, exact, kink included
    dims = (1, 0, 0)
    A = ((ex.parse("1", dims),), (ex.parse("0 - 1", dims),))
    b = (ex.parse("abs(xi1) + 1", dims),) * 2
    poly = dataclasses.replace(tent, K=pb.ParamPolytope(A, b))
    for xi, z in ((0.0, 1.0), (0.0, -1.0), (0.5, 1.5), (-1.0, 2.0)):
        want = sd.graph_normal_branches(tent, [xi], [z])
        got = sd.graph_normal_branches(poly, [xi], [z])
        assert want.exact and got.exact
        assert len(got.branches) == len(want.branches), (xi, z)
        for g, w in zip(_branch_set(got), _branch_set(want)):
            assert np.allclose(g, w, rtol=0.0, atol=1e-12), (xi, z)


def test_polytope_normals_at_the_kink(tent):
    # the map of perfbench/problems/polytope.vep at xi = 0, z = (1/2, 1/2):
    # only x1 + x2 <= 1 + |xi| is active, a reentrant corner in xi
    dims = (1, 0, 0)
    A = tuple(tuple(ex.parse(t, dims) for t in row) for row in
              (("1", "1"), ("1", "0"), ("0", "1"), ("0 - 1", "0"), ("0", "0 - 1")))
    b = tuple(ex.parse(t, dims) for t in ("1 + abs(xi1)", "2", "2", "1", "1"))
    prob = dataclasses.replace(tent, n=2, K=pb.ParamPolytope(A, b))
    normals = sd.graph_normal_branches(prob, [0.0], [0.5, 0.5])
    assert normals.exact
    assert _branch_set(normals) == [[(-1.0, 1.0, 1.0)], [(1.0, 1.0, 1.0)]]


def test_degenerate_box_slice_keeps_the_union(tent):
    # both bounds active on one coordinate pinch the slice: the limiting
    # normal cone is the union of the per-bound branches, not their sum
    dims = (1, 0, 0)
    absxi = ex.parse("abs(xi1)", dims)
    for lower, want in (
        (ex.parse("0 - abs(xi1)", dims),
         [[(-1.0, -1.0)], [(-1.0, 1.0)], [(1.0, -1.0)], [(1.0, 1.0)]]),
        (ex.parse("0", dims), [[(-1.0, 1.0)], [(0.0, -1.0)], [(1.0, 1.0)]]),
    ):
        prob = dataclasses.replace(tent, K=pb.ParamBox((lower,), (absxi,)))
        normals = sd.graph_normal_branches(prob, [0.0], [0.0])
        assert normals.exact
        assert normals.note == "degenerate-slice"
        assert _branch_set(normals) == want


# ---------------------------------------------------------------------------
# normals of the solution graph
# ---------------------------------------------------------------------------

def _rays(cone):
    return sorted(sorted(tuple(0.0 + np.round(ray, 12)) for ray in br) for br in cone.branches)


H = round(2 ** -0.5, 12)
UP, LINE, VLINE = [[(-H, H)], [(H, H)]], [[(-H, H)], [(H, -H)]], [[(0.0, -1.0)], [(0.0, 1.0)]]
TENT_APEX = [[(-H, -H), (0.0, -1.0)], [(0.0, -1.0), (H, -H)]]
CURVED_BOX = Path(__file__).parent / "data" / "curved_box.vep"


@pytest.mark.parametrize("source, xi, x, regular, limiting", [
    # the tent x = |xi| + 1: the fan below its apex, and the normals of its arms
    ("example:paper", 0.0, 1.0, TENT_APEX, None),
    ("example:paper", 0.5, 1.5, LINE, LINE),
    # the same map as rows z <= |xi| + 1 and -z <= |xi| + 1: the same cones
    ("tent as polytope", 0.0, 1.0, TENT_APEX, None),
    ("tent as polytope", 0.5, 1.5, LINE, LINE),
    # the thick graph 1 <= x <= |xi| + 1 at its apex, on its top edge and inside
    (PROBLEMS / "gencone.vep", 0.0, 1.0, [[(0.0, -1.0)]], None),
    (PROBLEMS / "gencone.vep", 0.5, 1.5, [[(-H, H)]], [[(-H, H)]]),
    (PROBLEMS / "gencone.vep", 0.5, 1.2, [[]], [[]]),
    # E(xi) = {xi^2 + 1}: an active row holds xi^2, so the cones are the linearized line
    (CURVED_BOX, 0.0, 1.0, VLINE, VLINE),
])
def test_graph_E_normals_closed_forms(tmp_path, source, xi, x, regular, limiting):
    if source == "tent as polytope":
        source = tmp_path / "tent_polytope.vep"
        source.write_text((PROBLEMS / "gencone.vep").read_text()
                          .replace("type = generators\nrows = 1, 0 ; -1, 1", "type = orthant")
                          .replace("type = box\nlower = -abs(xi1) - 1\nupper = abs(xi1) + 1",
                                   "type = polytope\nA = 1 ; -1\nb = abs(xi1) + 1 ; abs(xi1) + 1"))
    cones = sd._graph_E_cones(pb.load(str(source)), [xi], [x])
    assert [_rays(c) for c in cones] == [regular, sorted(limiting or regular + UP)]
    linearized = source == CURVED_BOX
    assert [(c.exact, c.note) for c in cones] == [(not linearized, "linearized" * linearized)] * 2


def test_planar_cones_cut_the_polar_of_a_ray_or_a_point_into_quarter_fans():
    # the polar of the ray (1, 0) is the half-plane d1 <= 0, that of the point 0 the plane
    for rows, fans in (([[1, 0], [0, 1], [0, -1]], 2), ([[1, 0], [-1, 0], [0, 1], [0, -1]], 4)):
        regular, limiting = sd._planar_cones([np.array(rows, dtype=float)])
        assert len(regular) == len(limiting) == fans and all(abs(f[0] @ f[1]) < 1e-12 for f in regular)


# ---------------------------------------------------------------------------
# outer estimate with enlargement
# ---------------------------------------------------------------------------

def test_outer_estimate_contains_the_subdifferential(tent):
    full = sd.nu_subgradient_full(tent, [0.0], [1.0])
    outer = sd.nu_outer_estimate(tent, [0.0], [1.0], [0.05, 0.1, 0.2], l_f=1.0)
    dirs = geo._sphere_dirs(2, 64)
    for eps, body in outer.per_eps:
        for d in dirs:
            assert geo.support(full.body, d) <= geo.support(body, d) + 0.02


def test_outer_estimate_enlarged_argmax(tent):
    outer = sd.nu_outer_estimate(tent, [0.0], [1.0], [0.1], l_f=1.0)
    assert outer.per_eps[0][0] == 0.1
    assert outer.body.ball == 1.0


def test_outer_estimate_trivial_cone_dual():
    # C = halfspace-form full space: polar {0}, estimate reduces to the ball
    from conftest import make_const_box
    import vep.problem as pb
    prob = make_const_box()
    full_cone = geo.ConeRepr(1, "halfspaces", np.zeros((0, 1)))
    prob2 = pb.VepProblem(
        prob.name, 1, 1, 1, prob.f, full_cone, prob.K, prob.objective,
        prob.omega, prob.window, prob.asserts)
    outer = sd.nu_outer_estimate(prob2, [0.0], [1.0], [0.05], l_f=0.7)
    assert outer.body.ball == 0.7
    assert np.max(np.abs(outer.body.points)) <= 1e-12
