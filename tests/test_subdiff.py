import dataclasses

import numpy as np
import pytest

from vep import expr as ex
from vep import geometry as geo
from vep import merit as mr
from vep import problem as pb
from vep import subdiff as sd

from _oracles import fd_gradient


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


# ---------------------------------------------------------------------------
# coderivatives of the feasible-set map
# ---------------------------------------------------------------------------

def test_coderivative_at_the_kink(tent):
    for v in (-1.0, -0.5):
        img = sd.coderivative_K(tent, [0.0], [1.0], [v])
        assert img.exact
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


def test_outer_estimate_support_table(tent):
    outer = sd.nu_outer_estimate(tent, [0.0], [1.0], [0.05, 0.1], l_f=1.0)
    table = outer.support_table(16)
    assert set(table) == {0.05, 0.1}
    assert all(len(v) == 16 for v in table.values())


# ---------------------------------------------------------------------------
# sampled coderivative of the solution map
# ---------------------------------------------------------------------------

def test_solution_map_coderivative_at_zero(tent):
    # the solution map is globally Lipschitz, so the image at 0 is trivial
    img = sd.coderivative_E_sampled(tent, [0.0], [1.0], [0.0])
    assert not img.exact
    assert all(abs(float(p[0])) <= 1e-6 for p in img.points)
    assert len(img.rays) == 0


def test_solution_map_coderivative_smooth_slope(tent):
    # at xi0 > 0 the graph is the line x = xi + 1 with slope 1
    img = sd.coderivative_E_sampled(tent, [0.25], [1.25], [-1.0], window=0.2)
    us = sorted(round(float(p[0]), 2) for p in img.points)
    assert us and all(abs(abs(u) - 1.0) <= 0.05 for u in us)


# ---------------------------------------------------------------------------
# sum rule
# ---------------------------------------------------------------------------

def test_sum_rule_minkowski():
    a = sd.SubgradEstimate((geo.body_from_points([[0.0, 2.0]]),), sd.EXACT_CONVEX)
    b = sd.SubgradEstimate(
        (geo.body_from_points([[-1, -1], [-1, 1], [1, -1], [1, 1]]),), sd.EXACT_CONVEX)
    s = sd.sum_rule(a, b)
    assert "semi-lipschitzian-pair" in s.qc_flags
    assert geo.support(s.body, [0.0, 1.0]) == pytest.approx(3.0)
    assert geo.support(s.body, [1.0, 0.0]) == pytest.approx(1.0)


def test_sum_rule_identity_element():
    a = sd.SubgradEstimate(
        (geo.body_from_points([[0.5, -0.25], [1.0, 0.0]]),), sd.OUTER)
    zero = sd.SubgradEstimate((geo.body_from_points([[0.0, 0.0]]),), sd.EXACT_CONVEX)
    s = sd.sum_rule(a, zero)
    assert _vertex_set(s.body) == _vertex_set(a.body)
    assert s.exactness == sd.OUTER


def test_sum_rule_hexagon_support():
    tri = sd.SubgradEstimate(
        (geo.body_from_points([[-1, -1], [-1, 1], [0, 0]]),), sd.EXACT_CONVEX)
    box = sd.SubgradEstimate(
        (geo.body_from_points([[-1, -1], [-1, 1], [1, -1], [1, 1]]),),
        sd.EXACT_CONVEX)
    s = sd.sum_rule(tri, box)
    assert geo.support(s.body, [1.0, 0.0]) == pytest.approx(1.0)


def test_sum_rule_qc_assumed_when_no_lipschitz_operand():
    a = sd.SubgradEstimate((geo.body_from_points([[0.0]]),), sd.OUTER, lipschitz=False)
    b = sd.SubgradEstimate((geo.body_from_points([[1.0]]),), sd.OUTER, lipschitz=False)
    s = sd.sum_rule(a, b)
    assert "qc-assumed" in s.qc_flags
