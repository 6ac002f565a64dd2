import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from vep import geometry as geo

from scipy.optimize import nnls

from _oracles import (grid_min_distance, hildreth_projection, nnls_cap_points,
                      nnls_cone_projection, per_value_cone_dist, qhull_vertices, sampled_min_norm)

ORTHANT2 = geo.Box([0.0, 0.0], [np.inf, np.inf])


# ---------------------------------------------------------------------------
# projections and distances
# ---------------------------------------------------------------------------

def test_project_orthant_clamps():
    assert np.allclose(geo.project([2.0, -1.0], geo.orthant(2)), [2.0, 0.0])


def test_project_box_interior_identity():
    assert geo.project([0.5], geo.Box([-2.0], [2.0]))[0] == 0.5


def test_project_orthant_against_grid_oracle():
    # oracle value frozen from grid minimization of the norm over the orthant
    q = geo.project([-0.3, 0.4], geo.orthant(2))
    assert np.allclose(q, [0.0, 0.4], atol=1e-12)
    assert geo.dist([-0.3, 0.4], geo.orthant(2)) == pytest.approx(0.3, abs=1e-12)
    oracle = grid_min_distance(
        [-0.3, 0.4], lambda p: bool(np.all(p >= 0)), [-1, -1], [2, 2], res=301
    )
    assert abs(oracle - 0.3) <= 2 * (3.0 / 300)


def test_project_halfspaces_matches_polytope():
    # unit square as halfspaces; clipping is the exact projection
    H = geo.Halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.uniform(-3, 3, 2)
        assert np.allclose(geo.project(x, H), np.clip(x, -1, 1), atol=1e-7)


def test_infeasible_halfspaces():
    H = geo.Halfspaces([[1.0], [-1.0]], [-2.0, -2.0])  # y <= -2 and y >= 2
    with pytest.raises(geo.GeometryError, match="infeasible"):
        geo.project([0.0], H)
    assert geo.dist([0.0], H) == np.inf


# the polytope.vep slice at xi = 0: three rows meet at the vertex (2, -1)
SLICE_A = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
SLICE_B = np.array([1.0, 2.0, 2.0, 1.0, 1.0])


def _assert_kkt(A, b, x, z):
    """z is feasible and x - z is a nonnegative combination of the rows
    active at z: the optimality conditions of the projection."""
    tol = 1e-9 * (np.abs(b) + np.linalg.norm(A, axis=1) * (np.linalg.norm(x) + np.linalg.norm(z)))
    slack = b - A @ z
    assert np.all(slack >= -tol), (A, b, x, z)
    active = A[slack <= tol]
    resid = nnls(active.T, x - z)[1] if len(active) else np.linalg.norm(x - z)
    assert resid <= 1e-9 * (1.0 + np.linalg.norm(x)), (A, b, x, z)


def _random_polyhedra(rng):
    """Nonempty {z : Az <= b} with n = 1, 2, 3: bounded and unbounded ones,
    some with a zero row, and the degenerate polytope slice."""
    for n in (1, 2, 3):
        for k in range(1, 8):
            for _ in range(6):
                A = rng.normal(size=(k, n))
                if rng.random() < 0.3:
                    A[rng.integers(k)] = 0.0
                yield A, A @ rng.normal(size=n) + rng.uniform(0.0, 1.0, k)
    yield SLICE_A, SLICE_B


def test_polytope_projection_is_exact():
    rng = np.random.default_rng(23)
    compared = 0
    for A, b in _random_polyhedra(rng):
        H = geo.Halfspaces(A, b)
        points = rng.normal(size=(6, A.shape[1])) * 3
        if A is SLICE_A:
            points = np.array([[3.0, -2.0], [2.5, -1.5], [2.0, -1.0], [4.0, 0.5], [0.0, 0.0]])
        for x in points:
            z = geo.project(x, H)
            _assert_kkt(A, b, x, z)
            assert geo.dist(x, H) == np.linalg.norm(x - z)
            try:
                ref = hildreth_projection(x, A, b)
            except geo.GeometryError:   # the iterative reference ran out of sweeps
                continue
            assert np.max(np.abs(z - ref)) <= 1e-8
            compared += 1
    assert compared >= 750


def test_polytope_projection_of_a_far_point():
    square = geo.Halfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], np.ones(4))
    wedge = geo.Halfspaces([[1.0, 1.0], [-0.3, 1.0]], [1.0, 0.5])
    for u in geo._sphere_dirs(2, 16):
        x = 1e8 * u
        assert np.allclose(geo.project(x, square), np.clip(x, -1.0, 1.0), rtol=0, atol=1e-7)
        for H in (square, wedge):
            _assert_kkt(H.A, H.b, x, geo.project(x, H))


@pytest.mark.parametrize("A, b", [
    ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0, 3.0]),
    ([[0.0, 0.0], [1.0, 1.0]], [-1.0, 2.0]),
    ([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]], [-1.0, 0.0, 0.0, 0.0]),
])
def test_empty_polytope_has_no_projection(A, b):
    H = geo.Halfspaces(A, b)
    x = np.ones(H.dim)
    assert geo.dist(x, H) == np.inf
    with pytest.raises(geo.GeometryError, match="infeasible"):
        geo.project(x, H)


def test_stacked_polytope_projection_is_its_scalar_calls():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        A = rng.normal(size=(40, 5, n))
        A[::7, 0] = 0.0
        b = rng.normal(size=(40, 5))        # some of these are empty
        X = rng.normal(size=(40, n)) * 3
        Z = geo.project_polytopes(A, b, X)
        assert np.isinf(Z).any() and np.isfinite(Z).any()
        for i in range(40):
            H = geo.Halfspaces(A[i], b[i])
            if np.isinf(Z[i]).all():
                assert geo.dist(X[i], H) == np.inf
            else:
                assert np.array_equal(Z[i], geo.project(X[i], H))
        H = geo.Halfspaces(A[1], np.abs(b[1]))
        assert np.array_equal(geo.project_rows(X, H), [geo.project(x, H) for x in X])


def test_truncated_normal_off_a_polytope_is_the_unit_projection_direction():
    H = geo.Halfspaces(SLICE_A, SLICE_B)
    for x in ([3.0, -2.0], [0.9, 0.9], [-3.0, 0.5]):
        x = np.asarray(x)
        u = (x - geo.project(x, H)) / geo.dist(x, H)
        assert np.array_equal(geo.truncated_normal(x, H).points, u.reshape(1, -1))


def test_cone_projection_matches_nnls():
    rng = np.random.default_rng(31)
    for C in _random_cones(rng):
        X = _values_near(C, rng, 20)
        for x in X.T:
            got = geo.project(x, C)
            tol = 1e-12 * (1.0 + np.linalg.norm(x))
            assert np.max(np.abs(got - nnls_cone_projection(x, C))) <= tol, (C.kind, C.mat, x)


def test_cap_points_match_the_nnls_membership_reference():
    cones = [geo.generated_cone([[1.0, 0.0], [-1.0, 1.0]]),     # gencone.vep's cone
             geo.dual_cone(geo.orthant(2)),
             geo.ConeRepr(2, "halfspaces", [[1.0, -1.0], [-1.0, -3.0]])]
    for C in cones:
        assert np.array_equal(geo.cap_points(C), nnls_cap_points(C)), (C.kind, C.mat)


def test_dist_examples():
    assert geo.dist([1.0, 0.0], geo.orthant(2)) == 0.0
    assert geo.dist([-2.0, 1.0], geo.orthant(2)) == pytest.approx(2.0, abs=1e-12)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2))
@settings(max_examples=80, deadline=None)
def test_projection_firmness(a, b):
    S = geo.Box([-1.0, 0.5], [2.0, 3.0])
    pa, pb = geo.project(a, S), geo.project(b, S)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(np.subtract(a, b)) + 1e-9


def test_dist_matches_grid_oracle_on_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(5):
        lo = rng.uniform(-2, 0, 2)
        hi = lo + rng.uniform(0.5, 2, 2)
        S = geo.Box(lo, hi)
        x = rng.uniform(-3, 3, 2)
        oracle = grid_min_distance(x, lambda p: bool(np.all((p >= lo - 1e-9) & (p <= hi + 1e-9))),
                                   lo, hi, res=201)
        step = float(np.max((hi - lo) / 200))
        assert abs(geo.dist(x, S) - oracle) <= 2 * step


def _random_cones(rng):
    """Generator- and halfspace-form cones with m <= 3 and k <= 6 rows:
    pointed, a half-space, one with a zero generator, and no rows at all."""
    for m in (1, 2, 3):
        for k in range(1, 7):
            G = rng.normal(size=(k, m))
            pointed = np.abs(G) * np.sign(rng.normal(size=m))  # one orthant
            zero = G.copy()
            zero[rng.integers(k)] = 0.0
            for rows in (pointed, G, zero):
                yield geo.generated_cone(rows)
                yield geo.ConeRepr(m, "halfspaces", rows)
        half = np.vstack([np.eye(m)[:-1], -np.eye(m)[:-1], np.eye(m)[-1:]])
        yield geo.generated_cone(half)
        yield geo.ConeRepr(m, "halfspaces", half[-1:])
        yield geo.generated_cone(np.zeros((0, m)))
        yield geo.ConeRepr(m, "halfspaces", np.zeros((0, m)))


def _values_near(C, rng, count):
    """Random values at mixed scales; a quarter are nonnegative combinations
    of the rows, so they lie in the cone (generator form) or in its polar
    (halfspace form), at distance 0 or |x|."""
    X = rng.normal(size=(C.dim, count)) * rng.choice([1e-6, 1.0, 1e3], count)
    if len(C.mat):
        X[:, : count // 4] = C.mat.T @ rng.uniform(0, 2, size=(len(C.mat), count // 4))
    return X


def test_dist_cone_batch_matches_nnls_row_by_row():
    rng = np.random.default_rng(17)
    for C in _random_cones(rng):
        X = _values_near(C, rng, 40)
        got = geo.dist_cone_batch(X, C)
        ref = per_value_cone_dist(X, C)
        tol = 1e-12 * (1.0 + np.linalg.norm(X, axis=0))
        assert np.all(np.abs(got - ref) <= tol), (C.kind, C.mat)


def test_scalar_cone_dist_is_its_batch_column():
    # a value's distance to a polyhedral cone is one number, alone or in a batch
    rng = np.random.default_rng(19)
    for C in _random_cones(rng):
        X = _values_near(C, rng, 40)
        batch = geo.dist_cone_batch(X, C)
        assert [geo.dist(X[:, j], C) for j in range(X.shape[1])] == batch.tolist(), (C.kind, C.mat)
        assert np.array_equal(geo.dist_cone_batch(X[:, 3:9], C), batch[3:9])


def test_dist_cone_batch_empty_rows_and_shape():
    x = np.array([[3.0], [-4.0]])
    assert geo.dist_cone_batch(x, geo.generated_cone(np.zeros((0, 2))))[0] == 5.0
    assert geo.dist_cone_batch(x, geo.ConeRepr(2, "halfspaces", np.zeros((0, 2))))[0] == 0.0
    F = np.random.default_rng(3).normal(size=(2, 4, 5))
    C = geo.generated_cone([[1.0, 0.0], [-1.0, 1.0]])
    out = geo.dist_cone_batch(F, C)
    assert out.shape == (4, 5)
    assert np.allclose(out, per_value_cone_dist(F, C), rtol=0, atol=1e-12 * (1 + np.abs(F).max()))
    assert np.array_equal(geo.dist_cone_batch(F, geo.orthant(2)), geo.dist_orthant_batch(F))


def test_cone_dist_matches_grid_oracle():
    # generator- and halfspace-form cones in the plane; the nearest point of
    # the cone to x lies within |x| of the apex, so the grid covers it
    cases = [
        (geo.generated_cone([[1.0, 0.0], [-1.0, 1.0]]), None),
        (geo.generated_cone([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]]), None),
        (geo.ConeRepr(2, "halfspaces", [[1.0, -1.0], [-1.0, -3.0]]),
         lambda p: bool(np.all(np.array([[1.0, -1.0], [-1.0, -3.0]]) @ p <= 0.0))),
    ]
    rng = np.random.default_rng(12)
    for C, member in cases:
        member = member or (lambda p, C=C: geo.cone_contains(C, p, 1e-12))
        for _ in range(2):
            x = rng.uniform(-2, 2, 2)
            r = float(np.linalg.norm(x)) + 0.1
            oracle = grid_min_distance(x, member, [-r, -r], [r, r], res=121)
            step = 2 * r / 120
            assert abs(geo.dist(x, C) - oracle) <= 2 * step
            assert abs(geo.dist_cone_batch(x.reshape(2, 1), C)[0] - oracle) <= 2 * step


def test_cone_caches_are_frozen_copies():
    G = np.array([[1.0, 0.0], [-1.0, 1.0]])
    C = geo.generated_cone(G)
    fresh = geo.generated_cone(G.copy())
    G[0] = [5.0, 5.0]
    X = np.random.default_rng(8).normal(size=(2, 30))
    assert np.array_equal(C.mat, fresh.mat)
    assert np.array_equal(geo.dist_cone_batch(X, C), geo.dist_cone_batch(X, fresh))
    assert np.array_equal(geo.cap_points(C), geo.cap_points(fresh))
    assert geo.cap_points(C) is geo.cap_points(C)
    assert geo.dual_cone(C) is geo.dual_cone(C)
    with pytest.raises(ValueError):
        geo.cap_points(C)[0] = 7.0
    with pytest.raises(ValueError):
        C.mat[0, 0] = 7.0
    R, P = C.faces[0]
    with pytest.raises(ValueError):
        P[0, 0] = 7.0


# ---------------------------------------------------------------------------
# normal cones
# ---------------------------------------------------------------------------

def test_normal_cone_halfline_at_origin():
    rn = geo.normal_cone(geo.Box([0.0], [np.inf]), [0.0])
    assert np.allclose(rn.branches[0], [[-1.0]])


def test_normal_cone_interior_is_zero():
    rn = geo.normal_cone(geo.Box([-2.0], [2.0]), [0.5])
    assert len(rn.branches[0]) == 0


def test_normal_cone_orthant_face():
    rn = geo.normal_cone(ORTHANT2, [0.0, 1.0])
    assert np.allclose(rn.branches[0], [[-1.0, 0.0]])


def test_normal_cone_requires_point_on_set():
    with pytest.raises(geo.GeometryError, match="not on the set"):
        geo.normal_cone(geo.Box([0.0], [1.0]), [2.0])


def test_normal_cone_product_rule():
    # N(S1 x S2) = N(S1) x N(S2) as generated cones
    s1 = geo.Box([0.0], [1.0])
    s2 = geo.Box([-1.0], [1.0])
    prod = geo.Box([0.0, -1.0], [1.0, 1.0])
    for x1, x2 in [(0.0, 1.0), (1.0, -1.0), (0.5, 1.0), (0.0, 0.0)]:
        g1 = geo.normal_cone(s1, [x1]).branches[0]
        g2 = geo.normal_cone(s2, [x2]).branches[0]
        gp = geo.normal_cone(prod, [x1, x2]).branches[0]
        expect = [np.concatenate([g, [0.0]]) for g in g1]
        expect += [np.concatenate([[0.0], g]) for g in g2]
        cone_a = geo.generated_cone(np.asarray(expect) if expect else np.zeros((0, 2)))
        cone_b = geo.generated_cone(gp if len(gp) else np.zeros((0, 2)))
        for g in expect:
            assert geo.cone_contains(cone_b, g, 1e-9)
        for g in gp:
            assert geo.cone_contains(cone_a, g, 1e-9)


# ---------------------------------------------------------------------------
# truncated normal map
# ---------------------------------------------------------------------------

def test_truncated_normal_table_on_interval():
    S = geo.Box([-1.0], [1.0])
    lowends = geo.truncated_normal([-1.0], S).effective_points().ravel()
    assert sorted(lowends.tolist()) == [-1.0, 0.0]
    assert np.allclose(geo.truncated_normal([0.2], S).effective_points(), [[0.0]])
    assert np.allclose(geo.truncated_normal([-3.0], S).points, [[-1.0]])
    assert np.allclose(geo.truncated_normal([4.0], S).points, [[1.0]])


def test_truncated_normal_stays_in_unit_ball():
    rng = np.random.default_rng(2)
    S = geo.Box([-1.0, 0.0], [1.0, 2.0])
    for _ in range(40):
        x = rng.uniform(-3, 3, 2)
        body = geo.truncated_normal(x, S)
        pts = body.effective_points()
        assert np.all(np.linalg.norm(pts, axis=1) <= 1 + 1e-9)


# ---------------------------------------------------------------------------
# support and min-norm
# ---------------------------------------------------------------------------

def test_support_examples():
    box = geo.body_from_points([[0, -1], [0, 1], [1, -1], [1, 1]])
    assert geo.support(box, [-1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    ball = geo.unit_ball_body(2)
    assert geo.support(ball, [0.6, -0.8]) == pytest.approx(1.0)
    seg = geo.ConvexBody(2, [[1, 1], [1, -1]], ball=0.5)
    assert geo.support(seg, [1.0, 0.0]) == pytest.approx(1.5)


def test_min_norm_examples():
    assert geo.min_norm_point(geo.body_from_points([[3.0, 4.0]]))[1] == pytest.approx(5.0)
    assert geo.min_norm_point(geo.body_from_points([[1, 0], [-1, 0]]))[1] == 0.0
    q, d = geo.min_norm_point(geo.body_from_points([[1, -1], [1, 1]]))
    assert d == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(q, [1.0, 0.0], atol=1e-8)


def test_min_norm_against_dense_sampling():
    rng = np.random.default_rng(9)
    for _ in range(6):
        pts = rng.uniform(-2, 2, size=(7, 2)) + rng.uniform(-1, 1, 2)
        body = geo.body_from_points(pts, ball=float(rng.uniform(0, 0.3)))
        _, d = geo.min_norm_point(body)
        oracle = sampled_min_norm(body.effective_points(), body.ball)
        assert d <= oracle + 1e-9
        assert oracle - d <= 0.02


def test_min_norm_support_duality():
    # the dual value -h(-d) is piecewise linear in the direction, so the
    # sampled maximum needs a fine direction grid to meet the 0.02 contract
    rng = np.random.default_rng(4)
    dirs = geo._sphere_dirs(2, 512)
    for _ in range(5):
        pts = rng.uniform(-2, 2, size=(6, 2)) + np.array([1.5, 0.5])
        body = geo.ConvexBody(2, pts, ball=0.2,
                              caps=(geo.generated_cone([[1.0, 0.2]]),))
        _, d = geo.min_norm_point(body)
        dual = max(-geo.support(body, -u) for u in dirs)
        assert dual <= d + 1e-9  # weak duality
        assert abs(d - max(dual, 0.0)) <= 0.02


# ---------------------------------------------------------------------------
# dual cones
# ---------------------------------------------------------------------------

def test_dual_orthant_is_negative_orthant():
    dual = geo.dual_cone(geo.orthant(2))
    assert geo.cone_contains(dual, [-1.0, -2.0])
    assert not geo.cone_contains(dual, [0.5, -1.0])


def test_dual_of_ray_is_halfplane():
    # FD membership-grid oracle: {x : x + y <= 0}
    dual = geo.dual_cone(geo.generated_cone([[1.0, 1.0]]))
    rng = np.random.default_rng(6)
    for _ in range(60):
        v = rng.uniform(-2, 2, 2)
        assert geo.cone_contains(dual, v, 1e-9) == (v[0] + v[1] <= 1e-9)


def test_dual_of_trivial_cone_is_full_space():
    dual = geo.dual_cone(geo.generated_cone(np.zeros((0, 2))))
    assert geo.cone_contains(dual, [5.0, -7.0])


def test_dual_dual_recovers_cone_on_generators():
    C = geo.generated_cone([[1.0, 0.0], [1.0, 1.0]])
    dd = geo.dual_cone(geo.dual_cone(C))
    for g in C.mat:
        assert geo.cone_contains(dd, g, 1e-9)
    assert not geo.cone_contains(dd, [-1.0, 0.0], 1e-9)


def test_cone_pointedness():
    assert geo.cone_pointed(geo.orthant(3))
    assert not geo.cone_pointed(geo.generated_cone([[1.0, 0], [-1.0, 0]]))


# ---------------------------------------------------------------------------
# sampled limiting normals
# ---------------------------------------------------------------------------

def _tent_branches(width=0.6, n=601):
    t = np.linspace(-width, width, n)
    upper = np.c_[t, np.abs(t) + 1.0]
    lower = np.c_[t, -np.abs(t) - 1.0]
    return upper, lower


def test_limiting_normals_thin_curve_has_fan_below():
    upper, _ = _tent_branches()
    rn = geo.limiting_normal_graph([upper], [0.0, 1.0],
                                   radii=(0.02, 0.01, 0.005))
    # expected: rays at 45 and 135 degrees plus the downward fan [225, 315]
    widths = []
    for b in rn.branches:
        angs = sorted(np.degrees(np.arctan2(b[:, 1], b[:, 0])) % 360)
        widths.append((angs[0], angs[-1]))
    fans = [w for w in widths if w[1] - w[0] > 10]
    rays = sorted(w[0] for w in widths if w[1] - w[0] <= 10)
    assert len(fans) == 1
    assert fans[0][0] == pytest.approx(225.0, abs=3.0)
    assert fans[0][1] == pytest.approx(315.0, abs=3.0)
    assert rays == pytest.approx([45.0, 135.0], abs=2.0)


# ---------------------------------------------------------------------------
# bodies
# ---------------------------------------------------------------------------

def test_minkowski_sum_and_scale():
    a = geo.body_from_points([[0.0, 2.0]])
    b = geo.body_from_points([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    s = geo.minkowski(a, b)
    assert geo.support(s, [1.0, 0.0]) == pytest.approx(1.0)
    assert geo.support(s, [0.0, 1.0]) == pytest.approx(3.0)
    half = geo.scale_body(b, 0.5)
    assert geo.support(half, [1.0, 0.0]) == pytest.approx(0.5)


def test_product_body_of_segments_is_square():
    seg = geo.body_from_points([[0.0], [1.0]])
    ball1 = geo.unit_ball_body(1)
    sq = geo.product_body(seg, ball1)
    assert geo.support(sq, [1.0, 0.0]) == pytest.approx(1.0)
    assert geo.support(sq, [-1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert geo.support(sq, [0.0, -1.0]) == pytest.approx(1.0)
    assert geo.body_contains(sq, [0.5, -0.7])
    assert not geo.body_contains(sq, [-0.2, 0.0], tol=1e-6)


def test_halfspace_vertices_unit_square():
    H = geo.Halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    V = geo.halfspace_vertices(H)
    expect = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
    assert {tuple(np.round(v, 9)) for v in V} == expect


def _same_vertex_set(V, W, tol=1e-9):
    """Every row of V is within tol of exactly one row of W, and back."""
    gap = np.abs(V[:, None, :] - W[None, :, :]).max(axis=2)
    near = gap <= tol * (1.0 + np.abs(V).max(axis=1))[:, None]
    return bool(np.all(near.sum(axis=1) == 1) and np.all(near.sum(axis=0) == 1))


def _random_polytopes(rng):
    """Bounded polytopes with an interior in 1, 2 and 3 dimensions: a box of
    half-width 3 around a random centre, cut by up to 6 random rows that
    keep the centre inside."""
    for n in (1, 2, 3):
        for _ in range(40):
            c = rng.uniform(-2, 2, n)
            k = int(rng.integers(1, 7))
            rows = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(k, n))])
            off = np.concatenate([np.full(2 * n, 3.0), rng.uniform(0.2, 2.0, k)])
            yield rows, rows @ c + off


def test_halfspace_vertices_match_qhull_on_random_polytopes():
    rng = np.random.default_rng(20260)
    for A, b in _random_polytopes(rng):
        V = geo.halfspace_vertices(geo.Halfspaces(A, b))
        assert _same_vertex_set(V, qhull_vertices(A, b)), (A, b)
        assert _same_vertex_set(V, V)  # no duplicates


def test_halfspace_vertices_degenerate_polytope_slice():
    # perfbench/problems/polytope.vep at xi = 0: three rows meet at (2, -1)
    A = [[1, 1], [1, 0], [0, 1], [-1, 0], [0, -1]]
    b = [1, 2, 2, 1, 1]
    V = geo.halfspace_vertices(geo.Halfspaces(A, b))
    assert sorted(map(tuple, V.tolist())) == [(-1.0, -1.0), (-1.0, 2.0), (2.0, -1.0)]
    assert _same_vertex_set(V, qhull_vertices(A, b))


def test_halfspace_vertices_of_a_flat_slice():
    # x1 + x2 = 1 inside the box [-1, 2]^2: the segment from (-1, 2) to (2, -1)
    H = geo.Halfspaces([[1, 1], [-1, -1], [1, 0], [0, 1], [-1, 0], [0, -1]],
                       [1, -1, 2, 2, 1, 1])
    V = geo.halfspace_vertices(H)
    assert sorted(map(tuple, V.tolist())) == [(-1.0, 2.0), (2.0, -1.0)]


@pytest.mark.parametrize("A, b", [
    ([[-1, 0], [0, -1]], [0, 0]),                # wedge
    ([[1]], [1]),                                # half-line
    ([[1, 0], [-1, 0]], [1, 1]),                 # rank-deficient rows (a strip)
    ([[1, 0, 0]], [1]),                          # fewer rows than dimensions
    ([[1, 0], [0, 1], [-1, -1]], [0, 0, -1]),    # empty
])
def test_halfspace_vertices_rejects_unbounded_and_empty(A, b):
    with pytest.raises(geo.GeometryError):
        geo.halfspace_vertices(geo.Halfspaces(A, b))


def test_basis_points_of_a_stack_match_qhull():
    rng = np.random.default_rng(20261)
    for n in (1, 2, 3):
        polys = [(A, b) for A, b in _random_polytopes(rng) if A.shape[1] == n]
        k = max(len(A) for A, _ in polys)
        # pad with copies of a row, so the stack has one row count
        A = np.stack([np.vstack([A] + [A[:1]] * (k - len(A))) for A, _ in polys])
        b = np.stack([np.concatenate([b] + [b[:1]] * (k - len(b))) for _, b in polys])
        Z, feasible, code = geo.basis_points(A, b)
        assert Z.shape[:2] == feasible.shape and Z.shape[2] == n
        assert list(code) == [0] * len(polys)
        for i, (Ai, bi) in enumerate(polys):
            V = Z[i][feasible[i]]
            ref = qhull_vertices(Ai, bi)
            # every feasible basis point is a vertex, and every vertex is one
            gap = np.abs(V[:, None, :] - ref[None, :, :]).max(axis=2)
            near = gap <= 1e-9 * (1.0 + np.abs(V).max(axis=1))[:, None]
            assert np.all(near.any(axis=1)) and np.all(near.any(axis=0)), (Ai, bi)


def test_basis_points_report_each_slice_on_its_own():
    # triangle, wedge, strip (rank 1), empty: one stack of 3-row slices
    A = np.array([[[1, 0], [0, 1], [-1, -1]],
                  [[-1, 0], [0, -1], [-1, -1]],
                  [[1, 0], [-1, 0], [2, 0]],
                  [[1, 0], [0, 1], [-1, -1]]], dtype=float)
    b = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 1], [0, 0, -1]], dtype=float)
    Z, feasible, code = geo.basis_points(A, b)
    error = [geo.NO_VERTICES[c] for c in code]
    assert error[0] == ""
    assert "unbounded" in error[1] and "rank" in error[2] and "empty" in error[3]
    assert sorted(map(tuple, Z[0][feasible[0]].tolist())) == [(-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    for i in (1, 2, 3):
        with pytest.raises(geo.GeometryError, match=error[i]):
            geo.halfspace_vertices(geo.Halfspaces(A[i], b[i]))


def test_prune_hull_of_a_flat_set_is_exact():
    pts = np.array([[0, 0], [1 / 3, 1 / 3], [2 / 3, 2 / 3], [1, 1]])
    assert sorted(map(tuple, geo._prune_hull(pts).tolist())) == [(0.0, 0.0), (1.0, 1.0)]
    # a flat square in 3-D: the four corners, the centre and an edge point dropped
    sq = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0], [1 / 3, 0, 0]])
    assert sorted(map(tuple, geo._prune_hull(sq).tolist())) == sorted(map(tuple, sq[:4].tolist()))
    assert geo._prune_hull(np.full((5, 2), 0.1)).tolist() == [[0.1, 0.1]]
