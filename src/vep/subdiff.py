"""Structured subgradient-set estimates.

Covers the x-block subgradient of the excess value via the adjoint-image
formula, full-block subgradients via gradient-limit hulls, the
enlargement-based outer estimate with a Lipschitz ball, the graph normal
cone of the feasible-set map (exact, from the one-sided slopes or gradients
of the active constraints of a box or polytope map) with its coderivative
(exact for any number of rows), one capped normal cone per graph branch,
read by both outer estimates of the feasibility-gap subdifferential (the
coderivative-ball product and the coupled graph-normal cap), and the
regular and limiting normal cones to the graph of the solution map, exact
from its finite vertex-form system (p = n = 1, f affine in z).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import merit as mr
from . import problem as pb

EXACT_CONVEX = "exact-convex"
OUTER = "outer-estimate"
BRANCH_HULL = "branch-hull-approx"


class SubdiffError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SubgradEstimate:
    """Subgradient set estimate; ``bodies`` is a union of convex branches."""

    bodies: tuple
    exactness: str
    qc_flags: tuple = ()

    @property
    def body(self) -> geo.ConvexBody:
        return self.bodies[0]

    @property
    def dim(self) -> int:
        return self.bodies[0].dim


@dataclass(frozen=True, eq=False)
class CoderivativeImage:
    """Image set of a coderivative: finite points plus ray generators, per branch."""

    points: tuple   # tuple of vectors
    rays: tuple     # tuple of ray generator vectors

    @property
    def is_empty(self) -> bool:
        return len(self.points) == 0 and len(self.rays) == 0


# ---------------------------------------------------------------------------
# x-block subgradient of nu by the adjoint-image formula
# ---------------------------------------------------------------------------

def _dist_subgradients(prob: pb.VepProblem, F: np.ndarray, dist: np.ndarray):
    """The subgradient sets of dist(., C) at the values F (V, m), whose
    distances are ``dist`` (V,), as points: (owner, U), owner[j] the value
    whose set holds U[j].  Off the cone
    (dist > 1e-9 (1 + |F|)) a set is the unit outward direction
    (F - P_C F)/dist; on it, the points w of ``geo.dual_cone(C)``'s cap
    with |w·F| <= 1e-7 max(1, |F|) in cap order, or the origin when none is
    (F inside the cone)."""
    size = mr._dist_rows(F)
    off = dist > 1e-9 * (1.0 + size)
    owner, U = [np.flatnonzero(off)], [(F[off] - geo.project_cone_rows(F[off], prob.cone))
                                       / dist[off, None]]
    on = np.flatnonzero(~off)
    if len(on):
        cap = geo.cap_points(geo.dual_cone(prob.cone))
        Fon, tol = F[on, None, :], 1e-7 * np.maximum(1.0, size[on])
        # one cap point at a time keeps the temporaries at one number per value
        normal = np.stack([np.abs(np.matmul(Fon, w[:, None])[:, 0, 0]) <= tol for w in cap], axis=1)
        at, w = np.nonzero(normal)
        owner += [on[at], on[~normal.any(axis=1)]]
        U += [cap[w], np.zeros((len(owner[-1]), prob.m))]
    return np.concatenate(owner), np.concatenate(U)


def nu_partial_subgradient_smooth(prob: pb.VepProblem, xi, x) -> SubgradEstimate:
    """x-block subgradient of nu: conv over farthest points z of J_x(f)^T u,
    u the unit outward direction of f(xi, x, z) from the cone (or the
    normal-cone cap when the value sits on the cone)."""
    xi, x = prob.point(xi, x)
    nu, _, F, dist = mr._point(prob, xi, x, 0.0)
    if not nu.argmax:
        raise SubdiffError("empty farthest-point set")
    if F is None:       # the grid keeps no values: f at its argmax points
        F = mr._f_values(prob, xi[None], x[None], np.array(nu.argmax)[None])[0]
        dist = mr._cone_dists(prob, F)
    owner, U = _dist_subgradients(prob, F, dist)
    pts, kinked = [], False
    for k, z in enumerate(nu.argmax):
        jacs = prob.f.jac_branches((xi, x, np.asarray(z, dtype=float)), "x")
        kinked |= len(jacs) > 1
        pts.extend(J.T @ u for J in jacs for u in U[owner == k])
    body = geo.body_from_points(np.asarray(pts))
    if kinked:
        return SubgradEstimate((body,), BRANCH_HULL, ("branch-hull-at-argmax",))
    smooth_ok = ("K-concave" in prob.asserts
                 and ("f-C-concave" in prob.asserts or "nu-convex" in prob.asserts))
    return SubgradEstimate((body,), EXACT_CONVEX if smooth_ok else OUTER)


# ---------------------------------------------------------------------------
# full-block subgradient of nu by gradient-limit hulls
# ---------------------------------------------------------------------------

def _nu_rows(prob: pb.VepProblem, Q: np.ndarray) -> np.ndarray:
    """nu at the rows of Q = [xi, x], by one call of the merit kernel."""
    return mr._merit_parts(prob, Q[:, : prob.p], Q[:, prob.p:])[0]


def nu_subgradient_full(prob: pb.VepProblem, xi, x) -> SubgradEstimate:
    """Full (xi, x)-block subgradient of nu as the convex hull of sampled
    gradient limits around the point.

    Samples 64 directions on a ring of radius 1e-3, keeps points where nu is
    numerically smooth (one-sided differences of step 1e-5 agree), clusters
    the resulting gradients and returns their hull.  For a convex nu this
    hull equals the convex subdifferential whenever every smooth region
    adjacent to the point is hit by a sample; the sampling resolution is
    recorded.  The ring points and their 2d difference neighbours go
    through one kernel call; where no ring point is smooth, the central
    difference at the point itself takes a second.
    """
    xi, x = prob.point(xi, x)
    q0 = np.concatenate([xi, x])
    h = 1e-5
    steps = h * np.eye(len(q0))
    ring = q0 + 1e-3 * geo._sphere_dirs(len(q0), 64)
    # per ring point q: q, then q + h e_i and q - h e_i for every i
    stencil = np.concatenate([ring[:, None], ring[:, None] + steps, ring[:, None] - steps], axis=1)
    nu = _nu_rows(prob, stencil.reshape(-1, len(q0))).reshape(stencil.shape[:2])
    f0, fp, fm = nu[:, :1], nu[:, 1:len(q0) + 1], nu[:, len(q0) + 1:]
    fwd, bwd = (fp - f0) / h, (f0 - fm) / h
    # a ring point whose one-sided slopes disagree straddles a kink
    smooth = ~np.any(np.abs(fwd - bwd) > 1e-5 * (1.0 + np.abs(fwd) + np.abs(bwd)), axis=1)
    grads: list[np.ndarray] = []
    for g in 0.5 * (fwd[smooth] + bwd[smooth]):
        if not any(np.max(np.abs(g - c)) <= 1e-6 for c in grads):
            grads.append(g)
    if not grads:
        nu = _nu_rows(prob, np.concatenate([q0 + steps, q0 - steps]))
        grads = [(nu[: len(q0)] - nu[len(q0):]) / (2 * h)]
    body = geo.body_from_points(np.asarray(grads))
    convex = "nu-convex" in prob.asserts or (
        "K-concave" in prob.asserts and "f-C-concave" in prob.asserts
    )
    exact = EXACT_CONVEX if convex else OUTER
    flags = ("ring-radius=0.001", "dirs=64")
    if not convex:
        flags = flags + ("convexity-not-asserted",)
    return SubgradEstimate((body,), exact, flags)


# ---------------------------------------------------------------------------
# outer estimate via enlargement and a Lipschitz ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NuOuterEstimate(SubgradEstimate):
    per_eps: tuple = ()  # tuple of (eps, ConvexBody)


def nu_outer_estimate(prob: pb.VepProblem, xi, x, eps_list, l_f: float) -> NuOuterEstimate:
    """Per-enlargement outer estimate: conv over enlarged farthest points of
    the adjoint images of the polar-cone cap, fattened by the Lipschitz ball.

    The estimate for each eps is an outer bound; the checker tests every
    eps body rather than constructing their intersection.
    """
    xi, x = prob.point(xi, x)
    eps_list = sorted(float(e) for e in eps_list)
    if any(e <= 0 for e in eps_list):
        raise SubdiffError("enlargements must be positive")
    flags: list[str] = []
    cap = geo.cap_points(geo.dual_cone(prob.cone))
    per_eps = []
    for eps in eps_list:
        nu = mr.eval_nu(prob, xi, x, eps=eps)
        pts: list[np.ndarray] = []
        for z in nu.argmax:
            jacs = prob.f.jac_branches((xi, x, np.asarray(z, dtype=float)), "xix")
            if len(jacs) > 1:
                if "branch-hull" not in flags:
                    flags.append("branch-hull")
            for J in jacs:
                if np.linalg.matrix_rank(J) < prob.m and "derivative-not-onto" not in flags:
                    flags.append("derivative-not-onto")
                pts.extend(J.T @ u for u in cap)
        body = geo.ConvexBody(prob.p + prob.n, geo._prune_hull(np.asarray(pts)), ball=float(l_f))
        per_eps.append((eps, body))
    bodies = (per_eps[0][1],)
    return NuOuterEstimate(bodies, OUTER, tuple(flags), tuple(per_eps))


# ---------------------------------------------------------------------------
# graph normals and coderivatives of the feasible-set map
# ---------------------------------------------------------------------------

def _one_sided_slopes(g: ex.Expr, xi: np.ndarray) -> tuple[float, float]:
    """Left and right derivatives of g at a scalar xi: the gradients of the sign
    rows whose split switches all have negative, or all positive, slopes."""
    J, W = ex.sign_rows((g,), (xi, (), ()), "xi")
    left = next(j for j, w in zip(J, W) if np.all(w < 0))
    right = next(j for j, w in zip(J, W) if np.all(w > 0))
    return float(left[0, 0]), float(right[0, 0])


def _active_constraint_groups(prob: pb.VepProblem, xi, zbar) -> list[list[tuple]]:
    """Active constraints of the feasible-set map at (xi, zbar), grouped.

    Near the point each constraint reads s·g(xi) + a·z <= const, with g an
    expression in xi alone, a sign s and a fixed row a; it is returned as
    (a, g, s).  A box coordinate is one group holding its active bounds
    (a = sign·e_i, g = the bound, s = -sign; both bounds active pinch the
    slice).  A polytope row is a group of one (a = a(xi),
    g = a(.)·zbar - b(.), s = +1).  A NaN gap counts as inactive.
    """
    K = prob.K
    groups: list[list[tuple]] = []
    if isinstance(K, pb.ParamBox):
        tol = geo.TOL_ON * (1.0 + float(np.linalg.norm(zbar)))
        for i in range(prob.n):
            e_i = np.zeros(prob.n)
            e_i[i] = 1.0
            group = []
            for bound, sign in ((K.upper[i], 1.0), (K.lower[i], -1.0)):
                if bound is not None and abs(zbar[i] - float(ex.eval_expr(bound, xi=xi))) <= tol:
                    group.append((sign * e_i, bound, -sign))
            if group:
                groups.append(group)
        return groups
    for row, rhs in zip(K.rows, K.rhs):
        a = np.array([float(ex.eval_expr(e, xi=xi)) for e in row])
        b = float(ex.eval_expr(rhs, xi=xi))
        if abs(a @ zbar - b) <= geo.TOL_ON * (1.0 + abs(b)):
            az = functools.reduce(ex.Add, (ex.Mul(e, ex.Const(float(zj)))
                                           for e, zj in zip(row, zbar)))
            groups.append([(a, ex.Sub(az, rhs), 1.0)])
    return groups


def _constraint_branches(a: np.ndarray, g: ex.Expr, s: float, xi: np.ndarray) -> list:
    """Graph-normal branches (row matrices) of one active constraint
    s·g(xi) + a·z <= const.

    For p = 1 the rows are (s·slope, a) over the one-sided slopes of g:
    where s·g is concave the graph has a reentrant corner and each row is
    its own branch; where s·g is convex the corner is salient and both rows
    form one fan; otherwise one row.  For p > 1 the row is (s·grad g, a),
    and a kink of g raises ProblemError: a scope limit, not a failed
    evaluation.
    """
    if len(xi) == 1:
        sm, sp = _one_sided_slopes(g, xi)
        gm = np.concatenate([[s * sm], a])
        gp = np.concatenate([[s * sp], a])
        if s * (sm - sp) > 1e-8:      # reentrant corner
            return [gm.reshape(1, -1), gp.reshape(1, -1)]
        if s * (sp - sm) > 1e-8:      # salient corner
            return [np.vstack([gm, gp])]
        return [gm.reshape(1, -1)]
    hull = ex.grad_hull(g, (xi, (), ()), "xi")
    if not hull.single:
        raise pb.ProblemError("graph normals at a kink of the map need p = 1")
    return [np.concatenate([s * hull.generators[0], a]).reshape(1, -1)]


def graph_normal_branches(prob: pb.VepProblem, xi, zbar) -> geo.RayUnion:
    """Basic normal cone to the graph of the feasible-set map at (xi, zbar).

    Exact for box and polytope maps alike: the cone is generated by the
    normals of the active constraints (Rockafellar-Wets, Thm 6.14), each
    from one-sided slopes (p = 1) or the gradient (p > 1) of its
    xi-expression.  Within a group of active constraints the branches are a
    union, which at a pinched box coordinate is the limiting normal cone
    (note ``degenerate-slice``); across groups the cones add: one branch
    per combination of group branches, rows stacked.
    """
    xi, zbar = prob.point(xi, zbar)
    S = pb.slice_at(prob.K, xi)
    d = geo.dist(zbar, S)
    if d > geo.TOL_ON * (1.0 + float(np.linalg.norm(zbar))):
        raise SubdiffError(f"point is not on the graph (slice distance {d:.3g})")
    groups = _active_constraint_groups(prob, xi, zbar)
    if not groups:
        return geo.RayUnion((np.zeros((0, prob.p + prob.n)),))
    per_group = [[br for a, g, s in group for br in _constraint_branches(a, g, s, xi)]
                 for group in groups]
    note = "degenerate-slice" if any(len(group) == 2 for group in groups) else ""
    return geo.RayUnion(tuple(np.vstack(c) for c in itertools.product(*per_group)),
                        exact=True, note=note)


def coderivative_K(prob: pb.VepProblem, xi, zbar, v) -> CoderivativeImage:
    """Coderivative image {u : (u, -v) in N((xi, zbar); graph K)}: the union
    over normal-cone branches, points closer than 1e-9 merged.

    Exact for any number of rows: with G = [G_xi | G_x] a branch's rows,
    {t >= 0 : G_x^T t = -v} is the hull of its basic solutions plus the
    cone of its circuits (Schrijver, Theory of Linear and Integer
    Programming, 1986, ch. 8), and the image is their G_xi-image.  A basic
    solution has linearly independent support; a circuit is a minimal
    dependent support whose kernel vector has one sign.
    """
    xi, zbar = prob.point(xi, zbar)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    tol = 1e-9
    pts: list[np.ndarray] = []
    rays: list[np.ndarray] = []
    for br in graph_normal_branches(prob, xi, zbar).branches:
        Gxi, Gx = br[:, : prob.p], br[:, prob.p:]
        for size in range(min(len(br), prob.n + 1) + 1):
            for S in map(list, itertools.combinations(range(len(br)), size)):
                A = Gx[S].T
                rank = np.linalg.matrix_rank(A, tol) if size else 0
                if rank == size:
                    t = np.linalg.lstsq(A, -v, rcond=None)[0]
                    resid = np.linalg.norm(A @ t + v)
                    if np.all(t >= -tol) and resid <= tol * (1 + np.linalg.norm(v)):
                        pts.append(Gxi[S].T @ np.maximum(t, 0.0))
                elif rank == size - 1:
                    t = np.linalg.svd(A)[2][-1]
                    if np.all(t > tol) or np.all(t < -tol):
                        ray = Gxi[S].T @ np.abs(t)
                        if np.linalg.norm(ray) > tol:
                            rays.append(ray)
    uniq: list[np.ndarray] = []
    for q in pts:
        if not any(np.linalg.norm(q - r) <= tol for r in uniq):
            uniq.append(q)
    return CoderivativeImage(tuple(uniq), tuple(rays))


def _simplex_samples(k: int) -> np.ndarray:
    """Weights on the unit simplex of R^k: none for k = 0, the one weight 1
    for k = 1, 91 points for k = 2, else the grid of multiples of 1/s with
    the largest s giving at most 2000."""
    if k <= 1:
        return np.ones((k, k))
    if k == 2:
        w = np.linspace(0.0, 1.0, 91)
        return np.c_[1.0 - w, w]
    s = 1
    while math.comb(s + k, k - 1) <= 2000:
        s += 1
    # stars and bars: k - 1 bars among s + k - 1 slots split s into k parts
    grid = [np.diff((-1,) + bars + (s + k - 1,)) - 1
            for bars in itertools.combinations(range(s + k - 1), k - 1)]
    return np.asarray(grid, dtype=float) / s


def _normal_caps(normals: geo.RayUnion, p: int) -> list[np.ndarray]:
    """Per branch (rows G = [G_xi | G_x]), points of its cap
    N_b ∩ (R^p x B): the origin, then G^T t / |G_x^T t| over
    ``_simplex_samples`` weights t, so a one-row branch gives its row
    scaled to a unit x-part.  A direction whose x-part vanishes spans an
    unbounded ray, truncated at length 1e6."""
    caps = []
    for br in normals.branches:
        T = _simplex_samples(len(br)) @ br
        nx = np.linalg.norm(T[:, p:], axis=1)
        flat = nx <= 1e-12
        T[flat] *= 1e6
        T[~flat] /= nx[~flat, None]
        caps.append(np.vstack([np.zeros(br.shape[1]), T]))
    return caps


def coderivative_K_ball_image(prob: pb.VepProblem, xi, zbar) -> list[geo.ConvexBody]:
    """Per-branch bodies for the image of the unit ball under the
    coderivative: the xi-columns of the branch caps (``_normal_caps``),
    hulled where a branch has more than one row."""
    xi, zbar = prob.point(xi, zbar)
    normals = graph_normal_branches(prob, xi, zbar)
    return [geo.ConvexBody(prob.p, geo._prune_hull(cap[:, : prob.p]) if len(br) > 1
                           else cap[:, : prob.p])
            for br, cap in zip(normals.branches, _normal_caps(normals, prob.p))]


def mu_subgradient_estimate(prob: pb.VepProblem, xi, x) -> SubgradEstimate:
    """Outer estimate of the feasibility-gap subdifferential: union over
    projection points of (coderivative image of the unit ball) x (unit ball)."""
    xi, x = prob.point(xi, x)
    S = pb.slice_at(prob.K, xi)
    zbar = geo.project(x, S)
    branches = coderivative_K_ball_image(prob, xi, zbar)
    bodies = tuple(geo.product_with_ball(b, prob.n) for b in branches)
    return SubgradEstimate(bodies, OUTER, ("k-lsc-assumed",))


def mu_subgradient_coupled(prob: pb.VepProblem, xi, x) -> SubgradEstimate | None:
    """Coupled estimate of the feasibility-gap subdifferential at a graph
    point: per-branch bodies of N((xi, x); graph K) ∩ (R^p x B).

    A regular subgradient of mu at a zero of mu is a regular normal to the
    graph, and mu is 1-Lipschitz in x, so the branch caps
    (``_normal_caps``) form an outer estimate of the subdifferential.
    Returns None where that does not hold exactly: x off K(xi) beyond 1e-9
    relative, a non-box map, or more than one active bound (rows whose
    x-parts differ).
    """
    xi, x = prob.point(xi, x)
    if not isinstance(prob.K, pb.ParamBox):
        return None
    if geo.dist(x, pb.slice_at(prob.K, xi)) > 1e-9 * (1.0 + np.linalg.norm(x)):
        return None
    normals = graph_normal_branches(prob, xi, x)
    rows = np.vstack(normals.branches)
    if len(rows) and np.ptp(rows[:, prob.p:], axis=0).max() > 1e-12:
        return None
    dim = prob.p + prob.n
    return SubgradEstimate(tuple(geo.ConvexBody(dim, cap)
                                 for cap in _normal_caps(normals, prob.p)), OUTER)


def _graph_E_cones(prob: pb.VepProblem, xi, x) -> tuple[geo.RayUnion, geo.RayUnion]:
    """Regular and limiting normal cones to the graph of the solution map at
    (xi, x), p = n = 1: ``_planar_cones`` of the pieces {d : W d >= 0, J d >= 0}
    of one ``expr.sign_rows`` pass over the rows of ``problem.E_system``
    active there (value <= 1e-6), whose union is the tangent cone.  Exact
    where every active row is piecewise affine, else linearized (noted).  A
    point whose merit exceeds check-stationarity's 1e-6 raises ProblemError."""
    xi, x = prob.point(xi, x)
    if prob.p != 1 or prob.n != 1:
        raise pb.ProblemError("solution-graph normals need p = n = 1")
    rows = pb.E_system(prob, xi)
    nu, mu = mr._point(prob, xi, x, 0.0)[:2]
    if nu.value + mu > 1e-6:
        raise pb.ProblemError(f"point is not on the solution graph (merit {nu.value + mu:.3g} > 1e-06)")
    active = [h for h in rows if float(ex.eval_expr(h, xi=xi, x=x)) <= 1e-6]
    J, W = ex.sign_rows(active, (xi, x, ()), "xix") if active else ([np.zeros((0, 2))],) * 2
    note = "" if all(map(ex.is_piecewise_affine, active)) else "linearized"
    return tuple(geo.RayUnion(c, not note, note) for c in _planar_cones(list(map(np.vstack, zip(W, J)))))


def _planar_cones(pieces) -> tuple[tuple, tuple]:
    """Branches (rays, and fans between neighbouring candidate rays) of the
    regular and the limiting normal cone at 0 of the union T of the planar
    cones {d : M d >= 0}, M over ``pieces`` (Rockafellar and Wets,
    Variational Analysis, 1998, ch. 6).  T's boundary lies on the rows'
    perpendiculars, so T is decided on those angles, closed under quarter
    turns, and the midpoints of the gaps between them.  The regular cone,
    T's polar, holds the angles with no angle of T in their open
    half-circle; the limiting cone adds, at each boundary ray of T, the
    outward perpendicular of each side that T does not cover.
    """
    pieces = [M[np.linalg.norm(M, axis=1) > 1e-12] for M in pieces]
    pieces = [M / np.linalg.norm(M, axis=1, keepdims=True) for M in pieces]
    R = np.vstack(pieces)
    base = np.sort(np.append(np.mod(np.arctan2(R[:, 1], R[:, 0]), np.pi / 2), 0.0))
    base = base[np.append(True, np.diff(base) > 1e-10) & (base < np.pi / 2 - 1e-10)]
    q = 2 * len(base)       # slots in a quarter turn
    theta = (base + np.pi / 2 * np.arange(4)[:, None]).ravel()
    # slot 2i is the ray at theta[i], slot 2i + 1 the gap after it
    ang = np.c_[theta, theta + 0.5 * np.diff(np.append(theta, 2 * np.pi))].ravel()
    D, n = np.c_[np.cos(ang), np.sin(ang)], len(ang)
    in_T = np.any([np.all(M @ D.T >= -np.tile([1e-9, 0.0], len(theta)), axis=0) for M in pieces], axis=0)
    # a ray's open half-circle stops short of its quarter turns, a gap's reaches into theirs
    polar = np.array([not in_T[np.arange(s - q + 1 - s % 2, s + q + s % 2) % n].any() for s in range(n)])
    regular = tuple(D[[s, (s + 2) % n]] if polar[s + 1] else D[[s]] for s in range(0, n, 2)
                    if polar[s + 1] or polar[s] and not polar[s - 1])
    rays = {(s + turn * q) % n for s in range(0, n, 2) for turn in (1, -1)
            if in_T[s] and not in_T[(s + turn) % n]}
    none = (np.zeros((0, 2)),)
    return regular or none, regular + tuple(D[[t]] for t in sorted(rays) if not polar[t]) or none


def graph_E_normals(prob: pb.VepProblem, xi, x) -> geo.RayUnion:
    """Limiting normal cone to the graph of the solution map at (xi, x),
    p = n = 1: the second cone of ``_graph_E_cones``."""
    return _graph_E_cones(prob, xi, x)[1]
