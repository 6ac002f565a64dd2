"""Structured subgradient-set estimates.

Covers the x-block subgradient of the excess value via the adjoint-image
formula, full-block subgradients via gradient-limit hulls, the
enlargement-based outer estimate with a Lipschitz ball, the coderivative
of the feasible-set map (exact from one-sided branch slopes of the bound
expressions where available, sampled otherwise), two outer estimates of
the feasibility-gap subdifferential (the coderivative-ball product and the
coupled graph-normal cap), and the sum rule with its qualification
bookkeeping.
"""

from __future__ import annotations

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

_EXACTNESS_ORDER = {EXACT_CONVEX: 0, OUTER: 1, BRANCH_HULL: 2}


class SubdiffError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SubgradEstimate:
    """Subgradient set estimate; ``bodies`` is a union of convex branches."""

    bodies: tuple
    exactness: str
    qc_flags: tuple = ()
    lipschitz: bool = True  # locally Lipschitz source: singular part is {0}

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
    exact: bool = True

    @property
    def is_empty(self) -> bool:
        return len(self.points) == 0 and len(self.rays) == 0


def _weakest(a: str, b: str) -> str:
    return a if _EXACTNESS_ORDER[a] >= _EXACTNESS_ORDER[b] else b


# ---------------------------------------------------------------------------
# x-block subgradient of nu by the adjoint-image formula
# ---------------------------------------------------------------------------

def _dist_grad_cap(prob: pb.VepProblem, F: np.ndarray, d: float) -> np.ndarray:
    """Subgradient set of dist(., C) at F as points: the unit outward
    direction off the cone, the normal-cone cap on it."""
    if d > 1e-9 * (1.0 + np.linalg.norm(F)):
        return ((F - geo.project(F, prob.cone)) / d).reshape(1, -1)
    cap = geo.cap_points(geo.dual_cone(prob.cone))
    scale = max(1.0, float(np.linalg.norm(F)))
    keep = [w for w in cap if abs(float(w @ F)) <= 1e-7 * scale]
    return np.asarray(keep) if keep else np.zeros((1, prob.m))


def nu_partial_subgradient_smooth(prob: pb.VepProblem, xi, x) -> SubgradEstimate:
    """x-block subgradient of nu: conv over farthest points z of J_x(f)^T u,
    u the unit outward direction of f(xi, x, z) from the cone (or the
    normal-cone cap when the value sits on the cone)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nu = mr.eval_nu(prob, xi, x)
    if not nu.argmax:
        raise SubdiffError("empty farthest-point set")
    flags: list[str] = []
    pts: list[np.ndarray] = []
    kinked = False
    for z in nu.argmax:
        F = prob.f.eval(xi=xi, x=x, z=z).reshape(prob.m)
        d = geo.dist(F, prob.cone)
        U = _dist_grad_cap(prob, F, d)
        jacs = prob.f.jac_branches((xi, x, np.asarray(z, dtype=float)), "x")
        if len(jacs) > 1:
            kinked = True
        for J in jacs:
            for u in U:
                pts.append(J.T @ u)
    body = geo.body_from_points(np.asarray(pts), label="nu-x-subgradient")
    smooth_ok = ("K-concave" in prob.asserts
                 and ("f-C-concave" in prob.asserts or "nu-convex" in prob.asserts))
    if kinked:
        flags.append("branch-hull-at-argmax")
        exact = BRANCH_HULL
    elif smooth_ok:
        exact = EXACT_CONVEX
    else:
        exact = OUTER
    return SubgradEstimate((body,), exact, tuple(flags))


# ---------------------------------------------------------------------------
# full-block subgradient of nu by gradient-limit hulls
# ---------------------------------------------------------------------------

def _fd_gradient(fn, q: np.ndarray, h: float) -> np.ndarray:
    g = np.empty(len(q))
    for i in range(len(q)):
        e = np.zeros(len(q))
        e[i] = h
        g[i] = (fn(q + e) - fn(q - e)) / (2 * h)
    return g


def _fd_gradient_checked(fn, q: np.ndarray, h: float) -> np.ndarray | None:
    """Central-difference gradient, rejected when one-sided slopes disagree
    (the probe straddles a kink)."""
    g = np.empty(len(q))
    f0 = fn(q)
    for i in range(len(q)):
        e = np.zeros(len(q))
        e[i] = h
        fwd = (fn(q + e) - f0) / h
        bwd = (f0 - fn(q - e)) / h
        if abs(fwd - bwd) > 1e-5 * (1.0 + abs(fwd) + abs(bwd)):
            return None
        g[i] = 0.5 * (fwd + bwd)
    return g


def nu_subgradient_full(prob: pb.VepProblem, xi, x) -> SubgradEstimate:
    """Full (xi, x)-block subgradient of nu as the convex hull of sampled
    gradient limits around the point.

    Samples 64 directions on a ring of radius 1e-3, keeps points where nu is
    numerically smooth (one-sided differences of step 1e-5 agree), clusters
    the resulting gradients and returns their hull.  For a convex nu this
    hull equals the convex subdifferential whenever every smooth region
    adjacent to the point is hit by a sample; the sampling resolution is
    recorded.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    q0 = np.concatenate([xi, x])

    def val(q):
        return mr.eval_nu(prob, q[: prob.p], q[prob.p:]).value

    grads: list[np.ndarray] = []
    for u in geo._sphere_dirs(len(q0), 64):
        g = _fd_gradient_checked(val, q0 + 1e-3 * u, 1e-5)
        if g is None:
            continue  # sample straddles a kink
        if not any(np.max(np.abs(g - h)) <= 1e-6 for h in grads):
            grads.append(g)
    if not grads:
        grads = [_fd_gradient(val, q0, 1e-5)]
    body = geo.body_from_points(np.asarray(grads), label="nu-subgradient")
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

    def support_table(self, n_dirs: int) -> dict:
        dirs = geo._sphere_dirs(self.dim, n_dirs)
        return {
            eps: np.array([geo.support(b, d) for d in dirs])
            for eps, b in self.per_eps
        }


def nu_outer_estimate(prob: pb.VepProblem, xi, x, eps_list, l_f: float) -> NuOuterEstimate:
    """Per-enlargement outer estimate: conv over enlarged farthest points of
    the adjoint images of the polar-cone cap, fattened by the Lipschitz ball.

    The estimate for each eps is an outer bound; their intersection is
    reported through the per-eps support table rather than constructed.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
        body = geo.ConvexBody(prob.p + prob.n, geo._prune_hull(np.asarray(pts)),
                              ball=float(l_f), label=f"nu-outer-eps={eps:g}")
        per_eps.append((eps, body))
    bodies = (per_eps[0][1],)
    return NuOuterEstimate(bodies, OUTER, tuple(flags), True, tuple(per_eps))


# ---------------------------------------------------------------------------
# graph normals and coderivatives of the feasible-set map
# ---------------------------------------------------------------------------

def _one_sided_slopes(bound: ex.Expr, xi: np.ndarray) -> tuple[float, float]:
    # dyadic step: exact slopes for piecewise-linear bounds at dyadic points
    h = 2.0 ** -20
    v0 = float(ex.eval_expr(bound, xi=xi))
    vm = float(ex.eval_expr(bound, xi=xi - np.array([h])))
    vp = float(ex.eval_expr(bound, xi=xi + np.array([h])))
    return (v0 - vm) / h, (vp - v0) / h


def graph_normal_branches(prob: pb.VepProblem, xi, zbar) -> geo.RayUnion:
    """Basic normal cone to the graph of the feasible-set map at (xi, zbar).

    Exact for scalar-parameter box maps: one-sided slopes of the active bound
    classify the corner (reentrant corners give a union of two rays, salient
    corners one two-generator fan).  Bounds active on several coordinates
    add: the normal cone is the sum of the per-coordinate cones, one branch
    per combination of per-coordinate branches with their rows stacked.
    Smooth multi-dimensional active bounds yield the cone of constraint
    gradients.  Other cases fall back to the
    sampled limiting-normal computation, flagged approximate.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    zbar = np.atleast_1d(np.asarray(zbar, dtype=float))
    S = pb.slice_at(prob.K, xi)
    d = geo.dist(zbar, S)
    scale = 1.0 + float(np.linalg.norm(zbar))
    if d > geo.TOL_ON * scale:
        raise SubdiffError(f"point is not on the graph (slice distance {d:.3g})")
    p, n = prob.p, prob.n
    dim = p + n

    if isinstance(prob.K, pb.ParamBox) and p == 1:
        per_coord: list[list[np.ndarray]] = []
        kink_tol = 1e-8
        degenerate = False
        for i in range(n):
            e_i = np.zeros(n)
            e_i[i] = 1.0
            branches: list[np.ndarray] = []
            active = 0
            for bound, sign in ((prob.K.upper[i], 1.0), (prob.K.lower[i], -1.0)):
                if bound is None:
                    continue
                gap = abs(zbar[i] - float(ex.eval_expr(bound, xi=xi)))
                if not gap <= geo.TOL_ON * scale:  # a NaN gap counts as inactive
                    continue
                active += 1
                sm, sp = _one_sided_slopes(bound, xi)
                gm = np.concatenate([[-sign * sm], sign * e_i])
                gp = np.concatenate([[-sign * sp], sign * e_i])
                if sign * (sp - sm) > kink_tol:      # reentrant corner
                    branches.append(gm.reshape(1, -1))
                    branches.append(gp.reshape(1, -1))
                elif sign * (sm - sp) > kink_tol:    # salient corner
                    branches.append(np.vstack([gm, gp]))
                else:
                    branches.append(gm.reshape(1, -1))
            if branches:
                per_coord.append(branches)
            degenerate = degenerate or active == 2
        if not per_coord:
            return geo.RayUnion((np.zeros((0, dim)),))
        note = "degenerate-slice" if degenerate else ""
        return geo.RayUnion(tuple(np.vstack(c) for c in itertools.product(*per_coord)),
                            exact=True, note=note)

    # smooth multi-dimensional path: gradients of active constraints
    gens: list[np.ndarray] = []
    smooth = True
    if isinstance(prob.K, pb.ParamBox):
        for i in range(n):
            e_i = np.zeros(n)
            e_i[i] = 1.0
            for bound, sign in ((prob.K.upper[i], 1.0), (prob.K.lower[i], -1.0)):
                if bound is None:
                    continue
                bval = float(ex.eval_expr(bound, xi=xi))
                if abs(zbar[i] - bval) > geo.TOL_ON * scale:
                    continue
                hull = ex.grad_hull(bound, (xi, (), ()), "xi")
                if not hull.single:
                    smooth = False
                g = hull.generators[0]
                gens.append(np.concatenate([-sign * g, sign * e_i]))
    else:
        for row, rhs in zip(prob.K.rows, prob.K.rhs):
            a = np.array([float(ex.eval_expr(e, xi=xi)) for e in row])
            b = float(ex.eval_expr(rhs, xi=xi))
            if abs(a @ zbar - b) > geo.TOL_ON * (1.0 + abs(b)):
                continue
            terms = [ex.Mul(e, ex.Const(float(zbar[j]))) for j, e in enumerate(row)]
            acc = terms[0]
            for term in terms[1:]:
                acc = ex.Add(acc, term)
            resid = ex.Sub(acc, rhs)
            hull = ex.grad_hull(resid, (xi, (), ()), "xi")
            if not hull.single:
                smooth = False
            gens.append(np.concatenate([hull.generators[0], a]))
    if smooth:
        mat = np.asarray(gens) if gens else np.zeros((0, dim))
        return geo.RayUnion((mat,), exact=True)
    return _sampled_graph_k_normals(prob, xi, zbar)


def _sampled_graph_k_normals(prob: pb.VepProblem, xi, zbar) -> geo.RayUnion:
    if prob.p != 1 or prob.n != 1:
        raise SubdiffError("sampled graph normals implemented for p = n = 1")
    t0 = float(xi[0])
    ts = np.linspace(t0 - 0.5, t0 + 0.5, 801)
    ups, los = [], []
    for t in ts:
        s = pb.slice_at(prob.K, [t])
        if isinstance(s, geo.Halfspaces):
            v = geo.halfspace_vertices(s)
            los.append([t, float(v.min())])
            ups.append([t, float(v.max())])
        else:
            los.append([t, float(s.lower[0])])
            ups.append([t, float(s.upper[0])])
    branches = [np.asarray(ups), np.asarray(los)]

    def inside(w):
        s = pb.slice_at(prob.K, [w[0]])
        return geo.dist(np.array([w[1]]), s) <= 0.0

    return geo.limiting_normal_graph(branches, np.concatenate([xi, zbar]),
                                     inside=inside, radii=(0.02, 0.01, 0.005))


def _branch_image_of_v(branch: np.ndarray, v: np.ndarray, p: int, tol: float):
    """{u : (u, -v) in cone(branch rows)} as (points, rays)."""
    k = len(branch)
    n = len(v)
    if k == 0:
        if np.linalg.norm(v) <= tol:
            return [np.zeros(p)], []
        return [], []
    Gxi = branch[:, :p]
    Gx = branch[:, p:]
    target = -v
    if k == 1:
        gx = Gx[0]
        if np.linalg.norm(gx) <= tol:
            if np.linalg.norm(v) <= tol:
                return [np.zeros(p)], [Gxi[0]] if np.linalg.norm(Gxi[0]) > tol else []
            return [], []
        t = float(gx @ target) / float(gx @ gx)
        if t < -tol or np.linalg.norm(t * gx - target) > tol * (1 + np.linalg.norm(v)):
            return [], []
        return [max(t, 0.0) * Gxi[0]], []
    if k == 2 and n == 1:
        a, b = float(Gx[0, 0]), float(Gx[1, 0])
        c = float(target[0])
        pts, rays = [], []
        cands = []
        if abs(a) > tol:
            t1 = c / a
            if t1 >= -tol:
                cands.append((max(t1, 0.0), 0.0))
        if abs(b) > tol:
            t2 = c / b
            if t2 >= -tol:
                cands.append((0.0, max(t2, 0.0)))
        if abs(a) <= tol and abs(c) <= tol:
            rays.append(Gxi[0])
        if abs(b) <= tol and abs(c) <= tol:
            rays.append(Gxi[1])
        # opposite-sign x-parts admit an unbounded feasible direction
        if a * b < -tol * tol:
            d = np.array([abs(b), abs(a)])
            rays.append(d[0] * Gxi[0] + d[1] * Gxi[1])
        for t1, t2 in cands:
            pts.append(t1 * Gxi[0] + t2 * Gxi[1])
        if abs(a) <= tol and abs(b) <= tol and abs(c) <= tol:
            pts.append(np.zeros(p))
            rays.extend([Gxi[0], Gxi[1]])
        return pts, [r for r in rays if np.linalg.norm(r) > tol]
    # generic small system: least squares with nonnegativity by projection
    from scipy.optimize import nnls

    coef, resid = nnls(Gx.T, target)
    if resid > tol * (1 + np.linalg.norm(v)):
        return [], []
    return [Gxi.T @ coef], []


def _image_of_v(normals: geo.RayUnion, v: np.ndarray, p: int, tol: float,
                dedup_tol: float, exact: bool) -> CoderivativeImage:
    """Union over normal-cone branches of {u : (u, -v) in cone(branch)},
    merging points closer than dedup_tol."""
    pts: list[np.ndarray] = []
    rays: list[np.ndarray] = []
    for br in normals.branches:
        bpts, brays = _branch_image_of_v(br, v, p, tol)
        pts.extend(bpts)
        rays.extend(brays)
    uniq: list[np.ndarray] = []
    for q in pts:
        if not any(np.linalg.norm(q - r) <= dedup_tol for r in uniq):
            uniq.append(q)
    return CoderivativeImage(tuple(uniq), tuple(rays), exact=exact)


def coderivative_K(prob: pb.VepProblem, xi, zbar, v) -> CoderivativeImage:
    """Coderivative image {u : (u, -v) in N((xi, zbar); graph K)}."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    zbar = np.atleast_1d(np.asarray(zbar, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    normals = graph_normal_branches(prob, xi, zbar)
    return _image_of_v(normals, v, prob.p, 1e-9, 1e-9, normals.exact)


def _simplex_samples(k: int) -> np.ndarray:
    """Weights on the unit simplex of R^k, k >= 2: 91 points for k = 2, else
    the grid of multiples of 1/s with the largest s giving at most 2000."""
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


def coderivative_K_ball_image(prob: pb.VepProblem, xi, zbar) -> list[geo.ConvexBody]:
    """Per-branch bodies for the image of the unit ball under the coderivative.

    A direction whose x-part vanishes spans an unbounded ray of the image,
    truncated at length 1e6."""
    cap_radius = 1e6
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    zbar = np.atleast_1d(np.asarray(zbar, dtype=float))
    normals = graph_normal_branches(prob, xi, zbar)
    p = prob.p
    bodies = []
    for br in normals.branches:
        k = len(br)
        if k == 0:
            bodies.append(geo.ConvexBody(p, np.zeros((1, p)), label="coder-zero"))
            continue
        Gxi = br[:, :p]
        Gx = br[:, p:]
        if k == 1:
            gx = Gx[0]
            nx = float(np.linalg.norm(gx))
            if nx <= 1e-12:
                pts = np.vstack([np.zeros(p), cap_radius * Gxi[0]])
                bodies.append(geo.ConvexBody(p, pts, label="coder-ray-truncated"))
                continue
            pts = np.vstack([np.zeros(p), Gxi[0] / nx])
            bodies.append(geo.ConvexBody(p, pts, label="coder-segment"))
            continue
        # fan: sample directions of the branch cone, cap each at the ball
        pts = [np.zeros(p)]
        for t in _simplex_samples(k):
            gx = Gx.T @ t
            nx = float(np.linalg.norm(gx))
            if nx <= 1e-12:
                pts.append(cap_radius * (Gxi.T @ t))
            else:
                pts.append((Gxi.T @ t) / nx)
        bodies.append(geo.ConvexBody(p, geo._prune_hull(np.asarray(pts)),
                                     label="coder-fan-discretized"))
    return bodies


def mu_subgradient_estimate(prob: pb.VepProblem, xi, x) -> SubgradEstimate:
    """Outer estimate of the feasibility-gap subdifferential: union over
    projection points of (coderivative image of the unit ball) x (unit ball)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    S = pb.slice_at(prob.K, xi)
    zbar = geo.project(x, S)
    branches = coderivative_K_ball_image(prob, xi, zbar)
    ball = geo.unit_ball_body(prob.n)
    bodies = tuple(geo.product_body(b, ball) for b in branches)
    return SubgradEstimate(bodies, OUTER, ("k-lsc-assumed",))


def mu_subgradient_coupled(prob: pb.VepProblem, xi, x) -> SubgradEstimate | None:
    """Coupled estimate of the feasibility-gap subdifferential at a graph
    point: per-branch bodies of N((xi, x); graph K) ∩ (R^p x B).

    A regular subgradient of mu at a zero of mu is a regular normal to the
    graph, and mu is 1-Lipschitz in x, so the bodies conv{0, g/|g_x|} over
    the rows g of each normal-cone branch form an outer estimate of the
    subdifferential.  Returns None where that does not hold exactly: x off
    K(xi) beyond 1e-9 relative, a non-box map, inexact graph normals, or
    more than one active bound (rows whose x-parts differ).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not isinstance(prob.K, pb.ParamBox):
        return None
    if geo.dist(x, pb.slice_at(prob.K, xi)) > 1e-9 * (1.0 + np.linalg.norm(x)):
        return None
    normals = graph_normal_branches(prob, xi, x)
    if not normals.exact:
        return None
    p, dim = prob.p, prob.p + prob.n
    rows = np.vstack(normals.branches)
    if len(rows) and np.ptp(rows[:, p:], axis=0).max() > 1e-12:
        return None
    nx = float(np.linalg.norm(rows[0, p:])) if len(rows) else 1.0
    bodies = tuple(geo.ConvexBody(dim, np.vstack([np.zeros(dim), br / nx]),
                                  label="mu-graph-normal-cap")
                   for br in normals.branches)
    return SubgradEstimate(bodies, OUTER)


def coderivative_E_sampled(prob: pb.VepProblem, xi, x, v,
                           window: float = 0.5) -> CoderivativeImage:
    """Sampled coderivative of the solution map from oracle graph samples.

    Always approximate: limiting normals are estimated from projections onto
    the sampled graph, then sliced at the requested v.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    normals = graph_E_normals(prob, xi, x, window=window)
    return _image_of_v(normals, v, prob.p, 5e-2, 1e-6, False)


def graph_E_normals(prob: pb.VepProblem, xi, x, window: float = 0.5) -> geo.RayUnion:
    """Sampled basic normal cone to the solution-map graph at (xi, x)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if prob.p != 1 or prob.n != 1:
        raise SubdiffError("sampled solution-graph normals need p = n = 1")
    t0 = float(xi[0])
    cloud = pb.graph_samples(prob, t0 - window, t0 + window, 501)
    if len(cloud) == 0:
        raise SubdiffError("no solution-graph samples in the window")
    left = cloud[cloud[:, 0] <= t0 + 1e-12]
    right = cloud[cloud[:, 0] >= t0 - 1e-12]
    branches = [b for b in (left, right) if len(b) >= 2]
    if not branches:
        branches = [cloud]
    return geo.limiting_normal_graph(
        branches, np.concatenate([xi, x]),
        radii=(0.04 * window, 0.02 * window, 0.01 * window),
    )


# ---------------------------------------------------------------------------
# sum rule
# ---------------------------------------------------------------------------

def sum_rule(a: SubgradEstimate, b: SubgradEstimate) -> SubgradEstimate:
    """Minkowski sum of estimates under the singular-part qualification.

    The qualification holds automatically for a semi-Lipschitzian pair
    (either operand locally Lipschitz, singular part {0}); otherwise the
    result is flagged qc-assumed.
    """
    if a.dim != b.dim:
        raise SubdiffError("sum rule dimension mismatch")
    bodies = tuple(geo.minkowski(x, y) for x in a.bodies for y in b.bodies)
    if a.lipschitz or b.lipschitz:
        qc = ("semi-lipschitzian-pair",)
    else:
        qc = ("qc-assumed",)
    return SubgradEstimate(
        bodies,
        _weakest(a.exactness, b.exactness),
        tuple(dict.fromkeys(a.qc_flags + b.qc_flags + qc)),
        a.lipschitz and b.lipschitz,
    )
