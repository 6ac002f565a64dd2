"""Independent oracles used to derive expected test values.

These deliberately avoid the library code paths they check: distances come
from dense grid minimization, gradients from finite differences, min-norm
values from random convex combinations.
"""

import numpy as np


def grid_min_distance(x, member, lo, hi, res=401):
    """min ||x - s|| over grid points of [lo, hi]^d that satisfy ``member``."""
    x = np.asarray(x, dtype=float)
    axes = [np.linspace(lo[i], hi[i], res) for i in range(len(x))]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.array([member(p) for p in pts])
    pts = pts[keep]
    return float(np.min(np.linalg.norm(pts - x, axis=1)))


def fd_gradient(fn, q, h=1e-6):
    q = np.asarray(q, dtype=float)
    g = np.empty(len(q))
    for i in range(len(q)):
        e = np.zeros(len(q))
        e[i] = h
        g[i] = (fn(q + e) - fn(q - e)) / (2 * h)
    return g


def one_sided_fd(fn, t0, h=1e-6):
    """(left slope, right slope) of a scalar function at t0."""
    return (fn(t0) - fn(t0 - h)) / h, (fn(t0 + h) - fn(t0)) / h


def sampled_min_norm(points, ball=0.0, n=20000, seed=0):
    """min norm over random convex combinations of the points (upper bound
    on the true min-norm value, tight for dense sampling)."""
    rng = np.random.default_rng(seed)
    P = np.asarray(points, dtype=float)
    best = float(np.min(np.linalg.norm(P, axis=1)))
    for _ in range(n):
        k = rng.integers(2, min(len(P), 4) + 1)
        idx = rng.choice(len(P), size=k, replace=False)
        w = rng.dirichlet(np.ones(k))
        best = min(best, float(np.linalg.norm(w @ P[idx])))
    return max(best - ball, 0.0)


def per_value_cone_dist(F, C):
    """dist(., C) of stacked values F (shape (m, ...)), one scalar projection
    (an nnls solve) per value: the reference for the batched cone kernel."""
    from vep import geometry as geo

    cols = np.asarray(F, dtype=float).reshape(C.dim, -1)
    return np.array([np.linalg.norm(cols[:, j] - geo.project(cols[:, j], C))
                     for j in range(cols.shape[1])]).reshape(np.shape(F)[1:])


def qhull_vertices(A, b):
    """Vertices of a bounded {z : Az <= b} with an interior, by a Chebyshev
    centre LP and qhull's halfspace intersection (a closed form for n = 1):
    the reference for the basis enumeration in ``halfspace_vertices``."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    if n == 1:
        lo = max((off / a for a, off in zip(A[:, 0], b) if a < 0), default=-np.inf)
        up = min((off / a for a, off in zip(A[:, 0], b) if a > 0), default=np.inf)
        assert np.isfinite(lo) and np.isfinite(up) and lo < up
        return np.array([[lo], [up]])
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    res = linprog(np.concatenate([np.zeros(n), [-1.0]]), A_ub=np.hstack([A, norms]), b_ub=b,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    assert res.success and res.x[-1] > 1e-12
    pts = HalfspaceIntersection(np.hstack([A, -b.reshape(-1, 1)]), res.x[:-1]).intersections
    return pts[ConvexHull(pts).vertices]


def per_point_nu_gradients(prob, xi, x):
    """The sampled gradient limits of ``subdiff.nu_subgradient_full`` with
    one scalar ``eval_nu`` per difference: at each of 64 ring points of
    radius 1e-3, one-sided differences of step 1e-5, kept where they agree
    and deduplicated in ring order; the central difference at the point
    where none agree.  The reference for the stencil's kernel call."""
    from vep import geometry as geo
    from vep import merit as mr

    q0 = np.concatenate([np.atleast_1d(np.asarray(xi, dtype=float)),
                         np.atleast_1d(np.asarray(x, dtype=float))])
    p, h = prob.p, 1e-5

    def nu(q):
        return mr.eval_nu(prob, q[:p], q[p:]).value

    def one_sided(q):
        g = np.empty(len(q))
        f0 = nu(q)
        for i in range(len(q)):
            e = np.zeros(len(q))
            e[i] = h
            fwd = (nu(q + e) - f0) / h
            bwd = (f0 - nu(q - e)) / h
            if abs(fwd - bwd) > 1e-5 * (1.0 + abs(fwd) + abs(bwd)):
                return None
            g[i] = 0.5 * (fwd + bwd)
        return g

    grads = []
    for u in geo._sphere_dirs(len(q0), 64):
        g = one_sided(q0 + 1e-3 * u)
        if g is not None and not any(np.max(np.abs(g - c)) <= 1e-6 for c in grads):
            grads.append(g)
    if not grads:
        grads = [fd_gradient(nu, q0, h)]
    return np.asarray(grads)


def per_row_penalized(prob, XI, X, lam, gamma):
    """objective + lam * (dist(xi, Omega) + merit/gamma) at each row, with
    a scalar objective, Omega distance and ``eval_merit`` per row: the
    reference for the solver's batched penalized objective."""
    from vep import expr as ex
    from vep import geometry as geo
    from vep import merit as mr

    return np.array([float(ex.eval_expr(prob.objective, xi=xi, x=x))
                     + lam * (geo.dist(xi, prob.omega) + mr.eval_merit(prob, xi, x).merit / gamma)
                     for xi, x in zip(XI, X)])
