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


def sequential_solve_penalized(prob, config, starts):
    """``solver.solve_penalized`` with one descent at a time: every step
    takes a one-row objective value and a one-point subgradient, and the
    polish probes one point per call and moves greedily.  The reference
    for the lockstep descents and the batched polish sweep."""
    import math

    from vep import expr as ex
    from vep import geometry as geo
    from vep import merit as mr
    from vep import solver as sv

    p = prob.p

    def subgradient(xi, x, lam):
        g_phi = ex.grad_hull(prob.objective, (xi, x, ()), "xix").generators[0]
        d_om = geo.dist(xi, prob.omega)
        g_om = np.zeros(p + len(x))
        if d_om > 1e-12:
            g_om[:p] = (xi - geo.project(xi, prob.omega)) / d_om
        q, h = np.concatenate([xi, x]), 1e-7
        Q = np.concatenate([q + h * np.eye(len(q)), q - h * np.eye(len(q))])
        m = mr.eval_merit_batch(prob, Q[:, :p], Q[:, p:])
        g_mf = (m[:len(q)] - m[len(q):]) / (2 * h)
        return g_phi + lam * g_om + (lam / config.gamma) * g_mf

    def polish(fn, q0, step, lo, up):
        q = q0.copy()
        v = fn(q)
        for _ in range(400):
            improved = False
            for i in range(len(q)):
                for s in (step, -step):
                    cand = q.copy()
                    cand[i] += s
                    cand = np.clip(cand, lo, up)
                    cv = fn(cand)
                    if cv < v - 1e-15:
                        q, v, improved = cand, cv, True
            if not improved:
                step *= 0.5
                if step < 1e-7:
                    break
        return q, v

    starts = [prob.point(xi, x) for xi, x in starts]
    rng = np.random.default_rng(config.seed)
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    lo, up = np.concatenate([wlo, xlo]), np.concatenate([wup, xup])
    diam = float(np.linalg.norm(up - lo))
    a0 = diam / 10.0
    trace = []
    incumbents = [np.concatenate(s) for s in starts]
    lam = config.lambda_init
    incumbent = incumbents[0]
    while lam <= config.lambda_max:
        def fn(w, _lam=lam):
            return sv.penalized_value(prob, w[:p], w[p:], _lam, config.gamma)

        stage_incumbents, stage_runs = [], []
        for q_start in incumbents:
            seeds = [q_start,
                     np.clip(q_start + 0.05 * diam * rng.normal(size=len(q_start)), lo, up)]
            best_local, best_local_val, accepted = None, math.inf, 0
            for q in seeds:
                q = q.copy()
                cur_best, cur_val = q.copy(), fn(q)
                steps = 0
                for k in range(1, config.max_iter + 1):
                    g = subgradient(q[:p], q[p:], lam)
                    ng = float(np.linalg.norm(g))
                    if ng <= 1e-14:
                        break
                    q = np.clip(q - (a0 / math.sqrt(k)) * g / ng, lo, up)
                    v = fn(q)
                    if v < cur_val - 1e-15:
                        cur_val, cur_best = v, q.copy()
                        steps += 1
                pol_q, pol_v = polish(fn, cur_best, a0 / 10.0, lo, up)
                if pol_v < cur_val:
                    cur_best, cur_val = pol_q, pol_v
                if cur_val < -1e12:
                    raise sv.SolverError("penalized objective unbounded below")
                if cur_val < best_local_val:
                    best_local, best_local_val, accepted = cur_best, cur_val, steps
            stage_incumbents.append(best_local)
            stage_runs.append((accepted, best_local_val))
        incumbents = stage_incumbents
        Q = np.array(incumbents)
        values, merits = sv._penalized_rows(prob, Q[:, :p], Q[:, p:], lam, config.gamma)
        trace.extend(sv.StageRecord(lam, si, accepted, best_val, tuple(q.tolist()), me)
                     for si, (q, (accepted, best_val), me)
                     in enumerate(zip(incumbents, stage_runs, merits.tolist())))
        j = int(np.argmin(values))
        incumbent = incumbents[j]
        feasible = merits[j] <= sv.TOL_MERIT and geo.dist(incumbent[:p], prob.omega) <= sv.TOL_MERIT
        if feasible and sv._penalized_slope(prob, incumbent, lam, config.gamma, p) <= 1e-4:
            break
        lam *= config.growth
    return (incumbent[:p].copy(), incumbent[p:].copy()), tuple(trace)
