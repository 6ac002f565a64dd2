"""Independent oracles used to derive expected test values.

These deliberately avoid the library code paths they check: distances come
from dense grid minimization, gradients from finite differences, min-norm
values from random convex combinations.
"""

import numpy as np


def grid_min_distance(x, member, lo, hi, res=401):
    """min ||x - s|| over grid points of [lo, hi]^d that satisfy ``member``,
    which maps the grid points (M, d) to a boolean mask (M,) in one call."""
    x = np.asarray(x, dtype=float)
    axes = [np.linspace(lo[i], hi[i], res) for i in range(len(x))]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[np.asarray(member(pts), dtype=bool)]
    return float(np.min(np.linalg.norm(pts - x, axis=1)))


def generator_cone_members(G, P, tol=1e-12):
    """Rows of P (M, 2) in the plane cone generated by the rows of G.  By
    Caratheodory's theorem p is in the cone iff p = a g_i (a >= 0) for one
    generator or p = a g_i + b g_j (a, b >= 0) for a pair of independent
    ones; every pair is solved for every point at once by Cramer's rule."""
    G = np.asarray(G, dtype=float)
    P = np.asarray(P, dtype=float)

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    scale = tol * np.linalg.norm(G, axis=1)[:, None] * np.maximum(1.0, np.linalg.norm(P, axis=1))
    ray = (np.abs(cross(G[:, None], P[None])) <= scale) & (G @ P.T >= -scale)
    member = ray.any(axis=0)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            det = cross(G[i], G[j])
            if abs(det) <= tol:
                continue
            a, b = cross(P, G[j]) / det, cross(G[i], P) / det
            member |= (a >= -tol) & (b >= -tol)
    return member


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


def nnls_cone_projection(x, C):
    """Projection of x onto a cone by one nnls solve on its rows: the cone
    itself for generator form, the polar cone (subtracted from x, by Moreau)
    for halfspace form."""
    from scipy.optimize import nnls

    x = np.asarray(x, dtype=float)
    if C.kind == "orthant":
        return np.maximum(x, 0.0)
    polar = np.zeros_like(x)
    if len(C.mat):
        coef, _ = nnls(C.mat.T, x)
        polar = C.mat.T @ coef
    return polar if C.kind == "generators" else x - polar


def nnls_cap_points(C):
    """The cap of a 2-D cone built point by point: the apex, the unit
    generators and every 2-degree direction whose nnls distance to the cone
    is within 1e-9 max(1, |u|): the reference for the batched membership in
    ``geometry.cap_points``."""
    from vep import geometry as geo

    pts = [np.zeros(2)]
    if C.kind != "halfspaces":
        pts += [g / np.linalg.norm(g) for g in (np.eye(2) if C.kind == "orthant" else C.mat)
                if np.linalg.norm(g) > 1e-12]
    for u in geo._sphere_dirs(2, int(round(360.0 / geo.CAP_RES_DEG))):
        if np.linalg.norm(u - nnls_cone_projection(u, C)) <= 1e-9 * max(1.0, np.linalg.norm(u)):
            pts.append(u)
    return geo._prune_hull(np.asarray(pts))


def per_value_cone_dist(F, C):
    """dist(., C) of stacked values F (shape (m, ...)), one scalar projection
    (an nnls solve) per value: the reference for the batched cone kernel."""
    cols = np.asarray(F, dtype=float).reshape(C.dim, -1)
    return np.array([np.linalg.norm(cols[:, j] - nnls_cone_projection(cols[:, j], C))
                     for j in range(cols.shape[1])]).reshape(np.shape(F)[1:])


def hildreth_projection(x, A, b):
    """Projection onto {y : Ay <= b} by Hildreth's dual coordinate ascent,
    with an LP to tell an empty set from slow convergence: the iterative
    reference for the exact enumeration in ``geometry.project_polytopes``."""
    import math

    from scipy.optimize import linprog

    from vep import geometry as geo

    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    y = np.asarray(x, dtype=float).copy()
    n2 = np.einsum("ij,ij->i", A, A)
    if np.any(n2 < 1e-300):
        keep = n2 >= 1e-300
        if np.any(b[~keep] < -1e-12):
            raise geo.GeometryError("infeasible halfspace representation")
        A, b, n2 = A[keep], b[keep], n2[keep]
    k = len(A)
    lam = np.zeros(k)
    scale = max(1.0, float(np.linalg.norm(x)), float(np.max(np.abs(b))) if k else 1.0)
    for sweep in range(5000):
        biggest = 0.0
        for i in range(k):
            w = (A[i] @ y - b[i]) / n2[i]
            new = max(0.0, lam[i] + w)
            d = new - lam[i]
            if d != 0.0:
                lam[i] = new
                y = y - d * A[i]
                biggest = max(biggest, abs(d) * math.sqrt(n2[i]))
        if biggest <= 1e-12 * scale:
            viol = float(np.max(A @ y - b)) if k else 0.0
            if viol <= 1e-8 * scale:
                return y
    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b,
                  bounds=[(None, None)] * A.shape[1], method="highs")
    if not res.success:
        raise geo.GeometryError("infeasible halfspace representation")
    raise geo.GeometryError("halfspace projection failed to converge")


def lp_extreme_rows(pts):
    """The distinct rows of pts that are extreme points of their convex
    hull, by one LP per row: a row is kept when no convex combination of
    the other distinct rows equals it.  The reference for the hull
    branches of ``geometry._prune_hull``."""
    from scipy.optimize import linprog

    rows = np.unique(np.asarray(pts, dtype=float) + 0.0, axis=0)     # -0.0 is 0.0
    keep = []
    for i, x in enumerate(rows):
        others = np.delete(rows, i, axis=0)
        if not len(others):
            keep.append(i)
            continue
        res = linprog(np.zeros(len(others)), A_eq=np.vstack([others.T, np.ones(len(others))]),
                      b_eq=np.append(x, 1.0), bounds=(0, None), method="highs")
        assert res.status in (0, 2), res.message     # feasible or infeasible
        if res.status == 2:
            keep.append(i)
    return rows[keep]


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


def per_point_vertex_nu(prob, xi, x, eps=0.0):
    """The vertex-exact excess value at one point as it was taken point by
    point, before the merit kernel served ``eval_nu``: (value, argmax,
    flags), or None where f is not affine in z or the grid takes over.  A
    bounded box slice gives the corners of the box widened by eps, listed
    with the first coordinate slowest (more than 16 dimensions raise
    GeometryError), and more than one dimension with eps > 0 is flagged
    ``eps-box-superset``; a polytope slice at eps = 0 gives
    ``geo.halfspace_vertices``.  Each vertex's value is ``geo.dist`` of one
    scalar f evaluation; the argmax holds the vertices within 1e-8 of the
    max, in vertex order."""
    import itertools

    from vep import geometry as geo
    from vep import problem as pb

    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not prob.f.affine_in_z:
        return None
    S = pb.slice_at(prob.K, xi)
    flags = ()
    if isinstance(S, geo.Box):
        if not (np.isfinite(S.lower).all() and np.isfinite(S.upper).all()):
            return None
        if S.dim > 16:
            raise geo.GeometryError("box vertex enumeration beyond 16 dims")
        if eps > 0.0 and S.dim > 1:
            flags = ("eps-box-superset",)
        verts = np.array(list(itertools.product(*zip(S.lower - eps, S.upper + eps))))
    elif eps > 0.0:
        return None
    else:
        try:
            verts = geo.halfspace_vertices(S)
        except geo.GeometryError:
            return None
    vals = np.array([geo.dist(prob.f.eval(xi=xi, x=x, z=z).reshape(prob.m), prob.cone)
                     for z in verts])
    best = float(vals.max())
    return best, verts[vals >= best - 1e-8], flags


def pairwise_oracle_solutions(prob, xi, grid=None):
    """The grid solution oracle comparing every grid x of the slice with
    every grid z of it, chunked so that one f evaluation holds at most
    2,000,000 pairs: the reference for ``problem.oracle_solutions``, which
    takes z over the extreme points of the grid when f is affine in z."""
    from vep import expr as ex
    from vep import geometry as geo
    from vep import problem as pb

    grid = grid or pb.OracleGrid()
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    S = pb.slice_at(prob.K, xi)
    axes, _ = pb._axis_grids(prob, S, grid.x_resolution)
    pts = pb._grid_points(axes)
    step = max(float(a[1] - a[0]) if len(a) > 1 else 0.0 for a in axes)
    X = pts[pb._members(S, pts, 0.5 * step + 1e-12)]
    Z = X
    sols = [np.zeros((0, prob.n))]
    chunk = max(1, int(2_000_000 // max(len(Z), 1)))
    for start in range(0, len(X), chunk):
        xb = X[start:start + chunk]
        env_x = [xb[:, j][:, None] for j in range(prob.n)]
        env_z = [Z[:, j][None, :] for j in range(prob.n)]
        vals = [np.broadcast_to(np.asarray(ex.eval_expr(c, xi=xi, x=env_x, z=env_z),
                                           dtype=float), (len(xb), len(Z)))
                for c in prob.f.components]
        worst = geo.dist_cone_batch(np.stack(vals), prob.cone).max(axis=1)
        sols.append(xb[worst <= grid.tol_c])
    return np.vstack(sols)


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


def sequential_polish(fn, q0, step, lo, up):
    """Pattern search from q0 with one probe per ``fn`` call: a sweep tries
    q +- step e_i in the order (i, +step, -step) and moves to every probe
    that improves; a sweep without a move halves the step, down to 1e-7,
    for at most 400 sweeps.  Returns the point, its value and the number of
    sweeps.  The reference for the solver's lockstep polish."""
    q = q0.copy()
    v = fn(q)
    sweeps = 0
    for sweeps in range(1, 401):
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
    return q, v, sweeps


def sequential_solve_penalized(prob, config, starts):
    """``solver.solve_penalized`` with one run at a time: each seed's value
    is a one-row objective value, and its polish probes one point per call
    and moves greedily.  The reference for the batched seed values and the
    lockstep polish sweep."""
    import math

    from vep import geometry as geo
    from vep import solver as sv

    p = prob.p
    starts = [prob.point(xi, x) for xi, x in starts]
    rng = np.random.default_rng(config.seed)
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    lo, up = np.concatenate([wlo, xlo]), np.concatenate([wup, xup])
    diam = float(np.linalg.norm(up - lo))
    trace = []
    incumbents = [np.concatenate(s) for s in starts]
    lam = config.lambda_init
    incumbent = incumbents[0]
    while lam <= config.lambda_max:
        def fn(w, _lam=lam):
            return sv.penalized_value(prob, w[:p], w[p:], _lam, config.gamma)

        stage_incumbents, stage_values = [], []
        for q_start in incumbents:
            seeds = [q_start,
                     np.clip(q_start + 0.05 * diam * rng.normal(size=len(q_start)), lo, up)]
            best_local, best_local_val = None, math.inf
            for q in seeds:
                cur_best, cur_val, _ = sequential_polish(fn, q.copy(), diam / 10.0, lo, up)
                if cur_val < -1e12:
                    raise sv.SolverError("penalized objective unbounded below")
                if cur_val < best_local_val:
                    best_local, best_local_val = cur_best, cur_val
            stage_incumbents.append(best_local)
            stage_values.append(best_local_val)
        incumbents = stage_incumbents
        Q = np.array(incumbents)
        values, merits = sv._penalized_rows(prob, Q[:, :p], Q[:, p:], lam, config.gamma)
        trace.extend(sv.StageRecord(lam, si, best_val, tuple(q.tolist()), me)
                     for si, (q, best_val, me)
                     in enumerate(zip(incumbents, stage_values, merits.tolist())))
        j = int(np.argmin(values))
        incumbent = incumbents[j]
        feasible = merits[j] <= sv.TOL_MERIT and geo.dist(incumbent[:p], prob.omega) <= sv.TOL_MERIT
        if feasible and sv._penalized_slope(prob, incumbent, lam, config.gamma, p) <= 1e-4:
            break
        lam *= config.growth
    return (incumbent[:p].copy(), incumbent[p:].copy()), tuple(trace)


def per_sample_gamma(prob, xi_bar, rho, spec):
    """``diagnostics.estimate_gamma`` with the per-sample body at every
    sample, the random ones drawn by one pair of ``Generator.uniform`` calls
    each: for each non-solution sample in order, the min-norm point of
    ``nu_partial_subgradient_smooth``'s body plus the truncated normal map
    ({0} strictly inside the slice), up to the first distance within
    ``GAMMA_MARGIN`` of zero.  Returns
    (constant, verdict, witness, flags): the reference for the one-point
    rows of the batched sweep."""
    from vep import diagnostics as dg
    from vep import geometry as geo
    from vep import merit as mr
    from vep import problem as pb
    from vep import subdiff as sd

    xi_bar, _ = prob.point(xi_bar, None)
    xlo, xup = spec.x_window if spec.x_window is not None else prob.x_window()
    rng = np.random.default_rng(spec.seed)
    n_xi, n_x = spec.grid_shape
    xi_pts = pb._grid_points([np.linspace(c - rho, c + rho, n_xi) for c in xi_bar])
    x_pts = pb._grid_points([np.linspace(xlo[i], xup[i], n_x) for i in range(prob.n)])
    samples = [(xi, x) for xi in xi_pts for x in x_pts]
    for _ in range(spec.n_random):
        samples.append((rng.uniform(xi_bar - rho, xi_bar + rho), rng.uniform(xlo, xup)))
    flags, tested = set(), []
    merits = mr.eval_merit_batch(prob, [xi for xi, _ in samples], [x for _, x in samples])
    for (xi, x), merit in zip(samples, merits.tolist()):
        if merit <= 1e-8:
            continue
        est = sd.nu_partial_subgradient_smooth(prob, xi, x)
        flags.update(est.qc_flags)
        S = pb.slice_at(prob.K, xi)
        if isinstance(S, geo.Box):
            inside = np.all((S.lower < x) & (x < S.upper))
        else:
            inside = np.all(S.A @ x < S.b)
        # a sample strictly inside its slice has the normal cone {0}
        trunc = geo.ConvexBody(len(x), np.zeros((1, len(x)))) if inside else geo.truncated_normal(x, S)
        _, d = geo.min_norm_point(geo.minkowski(est.body, trunc))
        tested.append((d, xi, x))
        if d <= dg.GAMMA_MARGIN:
            break
    best = min(d for d, _, _ in tested)
    _, xi, x = next(t for t in tested if t[0] - best <= 1e-12 * max(1.0, best))
    verdict = dg.CERTIFIED if best > dg.GAMMA_MARGIN else dg.REFUTED
    return best, verdict, (np.asarray(xi, dtype=float), np.asarray(x, dtype=float)), flags


def lazy_fold_min_norm(prob, xi, x):
    """``diagnostics._min_norm_body``'s distance with the truncated normal
    map's cap folded in last, as it was while a body kept its cone caps
    apart: with a the points of ``nu_partial_subgradient_smooth``'s body
    and t the truncated normal's point (0 on the slice, the unit outward
    direction off it), the min-norm point of
    _prune_hull(_prune_hull(a + {t}) + cap), the cap left out where x is
    off the slice or inside it."""
    from vep import geometry as geo
    from vep import problem as pb
    from vep import subdiff as sd

    xi, x = prob.point(xi, x)
    S = pb.slice_at(prob.K, xi)
    a = sd.nu_partial_subgradient_smooth(prob, xi, x).body.points
    q = geo.project(x, S)
    d = float(np.linalg.norm(x - q))
    cap = None
    if d <= geo.TOL_ON * (1.0 + np.linalg.norm(x)):
        t = np.zeros((1, len(x)))
        gens = geo.normal_cone(S, q).branches[0]
        if len(gens):
            cap = geo.cap_points(geo.generated_cone(gens))
    else:
        t = ((x - q) / d).reshape(1, -1)
    pts = geo._prune_hull((a[:, None, :] + t[None, :, :]).reshape(-1, len(x)))
    if cap is not None:
        pts = geo._prune_hull((pts[:, None, :] + cap[None, :, :]).reshape(-1, len(x)))
    q, _, _ = geo.wolfe_min_norm(pts)
    return float(np.linalg.norm(q))


def ball_sum(pts, radius):
    """Hull points of conv(pts) + radius*B, B sampled as a 180-gon in 2-D,
    +-1 in 1-D and 64 fixed directions above: the ring a body's ball was
    discretized to before the residual took the balls exactly."""
    from vep import geometry as geo

    dim = pts.shape[1]
    dirs = geo._sphere_dirs(dim, int(round(360.0 / geo.CAP_RES_DEG)) if dim == 2 else 64)
    shift = radius * dirs
    return geo._prune_hull((pts[:, None, :] + shift[None, :, :]).reshape(-1, dim))


def per_slice_axis_grids(prob, S, resolution):
    """The axis grids of one slice, and whether the window truncated it, as
    they were taken slice by slice: a bounded box's bounds; the bounding box,
    padded by 1e-9, of a polytope's vertices, a degenerate vertex kept once
    among the feasible basis points; otherwise the problem's x window; one
    ``np.linspace`` per axis."""
    from vep import geometry as geo
    from vep import problem as pb

    def window():
        if "x" not in prob.window:
            raise pb.ProblemError("unbounded slice requires an explicit window in the problem")
        return prob.window["x"]

    if isinstance(S, geo.Box):
        lo, up = S.lower, S.upper
        truncated = not (np.isfinite(lo).all() and np.isfinite(up).all())
        if truncated:
            wlo, wup = window()
            lo = np.where(np.isfinite(S.lower), S.lower, wlo)
            up = np.where(np.isfinite(S.upper), S.upper, wup)
    else:
        Z, feasible, code = geo.basis_points(S.A[None], S.b[None])
        truncated = bool(code[0])
        if truncated:
            lo, up = window()
        else:
            Z = Z[0][feasible[0]]
            gap = np.abs(Z[:, None, :] - Z[None, :, :]).max(axis=2)
            verts = Z[~np.triu(gap <= 1e-9 * (1.0 + np.abs(Z).max(axis=1)), 1).any(axis=0)]
            lo, up = verts.min(axis=0) - 1e-9, verts.max(axis=0) + 1e-9
    if np.any(~np.isfinite(lo)) or np.any(~np.isfinite(up)):
        raise pb.ProblemError("unbounded slice without an explicit window")
    return [np.linspace(lo[i], up[i], resolution) for i in range(len(lo))], truncated


def per_xi_oracle_rows(prob, XI, grid):
    """``problem._oracle_rows`` one parameter row at a time: the slice, its
    axis grids (``per_slice_axis_grids``), member mask, extreme points and
    ``_f_dists`` of each row on their own, in chunks of at most 2,000,000
    pairs.  The reference for the stacked pass."""
    from vep import geometry as geo
    from vep import merit as mr
    from vep import problem as pb

    def at(xi):
        S = pb.slice_at(prob.K, xi)
        axes, _ = per_slice_axis_grids(prob, S, grid.x_resolution)
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        step = max(float(a[1] - a[0]) if len(a) > 1 else 0.0 for a in axes)
        tol = 0.5 * step + 1e-12
        if isinstance(S, geo.Box):
            X = pts[np.all((pts >= S.lower - tol) & (pts <= S.upper + tol), axis=1)]
        else:
            X = pts[np.all(pts @ S.A.T <= S.b + tol, axis=1)]
        if len(X) == 0:
            return np.zeros((0, prob.n)), step
        Z = geo._prune_hull(X) if prob.f.affine_in_z else X
        chunk = max(1, 2_000_000 // len(Z))
        worst = np.concatenate([
            mr._f_dists(prob, np.broadcast_to(xi, (len(xb), prob.p)), xb,
                        np.broadcast_to(Z, (len(xb),) + Z.shape)).max(axis=1)
            for xb in np.split(X, range(chunk, len(X), chunk))])
        return X[worst <= grid.tol_c], step

    per_xi = [at(xi) for xi in np.asarray(XI, dtype=float)]
    return [sols for sols, _ in per_xi], [step for _, step in per_xi]


def per_point_error_bound(prob, xi_bar, rho, gamma, x_check=None):
    """``diagnostics.verify_error_bound`` as a double loop over the (t, x)
    sweep: one merit batch per t, one scalar gap per (t, x), stopping at
    the first positive gap.  Returns (verdict, witnesses, flags, worst
    gap or None): the reference for the gap table."""
    import math

    from vep import diagnostics as dg
    from vep import merit as mr
    from vep import problem as pb

    xi_bar, _ = prob.point(xi_bar, None)
    xlo, xup = prob.x_window()
    if x_check is None:
        x_check = (float(xlo[0]), float(xup[0]), 161)
    x_grid = np.linspace(*x_check)
    xi_grid = np.linspace(float(xi_bar[0] - rho), float(xi_bar[0] + rho), 41)
    empty_slices, worst, witness = [], -math.inf, None
    per_t, steps = pb._oracle_rows(prob, xi_grid[:, None], pb.OracleGrid())
    for t, sols, step in zip(xi_grid, per_t, steps):
        if len(sols) == 0:
            empty_slices.append(t)
            continue
        slack = step + 1e-9
        merits = mr.eval_merit_batch(prob, np.full((len(x_grid), 1), t), x_grid[:, None])
        for xv, merit in zip(x_grid, merits.tolist()):
            d = float(np.min(np.abs(sols[:, 0] - xv)))
            gap = d - (merit / gamma + slack)
            if gap > worst:
                worst, witness = gap, (t, xv)
            if gap > 0:
                return dg.REFUTED, ((t, xv),), ("witness-violates-bound",), None
    if empty_slices:
        return (dg.INCONCLUSIVE, tuple((t,) for t in empty_slices[:4]),
                ("empty-solution-set",), None)
    return dg.CERTIFIED, (witness,), (), worst


def per_target_openness_rate(prob, seed=0):
    """``diagnostics.estimate_openness_rate`` with one distance pass per
    bisection target: each of the 32 targets takes its own
    ``np.linalg.norm(img - t, axis=1)``.  The reference for the (targets,
    image points) pass."""
    import math

    from vep import expr as ex
    from vep import geometry as geo
    from vep import problem as pb

    z_resolution = 61
    rng = np.random.default_rng(seed)
    wlo, wup = prob.xi_window()
    xlo, xup = prob.x_window()
    alpha = math.inf
    dirs = geo._sphere_dirs(prob.m, 32)
    for _ in range(5):
        xi = rng.uniform(wlo, wup)
        x = rng.uniform(xlo, xup)
        S = pb.slice_at(prob.K, xi)
        z0 = geo.project(rng.uniform(xlo, xup), S)
        for r in (0.5, 0.25):
            axes = [np.linspace(z0[i] - r, z0[i] + r, z_resolution) for i in range(prob.n)]
            pts = pb._grid_points(axes)
            pts = pts[np.linalg.norm(pts - z0, axis=1) <= r]
            img = np.stack([np.broadcast_to(np.asarray(
                ex.eval_expr(c, xi=xi, x=x, z=[pts[:, j] for j in range(prob.n)]), dtype=float),
                (len(pts),)) for c in prob.f.components]).T
            f0 = prob.f.eval(xi=xi, x=x, z=z0).reshape(prob.m)
            spread = np.linalg.norm(img - f0, axis=1)
            step = 2.0 * r / (z_resolution - 1)
            lip = float(spread.max()) / max(r, 1e-12)
            cover_tol = 1.5 * step * max(1.0, lip)
            lo_a, hi_a = 0.0, float(spread.max()) / r + 1e-9
            for _ in range(30):
                mid = 0.5 * (lo_a + hi_a)
                targets = f0 + (mid * r) * dirs
                dmin = np.array([float(np.min(np.linalg.norm(img - t, axis=1)))
                                 for t in targets])
                if np.all(dmin <= cover_tol):
                    lo_a = mid
                else:
                    hi_a = mid
            alpha = min(alpha, max(0.0, lo_a - cover_tol / r))
    return float(alpha if math.isfinite(alpha) else 0.0)


def per_pair_lipschitz_f(prob, seed=0):
    """``diagnostics.estimate_lipschitz_f`` one pair at a time: separate
    draws for xi, x, the coin and the second end, and two ``VectorFunc.eval``
    calls and scalar norms per pair.  Returns the constant and the pairs'
    ends, rows (xi, x) of two arrays: the reference for the batched pass."""
    import math

    from vep import problem as pb

    rng = np.random.default_rng(seed)
    wlo, wup = prob.xi_window()
    xlo, xup = prob.x_window()
    S = pb.slice_at(prob.K, 0.5 * (wlo + wup))
    axes, _ = pb._axis_grids(prob, S, 9)
    z_set = pb._grid_points(axes)
    best, ends = 0.0, []
    for z in z_set:
        for _ in range(max(1, 2000 // len(z_set))):
            a = (rng.uniform(wlo, wup), rng.uniform(xlo, xup))
            if rng.uniform() < 0.5:
                step = 10.0 ** rng.uniform(-6, -1)
                d = rng.normal(size=prob.p + prob.n)
                d = step * d / np.linalg.norm(d)
                b = (a[0] + d[: prob.p], a[1] + d[prob.p:])
            else:
                b = (rng.uniform(wlo, wup), rng.uniform(xlo, xup))
            num = np.linalg.norm(prob.f.eval(xi=a[0], x=a[1], z=z).reshape(prob.m)
                                 - prob.f.eval(xi=b[0], x=b[1], z=z).reshape(prob.m))
            den = math.hypot(float(np.linalg.norm(np.asarray(a[0]) - np.asarray(b[0]))),
                             float(np.linalg.norm(np.asarray(a[1]) - np.asarray(b[1]))))
            if den > 1e-12:
                best = max(best, float(num / den))
            ends.append([np.concatenate(a), np.concatenate(b)])
    return best, np.array(ends)[:, 0], np.array(ends)[:, 1]


def einsum_polyline_project(w, branch):
    """Nearest point on a polyline for one point, with one einsum over the
    segments: the reference for ``geometry.polyline_project_rows``."""
    if len(branch) == 1:
        q = branch[0]
        return q, float(np.linalg.norm(w - q))
    a, b = branch[:-1], branch[1:]
    d = b - a
    dd = np.einsum("ij,ij->i", d, d)
    dd[dd == 0.0] = 1.0
    t = np.clip(np.einsum("ij,ij->i", w - a, d) / dd, 0.0, 1.0)
    cand = a + t[:, None] * d
    dists = np.linalg.norm(cand - w, axis=1)
    j = int(np.argmin(dists))
    return cand[j], float(dists[j])


def per_point_c_bounded_sups(prob, xi, x0):
    """The per-level suprema of ``diagnostics.check_c_bounded``, one
    ``VectorFunc.eval`` and one ``geometry.dist`` per grid point of K(xi):
    the reference for the one-pass levels."""
    from vep import geometry as geo
    from vep import problem as pb

    xi, x0 = prob.point(xi, x0)
    S = pb.slice_at(prob.K, xi)
    axes_full, truncated = pb._axis_grids(prob, S, 101)
    levels = [axes_full] if not truncated else [
        [c + (lev / 4) * (a - c) for a in axes_full for c in [0.5 * (a[0] + a[-1])]]
        for lev in range(1, 5)]
    sups = []
    for axes in levels:
        pts = pb._grid_points(axes)
        sup = 0.0
        for z in pts[pb._members(S, pts, 1e-9)]:
            F = prob.f.eval(xi=xi, x=x0, z=z).reshape(prob.m)
            if geo.dist(F, prob.cone) > 1e-12:
                sup = max(sup, float(np.linalg.norm(F)))
        sups.append(sup)
    return sups


def per_point_distance_oracles(prob, xi_lo, xi_hi):
    """The three distances of ``diagnostics.graph_e_distance_oracles`` (to
    Omega x R^n, to graph E, to their intersection) for one point w each,
    by ``geometry.dist``, ``geometry.polyline_project`` and a norm per
    sample: the reference for the row oracles."""
    from vep import geometry as geo
    from vep import merit as mr
    from vep import problem as pb

    cloud = pb.graph_samples(prob, xi_lo, xi_hi, 401)
    xi = cloud[:, : prob.p]
    both = cloud[mr._dist_rows(xi - geo.project_rows(xi, prob.omega)) <= 1e-9]

    def d_omega(w):
        return geo.dist(w[: prob.p], prob.omega)

    def d_graph(w):
        return geo.polyline_project(np.asarray(w, dtype=float), cloud)[1]

    def d_both(w):
        if len(both) == 0:
            return float("inf")
        return float(np.min(np.linalg.norm(both - w, axis=1)))

    return d_omega, d_graph, d_both


def per_point_kappa(dist1, dist2, dist12, s_bar, r):
    """``diagnostics.subtransversality_kappa`` with one call of each
    one-point oracle per grid point, in grid order.  Returns (verdict,
    kappa, witnesses, flags): the reference for the row pass."""
    import math

    from vep import diagnostics as dg
    from vep import problem as pb

    s_bar = np.atleast_1d(np.asarray(s_bar, dtype=float))
    pts = pb._grid_points([np.linspace(c - r, c + r, 21) for c in s_bar])
    kappa, witness, unreachable = 0.0, None, False
    for w in pts:
        d1, d2 = dist1(w), dist2(w)
        denom = max(d1, d2)
        if denom <= 1e-9:
            continue
        d12 = dist12(w)
        if not math.isfinite(d12):
            unreachable = True
            continue
        ratio = d12 / denom
        if ratio > kappa:
            kappa, witness = ratio, w
    if unreachable:
        return dg.INCONCLUSIVE, math.nan, (), ("intersection-unreachable",)
    return dg.CERTIFIED, kappa, (witness,) if witness is not None else (), ()


def per_face_dist_cone_batch(F, C):
    """``geometry.dist_cone_batch`` with one pass per face of ``C.faces``:
    the strict ``<`` scan over the apex and the faces that the stacked pass
    over ``C.face_stack`` replaces."""
    from vep import geometry as geo

    if C.kind == "orthant":
        return geo.dist_orthant_batch(F)
    X = np.asarray(F, dtype=float).reshape(C.dim, -1)
    n = X.shape[1]
    polar = C.kind == "halfspaces"
    best = X[0] * X[0]
    for i in range(1, C.dim):
        best += X[i] * X[i]
    out = np.zeros(n) if polar else best
    coef = np.empty((C.dim, n))
    proj, tmp, res, ok = np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    norm2 = np.empty(n) if polar else None
    for R, P in C.faces:
        c = coef[:len(R)]
        np.multiply(P[0][:, None], X[0], out=c)
        for i in range(1, C.dim):
            c += P[i][:, None] * X[i]
        np.all(c >= 0.0, axis=0, out=ok)
        res.fill(0.0)
        if polar:
            norm2.fill(0.0)
        for i in range(C.dim):
            np.multiply(R[0, i], c[0], out=proj)
            for r in range(1, len(R)):
                proj += np.multiply(R[r, i], c[r], out=tmp)
            if polar:
                norm2 += np.multiply(proj, proj, out=tmp)
            np.subtract(X[i], proj, out=proj)
            res += np.multiply(proj, proj, out=proj)
        ok &= res < best
        np.copyto(best, res, where=ok)
        if polar:
            np.copyto(out, norm2, where=ok)
    return np.sqrt(out).reshape(np.shape(F)[1:])


def gathered_basis_points(A, b):
    """``geometry.basis_points`` with every nonsingular subsystem gathered
    from the full stack before the solve, also when all slices share one A:
    the reference for the broadcast solve against A[0]."""
    from vep import geometry as geo

    N, k, n = A.shape
    if N and (A == A[:1]).all():
        nonsingular, ray = geo._a_checks(np.asarray(A[0], dtype=float).tobytes(), k, n)
        nonsingular = np.repeat(nonsingular, N, axis=0)
        ray = np.repeat(ray, N)
    else:
        nonsingular, ray = geo._a_checks_rows(A)
    rows = geo._row_subsets(k, n)
    Z = np.zeros((N, len(rows), n))
    Z[nonsingular] = np.linalg.solve(A[:, rows][nonsingular],
                                     b[:, rows][nonsingular][..., None])[..., 0]
    slack = b + 1e-9 * (1.0 + np.abs(b))
    feasible = nonsingular & np.all(Z @ A.transpose(0, 2, 1) <= slack[:, None, :], axis=2)
    code = np.zeros(N, dtype=int)
    code[~feasible.any(axis=1)] = 3
    code[ray] = 2
    code[~nonsingular.any(axis=1)] = 1
    return Z, feasible, code


def reduce_on_segments(W, a, d, dd):
    """``geometry._on_segments`` with the squares summed by ``np.add.reduce``."""
    w = W[:, None, :]
    t = np.clip(np.einsum("pij,ij->pi", w - a, d) / dd, 0.0, 1.0)
    cand = a + t[..., None] * d
    D = cand - w
    return cand, np.sqrt(np.add.reduce(D * D, axis=2))


def per_entry_slice_arrays(K, XI):
    """``problem.slice_arrays`` with every entry expression, constant or
    not, evaluated over the columns of XI at each call."""
    from vep import expr as ex
    from vep import problem as pb

    cols = list(XI.T)

    def fill(out, exprs, missing):
        for j, e in enumerate(exprs):
            out[:, j] = missing if e is None else ex.eval_expr(e, xi=cols)
        return out

    N = len(XI)
    if isinstance(K, pb.ParamBox):
        return (fill(np.empty((N, K.n)), K.lower, -np.inf),
                fill(np.empty((N, K.n)), K.upper, np.inf))
    A = np.empty((N, len(K.rows), K.n))
    for r, row in enumerate(K.rows):
        fill(A[:, r], row, None)
    return A, fill(np.empty((N, len(K.rhs))), K.rhs, None)


def per_row_project_polytopes(A, b, X):
    """``geometry.project_polytopes`` one row at a time, each row outside
    its polytope through the enumeration that builds the Gram matrices,
    determinants and inverses of its own A: the reference for the per-A
    tables of ``geometry._projection_table``."""
    from vep import geometry as geo

    def nearest_feasible(A, b, norms, X, size):
        k, n = A.shape[1:]
        unit = A / np.where(norms > 0.0, norms, 1.0)[..., None]
        r = (unit @ X[..., None])[..., 0] - b / np.where(norms > 0.0, norms, 1.0)
        cands, ok = [], []
        for j in range(1, min(k, n) + 1):
            rows = geo._row_subsets(k, j)
            US = unit[:, rows]
            G = US @ US.swapaxes(2, 3)
            ok.append(np.linalg.det(G) > 1e-24)
            Ginv = np.linalg.inv(np.where(ok[-1][..., None, None], G, np.eye(j)))
            cands.append(X[:, None, :] - (r[:, rows][..., None, :] @ Ginv @ US)[..., 0, :])
        Z = np.concatenate(cands, axis=1)
        slack = b[:, None, :] - Z @ A.transpose(0, 2, 1)
        size = (size + np.sqrt(np.sum(Z * Z, axis=2)))[..., None]
        feasible = np.concatenate(ok, axis=1) & np.all(
            slack >= -1e-9 * (np.abs(b)[:, None, :] + norms[:, None, :] * size), axis=2)
        gap = np.sum((X[:, None, :] - Z) ** 2, axis=2)
        nearest = np.argmin(np.where(feasible, gap, np.inf), axis=1)
        Z = Z[np.arange(len(X)), nearest]
        Z[~feasible.any(axis=1)] = np.inf
        return Z

    out = np.array(X, dtype=float)
    for i in range(len(X)):
        Ai, bi, x = A[i if len(A) > 1 else 0][None], b[i if len(A) > 1 else 0][None], out[i:i + 1]
        norms = np.sqrt(np.sum(Ai * Ai, axis=2))
        size = np.sqrt(np.sum(x * x, axis=1))[:, None]
        slack = bi - (Ai @ x[..., None])[..., 0]
        if np.any(slack < -1e-9 * (np.abs(bi) + norms * 2.0 * size)):
            out[i] = nearest_feasible(Ai, bi, norms, x, size)[0]
    return out
