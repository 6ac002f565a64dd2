"""Estimate and certify the constants and hypotheses the stationarity
theory needs: the error-bound constant gamma, subtransversality (metric
ratio or normal-cone test), strong slope, cone-boundedness, the Lipschitz
constant of the bifunction, the linear openness rate of its z-slices, and
solution-map stability probes.

Every verdict is sample-based: the vocabulary is deliberately
``certified-on-samples``, never "proved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import merit as mr
from . import problem as pb
from . import subdiff as sd
# pmap is bound, not called: the benchmark tracer wraps it by this name
from ._parallel import pmap  # noqa: F401

CERTIFIED = "certified-on-samples"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

GAMMA_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class Certificate:
    kind: str
    verdict: str
    constant: float
    witnesses: tuple = ()
    resolution: dict = field(default_factory=dict)
    flags: tuple = ()


@dataclass(frozen=True)
class SampleSpec:
    grid_shape: tuple = (41, 41)
    n_random: int = 200
    seed: int = 0
    x_window: tuple | None = None  # (lo, hi) arrays; problem window otherwise


# ---------------------------------------------------------------------------
# gamma and the error bound
# ---------------------------------------------------------------------------

def _check_xi_range(xi_bar: np.ndarray, rho: float) -> None:
    """ProblemError unless xi_bar - rho, xi_bar + rho and the width of that
    range are finite: the samples between them could not be drawn."""
    with np.errstate(over="ignore"):
        lo, up = xi_bar - rho, xi_bar + rho
        finite = np.isfinite(lo).all() and np.isfinite(up).all() and np.isfinite(up - lo).all()
    if not finite:
        raise pb.ProblemError(f"xi_bar +- rho is not a finite range (rho = {rho:g})")


def estimate_gamma(prob: pb.VepProblem, xi_bar, rho: float,
                   spec: SampleSpec | None = None) -> Certificate:
    """Smallest sampled distance from the origin to the x-block subgradient
    of nu plus the truncated normal map, over non-solution samples.

    The samples are the (xi, x) grid, then ``n_random`` uniform draws in
    (xi_bar +- rho) x (x window), taken as one block of raw doubles: row k
    holds the p + n doubles that the k-th pair of ``Generator.uniform``
    calls would read, mapped by its arithmetic low + (high - low) u.  They
    are tested in order, and the scan stops at the first distance within
    ``GAMMA_MARGIN`` of zero.  A one-point row (see
    ``_one_point_min_norms``) takes its distance from one numpy pass over
    all samples; every other row takes ``_min_norm_body``, the min-norm
    point of the two bodies."""
    spec = spec or SampleSpec()
    xi_bar, _ = prob.point(xi_bar, None)
    _check_xi_range(xi_bar, rho)
    xlo, xup = spec.x_window if spec.x_window is not None else prob.x_window()
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(xup - xlo).all():
            raise pb.ProblemError("the x window is not a finite range")
    rng = np.random.default_rng(spec.seed)
    n_xi, n_x = spec.grid_shape
    xi_axes = [np.linspace(c - rho, c + rho, n_xi) for c in xi_bar]
    x_axes = [np.linspace(xlo[i], xup[i], n_x) for i in range(prob.n)]
    xi_pts = pb._grid_points(xi_axes)
    x_pts = pb._grid_points(x_axes)
    U = rng.random((spec.n_random, prob.p + prob.n))
    lo, hi = xi_bar - rho, xi_bar + rho
    XI = np.concatenate([np.repeat(xi_pts, len(x_pts), axis=0), lo + (hi - lo) * U[:, :prob.p]])
    X = np.concatenate([np.tile(x_pts, (len(xi_pts), 1)), xlo + (xup - xlo) * U[:, prob.p:]])
    flags: set[str] = set()
    # a range whose samples overflow f or a distance gives no gamma: it
    # ends as a load error, not as a verdict on inf and NaN values
    try:
        with np.errstate(over="raise"):
            nu, mu, far = mr._merit_parts(prob, XI, X, farthest=True)
            rows = np.flatnonzero(~(nu + mu <= 1e-8))
            if not len(rows):
                raise pb.ProblemError("every sample solves the inner problem; nothing to test")
            d = _one_point_min_norms(prob, XI, X, far, rows)
            # replay in sample order: the scan stops at the first d <= GAMMA_MARGIN
            exits = np.flatnonzero(d <= GAMMA_MARGIN)
            stop = int(exits[0]) + 1 if len(exits) else len(rows)
            for j in np.flatnonzero(np.isnan(d[:stop])):
                d[j], row_flags = _min_norm_body(prob, XI[rows[j]], X[rows[j]])
                flags.update(row_flags)
                if d[j] <= GAMMA_MARGIN:
                    stop = j + 1
                    break
    except FloatingPointError as err:
        raise pb.ProblemError(f"the samples of xi_bar +- rho overflow (rho = {rho:g}): {err}") from None
    d = d[:stop]
    # exact minimum; witness: the first sample within round-off of it
    best = float(d.min())
    i = rows[np.flatnonzero(d - best <= 1e-12 * max(1.0, best))[0]]
    witness = (XI[i].copy(), X[i].copy())
    verdict = CERTIFIED if best > GAMMA_MARGIN else REFUTED
    return Certificate(
        "gamma", verdict, best, (witness,),
        {"grid": spec.grid_shape, "random": spec.n_random, "rho": rho},
        tuple(sorted(flags)) + ("subgradient_model: branch-hull",),
    )


def _min_norm_body(prob: pb.VepProblem, xi, x) -> tuple[float, tuple]:
    """The distance of one sample and the flags of its subgradient estimate:
    the min-norm point of ``nu_partial_subgradient_smooth``'s body plus the
    truncated normal map, {0} where x is strictly inside its slice."""
    est = sd.nu_partial_subgradient_smooth(prob, xi, x)
    if _strictly_inside(prob, *pb.slice_arrays(prob.K, xi[None]), x[None])[0]:
        trunc = geo.ConvexBody(prob.n, np.zeros((1, prob.n)))
    else:
        trunc = geo.truncated_normal(x, pb.slice_at(prob.K, xi))
    _, d = geo.min_norm_point(geo.minkowski(est.body, trunc))
    return d, est.qc_flags


def _strictly_inside(prob: pb.VepProblem, first: np.ndarray, second: np.ndarray,
                     X: np.ndarray) -> np.ndarray:
    """(N,) true where X[i] is strictly inside its slice, given as
    ``pb.slice_arrays`` gives it: lo < x < up for a box map, A x < b for a
    polytope map.  There the normal cone is {0}.  ``geo.truncated_normal``
    gives a cap to points within its band of the boundary, which a point
    given on the boundary needs; a sample strictly inside has no normal."""
    if isinstance(prob.K, pb.ParamBox):
        return np.all((first < X) & (X < second), axis=1)
    return np.all(np.matmul(first, X[..., None])[..., 0] < second, axis=1)


def _one_point_min_norms(prob: pb.VepProblem, XI, X, far: mr.Farthest | None,
                         rows: np.ndarray) -> np.ndarray:
    """``_min_norm_body``'s distance at the samples ``rows`` whose bodies are
    one point each, NaN at the others.

    A row is one-point when
    - it is vertex-exact;
    - no switch of f is active at any of its farthest vertices;
    - every u at every farthest vertex gives the same g = J_x(f)ᵀ u bit for
      bit, u = (F - P_C F)/d off the cone (d > 1e-9 (1 + |F|)) and u
      ranging over the cap points normal to F on it (the apex alone when
      F is inside the cone);
    - x is strictly inside its slice or off it.
    Then the subgradient body is {g}, the truncated normal {t} (t = 0
    inside, the unit outward direction off the slice), and the distance is
    |g + t|.  Each number is computed with the arithmetic of the per-sample
    body, so it equals that body's bit for bit.
    """
    d = np.full(len(rows), np.nan)
    if far is None or not far.exact[rows].any():
        return d
    sel = np.flatnonzero(far.exact[rows])
    XI, X = XI[rows[sel]], X[rows[sel]]
    e = (np.cumsum(far.exact) - 1)[rows[sel]]      # the rows' entries in ``far``
    r, v = np.nonzero(far.mask[e])                  # farthest vertices, row by row
    owner, U = sd._dist_subgradients(prob, far.F[e[r], v], far.dists[e[r], v])
    G, _, kink = sd._adjoint_points(prob, XI[r], X[r], far.Z[e[r], v], owner, U, "x")
    row = r[owner]
    first = np.argsort(row, kind="stable")[np.searchsorted(np.sort(row), np.arange(len(sel)))]
    split = np.bincount(row, ~np.all(G == G[first[row]], axis=1), len(sel))
    ok = (split == 0) & (np.bincount(r, kink, len(sel)) == 0)
    plain, T = _truncated_normal_points(prob, XI, X)
    ok &= plain
    d[sel[ok]] = mr._dist_rows(G[first] + T)[ok]
    return d


def _truncated_normal_points(prob: pb.VepProblem, XI: np.ndarray, X: np.ndarray):
    """``_min_norm_body``'s truncated normal of N points on their bounded,
    nonempty slices where that body is one point: (plain, T), ``plain`` (N,)
    false where x is on its slice's boundary (a normal cap), T (N, n) the
    unit outward direction (x - q)/|x - q| off the slice and 0 inside.  A
    point strictly inside its slice (``_strictly_inside``) is plain."""
    arrays = pb.slice_arrays(prob.K, XI)
    if isinstance(prob.K, pb.ParamBox):
        lo, up = arrays
        Q = np.clip(X, lo, up)
    else:
        A, b = arrays
        Q = geo.project_polytopes(A, b, X)
    gap = mr._dist_rows(X - Q)
    off = ~(gap <= geo.TOL_ON * (1.0 + mr._dist_rows(X)))
    # the active constraints at q, by ``geo.normal_cone``'s tests
    if isinstance(prob.K, pb.ParamBox):
        tol = geo.TOL_ON * (1.0 + np.minimum(np.abs(Q), np.abs(up)))
        bound = (np.abs(Q - up) <= tol) | (np.abs(Q - lo) <= tol)
    else:
        bound = np.matmul(A, Q[..., None])[..., 0] - b >= -geo.TOL_ON * (1.0 + np.abs(b))
    T = np.zeros_like(X)
    T[off] = (X - Q)[off] / gap[off, None]
    return off | ~bound.any(axis=1) | _strictly_inside(prob, *arrays, X), T


def check_error_bound_scope(prob: pb.VepProblem) -> None:
    """Raise ProblemError unless the error-bound sweep covers prob (p = n = 1)."""
    if prob.p != 1 or prob.n != 1:
        raise pb.ProblemError("error-bound sweep implemented for p = n = 1")


def verify_error_bound(prob: pb.VepProblem, xi_bar, rho: float, gamma: float,
                       x_check: tuple | None = None) -> Certificate:
    """Check dist(x, E(xi)) <= merit(xi, x)/gamma + grid slack on a grid in
    (xi, x); p = n = 1.

    The oracle takes one stacked call and the merit one kernel call over
    the rows with solutions; rows without are skipped and reported.  In
    (t, x) order, the first positive gap refutes and the first maximal gap
    is the witness."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    xi_bar, _ = prob.point(xi_bar, None)
    check_error_bound_scope(prob)
    _check_xi_range(xi_bar, rho)
    xlo, xup = prob.x_window()
    if x_check is None:
        x_check = (float(xlo[0]), float(xup[0]), 161)
    x_grid = np.linspace(*x_check)
    xi_grid = np.linspace(float(xi_bar[0] - rho), float(xi_bar[0] + rho), 41)
    res = {"xi_points": len(xi_grid), "x_points": len(x_grid)}
    per_t, steps = pb._oracle_rows(prob, xi_grid[:, None], pb.OracleGrid())
    # the (t, x) gap table of the rows with solutions, from one kernel call
    rows = [i for i, sols in enumerate(per_t) if len(sols)]
    merits = mr.eval_merit_batch(prob, np.repeat(xi_grid[rows], len(x_grid))[:, None],
                                 np.tile(x_grid, len(rows))[:, None]).reshape(len(rows), len(x_grid))
    d = np.array([np.abs(per_t[i][:, 0] - x_grid[:, None]).min(axis=1) for i in rows])
    gaps = d.reshape(merits.shape) - (merits / gamma + (np.array(steps)[rows] + 1e-9)[:, None])
    # the first positive gap refutes; the first maximal one is the witness
    ahead = np.flatnonzero(gaps.ravel() > 0)
    if len(ahead):
        k, j = divmod(int(ahead[0]), len(x_grid))
        return Certificate("error-bound", REFUTED, gamma, ((xi_grid[rows[k]], x_grid[j]),),
                           res, ("witness-violates-bound",))
    if len(rows) < len(xi_grid):
        empty = [t for t, s in zip(xi_grid, per_t) if len(s) == 0]
        return Certificate("error-bound", INCONCLUSIVE, gamma, tuple((t,) for t in empty[:4]),
                           res, ("empty-solution-set",))
    k, j = divmod(int(np.argmax(gaps)), len(x_grid))
    return Certificate("error-bound", CERTIFIED, gamma, ((xi_grid[rows[k]], x_grid[j]),),
                       {**res, "worst_gap": float(gaps[k, j])})


def strong_slope(prob: pb.VepProblem, xi, x) -> float:
    """Sampled maximal descent rate of merit(xi, .) at x over 16 directions
    at radius 0.0125, clamped at zero: the point and its ring go through
    one kernel call."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = 0.0125
    X = np.vstack([x, x + r * geo._sphere_dirs(prob.n, 16)])
    merit = mr.eval_merit_batch(prob, np.tile(xi, (len(X), 1)), X)
    return max(0.0, float(np.max((merit[0] - merit[1:]) / r)))


# ---------------------------------------------------------------------------
# subtransversality
# ---------------------------------------------------------------------------

def subtransversality_kappa(dist1, dist2, dist12, s_bar, r: float) -> Certificate:
    """Metric subtransversality constant from row distance oracles on a grid.

    Each oracle maps the grid rows (P, d) to their distances (P,).  The
    rules run in grid order: a row with max(d1, d2) <= 1e-9 is skipped, a
    strictly larger ratio d12 / max(d1, d2) replaces the witness, and a
    non-finite d12 on any other row makes the result inconclusive."""
    resolution = 21
    s_bar = np.atleast_1d(np.asarray(s_bar, dtype=float))
    axes = [np.linspace(c - r, c + r, resolution) for c in s_bar]
    pts = pb._grid_points(axes)
    d1, d2 = dist1(pts), dist2(pts)
    denom = np.where(d2 > d1, d2, d1)      # Python's max(d1, d2)
    tested = np.flatnonzero(~(denom <= 1e-9))
    d12 = dist12(pts[tested])
    if not np.isfinite(d12).all():
        return Certificate("kappa", INCONCLUSIVE, float("nan"), (),
                           {"resolution": resolution, "r": r},
                           ("intersection-unreachable",))
    ratio = d12 / denom[tested]
    kappa, witness = 0.0, None
    if (ratio > 0.0).any():
        kappa = float(np.max(ratio[ratio > 0.0]))
        witness = pts[tested[np.flatnonzero(ratio == kappa)[0]]]
    return Certificate("kappa", CERTIFIED, kappa,
                       (witness,) if witness is not None else (),
                       {"resolution": resolution, "r": r}, ())


def _branch_arcs_2d(branches) -> list[tuple[float, float]]:
    arcs = []
    for b in branches:
        rows = [g for g in b if np.linalg.norm(g) > 1e-12]
        if not rows:
            continue
        angs = sorted(math.atan2(g[1], g[0]) % (2 * math.pi) for g in rows)
        if len(angs) == 1:
            arcs.append((angs[0], angs[0]))
            continue
        # take the arc spanning the generators the short way around
        gaps = [(angs[(i + 1) % len(angs)] - angs[i]) % (2 * math.pi)
                for i in range(len(angs))]
        widest = int(np.argmax(gaps))
        start = angs[(widest + 1) % len(angs)]
        width = 2 * math.pi - gaps[widest]
        arcs.append((start, start + width))
    return arcs


def _arcs_intersect(a: tuple[float, float], b: tuple[float, float],
                    tol: float) -> float | None:
    """Common angle of two circular arcs, or None."""
    two_pi = 2 * math.pi
    for shift in (-two_pi, 0.0, two_pi):
        lo = max(a[0], b[0] + shift)
        hi = min(a[1], b[1] + shift)
        if lo <= hi + tol:
            return 0.5 * (lo + min(hi, lo if hi < lo else hi))
    return None


def subtransversality_nc(n1: geo.RayUnion, n2: geo.RayUnion) -> Certificate:
    """Normal-cone sufficient test in the plane: certified when N1 and -N2
    meet only at 0, compared as circular arcs."""
    tol_deg = 0.5  # angular slack for two arcs to count as meeting
    if n1.dim != 2:
        raise pb.ProblemError(f"normal-cone test is planar, got dimension {n1.dim}")
    flags = () if (n1.exact and n2.exact) else ("linearized-normals",)
    tol = math.radians(tol_deg)
    arcs2 = _branch_arcs_2d([-g for g in n2.branches])
    for a in _branch_arcs_2d(n1.branches):
        for b in arcs2:
            common = _arcs_intersect(a, b, tol)
            if common is not None:
                w = np.array([math.cos(common), math.sin(common)])
                return Certificate("subtransversal-nc", REFUTED, 0.0,
                                   (w,), {"tol_deg": tol_deg}, flags)
    return Certificate("subtransversal-nc", CERTIFIED, 1.0, (),
                       {"tol_deg": tol_deg}, flags)


def graph_e_distance_oracles(prob: pb.VepProblem, xi_lo: float, xi_hi: float):
    """Row distance oracles (to Omega x R^n, to graph E, to their
    intersection): each maps points W (P, p + n) to distances (P,), a
    row's distance not depending on the others."""
    cloud = pb.graph_samples(prob, xi_lo, xi_hi, 401)
    if len(cloud) == 0:
        raise pb.ProblemError("no solution-graph samples in the window")
    xi = cloud[:, : prob.p]
    inside = mr._dist_rows(xi - geo.project_rows(xi, prob.omega)) <= 1e-9
    both = cloud[inside]

    def d_omega(W):
        XI = W[:, : prob.p]
        return mr._dist_rows(XI - geo.project_rows(XI, prob.omega))

    def d_graph(W):
        return geo.polyline_project_rows(W, cloud)[1]

    def d_both(W):
        if len(both) == 0:
            return np.full(len(W), np.inf)
        out = np.empty(len(W))
        block = max(1, 20_000 // both.size)     # as ``polyline_project_rows``
        for s in range(0, len(W), block):
            out[s:s + block] = np.min(np.linalg.norm(both - W[s:s + block, None], axis=-1), axis=1)
        return out

    return d_omega, d_graph, d_both


# ---------------------------------------------------------------------------
# boundedness, Lipschitz constant, openness rate
# ---------------------------------------------------------------------------

def check_c_bounded(prob: pb.VepProblem, xi, x0) -> Certificate:
    """Sample f(xi, x0, .) on growing z-grids of the slice; certified when
    the supremum norm of values outside the cone stabilizes.  A level's
    grid points in K(xi) take one evaluation of f, one cone distance and
    one norm pass."""
    levels, resolution = 4, 101
    xi, x0 = prob.point(xi, x0)
    S = pb.slice_at(prob.K, xi)
    axes_full, truncated = pb._axis_grids(prob, S, resolution)

    def sup_outside(axes):
        pts = pb._grid_points(axes)
        pts = pts[pb._members(S, pts, 1e-9)]
        F = mr._f_values(prob, xi[None], x0[None], pts[None])[0]
        outside = mr._cone_dists(prob, F) > 1e-12
        return float(np.max(mr._dist_rows(F[outside]), initial=0.0))

    if not truncated:
        # compact slice: the supremum is attained on the full grid
        return Certificate("c-bounded", CERTIFIED, sup_outside(axes_full), (),
                           {"levels": 1, "resolution": resolution}, ())
    sups = []
    for lev in range(1, levels + 1):
        frac = lev / levels
        axes = [c + frac * (a - c) for a in axes_full
                for c in [0.5 * (a[0] + a[-1])]]
        sups.append(sup_outside(axes))
    stable = abs(sups[-1] - sups[-2]) <= 1e-9 * max(1.0, sups[-1])
    if not stable:
        return Certificate("c-bounded", INCONCLUSIVE, float(sups[-1]), (),
                           {"levels": levels, "resolution": resolution},
                           ("growing-at-edge", "window-truncated"))
    return Certificate("c-bounded", CERTIFIED, float(sups[-1]), (),
                       {"levels": levels, "resolution": resolution},
                       ("window-truncated",))


def estimate_lipschitz_f(prob: pb.VepProblem, seed: int = 0) -> float:
    """Largest sampled difference quotient of (xi, x) -> f at fixed z, over
    about 2000 pairs in the problem window and z on a 9-point grid per axis of
    the slice at the window's centre.

    The pairs are drawn one by one, in stream order: the first end (a
    uniform draw low + (high - low) u per entry) and a coin; then either a
    step 10^U(-6, -1) and a normal direction (a near pair) or the second
    end.  The raw doubles are mapped to the pairs afterwards with the
    arithmetic of the Generator's own uniform and normal draws, f at both
    ends takes one evaluation per end, and the norms are taken as
    np.linalg.norm takes a vector's."""
    rng = np.random.default_rng(seed)
    wlo, wup = prob.xi_window()
    xlo, xup = prob.x_window()
    S = pb.slice_at(prob.K, 0.5 * (wlo + wup))
    axes, _ = pb._axis_grids(prob, S, 9)
    z_set = pb._grid_points(axes)
    lo, up = np.concatenate([wlo, xlo]), np.concatenate([wup, xup])
    q, per_z = len(lo), max(1, 2000 // len(z_set))
    U, V, steps = np.empty((per_z * len(z_set), q + 1)), np.empty((per_z * len(z_set), q)), []
    for k in range(len(U)):
        rng.random(out=U[k])                # the first end, then the coin
        if U[k, q] < 0.5:
            steps.append(10.0 ** (-6.0 + 5.0 * rng.random()))
            rng.standard_normal(out=V[k])
        else:
            rng.random(out=V[k])
    near = U[:, q] < 0.5
    A, B = lo + (up - lo) * U[:, :q], lo + (up - lo) * V
    d = V[near]
    B[near] = A[near] + np.array(steps)[:, None] * d / mr._dist_rows(d)[:, None]
    Z = np.repeat(z_set, per_z, axis=0)[:, None, :]
    p = prob.p
    F = [mr._f_values(prob, E[:, :p], E[:, p:], Z)[:, 0] for E in (A, B)]
    num = mr._dist_rows(F[0] - F[1])
    den = np.array(list(map(math.hypot, mr._dist_rows(A[:, :p] - B[:, :p]).tolist(),
                            mr._dist_rows(A[:, p:] - B[:, p:]).tolist())))
    keep = den > 1e-12
    return float(np.fmax.reduce(num[keep] / den[keep], initial=0.0))


def estimate_openness_rate(prob: pb.VepProblem, seed: int = 0) -> float:
    """Linear openness rate of the z-slice maps by a ball-coverage test.

    For 5 sampled anchors (xi, x, z) and radii r in (0.5, 0.25), finds the
    largest a such that every target on the sphere of radius a*r around
    f(xi, x, z) (32 directions) is covered by the image of the z-ball of
    radius r sampled on a 61-point grid per axis.  Reports the minimum over
    anchors (0 when the image fails to cover any ball).

    The ten (anchor, r) bisections run in lockstep: each image set is
    padded to the largest with copies of its own first point (a repeated
    point changes no nearest distance), and each of the 30 steps takes one
    ``_nearest_dists`` pass over all ten.
    """
    z_resolution = 61
    rng = np.random.default_rng(seed)
    wlo, wup = prob.xi_window()
    xlo, xup = prob.x_window()
    dirs = geo._sphere_dirs(prob.m, 32)
    imgs, f0s, radii, tols, his = [], [], [], [], []
    for _ in range(5):
        xi = rng.uniform(wlo, wup)
        x = rng.uniform(xlo, xup)
        S = pb.slice_at(prob.K, xi)
        z0 = geo.project(rng.uniform(xlo, xup), S)
        for r in (0.5, 0.25):
            axes = [np.linspace(z0[i] - r, z0[i] + r, z_resolution)
                    for i in range(prob.n)]
            pts = pb._grid_points(axes)
            pts = pts[np.linalg.norm(pts - z0, axis=1) <= r]
            F = mr._f_values(prob, xi[None], x[None], np.vstack([pts, z0])[None])[0]
            img, f0 = F[:-1], F[-1]
            spread = np.linalg.norm(img - f0, axis=1)
            # image sampling density drives the coverage tolerance and the
            # resolution floor subtracted from the measured rate
            step = 2.0 * r / (z_resolution - 1)
            lip = float(spread.max()) / max(r, 1e-12)
            imgs.append(img)
            f0s.append(f0)
            radii.append(r)
            tols.append(1.5 * step * max(1.0, lip))
            his.append(float(spread.max()) / r + 1e-9)
    size = max(map(len, imgs))
    img = np.stack([np.concatenate([a, np.repeat(a[:1], size - len(a), axis=0)]) for a in imgs])
    f0, radius, tol = np.array(f0s), np.array(radii), np.array(tols)
    lo, hi = np.zeros(len(imgs)), np.array(his)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        targets = f0[:, None, :] + (mid * radius)[:, None, None] * dirs
        covered = np.all(_nearest_dists(img, targets) <= tol[:, None], axis=1)
        lo, hi = np.where(covered, mid, lo), np.where(covered, hi, mid)
    alpha = math.inf
    for lo_a, cover_tol, r in zip(lo.tolist(), tols, radii):
        alpha = min(alpha, max(0.0, lo_a - cover_tol / r))
    return float(alpha if math.isfinite(alpha) else 0.0)


def _nearest_dists(img: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """min_j |img[k, j] - targets[k, i]| of K image sets (K, V, m) and
    their targets (K, T, m), as (K, T).  The squares are summed by one pass
    per value column, in the order np.linalg.norm(..., axis=-1) sums up to
    7 columns (numpy reduces a short last axis row by row, so the columns
    are faster); more columns, which numpy sums pairwise, take its own
    sum.  The root of each minimum is the minimum of the roots, the root
    being monotone.  Blocks of sets bound the (sets, T, V) temporaries."""
    m = img.shape[-1]
    out = np.empty(targets.shape[:2])
    block = max(1, (1 << 20) // (targets.shape[1] * img.shape[1]))
    for s in range(0, len(img), block):
        I, T = img[s:s + block, None], targets[s:s + block, :, None]
        if m > 7:
            D = I - T
            sq = np.add.reduce(D * D, axis=-1)
        else:
            sq = I[..., 0] - T[..., 0]
            sq *= sq
            for k in range(1, m):
                d = I[..., k] - T[..., k]
                d *= d
                sq += d
        out[s:s + block] = np.sqrt(sq.min(axis=-1))
    return out


# ---------------------------------------------------------------------------
# stability probe
# ---------------------------------------------------------------------------

def stability_probe(prob: pb.VepProblem, xi_bar, x_bar, gamma: float) -> Certificate:
    """Quantitative lower-semicontinuity and Aubin-modulus cross-check on
    21 parameter samples in [xi_bar - 0.5, xi_bar + 0.5]."""
    xi_bar, x_bar = prob.point(xi_bar, x_bar)
    if prob.p != 1:
        raise pb.ProblemError("stability probe implemented for p = 1")
    window, n_xi = 0.5, 21
    ts = np.linspace(float(xi_bar[0] - window), float(xi_bar[0] + window), n_xi)
    beta = 0.0
    lsc_ok = True
    lsc_witness = None
    # an x_bar whose merit samples overflow gives no probe: it ends as a
    # load error, not as a verdict on inf and NaN values
    try:
        with np.errstate(over="raise"):
            # the oracle at every t and, last, at xi_bar for its grid step
            per_t, steps = pb._oracle_rows(prob, np.append(ts, xi_bar)[:, None], pb.OracleGrid())
            # merit at (t, x_bar + dx) for every t and dx; column 1 is x_bar itself
            dxs = (-0.25, 0.0, 0.25)
            table = mr.eval_merit_batch(
                prob, np.repeat(ts, len(dxs))[:, None],
                [x_bar + dx for _ in ts for dx in dxs]).reshape(len(ts), len(dxs))
            for t, sols, step, me in zip(ts, per_t, steps, table[:, 1].tolist()):
                slack = step + 1e-9
                d = float(np.min(np.linalg.norm(sols - x_bar, axis=1))) if len(sols) else math.inf
                if d > me / gamma + slack:
                    lsc_ok = False
                    lsc_witness = (t,)
                dt = abs(t - float(xi_bar[0]))
                if dt > 1e-12:
                    beta = max(beta, me / dt)
            # local Lipschitz constant of merit in xi near the point
            ell = float(np.max(np.abs(np.diff(table, axis=0)) / np.diff(ts)[:, None]))
            aubin_bound = ell / gamma
            worst_ratio = 0.0
            for i, (s1, s2) in enumerate(zip(per_t, per_t[1:n_xi])):
                if len(s1) == 0 or len(s2) == 0:
                    continue
                near = s2[np.linalg.norm(s2 - x_bar, axis=1) <= 1.0]
                if len(near) == 0:
                    continue
                exc = max(float(np.min(np.linalg.norm(s1 - q, axis=1))) for q in near)
                worst_ratio = max(worst_ratio, exc / abs(ts[i + 1] - ts[i]))
            slack = steps[-1] / (ts[1] - ts[0]) + 1e-6
            ok = lsc_ok and worst_ratio <= aubin_bound + slack
    except FloatingPointError as err:
        raise pb.ProblemError(f"the merit samples around x_bar overflow: {err}") from None
    return Certificate(
        "stability", CERTIFIED if ok else REFUTED, aubin_bound,
        (lsc_witness,) if lsc_witness else (),
        {"window": window, "n_xi": n_xi, "beta_calm": beta,
         "ell_merit": ell, "aubin_ratio": worst_ratio},
        () if lsc_ok else ("lsc-violated",),
    )
