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

from . import expr as ex
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

def estimate_gamma(prob: pb.VepProblem, xi_bar, rho: float,
                   spec: SampleSpec | None = None) -> Certificate:
    """Smallest sampled distance from the origin to the x-block subgradient
    of nu plus the truncated normal map, over non-solution samples."""
    spec = spec or SampleSpec()
    xi_bar, _ = prob.point(xi_bar, None)
    xlo, xup = spec.x_window if spec.x_window is not None else prob.x_window()
    rng = np.random.default_rng(spec.seed)
    n_xi, n_x = spec.grid_shape
    xi_axes = [np.linspace(c - rho, c + rho, n_xi) for c in xi_bar]
    x_axes = [np.linspace(xlo[i], xup[i], n_x) for i in range(prob.n)]
    xi_pts = pb._grid_points(xi_axes)
    x_pts = pb._grid_points(x_axes)
    samples = [(xi, x) for xi in xi_pts for x in x_pts]
    for _ in range(spec.n_random):
        samples.append((
            rng.uniform(xi_bar - rho, xi_bar + rho),
            rng.uniform(xlo, xup),
        ))
    flags: set[str] = set()
    tested = []  # (d, xi, x) of every tested sample, in sample order
    merits = mr.eval_merit_batch(prob, [xi for xi, _ in samples], [x for _, x in samples])
    for (xi, x), merit in zip(samples, merits.tolist()):
        if merit <= 1e-8:
            continue
        est = sd.nu_partial_subgradient_smooth(prob, xi, x)
        flags.update(est.qc_flags)
        trunc = geo.truncated_normal(x, pb.slice_at(prob.K, xi))
        body = geo.minkowski(est.body, trunc)
        _, d = geo.min_norm_point(body)
        tested.append((d, xi, x))
        if d <= GAMMA_MARGIN:
            break  # refuted: no need to scan further
    if not tested:
        raise pb.ProblemError("every sample solves the inner problem; nothing to test")
    # exact minimum; witness: the first sample within round-off of it
    best = min(d for d, _, _ in tested)
    _, xi, x = next(t for t in tested if t[0] - best <= 1e-12 * max(1.0, best))
    witness = (np.asarray(xi, dtype=float), np.asarray(x, dtype=float))
    verdict = CERTIFIED if best > GAMMA_MARGIN else REFUTED
    return Certificate(
        "gamma", verdict, float(best), (witness,),
        {"grid": spec.grid_shape, "random": spec.n_random, "rho": rho},
        tuple(sorted(flags)) + ("subgradient_model: branch-hull",),
    )


def verify_error_bound(prob: pb.VepProblem, xi_bar, rho: float, gamma: float,
                       x_check: tuple | None = None) -> Certificate:
    """Check dist(x, E(xi)) <= merit(xi, x)/gamma + grid slack on a grid in
    (xi, x); p = n = 1."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    xi_bar, _ = prob.point(xi_bar, None)
    if prob.p != 1 or prob.n != 1:
        raise pb.ProblemError("error-bound sweep implemented for p = n = 1")
    xlo, xup = prob.x_window()
    if x_check is None:
        x_check = (float(xlo[0]), float(xup[0]), 161)
    x_grid = np.linspace(*x_check)
    xi_grid = np.linspace(float(xi_bar[0] - rho), float(xi_bar[0] + rho), 41)
    empty_slices = []
    worst = -math.inf
    witness = None
    per_t, steps = pb._oracle_rows(prob, xi_grid[:, None], pb.OracleGrid())
    for t, sols, step in zip(xi_grid, per_t, steps):
        if len(sols) == 0:
            empty_slices.append(t)
            continue
        slack = step + 1e-9
        merits = mr.eval_merit_batch(prob, np.full((len(x_grid), 1), t), x_grid[:, None])
        for xv, merit in zip(x_grid, merits.tolist()):
            d = float(np.min(np.abs(sols[:, 0] - xv)))
            bound = merit / gamma + slack
            gap = d - bound
            if gap > worst:
                worst = gap
                witness = (t, xv)
            if gap > 0:
                return Certificate(
                    "error-bound", REFUTED, gamma, ((t, xv),),
                    {"xi_points": len(xi_grid), "x_points": len(x_grid)},
                    ("witness-violates-bound",),
                )
    if empty_slices:
        return Certificate(
            "error-bound", INCONCLUSIVE, gamma, tuple((t,) for t in empty_slices[:4]),
            {"xi_points": len(xi_grid), "x_points": len(x_grid)},
            ("empty-solution-set",),
        )
    return Certificate(
        "error-bound", CERTIFIED, gamma, (witness,),
        {"xi_points": len(xi_grid), "x_points": len(x_grid), "worst_gap": worst},
    )


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
    """Metric subtransversality constant from distance oracles on a grid."""
    resolution = 21
    s_bar = np.atleast_1d(np.asarray(s_bar, dtype=float))
    axes = [np.linspace(c - r, c + r, resolution) for c in s_bar]
    pts = pb._grid_points(axes)
    kappa = 0.0
    witness = None
    unreachable = False
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
            kappa = ratio
            witness = w
    if unreachable:
        return Certificate("kappa", INCONCLUSIVE, float("nan"), (),
                           {"resolution": resolution, "r": r},
                           ("intersection-unreachable",))
    return Certificate("kappa", CERTIFIED, float(kappa),
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
    flags = () if (n1.exact and n2.exact) else ("sampled-normals",)
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
    """Distance oracles (to Omega x R^n, to graph E, to their intersection)."""
    cloud = pb.graph_samples(prob, xi_lo, xi_hi, 401)
    if len(cloud) == 0:
        raise pb.ProblemError("no solution-graph samples in the window")
    xi = cloud[:, : prob.p]
    inside = mr._dist_rows(xi - geo.project_rows(xi, prob.omega)) <= 1e-9
    both = cloud[inside]

    def d_omega(w):
        return geo.dist(w[: prob.p], prob.omega)

    def d_graph(w):
        _, d = geo.polyline_project(np.asarray(w, dtype=float), cloud)
        return d

    def d_both(w):
        if len(both) == 0:
            return float("inf")
        return float(np.min(np.linalg.norm(both - w, axis=1)))

    return d_omega, d_graph, d_both


# ---------------------------------------------------------------------------
# boundedness, Lipschitz constant, openness rate
# ---------------------------------------------------------------------------

def check_c_bounded(prob: pb.VepProblem, xi, x0) -> Certificate:
    """Sample f(xi, x0, .) on growing z-grids; certified when the supremum
    norm of values outside the cone stabilizes."""
    levels, resolution = 4, 101
    xi, x0 = prob.point(xi, x0)
    S = pb.slice_at(prob.K, xi)
    axes_full, truncated = pb._axis_grids(prob, S, resolution)

    def sup_outside(axes):
        pts = pb._grid_points(axes)
        pts = pts[pb._members(S, pts, 1e-9)] if not truncated else pts
        sup = 0.0
        for z in pts:
            F = prob.f.eval(xi=xi, x=x0, z=z).reshape(prob.m)
            if geo.dist(F, prob.cone) > 1e-12:
                sup = max(sup, float(np.linalg.norm(F)))
        return sup

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
    the slice at the window's centre."""
    rng = np.random.default_rng(seed)
    wlo, wup = prob.xi_window()
    xlo, xup = prob.x_window()
    S = pb.slice_at(prob.K, 0.5 * (wlo + wup))
    axes, _ = pb._axis_grids(prob, S, 9)
    z_set = pb._grid_points(axes)
    best = 0.0
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
            num = np.linalg.norm(
                prob.f.eval(xi=a[0], x=a[1], z=z).reshape(prob.m)
                - prob.f.eval(xi=b[0], x=b[1], z=z).reshape(prob.m)
            )
            den = math.hypot(float(np.linalg.norm(np.asarray(a[0]) - np.asarray(b[0]))),
                             float(np.linalg.norm(np.asarray(a[1]) - np.asarray(b[1]))))
            if den > 1e-12:
                best = max(best, float(num / den))
    return best


def estimate_openness_rate(prob: pb.VepProblem, seed: int = 0) -> float:
    """Linear openness rate of the z-slice maps by a ball-coverage test.

    For 5 sampled anchors (xi, x, z) and radii r in (0.5, 0.25), finds the
    largest a such that every target on the sphere of radius a*r around
    f(xi, x, z) (32 directions) is covered by the image of the z-ball of
    radius r sampled on a 61-point grid per axis.  Reports the minimum over
    anchors (0 when the image fails to cover any ball).
    """
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
            axes = [np.linspace(z0[i] - r, z0[i] + r, z_resolution)
                    for i in range(prob.n)]
            pts = pb._grid_points(axes)
            pts = pts[np.linalg.norm(pts - z0, axis=1) <= r]
            comps = []
            for c in prob.f.components:
                v = np.asarray(
                    ex.eval_expr(c, xi=xi, x=x,
                                 z=[pts[:, j] for j in range(prob.n)]),
                    dtype=float,
                )
                comps.append(np.broadcast_to(v, (len(pts),)))
            img = np.stack(comps).T
            f0 = prob.f.eval(xi=xi, x=x, z=z0).reshape(prob.m)
            spread = np.linalg.norm(img - f0, axis=1)
            # image sampling density drives the coverage tolerance and the
            # resolution floor subtracted from the measured rate
            step = 2.0 * r / (z_resolution - 1)
            lip = float(spread.max()) / max(r, 1e-12)
            cover_tol = 1.5 * step * max(1.0, lip)
            lo_a, hi_a = 0.0, float(spread.max()) / r + 1e-9
            for _ in range(30):
                mid = 0.5 * (lo_a + hi_a)
                targets = f0 + (mid * r) * dirs
                dmin = np.array([
                    float(np.min(np.linalg.norm(img - t, axis=1))) for t in targets
                ])
                if np.all(dmin <= cover_tol):
                    lo_a = mid
                else:
                    hi_a = mid
            alpha = min(alpha, max(0.0, lo_a - cover_tol / r))
    return float(alpha if math.isfinite(alpha) else 0.0)


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
    # the oracle at every t and, last, at xi_bar for its grid step
    per_t, steps = pb._oracle_rows(prob, np.append(ts, xi_bar)[:, None], pb.OracleGrid())
    # merit at (t, x_bar + dx) for every t and dx; column 1 is x_bar itself
    dxs = (-0.25, 0.0, 0.25)
    table = mr.eval_merit_batch(prob, np.repeat(ts, len(dxs))[:, None],
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
    return Certificate(
        "stability", CERTIFIED if ok else REFUTED, aubin_bound,
        (lsc_witness,) if lsc_witness else (),
        {"window": window, "n_xi": n_xi, "beta_calm": beta,
         "ell_merit": ell, "aubin_ratio": worst_ratio},
        () if lsc_ok else ("lsc-violated",),
    )
