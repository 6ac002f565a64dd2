"""The auxiliary functions: the cone-excess value nu, the feasibility gap mu
and their sum, the merit value whose zero level set is the solution graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import expr as ex
from . import geometry as geo
from . import problem as pb

ARGMAX_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class NuEval:
    value: float
    argmax: tuple  # maximizing z points
    method: str    # 'vertex-exact' | 'grid' | 'multistart'
    flags: tuple = ()


@dataclass(frozen=True, eq=False)
class MeritEval:
    nu: float
    mu: float
    merit: float
    argmax_z: tuple
    method: str
    flags: tuple = ()


def _dist_f_to_cone(prob: pb.VepProblem, xi, x, z) -> float:
    F = prob.f.eval(xi=xi, x=x, z=z).reshape(prob.m)
    return geo.dist(F, prob.cone)


def _enlarged_box(S: geo.Box, eps: float) -> geo.Box:
    return geo.Box(S.lower - eps, S.upper + eps)


def eval_nu(prob: pb.VepProblem, xi, x, eps: float = 0.0) -> NuEval:
    """sup over z in the (eps-enlarged) slice of dist(f(xi, x, z), C).

    When f is affine in z and the slice is a bounded box/polytope the sup
    is attained at a vertex and evaluated exactly; otherwise a dense grid
    plus multistart local ascent is used and the method is recorded.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    S = pb.slice_at(prob.K, xi)
    flags: list[str] = []

    verts = None
    if prob.f.affine_in_z:
        if isinstance(S, geo.Box) and S.bounded:
            box = S if eps == 0.0 else _enlarged_box(S, eps)
            if eps > 0.0 and prob.n > 1:
                flags.append("eps-box-superset")
            verts = box.vertices()
        elif isinstance(S, geo.Halfspaces) and eps == 0.0:
            try:
                verts = geo.halfspace_vertices(S)
            except geo.GeometryError:
                pass
    if verts is not None:
        vals = np.array([_dist_f_to_cone(prob, xi, x, v) for v in verts])
        best = float(vals.max())
        arg = tuple(v for v, w in zip(verts, vals) if w >= best - ARGMAX_TOL)
        return NuEval(best, arg, "vertex-exact", tuple(flags))

    # grid path over the (enlarged) slice
    axes, truncated = pb._axis_grids(prob, S, 201)
    if truncated:
        flags.append("unbounded-window")
    if eps > 0.0:
        axes = [np.linspace(a[0] - eps, a[-1] + eps, len(a)) for a in axes]
    pts = pb._grid_points(axes)
    if eps > 0.0:
        member = np.array([geo.dist(z, S) <= eps + 1e-12 for z in pts])
    else:
        member = pb._members(S, pts, 1e-12)
    pts = pts[member]
    if len(pts) == 0:
        raise pb.ProblemError("empty sampling set for the excess supremum")
    vals = np.array([_dist_f_to_cone(prob, xi, x, z) for z in pts])
    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    method = "grid"
    best_pts = [pts[order[0]]]
    if isinstance(S, geo.Box):
        lo = np.where(np.isfinite(S.lower), S.lower - eps, -1e9)
        up = np.where(np.isfinite(S.upper), S.upper + eps, 1e9)
        seeds = [pts[j] for j in order[:5]]
        for s in seeds:
            # clip inside the objective: keeps the ascent feasible
            res = minimize(
                lambda z: -_dist_f_to_cone(prob, xi, x, np.clip(z, lo, up)), s,
                method="Nelder-Mead",
                options={"fatol": 1e-12, "xatol": 1e-10, "maxiter": 400})
            z = np.clip(res.x, lo, up)
            v = _dist_f_to_cone(prob, xi, x, z)
            if v > best_val + 1e-15:
                best_val, best_pts, method = v, [z], "multistart"
            elif v >= best_val - ARGMAX_TOL:
                best_pts.append(z)
                method = "multistart"
    arg = []
    for cand in itertools.chain(best_pts, (pts[j] for j in order[:64])):
        v = _dist_f_to_cone(prob, xi, x, cand)
        if v >= best_val - ARGMAX_TOL and not any(
            np.linalg.norm(cand - a) <= 1e-7 for a in arg
        ):
            arg.append(np.asarray(cand, dtype=float))
    return NuEval(best_val, tuple(arg), method, tuple(flags))


def eval_mu(prob: pb.VepProblem, xi, x) -> float:
    """Distance of x to the slice K(xi)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return geo.dist(x, pb.slice_at(prob.K, xi))


def eval_merit(prob: pb.VepProblem, xi, x, eps: float = 0.0) -> MeritEval:
    nu = eval_nu(prob, xi, x, eps)
    mu = eval_mu(prob, xi, x)
    return MeritEval(nu.value, mu, nu.value + mu, nu.argmax, nu.method, nu.flags)


# ---------------------------------------------------------------------------
# sampled hypothesis probes
# ---------------------------------------------------------------------------

def probe_lower_semicontinuity(prob: pb.VepProblem, n_sequences: int,
                               seed: int) -> tuple[bool, float]:
    """liminf of merit along random convergent sequences vs the limit value.

    Returns (ok, worst gap); worst gap is max over sequences of
    merit(limit) - liminf_k merit_k.
    """
    rng = np.random.default_rng(seed)
    xlo, xup = prob.x_window()
    wlo, wup = prob.xi_window()
    worst = -np.inf
    for _ in range(n_sequences):
        xi0 = rng.uniform(wlo, wup)
        x0 = rng.uniform(xlo, xup)
        base = eval_merit(prob, xi0, x0).merit
        d_xi = rng.uniform(-1, 1, prob.p)
        d_x = rng.uniform(-1, 1, prob.n)
        # tail of a sequence converging along a fixed direction
        lim = min(
            eval_merit(prob, xi0 + r * d_xi, x0 + r * d_x).merit
            for r in (1e-7, 1e-8)
        )
        worst = max(worst, base - lim)
    return bool(worst <= 1e-6), float(worst)


def probe_midpoint_convexity(prob: pb.VepProblem, which: str,
                             n_segments: int, seed: int) -> tuple[bool, float]:
    """Midpoint convexity of nu or mu on random segments inside the window."""
    rng = np.random.default_rng(seed)
    xlo, xup = prob.x_window()
    wlo, wup = prob.xi_window()
    fn = (lambda a, b: eval_nu(prob, a, b).value) if which == "nu" \
        else (lambda a, b: eval_mu(prob, a, b))
    worst = -np.inf
    for _ in range(n_segments):
        xi1, xi2 = rng.uniform(wlo, wup), rng.uniform(wlo, wup)
        x1, x2 = rng.uniform(xlo, xup), rng.uniform(xlo, xup)
        mid = fn(0.5 * (xi1 + xi2), 0.5 * (x1 + x2))
        avg = 0.5 * (fn(xi1, x1) + fn(xi2, x2))
        worst = max(worst, mid - avg)
    return bool(worst <= 1e-8), float(worst)
