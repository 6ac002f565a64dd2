"""Penalization pipeline and stationarity checkers.

The solver minimizes objective + lambda * (distance to the geometric set +
merit/gamma) by subgradient descent with an increasing penalty schedule and
a pattern-search polish.  One assembler builds the stationarity inclusion
right-hand side from structured subgradient bodies over a list of nu bodies
and either certifies a near-zero residual with a decomposition witness or
refutes the inclusion for every penalty weight by a sign analysis that is
affine in lambda.  The two public checkers differ only in the nu model they
feed it: the gradient-limit hull (general) or the per-enlargement outer
estimate (smooth-concave).

The two verdicts rest on different mu models.  The residual uses the
coderivative-ball product (coderivative image of B) x B, so a stationary
verdict is a statement about that documented inclusion.  The refutation
uses the coupled graph-normal cap N(graph K) ∩ (R^p x B) where it is exact
(box maps, one active bound), and the product elsewhere; any valid outer
estimate gives a sound refutation, and the tighter one refutes more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import merit as mr
from . import problem as pb
from . import subdiff as sd

STATIONARY = "stationary-within-tol"
REFUTED_BY_DIRECTION = "refuted-by-direction"
INCONCLUSIVE = "inconclusive"
# merit and Omega-distance under which a solver incumbent counts as feasible
TOL_MERIT = 1e-6


class SolverError(RuntimeError):
    pass


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class PenaltyConfig:
    lambda_init: float = 0.5
    growth: float = 2.0
    lambda_max: float = 64.0
    gamma: float = 0.5
    max_iter: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.lambda_init <= 0 or self.gamma <= 0:
            raise ValueError("lambda_init and gamma must be positive")
        if not self.growth > 1:
            raise ValueError("growth must exceed 1, or the schedule never ends")


@dataclass(frozen=True, eq=False)
class StageRecord:
    lam: float
    start_index: int
    steps_accepted: int
    best_value: float
    best_point: tuple
    merit: float


@dataclass(frozen=True, eq=False)
class StationarityReport:
    point: tuple
    lam: float
    gamma: float
    residual: float
    branch_id: int
    verdict: str
    direction: tuple | None = None
    decomposition: tuple = ()
    residual_table: tuple = ()
    flags: tuple = ()


# ---------------------------------------------------------------------------
# penalized objective
# ---------------------------------------------------------------------------

def penalized_value(prob: pb.VepProblem, xi, x, lam: float, gamma: float) -> float:
    """objective + lam * (dist(xi, Omega) + merit/gamma)."""
    if lam <= 0 or gamma <= 0:
        raise ValueError("lam and gamma must be positive")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = float(ex.eval_expr(prob.objective, xi=xi, x=x))
    pen = geo.dist(xi, prob.omega) + mr.eval_merit(prob, xi, x).merit / gamma
    return phi + lam * pen


def _penalized_subgradient(prob, xi, x, lam, gamma) -> np.ndarray:
    """A subgradient of the penalized objective.

    Objective and Omega-distance parts are structured; the merit part uses
    central differences, which on piecewise-smooth data yields a convex
    combination of branch gradients (a valid subgradient wherever merit is
    convex along the probe)."""
    p = prob.p
    g_phi = ex.grad_hull(prob.objective, (xi, x, ()), "xix").generators[0]
    d_om = geo.dist(xi, prob.omega)
    g_om = np.zeros(p + len(x))
    if d_om > 1e-12:
        g_om[:p] = (xi - geo.project(xi, prob.omega)) / d_om

    def merit_at(q):
        return mr.eval_merit(prob, q[:p], q[p:]).merit

    g_mf = sd._fd_gradient(merit_at, np.concatenate([xi, x]), 1e-7)
    return g_phi + lam * g_om + (lam / gamma) * g_mf


def _compass_polish(fn, q0: np.ndarray, step: float, lo, up) -> tuple[np.ndarray, float]:
    q = q0.copy()
    v = fn(q)
    d = len(q)
    for _ in range(400):
        improved = False
        for i in range(d):
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


def _penalized_slope(prob, q, lam, gamma, p) -> float:
    """Sampled strong slope of the penalized objective at q."""
    base = penalized_value(prob, q[:p], q[p:], lam, gamma)
    dirs = _default_dirs(len(q))
    best = 0.0
    for r in (1e-3, 1e-4):
        for u in dirs:
            w = q + r * np.asarray(u)
            v = penalized_value(prob, w[:p], w[p:], lam, gamma)
            best = max(best, (base - v) / r)
    return best


def solve_penalized(prob: pb.VepProblem, config: PenaltyConfig, starts):
    """Multi-start subgradient descent over an increasing penalty schedule.

    Returns (incumbent as (xi, x), trace of StageRecord).  A stage runs the
    descent plus a pattern-search polish until the sampled strong slope of
    the penalized objective at the incumbent drops under 1e-4; the
    schedule advances while the incumbent's merit stays above TOL_MERIT and
    stops as soon as the incumbent is feasible with a small slope.
    """
    starts = [
        (np.atleast_1d(np.asarray(s[0], dtype=float)),
         np.atleast_1d(np.asarray(s[1], dtype=float)))
        for s in starts
    ]
    if not starts:
        raise ValueError("at least one start required")
    rng = np.random.default_rng(config.seed)
    wlo, wup = prob.xi_window()
    xlo, xup = prob.x_window()
    lo = np.concatenate([wlo, xlo])
    up = np.concatenate([wup, xup])
    diam = float(np.linalg.norm(up - lo))
    a0 = diam / 10.0

    trace: list[StageRecord] = []
    incumbents = [np.concatenate(s) for s in starts]
    lam = config.lambda_init
    incumbent = incumbents[0]
    while lam <= config.lambda_max:
        def fn(w, _lam=lam):
            return penalized_value(prob, w[: prob.p], w[prob.p:], _lam, config.gamma)

        stage_incumbents = []
        for si, q_start in enumerate(incumbents):
            seeds = [q_start,
                     np.clip(q_start + 0.05 * diam * rng.normal(size=len(q_start)), lo, up)]
            best_local, best_local_val, accepted = None, math.inf, 0
            for q in seeds:
                q = q.copy()
                cur_best, cur_val = q.copy(), fn(q)
                steps = 0
                for k in range(1, config.max_iter + 1):
                    g = _penalized_subgradient(prob, q[: prob.p], q[prob.p:],
                                               lam, config.gamma)
                    ng = float(np.linalg.norm(g))
                    if ng <= 1e-14:
                        break
                    q = np.clip(q - (a0 / math.sqrt(k)) * g / ng, lo, up)
                    v = fn(q)
                    if v < cur_val - 1e-15:
                        cur_val, cur_best = v, q.copy()
                        steps += 1
                pol_q, pol_v = _compass_polish(fn, cur_best, a0 / 10.0, lo, up)
                if pol_v < cur_val:
                    cur_best, cur_val = pol_q, pol_v
                if cur_val < -1e12:
                    raise SolverError("penalized objective unbounded below")
                if cur_val < best_local_val:
                    best_local, best_local_val, accepted = cur_best, cur_val, steps
            stage_incumbents.append(best_local)
            me = mr.eval_merit(prob, best_local[: prob.p], best_local[prob.p:]).merit
            trace.append(StageRecord(lam, si, accepted, best_local_val,
                                     tuple(best_local.tolist()), me))
        incumbents = stage_incumbents
        j = int(np.argmin([fn(q) for q in incumbents]))
        incumbent = incumbents[j]
        inc_merit = mr.eval_merit(prob, incumbent[: prob.p], incumbent[prob.p:]).merit
        inc_omega = geo.dist(incumbent[: prob.p], prob.omega)
        slope = _penalized_slope(prob, incumbent, lam, config.gamma, prob.p)
        feasible = inc_merit <= TOL_MERIT and inc_omega <= TOL_MERIT
        if feasible and slope <= 1e-4:
            break
        lam *= config.growth
    return (incumbent[: prob.p].copy(), incumbent[prob.p:].copy()), tuple(trace)


# ---------------------------------------------------------------------------
# stationarity checkers
# ---------------------------------------------------------------------------

def _default_dirs(dim: int) -> list[np.ndarray]:
    dirs = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        dirs.append(-e)
        dirs.append(e.copy())
    if dim == 2:
        for a in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            dirs.append(np.array([math.cos(a), math.sin(a)]))
    return dirs


def _omega_cap_body(prob, xi_bar) -> geo.ConvexBody:
    """(N(xi; Omega) ∩ B) x {0} as a body in R^(p+n)."""
    cap = geo.truncated_normal(xi_bar, prob.omega)
    pts = cap.effective_points()
    padded = np.hstack([pts, np.zeros((len(pts), prob.n))])
    return geo.ConvexBody(prob.p + prob.n, padded, label="omega-normal-cap")


def _phi_body(prob, xi_bar, x_bar) -> geo.ConvexBody:
    hull = ex.grad_hull(prob.objective, (xi_bar, x_bar, ()), "xix")
    return geo.body_from_points(hull.as_matrix(), label="objective-subgradient")


def _check_preconditions(prob, xi_bar, x_bar, gamma, tol_on_graph):
    if gamma is None or gamma <= 0:
        raise PreconditionError("gamma must be positive")
    me = mr.eval_merit(prob, xi_bar, x_bar).merit
    if me > tol_on_graph:
        raise PreconditionError(
            f"point is not on the solution graph (merit {me:.3g} > {tol_on_graph:g})"
        )
    d_om = geo.dist(xi_bar, prob.omega)
    if d_om > tol_on_graph:
        raise PreconditionError(
            f"xi is not in the geometric set (distance {d_om:.3g})"
        )


def _sum_with_provenance(factors: list[np.ndarray]):
    """Pairwise-sum point sets keeping, per summed point, one point per factor."""
    pts = factors[0]
    prov = [(i,) for i in range(len(pts))]
    total = pts
    for F in factors[1:]:
        new_total = (total[:, None, :] + F[None, :, :]).reshape(-1, total.shape[1])
        new_prov = [p + (j,) for p in prov for j in range(len(F))]
        if len(new_total) > 20000:
            hull = geo._prune_hull(new_total)
            keep = []
            for h in hull:
                j = int(np.argmin(np.linalg.norm(new_total - h, axis=1)))
                keep.append(j)
            total = new_total[keep]
            prov = [new_prov[j] for j in keep]
        else:
            total, prov = new_total, new_prov
    return total, prov


def _residual_and_witness(factor_pts: list[np.ndarray], ball: float):
    total, prov = _sum_with_provenance(factor_pts)
    q, idx, w = geo.wolfe_min_norm(total)
    nq = float(np.linalg.norm(q))
    residual = max(nq - ball, 0.0)
    parts = []
    for fi, F in enumerate(factor_pts):
        part = np.zeros(F.shape[1])
        for j, weight in zip(idx, w):
            part = part + weight * F[prov[j][fi]]
        parts.append(part)
    if ball > 0 and nq > 1e-12:
        # absorb the ball along -q so the reported summands add up to ~residual
        direction = q / nq
        parts.append(-min(ball, nq) * direction)
    return residual, tuple(parts)


def _refutation_scan(phi_body, omega_body, nu_body, k_bodies, gamma, dirs):
    """lambda-affine sign test: a direction refutes when the support of the
    right-hand side stays negative for every lambda > 0."""
    tol = 1e-9
    for d in dirs:
        if not geo.support(phi_body, d) < -tol:
            continue
        slopes = (geo.support(omega_body, d)
                  + (geo.support(nu_body, d) + geo.support(kb, d)) / gamma
                  for kb in k_bodies)
        if not any(c1 > tol for c1 in slopes):
            return np.asarray(d, dtype=float)
    return None


def _assemble(prob, xi_bar, x_bar, nu_bodies, mu_est, lambda_grid, gamma,
              tol_stat, flags) -> StationarityReport:
    """Inclusion test over (key, nu body) pairs: 0 in subgrad(objective)
    + lam*(Omega normal cap x {0}) + (lam/gamma)*(nu body + coderivative-ball
    branch).

    Residuals are minimized over the lambda grid and the branches of the
    coderivative-ball product per nu body; stationary requires a small
    residual for EVERY nu body, refutation a separating direction for a
    single one.  The refutation test is affine in lambda so a single sign
    analysis covers every positive penalty weight; it scans the coupled
    graph-normal cap bodies of mu where those exist and the product bodies
    otherwise, and a refuted report flags which.  Residual-table rows are
    key + (lambda, branch, residual).
    """
    lambda_grid = tuple(lambda_grid) if lambda_grid is not None else (
        0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    phi_body = _phi_body(prob, xi_bar, x_bar)
    omega_body = _omega_cap_body(prob, xi_bar)
    dirs = _default_dirs(prob.p + prob.n)
    coupled = sd.mu_subgradient_coupled(prob, xi_bar, x_bar)
    if coupled is not None:
        refute_bodies, mu_model = coupled.bodies, "graph-normal-cap"
    else:
        refute_bodies, mu_model = mu_est.bodies, "coderivative-ball-product"
    refuting = None
    table = []
    worst_residual = -math.inf
    best = (math.inf, None, None, ())
    for key, nu_body in nu_bodies:
        if refuting is None:
            refuting = _refutation_scan(phi_body, omega_body, nu_body,
                                        refute_bodies, gamma, dirs)
        best_key = (math.inf, None, None, ())
        for lam in lambda_grid:
            for bi, kb in enumerate(mu_est.bodies):
                factors = [
                    phi_body.ball_discretized(),
                    geo.scale_body(omega_body, lam).ball_discretized(),
                    geo.scale_body(nu_body, lam / gamma).ball_discretized(),
                    geo.scale_body(kb, lam / gamma).ball_discretized(),
                ]
                residual, parts = _residual_and_witness(factors, 0.0)
                table.append(key + (lam, bi, residual))
                if residual < best_key[0]:
                    best_key = (residual, lam, bi, parts)
        worst_residual = max(worst_residual, best_key[0])
        if best_key[0] < best[0]:
            best = best_key
    if refuting is not None:
        verdict = REFUTED_BY_DIRECTION
        flags = flags + (f"refutation-mu-model: {mu_model}",)
    elif worst_residual <= tol_stat:
        verdict = STATIONARY
    else:
        verdict = INCONCLUSIVE
    _, lam_best, branch, parts = best
    return StationarityReport(
        point=(tuple(xi_bar.tolist()), tuple(x_bar.tolist())),
        lam=float(lam_best) if lam_best is not None else float("nan"),
        gamma=gamma,
        residual=float(worst_residual),
        branch_id=int(branch) if branch is not None else -1,
        verdict=verdict,
        direction=tuple(refuting.tolist()) if refuting is not None else None,
        decomposition=tuple(tuple(p.tolist()) for p in parts)
        if verdict == STATIONARY else (),
        residual_table=tuple(table),
        flags=flags,
    )


def check_stationarity_general(prob: pb.VepProblem, xi_bar, x_bar,
                               lambda_grid, gamma: float,
                               tol_stat: float = 1e-9,
                               tol_on_graph: float = 1e-6) -> StationarityReport:
    """The assembled inclusion with the nu subgradient taken as the
    gradient-limit hull."""
    xi_bar = np.atleast_1d(np.asarray(xi_bar, dtype=float))
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    _check_preconditions(prob, xi_bar, x_bar, gamma, tol_on_graph)
    nu_est = sd.nu_subgradient_full(prob, xi_bar, x_bar)
    mu_est = sd.mu_subgradient_estimate(prob, xi_bar, x_bar)
    flags = nu_est.qc_flags + mu_est.qc_flags
    if nu_est.lipschitz:
        flags = flags + ("qualification: singular-part-trivial",)
    else:
        flags = flags + ("qc-assumed",)
    if nu_est.exactness != sd.EXACT_CONVEX:
        flags = flags + (f"subgradient_model: {nu_est.exactness}",)
    return _assemble(prob, xi_bar, x_bar, [((), nu_est.body)], mu_est,
                     lambda_grid, gamma, tol_stat, flags)


def check_stationarity_smooth_concave(prob: pb.VepProblem, xi_bar, x_bar,
                                      lambda_grid, gamma: float, eps_list,
                                      l_f: float) -> StationarityReport:
    """The assembled inclusion with the nu subgradient replaced by the
    per-enlargement outer estimate, one nu body per enlargement."""
    xi_bar = np.atleast_1d(np.asarray(xi_bar, dtype=float))
    x_bar = np.atleast_1d(np.asarray(x_bar, dtype=float))
    _check_preconditions(prob, xi_bar, x_bar, gamma, 1e-6)
    flags_pre = () if "K-concave" in prob.asserts else ("hypotheses-not-asserted",)
    outer = sd.nu_outer_estimate(prob, xi_bar, x_bar, eps_list, l_f)
    mu_est = sd.mu_subgradient_estimate(prob, xi_bar, x_bar)
    flags = flags_pre + outer.qc_flags + mu_est.qc_flags + (
        f"eps-list={tuple(e for e, _ in outer.per_eps)}", f"l_f={l_f:g}")
    return _assemble(prob, xi_bar, x_bar,
                     [((eps,), body) for eps, body in outer.per_eps], mu_est,
                     lambda_grid, gamma, 1e-9, flags)
