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
        if self.lambda_max < self.lambda_init:
            raise ValueError("lambda_max below lambda_init runs no penalty stage")


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
    xi, x = prob.point(xi, x)
    return float(_penalized_rows(prob, xi[None], x[None], lam, gamma)[0][0])


def _penalized_rows(prob, XI: np.ndarray, X: np.ndarray, lam: float,
                    gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """penalized_value and merit at the rows of XI and X: the merits from
    one kernel call, the objective evaluated once over columns."""
    merit = mr.eval_merit_batch(prob, XI, X)
    offsets = XI - geo.project_rows(XI, prob.omega)
    return _penalize(prob, XI, X, offsets, merit, lam, gamma), merit


def _penalize(prob, XI, X, offsets, merit, lam, gamma) -> np.ndarray:
    """objective + lam * (dist(xi, Omega) + merit/gamma) at the rows of XI
    and X, given their merits and the offsets XI - proj_Omega(XI), whose
    row norms are bit-equal to ``geo.dist`` (a box Omega is ``np.clip``)."""
    phi = ex.eval_expr(prob.objective, xi=list(XI.T), x=list(X.T))
    return phi + lam * (mr._dist_rows(offsets) + merit / gamma)


def _descent_rows(prob, Q: np.ndarray, lam: float, gamma: float,
                  grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The penalized objective at the rows of Q, and with ``grad`` a
    subgradient at each row (None without), from one kernel call.

    Objective and Omega-distance parts of a subgradient are structured; the
    merit part uses central differences, which on piecewise-smooth data
    yields a convex combination of branch gradients (a valid subgradient
    wherever merit is convex along the probe).  The merits at every row and
    at its 2(p+n) probes q +- 1e-7 e_i go into the same kernel call."""
    N, d = Q.shape
    p, h = prob.p, 1e-7
    R = Q
    if grad:
        E = h * np.eye(d)
        R = np.concatenate([Q, (Q[:, None] + E).reshape(-1, d), (Q[:, None] - E).reshape(-1, d)])
    merit = mr.eval_merit_batch(prob, R[:, :p], R[:, p:])
    offsets = Q[:, :p] - geo.project_rows(Q[:, :p], prob.omega)
    values = _penalize(prob, Q[:, :p], Q[:, p:], offsets, merit[:N], lam, gamma)
    if not grad:
        return values, None
    M = merit[N:].reshape(2, N, d)
    g_mf = (M[0] - M[1]) / (2 * h)
    g_phi = np.array([ex.grad_hull(prob.objective, (q[:p], q[p:], ()), "xix").generators[0]
                      for q in Q])
    d_om = mr._dist_rows(offsets)[:, None]
    g_om = np.zeros((N, d))
    np.divide(offsets, d_om, out=g_om[:, :p], where=d_om > 1e-12)
    return values, g_phi + lam * g_om + (lam / gamma) * g_mf


def _descend(prob, seeds: np.ndarray, lam: float, config: PenaltyConfig, a0: float, lo, up):
    """Normalized subgradient descent with steps a0/sqrt(k) from every row
    of ``seeds``, all descents advanced together: one ``_descent_rows``
    call per step for the active ones, centres only at the last step.  A
    descent whose subgradient norm falls to 1e-14 stops.  Returns, per
    seed, the best point, its value and the number of accepted steps."""
    Q = seeds.copy()
    best_q = seeds.copy()
    best_v = np.empty(len(Q))
    steps = np.zeros(len(Q), dtype=int)
    active = np.arange(len(Q))
    for k in range(config.max_iter + 1):
        values, G = _descent_rows(prob, Q[active], lam, config.gamma, k < config.max_iter)
        if k == 0:
            best_v[:] = values
        else:
            better = values < best_v[active] - 1e-15
            moved = active[better]
            best_v[moved], best_q[moved] = values[better], Q[moved]
            steps[moved] += 1
        if G is None:
            break
        ng = mr._dist_rows(G)
        going = ~(ng <= 1e-14)
        active, G, ng = active[going], G[going], ng[going]
        if not len(active):
            break
        Q[active] = np.clip(Q[active] - (a0 / math.sqrt(k + 1)) * G / ng[:, None], lo, up)
    return best_q, best_v.tolist(), steps.tolist()


def _compass_polish(prob, q: np.ndarray, v: float, step: float, lo, up, lam: float,
                    gamma: float) -> tuple[np.ndarray, float]:
    """Pattern search from q, whose value is v.  A sweep tries the probes
    q +- step e_i in the order (i, +step, -step) and moves to each probe
    that improves on the current point; a sweep without a move halves the
    step, down to 1e-7.  The probes of a sweep still pending are evaluated
    from the current point in one call, and after a move the ones after it
    again from the new point: the moves of a one-probe-at-a-time sweep."""
    d = len(q)
    axis = np.repeat(np.arange(d), 2)
    sign = np.tile([1.0, -1.0], d)
    p = prob.p
    for _ in range(400):
        improved, r = False, 0
        while r < 2 * d:
            P = np.repeat(q[None], 2 * d - r, axis=0)
            P[np.arange(2 * d - r), axis[r:]] += sign[r:] * step
            P = np.clip(P, lo, up)
            vals, _ = _penalized_rows(prob, P[:, :p], P[:, p:], lam, gamma)
            better = np.flatnonzero(vals < v - 1e-15)
            if not len(better):
                break
            j = int(better[0])
            q, v, improved = P[j], float(vals[j]), True
            r += j + 1
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return q, v


def _penalized_slope(prob, q, lam, gamma, p) -> float:
    """Sampled strong slope of the penalized objective at q."""
    dirs = _default_dirs(len(q))
    radii = [r for r in (1e-3, 1e-4) for _ in dirs]
    W = np.array([q] + [q + r * u for r, u in zip(radii, dirs * 2)])
    vals, _ = _penalized_rows(prob, W[:, :p], W[:, p:], lam, gamma)
    return max(0.0, float(np.max((vals[0] - vals[1:]) / radii)))


def solve_penalized(prob: pb.VepProblem, config: PenaltyConfig, starts):
    """Multi-start subgradient descent over an increasing penalty schedule.

    Returns (incumbent as (xi, x), trace of StageRecord).  A stage runs,
    from each start and from one random perturbation of it, the descent
    (all of them in lockstep) and then, one descent at a time in start
    order, a pattern-search polish; the schedule advances while the
    incumbent's merit stays above TOL_MERIT and stops as soon as the
    incumbent is feasible and the sampled strong slope of the penalized
    objective there is under 1e-4.
    """
    starts = [prob.point(xi, x) for xi, x in starts]
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
        seeds = np.array([q for q_start in incumbents for q in (
            q_start, np.clip(q_start + 0.05 * diam * rng.normal(size=len(q_start)), lo, up))])
        best_q, best_v, steps = _descend(prob, seeds, lam, config, a0, lo, up)
        stage_incumbents, stage_runs = [], []
        for si in range(len(incumbents)):
            best_local, best_local_val, accepted = None, math.inf, 0
            for j in (2 * si, 2 * si + 1):
                cur_best, cur_val = best_q[j], best_v[j]
                pol_q, pol_v = _compass_polish(prob, cur_best, cur_val, a0 / 10.0, lo, up,
                                               lam, config.gamma)
                if pol_v < cur_val:
                    cur_best, cur_val = pol_q, pol_v
                if cur_val < -1e12:
                    raise SolverError("penalized objective unbounded below")
                if cur_val < best_local_val:
                    best_local, best_local_val, accepted = cur_best, cur_val, steps[j]
            stage_incumbents.append(best_local)
            stage_runs.append((accepted, best_local_val))
        incumbents = stage_incumbents
        Q = np.array(incumbents)
        values, merits = _penalized_rows(prob, Q[:, : prob.p], Q[:, prob.p:], lam, config.gamma)
        trace.extend(StageRecord(lam, si, accepted, best_val, tuple(q.tolist()), me)
                     for si, (q, (accepted, best_val), me)
                     in enumerate(zip(incumbents, stage_runs, merits.tolist())))
        j = int(np.argmin(values))
        incumbent = incumbents[j]
        feasible = (merits[j] <= TOL_MERIT
                    and geo.dist(incumbent[: prob.p], prob.omega) <= TOL_MERIT)
        if feasible and _penalized_slope(prob, incumbent, lam, config.gamma, prob.p) <= 1e-4:
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
    me = float(mr.eval_merit_batch(prob, xi_bar[None], x_bar[None])[0])
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
    xi_bar, x_bar = prob.point(xi_bar, x_bar)
    _check_preconditions(prob, xi_bar, x_bar, gamma, tol_on_graph)
    nu_est = sd.nu_subgradient_full(prob, xi_bar, x_bar)
    mu_est = sd.mu_subgradient_estimate(prob, xi_bar, x_bar)
    # nu is locally Lipschitz, so the singular part of its subdifferential is {0}
    flags = nu_est.qc_flags + mu_est.qc_flags + ("qualification: singular-part-trivial",)
    if nu_est.exactness != sd.EXACT_CONVEX:
        flags = flags + (f"subgradient_model: {nu_est.exactness}",)
    return _assemble(prob, xi_bar, x_bar, [((), nu_est.body)], mu_est,
                     lambda_grid, gamma, tol_stat, flags)


def check_stationarity_smooth_concave(prob: pb.VepProblem, xi_bar, x_bar,
                                      lambda_grid, gamma: float, eps_list,
                                      l_f: float) -> StationarityReport:
    """The assembled inclusion with the nu subgradient replaced by the
    per-enlargement outer estimate, one nu body per enlargement."""
    xi_bar, x_bar = prob.point(xi_bar, x_bar)
    _check_preconditions(prob, xi_bar, x_bar, gamma, 1e-6)
    flags_pre = () if "K-concave" in prob.asserts else ("hypotheses-not-asserted",)
    outer = sd.nu_outer_estimate(prob, xi_bar, x_bar, eps_list, l_f)
    mu_est = sd.mu_subgradient_estimate(prob, xi_bar, x_bar)
    flags = flags_pre + outer.qc_flags + mu_est.qc_flags + (
        f"eps-list={tuple(e for e, _ in outer.per_eps)}", f"l_f={l_f:g}")
    return _assemble(prob, xi_bar, x_bar,
                     [((eps,), body) for eps, body in outer.per_eps], mu_est,
                     lambda_grid, gamma, 1e-9, flags)
