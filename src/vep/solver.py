"""Penalization pipeline and stationarity checkers.

The solver minimizes objective + lambda * (distance to the geometric set +
merit/gamma) over an increasing penalty schedule, with a pattern-search
polish from every seed in every stage.
One assembler builds the stationarity inclusion right-hand side from
structured subgradient bodies over a list of nu bodies and either certifies
a near-zero residual with a decomposition witness or refutes the inclusion
for every penalty weight by a sign analysis that is affine in lambda.  The
two public checkers differ only in the nu model they feed it: the
gradient-limit hull (general) or the per-enlargement outer estimate
(smooth-concave).

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
    """penalized_value and merit at the rows of XI and X, float arrays with
    finite entries: the merits from one kernel call, the objective
    evaluated once over columns."""
    nu, mu = mr._kernel_parts(prob, XI, X, False)[:2]
    merit = nu + mu
    d_om = mr._dist_rows(XI - geo.project_rows(XI, prob.omega))
    return _penalize(prob, XI, X, d_om, merit, lam, gamma), merit


def _penalize(prob, XI, X, d_om, merit, lam, gamma) -> np.ndarray:
    """objective + lam * (dist(xi, Omega) + merit/gamma) at the rows of XI
    and X, given their merits and Omega distances d_om, the row norms of
    the offsets XI - proj_Omega(XI), which are bit-equal to ``geo.dist``
    (a box Omega is ``np.clip``)."""
    phi = ex.eval_expr(prob.objective, xi=list(XI.T), x=list(X.T))
    return phi + lam * (d_om + merit / gamma)


# How many sweeps a round of ``_polish`` evaluates from each polish's
# current point: its pending probes and, since a sweep without a move
# leaves the point where it is, the next LADDER_DEPTH - 1 whole sweeps at
# the steps they would take.  A kernel call is mostly fixed cost when f is
# affine in z, where its rows are one array pass, so the extra rows are
# cheap and the rounds fewer.  Otherwise every row runs grid + Nelder-Mead
# and costs the same wherever it lands, so a ladder only adds rows that a
# move discards: there the depth is 1, the pending probes alone.
LADDER_DEPTH = 3


def _polish(prob, Q: np.ndarray, step: float, lo, up, lam: float,
            gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pattern search from every row of Q, all polishes advanced together;
    returns the polished points, their values and their merits.  A sweep
    tries the probes q +- step e_i in the order (i, +step, -step) and moves
    to each probe that improves on the current point; a sweep without a
    move halves the step, and a polish stops below 1e-7 or after 400
    sweeps.  One kernel call evaluates the rows of Q, and then each round
    one call evaluates, for every running polish, a ladder of sweeps from
    its current point: the pending probes of its sweep after its last move,
    then up to ``LADDER_DEPTH`` - 1 whole sweeps at the steps that sweeps
    without a move would take (depth 1 unless f is affine in z), none past
    the 1e-7 stop or the sweep cap.  The round takes each polish's first
    improving probe, the move of a one-probe-at-a-time search, and drops
    the rungs after it; every value it uses is one that search computes.
    Each polish keeps its own point, value, step, sweep count and probe
    position."""
    N, d = Q.shape
    width = 2 * d                                   # probes per sweep
    axis = np.repeat(np.arange(d), 2)
    sign = np.tile([1.0, -1.0], d)
    p = prob.p
    depth = LADDER_DEPTH if prob.f.affine_in_z else 1
    values, merits = _penalized_rows(prob, Q[:, :p], Q[:, p:], lam, gamma)
    Q = Q.copy()
    steps, sweeps = np.full(N, float(step)), np.zeros(N, dtype=int)
    pos, improved = np.zeros(N, dtype=int), np.zeros(N, dtype=bool)
    run = np.arange(N)
    while len(run):
        s, swept, at, was = steps[run], sweeps[run], pos[run], improved[run]
        # the ladder's steps, and how many of its rungs run before a stop
        ladder = np.empty((len(run), depth))
        ladder[:, 0] = s
        rungs, more, moved = np.ones(len(run), dtype=int), np.ones(len(run), dtype=bool), was
        for h in range(1, depth):
            half = s * 0.5
            more &= (moved | (half >= 1e-7)) & (swept + h < 400)
            ladder[:, h] = s = np.where(moved, s, half)
            rungs += more
            moved = False
        # the round's probes, rung after rung: one gather and one scatter-add
        count = width * rungs - at
        start = np.cumsum(count) - count
        owner = np.repeat(np.arange(len(run)), count)
        rung, c = np.divmod(np.arange(len(owner)) - (start - at)[owner], width)
        P = Q[run[owner]]
        P[np.arange(len(P)), axis[c]] += sign[c] * ladder[owner, rung]
        P = np.clip(P, lo, up)
        vals, mers = _penalized_rows(prob, P[:, :p], P[:, p:], lam, gamma)
        # each polish's first improving probe, if it has one
        hits = np.flatnonzero(vals < (values[run] - 1e-15)[owner])
        first = np.append(hits, len(P))[np.searchsorted(hits, start)]
        moves = first < start + count
        hit = np.minimum(first, len(P) - 1)
        i, j = run[moves], first[moves]
        Q[i], values[i], merits[i] = P[j], vals[j], mers[j]
        # the rungs before a polish's move, or all of them, are sweeps without one
        h = np.where(moves, rung[hit], rungs - 1)
        s, swept = ladder[np.arange(len(run)), h], swept + h
        was, at = moves | (was & (h == 0)), np.where(moves, c[hit] + 1, width)
        # the end of a sweep
        end = at == width
        s = np.where(end & ~was, s * 0.5, s)
        swept = swept + end
        stop = end & ((~was & (s < 1e-7)) | (swept >= 400))
        steps[run], sweeps[run], pos[run], improved[run] = s, swept, at % width, was & ~end
        run = run[~stop]
    return Q, values, merits


def _penalized_slope(prob, q, lam, gamma, p) -> float:
    """Sampled strong slope of the penalized objective at q."""
    dirs = _default_dirs(len(q))
    radii = [r for r in (1e-3, 1e-4) for _ in dirs]
    W = np.array([q] + [q + r * u for r, u in zip(radii, dirs * 2)])
    vals, _ = _penalized_rows(prob, W[:, :p], W[:, p:], lam, gamma)
    return max(0.0, float(np.max((vals[0] - vals[1:]) / radii)))


def solve_penalized(prob: pb.VepProblem, config: PenaltyConfig, starts):
    """Multi-start pattern search over an increasing penalty schedule.

    Returns (incumbent as (xi, x), trace of StageRecord).  A stage seeds a
    run at each start and at one random perturbation of it and polishes
    them all in lockstep from the step diam/10 of the variable window.  Per
    start, the better of its two polished seeds (the first on a tie)
    becomes the stage's point, with the value and merit the polish
    returns, and an unbounded-below value raises there.  The schedule
    advances while the incumbent's merit stays above TOL_MERIT and stops as
    soon as the incumbent is feasible and the sampled strong slope of the
    penalized objective there is under 1e-4.
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
    p = prob.p

    trace: list[StageRecord] = []
    incumbents = [np.concatenate(s) for s in starts]
    lam = config.lambda_init
    incumbent = incumbents[0]
    while lam <= config.lambda_max:
        seeds = np.array([q for q_start in incumbents for q in (
            q_start, np.clip(q_start + 0.05 * diam * rng.normal(size=len(q_start)), lo, up))])
        pol_q, pol_v, pol_m = _polish(prob, seeds, diam / 10.0, lo, up, lam, config.gamma)
        if pol_v.min() < -1e12:
            raise SolverError("penalized objective unbounded below")
        # the better of each start's two runs, the unperturbed one on a tie
        picks = [j + (pol_v[j + 1] < pol_v[j]) for j in range(0, len(pol_v), 2)]
        incumbents = list(pol_q[picks])
        values, merits = pol_v[picks], pol_m[picks]
        trace.extend(StageRecord(lam, si, v, tuple(q.tolist()), me) for si, (q, v, me)
                     in enumerate(zip(incumbents, values.tolist(), merits.tolist())))
        j = int(np.argmin(values))
        incumbent = incumbents[j]
        feasible = (merits[j] <= TOL_MERIT
                    and geo.dist(incumbent[:p], prob.omega) <= TOL_MERIT)
        if feasible and _penalized_slope(prob, incumbent, lam, config.gamma, p) <= 1e-4:
            break
        lam *= config.growth
    return (incumbent[:p].copy(), incumbent[p:].copy()), tuple(trace)


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
    padded = np.hstack([cap.points, np.zeros((len(cap.points), prob.n))])
    return geo.ConvexBody(prob.p + prob.n, padded)


def _phi_body(prob, xi_bar, x_bar) -> geo.ConvexBody:
    hull = ex.grad_hull(prob.objective, (xi_bar, x_bar, ()), "xix")
    return geo.body_from_points(hull.as_matrix())


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


def _residual_and_witness(factor_pts: list[np.ndarray], radii: list[float]):
    """Distance from 0 to the sum of the factors conv(P_i) + r_i*B, and one
    summand per factor whose sum is the nearest point.  The balls are
    taken exactly: with q the min-norm point of the points' sum and
    R = sum r_i, the distance is max(0, |q| - R), and factor i's summand
    is its share of q minus (r_i/R)*min(R, |q|)*q/|q| (a one-row factor's
    share is that row exactly).  The points' sum holds every tuple of
    factor rows, row-major with the last factor fastest, so a row of it
    unravels to its tuple."""
    shape = [len(F) for F in factor_pts]
    total = factor_pts[0]
    for F in factor_pts[1:]:
        total = (total[:, None, :] + F[None, :, :]).reshape(-1, total.shape[1])
    q, idx, w = geo.wolfe_min_norm(total)
    nq = float(np.linalg.norm(q))
    ball = sum(radii)
    residual = max(nq - ball, 0.0)
    # one point per factor for each of Wolfe's support points
    rows = np.unravel_index(np.asarray(idx, dtype=int), shape)
    parts = []
    for F, r, rad in zip(factor_pts, rows, radii):
        if len(F) == 1:     # Wolfe's weights sum to 1 only up to round-off
            part = F[0].copy()
        else:
            part = np.zeros(F.shape[1])
            for j, weight in zip(r, w):
                part = part + weight * F[j]
        if rad > 0 and nq > 0:
            # the factor's share of the ball, taken along -q
            part = part - (rad / ball) * min(ball, nq) * (q / nq)
        parts.append(part)
    return residual, tuple(parts)


def _factor(body: geo.ConvexBody, t: float) -> tuple[np.ndarray, float]:
    """t * body as a residual factor: its hull points and its ball radius."""
    return t * body.points, t * body.ball


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

    Each factor enters a residual as its scaled hull points and its scaled
    ball radius, and the balls (the smooth-concave nu body's Lipschitz
    ball) are subtracted exactly, as the refutation's support function
    takes them.  Residuals are minimized over the lambda grid and the
    branches of the coderivative-ball product per nu body; stationary
    requires a small residual for EVERY nu body, refutation a separating
    direction for a single one.  The refutation test is affine in lambda
    so a single sign analysis covers every positive penalty weight; it
    scans the coupled graph-normal cap bodies of mu where those exist and
    the product bodies otherwise, and a refuted report flags which.
    Residual-table rows are key + (lambda, branch, residual).
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
    # each factor is scaled once: phi once, Omega once per lambda, a nu
    # body once per (nu, lambda), a mu branch once per (lambda, branch)
    phi_f = _factor(phi_body, 1.0)
    omega_f = [_factor(omega_body, lam) for lam in lambda_grid]
    mu_f = [[_factor(kb, lam / gamma) for kb in mu_est.bodies] for lam in lambda_grid]
    refuting = None
    table = []
    worst_residual = -math.inf
    best = (math.inf, None, None, ())
    for key, nu_body in nu_bodies:
        if refuting is None:
            refuting = _refutation_scan(phi_body, omega_body, nu_body,
                                        refute_bodies, gamma, dirs)
        best_key = (math.inf, None, None, ())
        for li, lam in enumerate(lambda_grid):
            nu_f = _factor(nu_body, lam / gamma)
            for bi, kb_f in enumerate(mu_f[li]):
                factors = (phi_f, omega_f[li], nu_f, kb_f)
                residual, parts = _residual_and_witness(
                    [pts for pts, _ in factors], [r for _, r in factors])
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
