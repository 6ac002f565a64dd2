from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vep import geometry as geo
from vep import merit as mr
from vep import problem as pb
from vep import solver as sv
from vep import subdiff as sd

from _oracles import ball_sum, per_row_penalized, sequential_polish, sequential_solve_penalized
from conftest import make_const_box

PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"
GENCONE, POLYTOPE = PROBLEMS / "gencone.vep", PROBLEMS / "polytope.vep"


# ---------------------------------------------------------------------------
# penalized objective
# ---------------------------------------------------------------------------

def test_penalized_value_goldens(tent):
    assert sv.penalized_value(tent, [0.0], [1.0], 0.7, 0.3) == pytest.approx(1.0)
    assert sv.penalized_value(tent, [-1.0], [2.0], 2.0, 0.5) == pytest.approx(7.0)
    assert sv.penalized_value(tent, [0.0], [0.0], 1.0, 1.0) == pytest.approx(1.0)


def test_penalized_value_rejects_bad_weights(tent):
    with pytest.raises(ValueError):
        sv.penalized_value(tent, [0.0], [1.0], 0.0, 1.0)


@pytest.mark.parametrize("seed, source", enumerate(["example:paper", str(GENCONE), str(POLYTOPE)]))
def test_penalized_rows_equal_the_per_row_formula(seed, source):
    prob = pb.load(source)
    rng = np.random.default_rng(seed)
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    XI, X = rng.uniform(wlo, wup, (40, prob.p)), rng.uniform(xlo, xup, (40, prob.n))
    ref = per_row_penalized(prob, XI, X, 1.5, 0.5)
    values, merits = sv._penalized_rows(prob, XI, X, 1.5, 0.5)
    assert np.array_equal(values, ref)
    assert np.array_equal(merits, mr.eval_merit_batch(prob, XI, X))
    assert [sv.penalized_value(prob, a, b, 1.5, 0.5) for a, b in zip(XI, X)] == ref.tolist()


def test_penalized_rows_with_a_halfspace_omega():
    prob = make_const_box(omega=geo.Halfspaces([[1.0], [-1.0]], [0.5, 1.0]))
    rng = np.random.default_rng(5)
    XI, X = rng.uniform(-2, 2, (40, 1)), rng.uniform(-2, 2, (40, 1))
    values, _ = sv._penalized_rows(prob, XI, X, 1.5, 0.5)
    assert np.array_equal(values, per_row_penalized(prob, XI, X, 1.5, 0.5))


# ---------------------------------------------------------------------------
# penalty schedule
# ---------------------------------------------------------------------------

def _starts(prob, seed, count):
    rng = np.random.default_rng(seed)
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    return [(rng.uniform(wlo, wup), rng.uniform(xlo, xup)) for _ in range(count)]


def _assert_solves_like_the_reference(prob, config, starts):
    (xi, x), trace = sv.solve_penalized(prob, config, starts)
    (xi_ref, x_ref), trace_ref = sequential_solve_penalized(prob, config, starts)
    assert np.array_equal(xi, xi_ref) and np.array_equal(x, x_ref)
    assert [vars(t) for t in trace] == [vars(t) for t in trace_ref]


@pytest.mark.parametrize("seed", [3, 20, 31])
@pytest.mark.parametrize("source, count",
                         [("example:paper", 2), ("gencone.vep", 2), ("polytope.vep", 1)])
def test_lockstep_solve_equals_the_sequential_reference(source, count, seed):
    prob = pb.load(source if source.startswith("example:") else str(PROBLEMS / source))
    _assert_solves_like_the_reference(prob, sv.PenaltyConfig(seed=seed), _starts(prob, seed, count))


def test_lockstep_solve_on_a_flat_penalized_objective(zero_f):
    # the polishes from these starts reach the slice, where the penalized
    # objective is flat, after different numbers of sweeps
    starts = [(np.array([0.3]), np.array([1.8])), (np.array([0.0]), np.array([1.1]))]
    _assert_solves_like_the_reference(zero_f, sv.PenaltyConfig(), starts)


def test_lockstep_solve_with_a_halfspace_omega():
    prob = make_const_box(omega=geo.Halfspaces([[1.0], [-1.0]], [0.5, 1.0]))
    _assert_solves_like_the_reference(prob, sv.PenaltyConfig(seed=6), _starts(prob, 6, 2))


def test_solver_kernel_calls(monkeypatch):
    prob = pb.load(str(GENCONE))
    kernel, calls = mr._kernel_parts, []

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(mr, "_kernel_parts", counted)
    sv.solve_penalized(prob, sv.PenaltyConfig(seed=3), _starts(prob, 3, 2))
    # one descent at a time, with one-point polish probes, this took 7,278
    assert len(calls) < 7278 / 3


def test_solver_penalized_rows_calls(monkeypatch):
    # a work count: one polish at a time, each round one call, took 579;
    # rounds of the pending probes only, with a re-evaluation of each
    # stage's points, took 201
    prob = pb.load(str(GENCONE))
    rows, calls = sv._penalized_rows, []
    monkeypatch.setattr(sv, "_penalized_rows", lambda *a: calls.append(None) or rows(*a))
    sv.solve_penalized(prob, sv.PenaltyConfig(seed=3), _starts(prob, 3, 2))
    assert len(calls) == 97


def test_solver_rows_skip_the_revalidation(monkeypatch):
    prob = pb.load(str(GENCONE))
    rng = np.random.default_rng(2)
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    Q = np.hstack([rng.uniform(wlo, wup, (30, prob.p)), rng.uniform(xlo, xup, (30, prob.n))])
    nu, mu = mr._merit_parts(prob, Q[:, :prob.p], Q[:, prob.p:])
    points, calls = pb.VepProblem.points, []
    monkeypatch.setattr(pb.VepProblem, "points", lambda *a: calls.append(None) or points(*a))
    kernel = mr._kernel_parts(prob, Q[:, :prob.p], Q[:, prob.p:], False)
    assert np.array_equal(kernel[0], nu) and np.array_equal(kernel[1], mu)
    rows, merits = sv._penalized_rows(prob, Q[:, :prob.p], Q[:, prob.p:], 1.5, 0.5)
    assert np.array_equal(merits, nu + mu)
    sv.solve_penalized(prob, sv.PenaltyConfig(seed=3), _starts(prob, 3, 2))
    assert not calls
    # a public entry still checks its rows
    with pytest.raises(pb.ProblemError, match="non-finite"):
        mr.eval_merit_batch(prob, [[np.nan]], [[1.0]])
    assert calls


@pytest.mark.parametrize("source, count, solution", [
    ("example:paper", 2, (0.0, 1.0)),
    (str(GENCONE), 2, (0.0, 1.0)),
    (str(POLYTOPE), 1, (0.0, 0.5, 0.5)),
])
@pytest.mark.parametrize("seed", [100, 117, 129])
def test_seeded_solves_reach_the_closed_form(source, count, solution, seed):
    # the solves of `vep --seed SEED solve SOURCE --starts COUNT`
    prob = pb.load(source)
    config = sv.PenaltyConfig(seed=seed)
    (xi, x), _ = sv.solve_penalized(prob, config, _starts(prob, seed, count))
    assert np.linalg.norm(np.concatenate([xi, x]) - solution) <= 1e-3
    # cmd_solve's post-check, which refutes a gencone incumbent a few 1e-7
    # to the right of the kink at xi = 0
    rep = sv.check_stationarity_general(prob, xi, x, None, config.gamma, tol_on_graph=0.05,
                                        tol_stat=1e-2)
    assert rep.verdict == sv.STATIONARY


@pytest.mark.parametrize("source, lam", [("polytope.vep", 1.0), ("example:paper", 4.0)])
def test_lockstep_polish_equals_the_sequential_polish(source, lam):
    prob = pb.load(source if source.startswith("example:") else str(PROBLEMS / source))
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    lo, up = np.concatenate([wlo, xlo]), np.concatenate([wup, xup])
    Q = np.random.default_rng(7).uniform(lo, up, (5, len(lo)))
    got_q, got_v, got_m = sv._polish(prob, Q, 0.3, lo, up, lam, 0.5)

    def fn(w):
        return sv.penalized_value(prob, w[:prob.p], w[prob.p:], lam, 0.5)

    want = [sequential_polish(fn, q, 0.3, lo, up) for q in Q]
    assert np.array_equal(got_q, [q for q, _, _ in want])
    assert got_v.tolist() == [v for _, v, _ in want]
    assert np.array_equal(got_m, mr.eval_merit_batch(prob, got_q[:, :prob.p], got_q[:, prob.p:]))
    # the polishes stop after different numbers of sweeps, so some of them
    # keep running after others have stopped
    assert len({sweeps for _, _, sweeps in want}) > 1


def _row_sizes(monkeypatch, fn=None):
    """Record the row count of every ``_penalized_rows`` call; with ``fn``,
    a row function of the stacked (xi, x) points, the calls evaluate it in
    place of the penalized objective (merits 0)."""
    rows, sizes = sv._penalized_rows, []

    def recorded(prob, XI, X, lam, gamma):
        sizes.append(len(XI))
        if fn is None:
            return rows(prob, XI, X, lam, gamma)
        return fn(np.hstack([XI, X])), np.zeros(len(XI))

    monkeypatch.setattr(sv, "_penalized_rows", recorded)
    return sizes


def _targets(W):
    # the distance to the nearest of 0, 10.25, 21 and 30.5, in one coordinate
    return np.min(np.abs(W[:, :1] - np.array([0.0, 10.25, 21.0, 30.5])), axis=1)


def _synthetic(affine_in_z):
    return SimpleNamespace(p=1, f=SimpleNamespace(affine_in_z=affine_in_z))


def test_ladder_moves_and_stops_at_different_rungs_of_one_call(monkeypatch):
    # from 0, 10, 20 and 30 at step 1 the first round moves no polish, one
    # on rung 2 (to 10.25), one on rung 0 (to 21) and one on rung 1 (to
    # 30.5); thereafter none moves, and each runs its ladders down to the
    # 1e-7 stop from a different sweep
    sizes = _row_sizes(monkeypatch, _targets)
    Q = np.array([[0.0], [10.0], [20.0], [30.0]])
    lo, up = np.array([-100.0]), np.array([100.0])
    got_q, got_v, got_m = sv._polish(_synthetic(True), Q, 1.0, lo, up, 1.0, 0.5)
    want = [sequential_polish(lambda w: float(_targets(w[None])[0]), q, 1.0, lo, up) for q in Q]
    assert np.array_equal(got_q, [q for q, _, _ in want])
    assert got_v.tolist() == [v for _, v, _ in want] == [0.0] * 4
    assert not got_m.any()
    # the seeds; three rungs of two probes each, less the probes a move
    # already took; in round 9 the polish at 10.25 stops after two rungs
    # and the polish at 30.5 after three, and in round 10 the polish at 21
    # after one
    assert sizes == [4, 24, 21] + [24] * 6 + [16, 2]


def test_ladder_is_cut_by_the_stop_below_1e_7(monkeypatch):
    # from the step 3e-7 the ladder has two rungs, 3e-7 and 1.5e-7
    prob = pb.load(str(POLYTOPE))
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    lo, up = np.concatenate([wlo, xlo]), np.concatenate([wup, xup])
    Q = np.random.default_rng(11).uniform(lo, up, (4, 3))
    sizes = _row_sizes(monkeypatch)
    got_q, got_v, _ = sv._polish(prob, Q, 3e-7, lo, up, 2.0, 0.5)
    monkeypatch.undo()

    def fn(w):
        return sv.penalized_value(prob, w[:1], w[1:], 2.0, 0.5)

    want = [sequential_polish(fn, q, 3e-7, lo, up) for q in Q]
    assert np.array_equal(got_q, [q for q, _, _ in want])
    assert got_v.tolist() == [v for _, v, _ in want]
    # the first round's ladders stop at 1.5e-7; after a move at 3e-7 a
    # ladder is the move's sweep, one at 3e-7 and one at 1.5e-7
    assert sizes[:2] == [4, 4 * 2 * 6]
    assert max(sizes[1:]) < 4 * 3 * 6


@pytest.mark.parametrize("source", ["polytope.vep", "gencone.vep"])
def test_ladder_probes_clipped_at_the_window(monkeypatch, source):
    # polishes from window corners, whose outward probes are clipped back
    # onto the bound
    prob = pb.load(str(PROBLEMS / source))
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    lo, up = np.concatenate([wlo, xlo]), np.concatenate([wup, xup])
    Q = np.array([lo, up, np.where(np.arange(len(lo)) % 2, lo, up)])
    got_q, got_v, got_m = sv._polish(prob, Q, 0.7, lo, up, 4.0, 0.5)

    def fn(w):
        return sv.penalized_value(prob, w[:prob.p], w[prob.p:], 4.0, 0.5)

    want = [sequential_polish(fn, q, 0.7, lo, up) for q in Q]
    assert np.array_equal(got_q, [q for q, _, _ in want])
    assert got_v.tolist() == [v for _, v, _ in want]
    assert np.array_equal(got_m, mr.eval_merit_batch(prob, got_q[:, :prob.p], got_q[:, prob.p:]))


def test_no_ladder_where_f_is_not_affine_in_z(monkeypatch):
    # rows there run grid + Nelder-Mead each: a round evaluates only the
    # pending probes, at most 2d rows per running polish
    sizes = _row_sizes(monkeypatch, _targets)
    Q = np.array([[0.0, 1.0], [10.0, -1.0], [20.0, 0.5], [30.0, 2.0]])
    lo, up = np.full(2, -100.0), np.full(2, 100.0)
    got_q, got_v, _ = sv._polish(_synthetic(False), Q, 1.0, lo, up, 1.0, 0.5)
    want = [sequential_polish(lambda w: float(_targets(w[None])[0]), q, 1.0, lo, up) for q in Q]
    assert np.array_equal(got_q, [q for q, _, _ in want])
    assert got_v.tolist() == [v for _, v, _ in want]
    assert sizes[:2] == [4, 4 * 4] and max(sizes[1:]) <= 4 * 4
    # the same polishes with the ladder take fewer than half the calls
    ladder = _row_sizes(monkeypatch, _targets)
    sv._polish(_synthetic(True), Q, 1.0, lo, up, 1.0, 0.5)
    assert len(ladder) < len(sizes) / 2


def test_unbounded_objective_raises_like_the_sequential_reference(tmp_path):
    path = tmp_path / "unbounded.vep"
    path.write_text(GENCONE.read_text().replace("expr = xi1^2 + x1^2", "expr = -1e13 * x1^2"))
    prob = pb.load(str(path))
    starts = _starts(prob, 3, 2)
    for solve in (sv.solve_penalized, sequential_solve_penalized):
        with pytest.raises(sv.SolverError, match="penalized objective unbounded below"):
            solve(prob, sv.PenaltyConfig(seed=3), starts)


def test_solver_reaches_the_solution(tent):
    rng = np.random.default_rng(1)
    starts = [(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)) for _ in range(3)]
    (xi_b, x_b), trace = sv.solve_penalized(tent, sv.PenaltyConfig(), starts)
    assert np.hypot(xi_b[0], x_b[0] - 1.0) <= 1e-3
    stages = sorted({t.lam for t in trace})
    assert len(stages) <= 4


def test_solver_trace_values_nonincreasing_within_stage(tent):
    config = sv.PenaltyConfig(seed=5)
    for prob, count in ((tent, 1), (pb.load(str(GENCONE)), 2)):
        starts = _starts(prob, 5, count)
        _, trace = sv.solve_penalized(prob, config, starts)
        assert len({t.lam for t in trace}) > 1
        # a stage record starts from its start's point in the previous stage
        # and records the value of its own point
        for k, t in enumerate(trace):
            seed = (np.concatenate(starts[t.start_index]) if k < count
                    else np.array(trace[k - count].best_point))
            best = np.array(t.best_point)
            assert t.best_value == sv.penalized_value(prob, best[:prob.p], best[prob.p:],
                                                      t.lam, config.gamma)
            assert t.best_value <= sv.penalized_value(prob, seed[:prob.p], seed[prob.p:],
                                                      t.lam, config.gamma)


def test_solver_zero_objective_returns_feasible(zero_f):
    starts = [(np.array([0.3]), np.array([1.8]))]
    (xi_b, x_b), _ = sv.solve_penalized(zero_f, sv.PenaltyConfig(), starts)
    assert mr.eval_merit(zero_f, xi_b, x_b).merit <= 1e-6
    assert geo.dist(xi_b, zero_f.omega) <= 1e-6


def test_solver_start_at_solution_stays(tent):
    config = sv.PenaltyConfig(lambda_init=2.0)
    starts = [(np.array([0.0]), np.array([1.0]))]
    (xi_b, x_b), trace = sv.solve_penalized(tent, config, starts)
    assert np.hypot(xi_b[0], x_b[0] - 1.0) <= 1e-6
    assert trace[0].best_point == (0.0, 1.0)


def test_penalty_exactness_on_window_grid(tent):
    # for penalty weights above the objective's Lipschitz constant on the
    # window, the penalized minimizer over the window grid is the
    # constrained minimizer (within one grid step)
    lam, gamma = 8.0, 0.5
    ts = np.linspace(-2, 2, 41)
    xs = np.linspace(-4, 4, 41)
    best, arg = np.inf, None
    for t in ts:
        for xv in xs:
            v = sv.penalized_value(tent, [t], [xv], lam, gamma)
            if v < best:
                best, arg = v, (t, xv)
    assert abs(arg[0] - 0.0) <= 0.1 + 1e-12
    assert abs(arg[1] - 1.0) <= 0.2 + 1e-12


# ---------------------------------------------------------------------------
# stationarity checker: general form
# ---------------------------------------------------------------------------

def test_stationary_at_the_minimizer(tent):
    rep = sv.check_stationarity_general(tent, [0.0], [1.0], [0.5], gamma=0.5)
    assert rep.verdict == sv.STATIONARY
    assert rep.residual <= 1e-9
    parts = [np.asarray(p) for p in rep.decomposition]
    assert np.linalg.norm(sum(parts)) <= 1e-9


def test_checker_requires_graph_point(tent):
    with pytest.raises(sv.PreconditionError, match="solution graph"):
        sv.check_stationarity_general(tent, [0.0], [2.0], None, gamma=0.5)
    with pytest.raises(sv.PreconditionError, match="geometric set"):
        sv.check_stationarity_general(tent, [-1.0], [2.0], None, gamma=0.5)


def test_refutation_by_lambda_affine_sign_test():
    # objective xi over a constant feasible map: no stationarity at any
    # graph point because the xi-part of every summand vanishes
    prob = make_const_box(phi="xi1", asserts=("K-concave", "nu-convex"))
    rep = sv.check_stationarity_general(prob, [0.0], [1.0], None, gamma=0.5)
    assert rep.verdict == sv.REFUTED_BY_DIRECTION
    assert tuple(rep.direction) == (-1.0, 0.0)
    # the residual stays bounded away from zero on the whole lambda grid
    assert min(r for _, _, r in rep.residual_table) > 0.5


def test_a_cancelled_kink_keeps_the_verdict_and_the_direction():
    # the same objective written with + 3*abs(x1 - 1.5) - 3*abs(x1 - 1.5):
    # one switch of sign, so one gradient of phi at x1 = 1.5
    root = Path(__file__).resolve().parents[1]
    reps = [sv.check_stationarity_general(pb.load(str(path)), [0.5], [1.5], None, gamma=0.5)
            for path in (root / "perfbench" / "problems" / "gencone.vep",
                         root / "tests" / "data" / "gencone_cancelled_kink.vep")]
    assert [r.verdict for r in reps] == [sv.REFUTED_BY_DIRECTION] * 2
    assert reps[0].direction == reps[1].direction == (-0.0, -1.0)


def test_stationary_when_every_summand_contains_zero(const_box):
    prob = make_const_box(phi="(x1 - 1)^2", asserts=("K-concave", "nu-convex"))
    rep = sv.check_stationarity_general(prob, [0.7], [1.0], [0.25], gamma=0.5)
    assert rep.verdict == sv.STATIONARY
    assert rep.residual <= 1e-9


def test_residual_monotone_under_summand_enlargement(tent):
    rep = sv.check_stationarity_general(tent, [0.5], [1.5], [0.25], gamma=0.5)
    # enlarging the coderivative branch (extra ball) cannot increase it
    phi = sv._phi_body(tent, np.array([0.5]), np.array([1.5]))
    omega = sv._omega_cap_body(tent, np.array([0.5]))
    nu = sd.nu_subgradient_full(tent, [0.5], [1.5])
    mu = sd.mu_subgradient_estimate(tent, [0.5], [1.5])
    lam = 0.25
    residuals = []
    for extra in (0.0, 0.5):
        best = np.inf
        for kb in mu.bodies:
            kb2 = geo.ConvexBody(kb.dim, kb.points, ball=kb.ball + extra)
            factors = [sv._factor(phi, 1.0), sv._factor(omega, lam),
                       sv._factor(nu.body, lam / 0.5), sv._factor(kb2, lam / 0.5)]
            r, _ = sv._residual_and_witness([pts for pts, _ in factors],
                                            [rad for _, rad in factors])
            best = min(best, r)
        residuals.append(best)
    assert residuals[1] <= residuals[0] + 1e-9
    assert rep.residual == pytest.approx(residuals[0], abs=1e-6)


def _residual_inputs():
    """60 small planar sums; a planar sum of one row (an objective
    gradient) and two polygons, whose Wolfe weights sum to 1 - 2e-16; then
    three sums of 1 x 2 x 91 x 360 = 65,520 rows in R^3, the factor sizes
    of the polytope's smooth-concave sums: two far from 0 and one around
    it."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        k = int(rng.integers(2, 4))
        pts = [rng.normal(size=(int(rng.integers(1, 7)), 2)) + 3.0 * rng.normal(size=2)
               for _ in range(k)]
        radii = [0.0 if rng.random() < 0.4 else float(rng.uniform(0.0, 1.5))
                 for _ in range(k)]
        yield pts, radii
    rng = np.random.default_rng(26)
    yield [np.array([[0.0, 1.0]]), rng.normal(size=(3, 2)), rng.normal(size=(4, 2)) - 1.0], \
        [0.0, 0.0, 0.0]
    rng = np.random.default_rng(24)
    for shift in (8.0, 0.0, 4.0):
        pts = [rng.normal(size=(size, 3)) + shift for size in (1, 2, 91, 360)]
        yield pts, [0.0, 0.0, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 0.5))]


def test_residual_takes_the_balls_exactly():
    # conv P_i + r_i B summed: the distance from 0 is the points' min-norm
    # distance less R = sum r_i, within the inscribed 180-gon's shortfall
    # R (1 - cos(pi/180)) below the ring discretization (planar sums), and
    # each summand lies in its own factor; a one-row factor without a ball
    # gives its row exactly
    gap = 1.0 - np.cos(np.pi / 180.0)
    swallowed = {2: 0, 3: 0}
    for case, (pts, radii) in enumerate(_residual_inputs()):
        k, dim, R = len(pts), pts[0].shape[1], sum(radii)
        residual, parts = sv._residual_and_witness(pts, radii)
        total = pts[0]
        for P in pts[1:]:
            total = (total[:, None, :] + P[None, :, :]).reshape(-1, dim)
        q, _, _ = geo.wolfe_min_norm(total)
        assert residual == pytest.approx(max(0.0, np.linalg.norm(q) - R), abs=1e-12), case
        if dim == 2:
            rings = [ball_sum(P, r) if r > 0 else P for P, r in zip(pts, radii)]
            ring, _ = sv._residual_and_witness(rings, [0.0] * k)
            assert ring - R * gap - 1e-12 <= residual <= ring + 1e-12, case
        assert len(parts) == k
        s = np.sum(parts, axis=0)
        assert np.linalg.norm(s) == pytest.approx(residual, abs=1e-12)
        bodies = [geo.ConvexBody(dim, P, ball=r) for P, r in zip(pts, radii)]
        for part, body in zip(parts, bodies):
            assert geo.dist_to_body(part, body) <= 1e-12, case
            if len(body.points) == 1 and body.ball == 0.0:
                assert np.array_equal(part, body.points[0]), case
        # s is the nearest point: <s, y> >= |s|^2 on the sum, whose support
        # function is the sum of the factors' own
        assert s @ s + sum(geo.support(b, -s) for b in bodies) <= 1e-9 * max(1.0, q @ q), case
        swallowed[dim] += residual == 0.0
    assert 0 < swallowed[2] < 61 and 0 < swallowed[3] < 3   # both sides of the ball


def test_the_assembler_never_stalls(monkeypatch):
    # every min-norm point of the report commands' stationarity checks and
    # of a gamma estimate meets Wolfe's optimality gap, so none of them
    # comes from a stall or the iteration cap
    from vep import diagnostics as dg

    wolfe, gaps = geo.wolfe_min_norm, []

    def checked(points):
        x, idx, w = wolfe(points)
        xx = float(x @ x)
        gaps.append((xx - float(np.min(np.atleast_2d(points) @ x))) / max(1.0, xx))
        return x, idx, w

    monkeypatch.setattr(geo, "wolfe_min_norm", checked)
    for source, points in (("example:paper", [([0.0], [1.0]), ([0.5], [1.5]), ([1.0], [2.0])]),
                           (str(GENCONE), [([0.0], [1.0]), ([0.5], [1.5]), ([1.0], [2.0])]),
                           (str(POLYTOPE), [([0.0], [0.5, 0.5]), ([0.5], [0.75, 0.75])])):
        prob = pb.load(source)
        for xi, x in points:
            for grid in (None, (0.25, 0.5, 1.0)):
                sv.check_stationarity_general(prob, xi, x, grid, 0.5)
            for eps, l_f in (((0.05, 0.1), 1.0), ((0.02, 0.05, 0.1), 2.0)):
                sv.check_stationarity_smooth_concave(prob, xi, x, None, 0.5, eps, l_f)
    dg.estimate_gamma(pb.load(str(POLYTOPE)), [0.0], 1.0,
                      dg.SampleSpec(grid_shape=(11, 11), n_random=20, seed=3))
    assert len(gaps) > 500 and max(gaps) <= geo.TOL_MNP


def test_solver_and_checker_agree(tent):
    rng = np.random.default_rng(3)
    starts = [(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)) for _ in range(2)]
    (xi_b, x_b), _ = sv.solve_penalized(tent, sv.PenaltyConfig(), starts)
    rep = sv.check_stationarity_general(tent, xi_b, x_b, [0.5], gamma=0.5,
                                        tol_on_graph=0.05, tol_stat=1e-2)
    assert rep.residual <= 1e-2


# ---------------------------------------------------------------------------
# stationarity checker: smooth-concave form
# ---------------------------------------------------------------------------

def test_smooth_concave_stationary_at_minimizer(tent):
    rep = sv.check_stationarity_smooth_concave(
        tent, [0.0], [1.0], [0.5], gamma=0.5, eps_list=(0.05, 0.1), l_f=1.0)
    assert rep.verdict == sv.STATIONARY
    assert rep.residual <= 1e-9


def test_smooth_concave_monotone_wrt_general(tent):
    # the outer estimate contains the subgradient, so a stationary general
    # verdict stays stationary under the enlarged assembly
    gen = sv.check_stationarity_general(tent, [0.0], [1.0], [0.5], gamma=0.5)
    smc = sv.check_stationarity_smooth_concave(
        tent, [0.0], [1.0], [0.5], gamma=0.5, eps_list=(0.05, 0.1), l_f=1.0)
    assert gen.verdict == sv.STATIONARY
    assert smc.verdict == sv.STATIONARY


def test_smooth_concave_prune_hull_calls(monkeypatch):
    # a work count: with every factor discretized per (nu body, lambda,
    # mu branch) triple, this check made 33 calls, and 21 with the nu
    # bodies' Lipschitz ball summed as a 180-point ring per (nu body,
    # lambda); the ball taken exactly needs no hull; 9 with the 1-D unit
    # ball discretized per coderivative-ball product, not once per dimension;
    # a fresh instance, since ``load`` shares one whose cone cap may be warm
    geo._normal_cone.cache_clear()
    geo._unit_ball_points.cache_clear()
    prob = pb._builtin_tent()
    hull, calls = geo._prune_hull, []
    monkeypatch.setattr(geo, "_prune_hull", lambda pts: calls.append(None) or hull(pts))
    sv.check_stationarity_smooth_concave(prob, [0.0], [1.0], None, 0.5,
                                         eps_list=[0.05, 0.1], l_f=1.0)
    assert len(calls) == 8


def test_polytope_mu_products_take_no_hull(monkeypatch):
    # a work count: each of the two coderivative-ball products, a segment
    # times the 180-gon, is a 360-row vertex list by construction, so no
    # qhull call takes them
    prob = pb.load(str(POLYTOPE))
    hull, sizes = geo._prune_hull, []
    monkeypatch.setattr(geo, "_prune_hull", lambda pts: sizes.append(np.shape(pts)) or hull(pts))
    rep = sv.check_stationarity_general(prob, [0.0], [0.5, 0.5], None, 0.5)
    assert rep.verdict == sv.STATIONARY
    assert [s for s in sizes if s[1] >= 3 and s[0] > 3] == []
    bodies = sd.mu_subgradient_estimate(prob, [0.0], [0.5, 0.5]).bodies
    assert [b.points.shape for b in bodies] == [(360, 3), (360, 3)]


def test_smooth_concave_residual_table_per_eps(tent):
    rep = sv.check_stationarity_smooth_concave(
        tent, [0.0], [1.0], [0.5], gamma=0.5, eps_list=(0.05, 0.1), l_f=1.0)
    eps_seen = {row[0] for row in rep.residual_table}
    assert eps_seen == {0.05, 0.1}


def test_vi1_solve_reaches_the_minimizer():
    # tests/data/vi1.vep: min xi^2 + (x1 - 1)^2 over x1 = clip(xi, 0, 2) is
    # (1/2, 1/2); the starts are those of ``vep --seed 3 solve --starts 2``
    prob = pb.load(str(Path(__file__).resolve().parent / "data" / "vi1.vep"))
    rng = np.random.default_rng(3)
    (wlo, wup), (xlo, xup) = prob.xi_window(), prob.x_window()
    starts = [(rng.uniform(wlo, wup), rng.uniform(xlo, xup)) for _ in range(2)]
    (xi, x), _ = sv.solve_penalized(prob, sv.PenaltyConfig(seed=3), starts)
    assert np.max(np.abs(np.concatenate([xi, x]) - 0.5)) <= 1e-3
