"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -v -s to see them).  Budgeted runtimes are asserted where the
criterion names one.
"""

import time

import numpy as np
import pytest

from vep import cli
from vep import diagnostics as dg
from vep import geometry as geo
from vep import merit as mr
from vep import problem as pb
from vep import solver as sv
from vep import subdiff as sd

from _oracles import fd_gradient, sampled_min_norm


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}) {detail}"


@pytest.fixture(scope="module")
def tent():
    return pb.load("example:paper")


def test_criterion_1_excess_closed_form(tent):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3.0, 3.0, size=(10000, 2))
    worst = 0.0
    methods = set()
    for t, xv in pts:
        ne = mr.eval_nu(tent, [t], [xv])
        methods.add(ne.method)
        worst = max(worst, abs(ne.value - max(abs(t) + 1.0 - xv, 0.0)))
    elapsed = time.perf_counter() - t0
    report(1, "excess closed form", worst <= 1e-9 and methods == {"vertex-exact"}
           and elapsed < 5.0, f"worst={worst:.2e} time={elapsed:.2f}s")


def test_criterion_2_solution_map(tent):
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
        sols = pb.oracle_solutions(tent, [t])
        step = 2.0 * (abs(t) + 1.0) / (pb.OracleGrid().x_resolution - 1)
        if len(sols) == 0 or np.max(np.abs(sols[:, 0] - (abs(t) + 1.0))) > step + 1e-12:
            ok = False
            detail = f"xi={t}"
    elapsed = time.perf_counter() - t0
    report(2, "solution map", ok and elapsed < 10.0, detail or f"time={elapsed:.2f}s")


def test_criterion_3_solution_point_subgradient(tent):
    # vertex set of the excess subdifferential at the solution point, to 1e-9
    est = sd.nu_subgradient_full(tent, [0.0], [1.0])
    got = sorted(map(tuple, np.asarray(est.body.points)))
    expect = sorted([(-1.0, -1.0), (1.0, -1.0), (0.0, 0.0)])
    ok = len(got) == 3 and all(
        max(abs(a - b) for a, b in zip(g, e)) <= 1e-9 for g, e in zip(got, expect)
    )
    report(3, "solution-point subgradient vertices", ok, f"got={got}")


def test_criterion_4_coderivative_table(tent):
    ok = True
    detail = ""
    for v in (-1.0, -0.5, 0.0, 0.5):
        img = sd.coderivative_K(tent, [0.0], [1.0], [v])
        got = sorted(round(float(p[0]), 12) for p in img.points)
        expect = [] if v > 0 else sorted({-v, v})
        if got != pytest.approx(expect, abs=1e-9) if expect else len(got) != 0:
            ok = False
            detail = f"v={v} got={got}"
    report(4, "coderivative table", ok, detail)


def test_criterion_5a_stationarity_identity(tent):
    rep = sv.check_stationarity_general(tent, [0.0], [1.0], [0.5], gamma=0.5)
    ok = rep.verdict == sv.STATIONARY and rep.residual <= 1e-9
    # the reported decomposition really sums to zero within each summand set
    parts = [np.asarray(p) for p in rep.decomposition]
    ok = ok and np.linalg.norm(sum(parts)) <= 1e-9
    # the identity (0,2) + (0,0) + (0,-1) + (0,-1) = 0 holds summand-wise
    lam = gam = 0.5
    phi = sv._phi_body(tent, np.array([0.0]), np.array([1.0]))

    def scaled(b, t):
        return geo.ConvexBody(b.dim, t * b.points, ball=t * b.ball)

    omega = scaled(sv._omega_cap_body(tent, np.array([0.0])), lam)
    nu = scaled(sd.nu_subgradient_full(tent, [0.0], [1.0]).body, lam / gam)
    kbr = [scaled(b, lam / gam) for b in sd.mu_subgradient_estimate(tent, [0.0], [1.0]).bodies]
    ok = ok and geo.body_contains(phi, [0.0, 2.0], tol=1e-9)
    ok = ok and geo.body_contains(omega, [0.0, 0.0], tol=1e-9)
    ok = ok and geo.body_contains(nu, [0.0, -1.0], tol=1e-9)
    ok = ok and any(geo.body_contains(b, [0.0, -1.0], tol=1e-9) for b in kbr)
    report("5a", "stationarity identity at the solution", ok,
           f"verdict={rep.verdict} residual={rep.residual:.2e}")


def test_criterion_5b_refutation_off_solution(tent):
    # at (0.5, 1.5): xi is interior to Omega, grad phi = (1, 3),
    # d nu = conv{0, (1,-1)} and d mu = conv{0, (-1,1)}.  Along
    # d = -(1,1)/sqrt(2) nu and mu stay at 0 while phi falls at rate
    # 4/sqrt(2), for every lambda; up to scale it is the only d with
    # sigma_phi(d) < 0 and sigma_nu(d) + sigma_mu(d) = |d1 - d2| <= 0.
    # (Along (-1, 0) the penalized slope is -1 + lambda/gamma >= 0 once
    # lambda >= gamma, so that direction separates for no valid certificate.)
    rep = sv.check_stationarity_general(tent, [0.5], [1.5], None, gamma=0.5)
    separator = -np.ones(2) / np.sqrt(2.0)
    ok = (rep.verdict == sv.REFUTED_BY_DIRECTION
          and rep.direction is not None
          and np.linalg.norm(np.asarray(rep.direction)
                             / np.linalg.norm(rep.direction) - separator) <= 1e-9)
    report("5b", "refutation off the solution", ok,
           f"verdict={rep.verdict} residual={rep.residual:.2e} "
           f"direction={rep.direction} (expected -(1,1)/sqrt(2): phi falls "
           f"at rate 4/sqrt(2) while nu and mu stay at 0, for every lambda)")


def test_criterion_6_error_bound_reproduction(tent):
    t0 = time.perf_counter()
    cert = dg.estimate_gamma(tent, [0.0], 1.0)
    ok = 0.99 <= cert.constant <= 1.01 and cert.verdict == dg.CERTIFIED
    eb = dg.verify_error_bound(tent, [0.0], 1.0, 0.9, x_check=(-4.0, 4.0, 161))
    ok = ok and eb.verdict == dg.CERTIFIED
    elapsed = time.perf_counter() - t0
    report(6, "error-bound reproduction", ok and elapsed < 30.0,
           f"gamma={cert.constant:.6f} eb={eb.verdict} time={elapsed:.1f}s")


def test_criterion_7_solver_convergence(tent):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    starts = [(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)) for _ in range(5)]
    (xi_b, x_b), trace = sv.solve_penalized(tent, sv.PenaltyConfig(), starts)
    err = float(np.hypot(xi_b[0], x_b[0] - 1.0))
    stages = len(sorted({t.lam for t in trace}))
    elapsed = time.perf_counter() - t0
    report(7, "solver convergence", err <= 1e-3 and stages <= 4 and elapsed < 60.0,
           f"err={err:.2e} stages={stages} time={elapsed:.1f}s")


def test_criterion_8_property_suite(tent):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    notes = []

    # projection firmness
    S = geo.Box([-1.0, 0.0], [2.0, 3.0])
    for _ in range(200):
        a, b = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        if np.linalg.norm(geo.project(a, S) - geo.project(b, S)) > \
                np.linalg.norm(a - b) + 1e-9:
            ok, notes = False, notes + ["firmness"]
            break

    # normal-cone product rule
    s1, s2 = geo.Box([0.0], [1.0]), geo.Box([-1.0], [1.0])
    prod = geo.Box([0.0, -1.0], [1.0, 1.0])
    for x1, x2 in [(0.0, 1.0), (1.0, -1.0), (0.0, 0.0)]:
        g1 = geo.normal_cone(s1, [x1]).branches[0]
        g2 = geo.normal_cone(s2, [x2]).branches[0]
        gp = geo.normal_cone(prod, [x1, x2]).branches[0]
        expect = [np.r_[g, 0.0] for g in g1] + [np.r_[0.0, g] for g in g2]
        ca = geo.generated_cone(np.asarray(expect) if expect else np.zeros((0, 2)))
        cb = geo.generated_cone(gp if len(gp) else np.zeros((0, 2)))
        if not all(geo.cone_contains(cb, g) for g in expect) or \
                not all(geo.cone_contains(ca, g) for g in gp):
            ok, notes = False, notes + ["product-rule"]

    # min-norm vs dense sampling (cone-cap discretization slack 0.02)
    for _ in range(4):
        pts = rng.uniform(-2, 2, size=(6, 2)) + rng.uniform(-1, 1, 2)
        body = geo.body_from_points(pts, ball=float(rng.uniform(0, 0.3)))
        _, d = geo.min_norm_point(body)
        oracle = sampled_min_norm(body.points, body.ball, n=8000)
        if not (d <= oracle + 1e-9 and oracle - d <= 0.02):
            ok, notes = False, notes + ["min-norm"]

    # FD vs formula subgradient agreement at smooth points (1e-4)
    checked = 0
    for _ in range(100):
        t, xv = rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)
        if abs(xv - (abs(t) + 1)) < 5e-2 or checked >= 40:
            continue
        est = sd.nu_partial_subgradient_smooth(tent, [t], [xv])
        if len(est.body.points) != 1:
            continue
        g = fd_gradient(lambda v: mr.eval_nu(tent, [t], v).value, [xv], h=1e-6)
        if np.max(np.abs(est.body.points[0] - g)) > 1e-4:
            ok, notes = False, notes + [f"fd-subgradient@({t:.3f},{xv:.3f})"]
        checked += 1

    # merit semicontinuity and convexity probes
    lsc_ok, _ = mr.probe_lower_semicontinuity(tent, n_sequences=50, seed=2)
    cvx_ok, _ = mr.probe_midpoint_convexity(tent, "nu", n_segments=300, seed=2)
    if not (lsc_ok and cvx_ok):
        ok, notes = False, notes + ["merit-probes"]

    # oracle / merit zero-level equivalence
    grid = pb.OracleGrid(x_resolution=41)
    for t in (-0.5, 0.75):
        sols = set(np.round(pb.oracle_solutions(tent, [t], grid)[:, 0], 9))
        S = pb.slice_at(tent.K, [t])
        for xv in np.linspace(S.lower[0], S.upper[0], 41):
            inside = round(float(xv), 9) in sols
            zero = mr.eval_merit(tent, [t], [xv]).merit <= 1e-9 + 1e-12
            if inside != zero:
                ok, notes = False, notes + ["zero-level"]

    # gamma condition implies the error bound
    cert = dg.estimate_gamma(tent, [0.0], 1.0,
                             dg.SampleSpec(grid_shape=(13, 13), n_random=40))
    eb = dg.verify_error_bound(tent, [0.0], 1.0, 0.9 * cert.constant,
                               x_check=(-4.0, 4.0, 81))
    if eb.verdict != dg.CERTIFIED:
        ok, notes = False, notes + ["gamma-erbo"]

    # strong slope dominates the sampled gamma at non-solutions
    for _ in range(15):
        t, xv = rng.uniform(-1, 1), rng.uniform(-4, 4)
        if mr.eval_merit(tent, [t], [xv]).merit <= 1e-9:
            continue
        if dg.strong_slope(tent, [t], [xv]) < cert.constant - 0.05:
            ok, notes = False, notes + [f"slope@({t:.3f},{xv:.3f})"]

    elapsed = time.perf_counter() - t0
    report(8, "property suite", ok and elapsed < 30.0,
           ",".join(notes) + f" time={elapsed:.1f}s")


def _run_body(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, "\n".join(l for l in out.splitlines() if not l.startswith("time:"))


def test_criterion_9_cli_determinism(capsys, tmp_path):
    commands = [
        ["--seed", "3", "eval", "example:paper", "--xi", "0.3", "--x", "-0.7"],
        ["--seed", "3", "check-erbo", "example:paper", "--xi-bar", "0",
         "--rho", "1", "--gamma", "0.9"],
        ["--seed", "3", "check-subtransversality", "example:paper",
         "--xi-bar", "0", "--x-bar", "1"],
        ["--seed", "3", "check-stationarity", "example:paper",
         "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.5"],
        ["--seed", "3", "solve", "example:paper", "--starts", "2"],
        ["--seed", "3", "probe-stability", "example:paper",
         "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.9"],
        ["--seed", "3", "estimate-constants", "example:paper"],
        ["--seed", "3", "--format", "json-like", "eval", "example:paper",
         "--xi", "0", "--x", "0"],
    ]
    ok = True
    detail = ""
    for argv in commands:
        c1, b1 = _run_body(argv, capsys)
        c2, b2 = _run_body(argv, capsys)
        if b1 != b2 or c1 != c2:
            ok = False
            detail = " ".join(argv)
            break
    report(9, "CLI determinism", ok, detail)
