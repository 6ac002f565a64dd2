import math
from pathlib import Path

import numpy as np
import pytest

from vep import diagnostics as dg
from vep import expr as ex
from vep import geometry as geo
from vep import merit as mr
from vep import problem as pb
from vep import subdiff as sd

from _oracles import (lazy_fold_min_norm, per_pair_lipschitz_f, per_point_c_bounded_sups,
                      per_point_distance_oracles, per_point_error_bound, per_point_kappa,
                      per_sample_gamma, per_target_openness_rate)
from conftest import make_const_box

SMALL = dg.SampleSpec(grid_shape=(13, 13), n_random=40)
PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"


# ---------------------------------------------------------------------------
# gamma estimation
# ---------------------------------------------------------------------------

def test_gamma_on_worked_instance(tent):
    cert = dg.estimate_gamma(tent, [0.0], 1.0, SMALL)
    assert cert.verdict == dg.CERTIFIED
    assert cert.constant == pytest.approx(1.0, abs=1e-9)


def test_gamma_on_zero_f(zero_f):
    # only points outside the slice are non-solutions; there the x-block
    # subgradient is {0} and the truncated normal is a unit direction
    cert = dg.estimate_gamma(zero_f, [0.0], 1.0, SMALL)
    assert cert.verdict == dg.CERTIFIED
    assert cert.constant == pytest.approx(1.0, abs=1e-9)


def test_gamma_refuted_with_witness():
    # infeasible inner system: at the slice's upper endpoint the subgradient
    # and the normal cap cancel, so the sampled distance hits zero
    prob = make_const_box(f_comp="x1 - z1 - 1")
    cert = dg.estimate_gamma(prob, [0.0], 1.0, SMALL)
    assert cert.verdict == dg.REFUTED
    assert cert.constant <= 1e-9
    assert cert.witnesses and cert.witnesses[0] is not None


def test_gamma_errors_when_everything_solves(zero_f):
    spec = dg.SampleSpec(grid_shape=(5, 5), n_random=0,
                         x_window=(np.array([-0.5]), np.array([0.5])))
    with pytest.raises(pb.ProblemError, match="nothing to test"):
        dg.estimate_gamma(zero_f, [0.0], 0.4, spec)


def test_gamma_witness_is_the_first_sample_within_round_off(tent, monkeypatch):
    # the second tested sample is smaller by one ulp: the constant is the
    # exact minimum, the witness stays the first tested sample.  The first
    # sample's distance comes from the one-point pass and the second's from
    # the per-sample body, so the tie spans both paths of the sweep
    tie = 0.75
    seen, body_calls = [], []

    def one_point(prob, XI, X, far, rows):
        seen.extend((XI[i], X[i]) for i in rows)
        d = np.ones(len(rows))
        d[0], d[1] = tie, np.nan
        return d

    def body(prob, xi, x):
        body_calls.append((xi, x))
        return np.nextafter(tie, 0.0), ()

    monkeypatch.setattr(dg, "_one_point_min_norms", one_point)
    monkeypatch.setattr(dg, "_min_norm_body", body)
    cert = dg.estimate_gamma(tent, [0.0], 1.0, dg.SampleSpec(grid_shape=(3, 5), n_random=0))
    assert len(seen) > 2
    assert len(body_calls) == 1 and np.array_equal(body_calls[0][1], seen[1][1])
    assert cert.constant == np.nextafter(tie, 0.0)
    [(xi, x)] = cert.witnesses
    assert np.array_equal(xi, seen[0][0]) and np.array_equal(x, seen[0][1])


def _gamma_cases():
    gencone = pb.load(str(PROBLEMS / "gencone.vep"))
    polytope = pb.load(str(PROBLEMS / "polytope.vep"))
    mid = dg.SampleSpec(grid_shape=(21, 21), n_random=40)
    return {
        "paper": (pb.load("example:paper"), mid),
        "gencone": (gencone, mid),
        "polytope": (polytope, dg.SampleSpec(grid_shape=(5, 9), n_random=20)),
        # refuted: the scan stops at the slice's upper end, a normal-cap row
        "refuted-at-cap": (make_const_box(f_comp="x1 - z1 - 1"), SMALL),
        # refuted off the slice: the grid misses x = 1, so the scan stops at a
        # one-point row, where g = -1 and the outward unit t = 1 cancel
        "refuted-one-point": (make_const_box(f_comp="x1 - z1 - 1"),
                              dg.SampleSpec(grid_shape=(13, 12), n_random=40)),
        # a kink in x at the farthest vertex: branch-hull-at-argmax
        "kinked": (make_const_box(f_comp="abs(x1) - z1"), SMALL),
    }


@pytest.mark.parametrize("case", ["paper", "gencone", "polytope", "refuted-at-cap",
                                  "refuted-one-point", "kinked"])
def test_gamma_sweep_matches_the_per_sample_loop(case, monkeypatch):
    prob, spec = _gamma_cases()[case]
    body, calls = dg._min_norm_body, []
    monkeypatch.setattr(dg, "_min_norm_body", lambda *a: calls.append(a) or body(*a))
    cert = dg.estimate_gamma(prob, [0.0], 1.0, spec)
    constant, verdict, (xi, x), flags = per_sample_gamma(prob, [0.0], 1.0, spec)
    assert cert.constant == constant and cert.verdict == verdict
    [(w_xi, w_x)] = cert.witnesses
    assert np.array_equal(w_xi, xi) and np.array_equal(w_x, x)
    assert cert.flags == tuple(sorted(flags)) + ("subgradient_model: branch-hull",)
    if case == "kinked":
        assert "branch-hull-at-argmax" in cert.flags
    if case == "refuted-one-point":
        assert cert.verdict == dg.REFUTED and not calls
    if case in ("paper", "polytope", "refuted-at-cap", "kinked"):
        # normal-cap or kinked rows keep the per-sample body
        assert calls


@pytest.mark.parametrize("on_faces", [False, True])
def test_cap_folded_at_construction_keeps_every_n2_gamma_distance(on_faces, monkeypatch):
    # the truncated normal's cap is summed into its points before the
    # Minkowski sum with the subgradient body, not after it: on the
    # polytope (n = 2) every per-sample row keeps its distance bit for bit.
    # The problem's x window puts no grid point on a face of the slice, so
    # no row of the first case has a cap; the slice's own bounds put rows
    # of the second on its faces
    prob, spec = _gamma_cases()["polytope"]
    if on_faces:
        spec = dg.SampleSpec(grid_shape=spec.grid_shape, n_random=spec.n_random,
                             x_window=(np.array([-1.0, -1.0]), np.array([2.0, 2.0])))
    body, rows = dg._min_norm_body, []

    def record(*args):
        d, flags = body(*args)
        rows.append((args, d))
        return d, flags

    monkeypatch.setattr(dg, "_min_norm_body", record)
    dg.estimate_gamma(prob, [0.0], 1.0, spec)
    assert rows
    capped = 0
    for (_, xi, x), d in rows:
        assert d == lazy_fold_min_norm(prob, xi, x), (xi, x)
        capped += len(geo.truncated_normal(x, pb.slice_at(prob.K, xi)).points) > 1
    assert (capped > 0) == on_faces


# ---------------------------------------------------------------------------
# error bound
# ---------------------------------------------------------------------------

def test_error_bound_certified(tent):
    cert = dg.verify_error_bound(tent, [0.0], 1.0, 0.9, x_check=(-4, 4, 161))
    assert cert.verdict == dg.CERTIFIED


def test_error_bound_refuted_above_modulus(tent):
    cert = dg.verify_error_bound(tent, [0.0], 1.0, 5.0, x_check=(-4, 4, 161))
    assert cert.verdict == dg.REFUTED
    t, xv = cert.witnesses[0]
    d = pb.oracle_dist_to_solutions(tent, [t], [xv])
    assert d > mr.eval_merit(tent, [t], [xv]).merit / 5.0


def test_error_bound_inconclusive_when_no_solutions():
    prob = make_const_box(f_comp="x1 - z1 - 1")  # solution set empty
    cert = dg.verify_error_bound(prob, [0.0], 0.5, 0.9, x_check=(-2, 2, 41))
    assert cert.verdict == dg.INCONCLUSIVE
    assert "empty-solution-set" in cert.flags


def test_gamma_implies_error_bound(tent):
    cert = dg.estimate_gamma(tent, [0.0], 1.0, SMALL)
    eb = dg.verify_error_bound(tent, [0.0], 1.0, 0.9 * cert.constant,
                               x_check=(-4, 4, 81))
    assert eb.verdict == dg.CERTIFIED


@pytest.mark.parametrize("source, gamma", [
    ("example:paper", 0.9),
    ("example:paper", 1.0),
    # refuted: the first positive gaps are not the sweep's first points
    ("example:paper", 1.1),
    ("gencone.vep", 1.05),
    ("example:paper", 5.0),
    ("gencone.vep", 0.3),
    ("gencone.vep", 1.3),
    ("const-box", 0.9),
    ("empty-solutions", 0.9),
])
def test_error_bound_table_equals_the_double_loop(source, gamma):
    prob = {"const-box": lambda: make_const_box(),
            "empty-solutions": lambda: make_const_box(f_comp="x1 - z1 - 1")}.get(
        source, lambda: pb.load(source if source.startswith("example") else str(PROBLEMS / source)))()
    cert = dg.verify_error_bound(prob, [0.0], 1.0, gamma)
    verdict, witnesses, flags, worst = per_point_error_bound(prob, [0.0], 1.0, gamma)
    assert (cert.verdict, cert.flags) == (verdict, flags)
    assert len(cert.witnesses) == len(witnesses)
    for got, want in zip(cert.witnesses, witnesses):
        assert all(type(a) is type(b) and a == b for a, b in zip(got, want))
    assert cert.resolution.get("worst_gap") == worst
    if gamma in (1.1, 1.05):
        assert verdict == dg.REFUTED and witnesses[0][1] > -4.0


# ---------------------------------------------------------------------------
# strong slope
# ---------------------------------------------------------------------------

def test_strong_slope_values(tent):
    assert dg.strong_slope(tent, [0.0], [0.0]) == pytest.approx(1.0, abs=1e-9)
    assert dg.strong_slope(tent, [0.0], [1.0]) == 0.0
    assert dg.strong_slope(tent, [0.0], [-2.0]) == pytest.approx(2.0, abs=1e-9)


def test_strong_slope_dominates_gamma(tent):
    gamma = dg.estimate_gamma(tent, [0.0], 1.0, SMALL).constant
    rng = np.random.default_rng(0)
    for _ in range(25):
        t, xv = rng.uniform(-1, 1), rng.uniform(-4, 4)
        if mr.eval_merit(tent, [t], [xv]).merit <= 1e-9:
            continue
        assert dg.strong_slope(tent, [t], [xv]) >= gamma - 0.05


# ---------------------------------------------------------------------------
# subtransversality
# ---------------------------------------------------------------------------

def test_kappa_on_worked_instance(tent):
    d1, d2, d12 = dg.graph_e_distance_oracles(tent, -0.5, 0.5)
    cert = dg.subtransversality_kappa(d1, d2, d12, [0.0, 1.0], 0.5)
    assert cert.verdict == dg.CERTIFIED
    assert math.isfinite(cert.constant) and cert.constant <= 3.0


@pytest.mark.parametrize("source, center", [
    ("example:paper", (0.0, 1.0)), ("example:paper", (0.1, 1.3)), ("gencone.vep", (0.0, 1.0)),
    ("const-box", (0.0, 1.0)), ("far-omega", (0.0, 1.0))])
def test_kappa_rows_equal_the_per_point_loop(source, center):
    if source == "const-box":       # Omega = R: every row with d2 = 0 has max(d1, d2) = 0
        prob = make_const_box()
    elif source == "far-omega":     # Omega misses the graph: the intersection is empty
        prob = make_const_box(omega=geo.Box([5.0], [6.0]))
    else:
        prob = pb.load(source if source.startswith("example:") else str(PROBLEMS / source))
    lo, hi = center[0] - 0.5, center[0] + 0.5
    rows = dg.graph_e_distance_oracles(prob, lo, hi)
    points = per_point_distance_oracles(prob, lo, hi)
    W = pb._grid_points([np.linspace(c - 0.5, c + 0.5, 21) for c in center])
    for row, point in zip(rows, points):
        assert row(W).tolist() == [point(w) for w in W]
    cert = dg.subtransversality_kappa(*rows, center, 0.5)
    verdict, kappa, witnesses, flags = per_point_kappa(*points, center, 0.5)
    assert (cert.verdict, cert.flags) == (verdict, flags)
    assert cert.constant == kappa or (math.isnan(kappa) and math.isnan(cert.constant))
    assert [w.tolist() for w in cert.witnesses] == [w.tolist() for w in witnesses]
    skipped = np.maximum(rows[0](W), rows[1](W)) <= 1e-9
    if source == "far-omega":
        assert verdict == dg.INCONCLUSIVE
    elif source == "const-box":
        assert skipped.sum() > 1
    else:
        assert verdict == dg.CERTIFIED and skipped.any()


def test_kappa_against_ambient_space():
    # base point on the boundary so the sampling ball leaves the set
    d = lambda W: np.linalg.norm(np.maximum(np.abs(W) - 1.0, 0.0), axis=1)
    zero = lambda W: np.zeros(len(W))
    cert = dg.subtransversality_kappa(d, zero, d, [1.0, 0.0], 0.5)
    assert cert.constant == pytest.approx(1.0, abs=1e-9)
    cert = dg.subtransversality_kappa(d, d, d, [1.0, 0.0], 0.5)
    assert cert.constant == pytest.approx(1.0, abs=1e-9)


def test_nc_test_on_worked_instance(tent):
    n_omega = geo.normal_cone(tent.omega, [0.0]).branches[0]
    n1 = geo.RayUnion((np.hstack([n_omega, np.zeros((len(n_omega), 1))]),))
    n2 = sd.graph_E_normals(tent, [0.0], [1.0])
    cert = dg.subtransversality_nc(n1, n2)
    assert cert.verdict == dg.CERTIFIED


def test_nc_test_refutes_opposed_halflines():
    ray = geo.RayUnion((np.array([[1.0, 0.0]]),))
    flipped = geo.RayUnion((np.array([[-1.0, 0.0]]),))
    cert = dg.subtransversality_nc(ray, flipped)
    assert cert.verdict == dg.REFUTED
    assert np.allclose(cert.witnesses[0], [1.0, 0.0], atol=1e-6)


def test_nc_test_trivial_cone_certifies():
    zero = geo.RayUnion((np.zeros((0, 2)),))
    anything = geo.RayUnion((np.array([[1.0, 1.0], [1.0, -1.0]]),))
    assert dg.subtransversality_nc(zero, anything).verdict == dg.CERTIFIED


def test_nc_certified_implies_finite_kappa(tent):
    # sufficiency direction on the worked instance
    n_omega = geo.normal_cone(tent.omega, [0.0]).branches[0]
    n1 = geo.RayUnion((np.hstack([n_omega, np.zeros((len(n_omega), 1))]),))
    n2 = sd.graph_E_normals(tent, [0.0], [1.0])
    if dg.subtransversality_nc(n1, n2).verdict == dg.CERTIFIED:
        d1, d2, d12 = dg.graph_e_distance_oracles(tent, -0.5, 0.5)
        cert = dg.subtransversality_kappa(d1, d2, d12, [0.0, 1.0], 0.5)
        assert math.isfinite(cert.constant)


# ---------------------------------------------------------------------------
# boundedness, Lipschitz constant, openness
# ---------------------------------------------------------------------------

def test_c_bounded_on_compact_slices(tent):
    cert = dg.check_c_bounded(tent, [0.0], [0.0])
    assert cert.verdict == dg.CERTIFIED
    assert math.isfinite(cert.constant)


def test_c_bounded_inconclusive_on_window_growth():
    dims = (1, 1, 1)
    f = ex.VectorFunc((ex.parse("-z1", dims),), dims)
    K = pb.ParamBox((None,), (None,))
    prob = pb.VepProblem(
        "toy:growing", 1, 1, 1, f, geo.orthant(1), K,
        ex.parse("0", (1, 1, 0)), geo.full_space(1),
        window={"x": (np.array([-8.0]), np.array([8.0]))},
    )
    cert = dg.check_c_bounded(prob, [0.0], [0.0])
    assert cert.verdict == dg.INCONCLUSIVE
    assert "growing-at-edge" in cert.flags


def test_c_bounded_sup_zero_when_values_in_cone():
    prob = make_const_box(f_comp="abs(z1)")
    cert = dg.check_c_bounded(prob, [0.0], [0.0])
    assert cert.verdict == dg.CERTIFIED
    assert cert.constant == 0.0


def test_lipschitz_constant_of_worked_f(tent):
    lf = dg.estimate_lipschitz_f(tent)
    assert lf == pytest.approx(1.0, abs=1e-6)


def test_openness_rate_affine_map():
    dims = (1, 1, 1)
    f = ex.VectorFunc((ex.parse("2*z1", dims),), dims)
    K = pb.ParamBox((ex.parse("0 - 2", (1, 0, 0)),), (ex.parse("2", (1, 0, 0)),))
    prob = pb.VepProblem("toy:affine", 1, 1, 1, f, geo.orthant(1), K,
                         ex.parse("0", (1, 1, 0)), geo.full_space(1))
    assert dg.estimate_openness_rate(prob) == pytest.approx(2.0, abs=0.15)


def test_openness_rate_fails_on_thin_image(tent):
    # z-slices map into a line inside the plane: no ball coverage
    alpha = dg.estimate_openness_rate(tent)
    assert alpha <= 0.05
    assert not dg.estimate_lipschitz_f(tent) < alpha


def _affine_toy():
    """f = 2 z1 on K = [-2, 2]: the z-slices open at rate 2."""
    dims = (1, 1, 1)
    f = ex.VectorFunc((ex.parse("2*z1", dims),), dims)
    K = pb.ParamBox((ex.parse("0 - 2", (1, 0, 0)),), (ex.parse("2", (1, 0, 0)),))
    return pb.VepProblem("toy:affine", 1, 1, 1, f, geo.orthant(1), K,
                         ex.parse("0", (1, 1, 0)), geo.full_space(1))


SAMPLER_PROBLEMS = {
    "paper": lambda: pb.load("example:paper"),
    "gencone": lambda: pb.load(str(PROBLEMS / "gencone.vep")),
    "polytope": lambda: pb.load(str(PROBLEMS / "polytope.vep")),
    "affine-toy": _affine_toy,
}


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("name", list(SAMPLER_PROBLEMS))
def test_lipschitz_pass_equals_the_pair_loop(name, seed, monkeypatch):
    prob = SAMPLER_PROBLEMS[name]()
    f_values, ends = mr._f_values, []
    monkeypatch.setattr(mr, "_f_values", lambda prob, XI, X, Z: ends.append(np.hstack([XI, X]))
                        or f_values(prob, XI, X, Z))
    lf = dg.estimate_lipschitz_f(prob, seed)
    best, A, B = per_pair_lipschitz_f(prob, seed)
    assert lf == best
    # the merged draws give the same pairs, bit for bit
    assert len(ends) == 2 and np.array_equal(ends[0], A) and np.array_equal(ends[1], B)


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("name", list(SAMPLER_PROBLEMS))
def test_openness_pass_equals_the_per_target_bisection(name, seed):
    prob = SAMPLER_PROBLEMS[name]()
    alpha = dg.estimate_openness_rate(prob, seed)
    assert alpha == per_target_openness_rate(prob, seed)
    if name == "affine-toy":     # a bisection that moves: alpha is near 2
        assert alpha == pytest.approx(2.0, abs=0.15)


def test_c_bounded_filters_a_truncated_slice_to_its_members():
    # K(0) is the quadrant z >= 0, cut by the window to [0, 3]^2; f >= 0 on it
    prob = pb.parse_problem_text(
        "[problem]\np = 1\nn = 2\nm = 1\nwindow_x = -2, 3\n[cone]\ntype = orthant\n"
        "[K]\ntype = polytope\nA = -1, 0 ; 0, -1\nb = 0 ; 0\n"
        "[f]\ncomponents = z1 + z2 + x1 - x1\n[objective]\nexpr = x1\n", "toy:quadrant")
    cert = dg.check_c_bounded(prob, [0.0], [0.0, 0.0])
    assert cert.verdict == dg.CERTIFIED and cert.constant == 0.0
    assert cert.flags == ("window-truncated",)
    assert per_point_c_bounded_sups(prob, [0.0], [0.0, 0.0]) == [0.0] * 4


@pytest.mark.parametrize("name, xi, x0", [("paper", [0.0], [0.0]), ("gencone", [0.3], [1.0]),
                                          ("polytope", [0.0], [0.5, 0.5])])
def test_c_bounded_pass_equals_the_per_point_loop(name, xi, x0):
    prob = SAMPLER_PROBLEMS[name]()
    cert = dg.check_c_bounded(prob, xi, x0)
    assert [cert.constant] == per_point_c_bounded_sups(prob, xi, x0)


# ---------------------------------------------------------------------------
# stability probe
# ---------------------------------------------------------------------------

def test_stability_probe_worked_instance(tent):
    cert = dg.stability_probe(tent, [0.0], [1.0], 0.9)
    assert cert.verdict == dg.CERTIFIED
    assert cert.resolution["beta_calm"] == pytest.approx(1.0, abs=1e-6)
    assert cert.resolution["aubin_ratio"] <= cert.constant + 0.2


def test_stability_probe_constant_map(const_box):
    cert = dg.stability_probe(const_box, [0.0], [1.0], 0.9)
    assert cert.verdict == dg.CERTIFIED
    assert cert.resolution["aubin_ratio"] == pytest.approx(0.0, abs=1e-9)

