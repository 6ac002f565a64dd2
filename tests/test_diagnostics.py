import math

import numpy as np
import pytest

from vep import diagnostics as dg
from vep import expr as ex
from vep import geometry as geo
from vep import merit as mr
from vep import problem as pb
from vep import subdiff as sd

from conftest import make_const_box

SMALL = dg.SampleSpec(grid_shape=(13, 13), n_random=40)


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
    # exact minimum, the witness stays the first tested sample
    tie = 0.75
    script = iter([tie, np.nextafter(tie, 0.0)])
    seen = []
    partial = sd.nu_partial_subgradient_smooth

    def record(prob, xi, x):
        seen.append((np.asarray(xi, dtype=float), np.asarray(x, dtype=float)))
        return partial(prob, xi, x)

    monkeypatch.setattr(sd, "nu_partial_subgradient_smooth", record)
    monkeypatch.setattr(geo, "min_norm_point", lambda body: (None, next(script, 1.0)))
    cert = dg.estimate_gamma(tent, [0.0], 1.0, dg.SampleSpec(grid_shape=(3, 5), n_random=0))
    assert len(seen) > 2
    assert cert.constant == np.nextafter(tie, 0.0)
    [(xi, x)] = cert.witnesses
    assert np.array_equal(xi, seen[0][0]) and np.array_equal(x, seen[0][1])


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


def test_kappa_against_ambient_space():
    # base point on the boundary so the sampling ball leaves the set
    d = lambda w: float(np.linalg.norm(np.maximum(np.abs(w) - 1.0, 0.0)))
    zero = lambda w: 0.0
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
