"""Command-line front end.

Commands: eval | check-erbo | check-subtransversality | check-stationarity |
solve | probe-stability | estimate-constants.  Reports are deterministic
given --seed; timings are printed in a separate trailing section so report
bodies can be diffed byte-for-byte.

Exit codes: 0 ok, 2 load/precondition error, 3 evaluation error,
4 refuted, 5 inconclusive, 6 penalized objective unbounded below or no
feasible incumbent.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import expr as ex
from . import geometry as geo
from . import merit as mr
from . import problem as pb
from . import solver as sv
from . import subdiff as sd

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_EVAL = 3
EXIT_REFUTED = 4
EXIT_INCONCLUSIVE = 5
EXIT_SOLVER = 6


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    if isinstance(v, (np.floating,)):
        return f"{float(v):.10g}"
    if isinstance(v, (np.integer,)):
        return str(int(v))
    if isinstance(v, np.ndarray):
        return _fmt(v.tolist())
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v[k])}" for k in sorted(v)) + "}"
    return str(v)


def _jsonable(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, (np.floating,)):
        return _jsonable(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


class Report:
    def __init__(self, command: str, problem_id: str, params: dict, seed: int):
        self.command = command
        self.problem_id = problem_id
        self.params = params
        self.seed = seed
        self.results: dict = {}
        self.flags: list[str] = []
        self.timings: dict = {}

    def body(self) -> dict:
        return {
            "command": self.command,
            "problem": self.problem_id,
            "version": __version__,
            "seed": self.seed,
            "params": self.params,
            "results": self.results,
            "flags": sorted(set(self.flags)),
        }

    def render(self, fmt: str) -> str:
        if fmt == "json-like":
            payload = _jsonable(self.body())
            return json.dumps(payload, indent=2, sort_keys=True)
        lines = []
        body = self.body()
        for key in ("command", "problem", "version", "seed"):
            lines.append(f"{key}: {_fmt(body[key])}")
        lines.append("params:")
        for k in sorted(body["params"]):
            lines.append(f"  {k}: {_fmt(body['params'][k])}")
        lines.append("results:")
        for k in sorted(body["results"]):
            lines.append(f"  {k}: {_fmt(body['results'][k])}")
        lines.append(f"flags: {_fmt(body['flags'])}")
        return "\n".join(lines)

    def render_timings(self) -> str:
        return "\n".join(
            f"time: {k}: {self.timings[k]:.3f}s" for k in sorted(self.timings)
        )


def _witness(w):
    """A witness as nested lists; a tuple converts block by block, since its
    blocks (xi and x, say) may differ in length."""
    if w is None:
        return None
    if isinstance(w, tuple):
        return [np.asarray(b, dtype=float).tolist() for b in w]
    return np.asarray(w, dtype=float).tolist()


def _cert_dict(cert: dg.Certificate) -> dict:
    return {
        "kind": cert.kind,
        "verdict": cert.verdict,
        "constant": cert.constant,
        "witnesses": [_witness(w) for w in cert.witnesses],
        "resolution": cert.resolution,
        "cert_flags": list(cert.flags),
    }


def _stat_dict(rep: sv.StationarityReport) -> dict:
    return {
        "point": rep.point,
        "lambda": rep.lam,
        "gamma": rep.gamma,
        "residual": rep.residual,
        "branch": rep.branch_id,
        "verdict": rep.verdict,
        "direction": rep.direction,
        "decomposition": rep.decomposition,
        "residual_table": rep.residual_table[:24],
        "stat_flags": list(rep.flags),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(prob, args, report: Report) -> int:
    me = mr.eval_merit(prob, args.xi, args.x, eps=args.epsilon)
    report.results.update({
        "nu": me.nu,
        "mu": me.mu,
        "merit": me.merit,
        "argmax_z": [list(map(float, z)) for z in me.argmax_z],
        "method": me.method,
    })
    report.flags.extend(me.flags)
    return EXIT_OK


def cmd_check_erbo(prob, args, report: Report) -> int:
    dg.check_error_bound_scope(prob)
    spec = dg.SampleSpec(seed=args.seed)
    cert_gamma = dg.estimate_gamma(prob, args.xi_bar, args.rho, spec)
    gamma = args.gamma if args.gamma is not None else 0.9 * cert_gamma.constant
    report.results["gamma_estimate"] = _cert_dict(cert_gamma)
    report.results["gamma_used"] = gamma
    if cert_gamma.verdict == dg.REFUTED:
        report.flags.append("gamma-condition-refuted")
        return EXIT_REFUTED
    cert_eb = dg.verify_error_bound(prob, args.xi_bar, args.rho, gamma)
    report.results["error_bound"] = _cert_dict(cert_eb)
    if cert_eb.verdict == dg.REFUTED:
        return EXIT_REFUTED
    if cert_eb.verdict == dg.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_check_subtransversality(prob, args, report: Report) -> int:
    xi_bar, x_bar = prob.point(args.xi_bar, args.x_bar)
    point = np.concatenate([xi_bar, x_bar])
    try:
        n_omega_gens = geo.normal_cone(prob.omega, xi_bar).branches[0]
    except geo.GeometryError as err:    # xi_bar off Omega: a bad argument, before any sampling
        raise pb.ProblemError(f"xi is not in the geometric set: {err}") from None
    n1 = geo.RayUnion((np.hstack([n_omega_gens, np.zeros((len(n_omega_gens), prob.n))]),))
    n2 = sd.graph_E_normals(prob, xi_bar, x_bar)
    cert_nc = dg.subtransversality_nc(n1, n2)
    report.results["normal_cone_test"] = _cert_dict(cert_nc)
    d1, d2, d12 = dg.graph_e_distance_oracles(
        prob, float(xi_bar[0] - args.radius), float(xi_bar[0] + args.radius))
    cert_k = dg.subtransversality_kappa(d1, d2, d12, point, args.radius)
    report.results["kappa"] = _cert_dict(cert_k)
    if cert_nc.verdict == dg.REFUTED:
        return EXIT_REFUTED
    if dg.INCONCLUSIVE in (cert_nc.verdict, cert_k.verdict):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_check_stationarity(prob, args, report: Report) -> int:
    lam_grid = args.lambda_grid
    if args.smooth_concave:
        rep = sv.check_stationarity_smooth_concave(
            prob, args.xi_bar, args.x_bar, lam_grid, args.gamma,
            eps_list=args.eps_list, l_f=args.lf)
    else:
        rep = sv.check_stationarity_general(
            prob, args.xi_bar, args.x_bar, lam_grid, args.gamma)
    report.results["stationarity"] = _stat_dict(rep)
    if rep.verdict == sv.REFUTED_BY_DIRECTION:
        return EXIT_REFUTED
    if rep.verdict == sv.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_solve(prob, args, report: Report) -> int:
    config = sv.PenaltyConfig(
        lambda_init=args.lambda0, growth=args.growth,
        lambda_max=args.lambda_max, gamma=args.gamma, seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    wlo, wup = prob.xi_window()
    xlo, xup = prob.x_window()
    starts = [(rng.uniform(wlo, wup), rng.uniform(xlo, xup))
              for _ in range(args.starts)]
    try:
        (xi_best, x_best), trace = sv.solve_penalized(prob, config, starts)
    except sv.SolverError as err:
        report.results["solver_error"] = str(err)
        return EXIT_SOLVER
    merit = float(mr.eval_merit_batch(prob, xi_best[None], x_best[None])[0])
    report.results.update({
        "incumbent_xi": xi_best.tolist(),
        "incumbent_x": x_best.tolist(),
        "incumbent_merit": merit,
        "incumbent_omega_dist": geo.dist(xi_best, prob.omega),
        "stages": sorted({t.lam for t in trace}),
        "trace_tail": [
            {"lambda": t.lam, "start": t.start_index, "value": t.best_value,
             "merit": t.merit}
            for t in trace[-4:]
        ],
    })
    if merit > sv.TOL_MERIT * 10 or \
            geo.dist(xi_best, prob.omega) > sv.TOL_MERIT * 10:
        report.flags.append("no-feasible-incumbent")
        return EXIT_SOLVER
    try:
        rep = sv.check_stationarity_general(
            prob, xi_best, x_best, None, config.gamma, tol_on_graph=0.05,
            tol_stat=1e-2)
        report.results["post_check"] = _stat_dict(rep)
        report.flags.append("post-check-near-graph")
    except sv.PreconditionError as err:
        report.results["post_check_error"] = str(err)
    return EXIT_OK


def cmd_probe_stability(prob, args, report: Report) -> int:
    cert = dg.stability_probe(prob, args.xi_bar, args.x_bar, args.gamma)
    report.results["stability"] = _cert_dict(cert)
    if cert.verdict == dg.REFUTED:
        return EXIT_REFUTED
    return EXIT_OK


def cmd_estimate_constants(prob, args, report: Report) -> int:
    lf = dg.estimate_lipschitz_f(prob, seed=args.seed)
    alpha = dg.estimate_openness_rate(prob, seed=args.seed)
    cert_g = dg.estimate_gamma(prob, args.xi_bar, args.rho,
                               dg.SampleSpec(seed=args.seed))
    xi_bar = np.atleast_1d(np.asarray(args.xi_bar, dtype=float))
    x0 = geo.project(np.zeros(prob.n), pb.slice_at(prob.K, xi_bar))
    cert_cb = dg.check_c_bounded(prob, xi_bar, x0)
    report.results.update({
        "lipschitz_f": lf,
        "openness_rate": alpha,
        "lf_lt_alpha": bool(lf < alpha),
        "gamma": _cert_dict(cert_g),
        "c_bounded": _cert_dict(cert_cb),
    })
    if not lf < alpha:
        report.flags.append("openness-hypothesis-fails")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _floats(text: str) -> list[float]:
    vals = [float(t) for t in text.split(",") if t.strip()]
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"non-finite entry in {text!r}")
    return vals


def _positive_floats(text: str) -> list[float]:
    vals = _floats(text)
    if not vals or min(vals) <= 0:
        raise argparse.ArgumentTypeError(f"entries must be positive, got {text!r}")
    return vals


def _checked(v, ok: bool, text: str, what: str):
    if not (math.isfinite(v) and ok):
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return v


def _positive_float(text: str) -> float:
    v = float(text)
    return _checked(v, v > 0, text, "positive and finite")


def _nonnegative_float(text: str) -> float:
    v = float(text)
    return _checked(v, v >= 0, text, "non-negative and finite")


def _growth_factor(text: str) -> float:
    # a factor of at most 1 never reaches --lambda-max
    v = float(text)
    return _checked(v, v > 1, text, "finite and greater than 1")


def _positive_int(text: str) -> int:
    v = int(text)
    return _checked(v, v > 0, text, "a positive integer")


def _nonnegative_int(text: str) -> int:
    v = int(text)
    return _checked(v, v >= 0, text, "a non-negative integer")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on first use:
    ``parse_args`` and ``error`` leave it unchanged, so ``main`` reuses it.
    Its defaults are immutable, since each parse hands them out as they are."""
    ap = argparse.ArgumentParser(
        prog="vep",
        description="merit functions, error bounds and stationarity checks "
                    "for equilibrium-constrained programs",
    )
    ap.add_argument("--seed", type=_nonnegative_int, default=0)
    ap.add_argument("--format", choices=("text", "json-like"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem file path or builtin id")

    p = sub.add_parser("eval", help="evaluate the merit functions at a point")
    common(p)
    p.add_argument("--xi", type=_floats, required=True)
    p.add_argument("--x", type=_floats, required=True)
    p.add_argument("--epsilon", type=_nonnegative_float, default=0.0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check-erbo", help="estimate gamma and verify the error bound")
    common(p)
    p.add_argument("--xi-bar", dest="xi_bar", type=_floats, required=True)
    p.add_argument("--rho", type=_positive_float, default=1.0)
    p.add_argument("--gamma", type=_positive_float, default=None)
    p.set_defaults(fn=cmd_check_erbo)

    p = sub.add_parser("check-subtransversality",
                       help="normal-cone and metric subtransversality tests")
    common(p)
    p.add_argument("--xi-bar", dest="xi_bar", type=_floats, required=True)
    p.add_argument("--x-bar", dest="x_bar", type=_floats, required=True)
    p.add_argument("--radius", type=_positive_float, default=0.5,
                   help="half-width of the window and grid of the kappa test")
    p.set_defaults(fn=cmd_check_subtransversality)

    p = sub.add_parser("check-stationarity", help="stationarity inclusion test")
    common(p)
    p.add_argument("--xi-bar", dest="xi_bar", type=_floats, required=True)
    p.add_argument("--x-bar", dest="x_bar", type=_floats, required=True)
    p.add_argument("--gamma", type=_positive_float, required=True)
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_positive_floats,
                   default=None)
    p.add_argument("--smooth-concave", action="store_true")
    p.add_argument("--eps-list", dest="eps_list", type=_positive_floats,
                   default=(0.05, 0.1))
    p.add_argument("--lf", type=_positive_float, default=1.0)
    p.set_defaults(fn=cmd_check_stationarity)

    p = sub.add_parser("solve", help="penalty-schedule pattern search")
    common(p)
    p.add_argument("--lambda0", type=_positive_float, default=0.5)
    p.add_argument("--growth", type=_growth_factor, default=2.0)
    p.add_argument("--lambda-max", dest="lambda_max", type=_positive_float, default=64.0)
    p.add_argument("--gamma", type=_positive_float, default=0.5)
    p.add_argument("--starts", type=_positive_int, default=5)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("probe-stability", help="solution-map stability probe")
    common(p)
    p.add_argument("--xi-bar", dest="xi_bar", type=_floats, required=True)
    p.add_argument("--x-bar", dest="x_bar", type=_floats, required=True)
    p.add_argument("--gamma", type=_positive_float, default=0.5)
    p.set_defaults(fn=cmd_probe_stability)

    p = sub.add_parser("estimate-constants",
                       help="Lipschitz constant, openness rate, gamma, boundedness")
    common(p)
    # the default, the origin of R^p, is set once the problem gives p
    p.add_argument("--xi-bar", dest="xi_bar", type=_floats, default=None)
    p.add_argument("--rho", type=_positive_float, default=1.0)
    p.set_defaults(fn=cmd_estimate_constants)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "solve" and args.lambda_max < args.lambda0:
        # the schedule would run no penalty stage
        ap.error("--lambda-max must be at least --lambda0")
    t0 = time.perf_counter()
    try:
        prob = pb.load(args.problem)
        if args.command == "estimate-constants" and args.xi_bar is None:
            args.xi_bar = [0.0] * prob.p
        if args.command == "eval":
            xi, x = args.xi, args.x
        else:
            xi, x = getattr(args, "xi_bar", None), getattr(args, "x_bar", None)
        if xi is not None:
            prob.point(xi, x)
    except (pb.ProblemError, ex.ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LOAD
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("fn", "command", "problem", "format") and v is not None
    }
    report = Report(args.command, prob.name, params, args.seed)
    # the shared parser holds the command functions it was built with; the
    # module's binding is called, so a wrapper set later (a tracer's) is kept
    fn = globals()[args.fn.__name__]
    try:
        code = fn(prob, args, report)
    except (sv.PreconditionError, pb.ProblemError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LOAD
    except (ex.EvalError, geo.GeometryError, sd.SubdiffError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EVAL
    report.timings["total"] = time.perf_counter() - t0
    print(report.render(args.format))
    print(report.render_timings())
    return code


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
