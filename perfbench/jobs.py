"""Workload job lists and the per-job output checks.

A job is one CLI command, run in-process through ``vep.cli.main`` with
``--format json-like``.  A workload is a fixed list of jobs (one pass),
cheap jobs first, so that a partly repeated pass samples the same jobs on
every seed; the benchmark seed picks the ``--seed`` each job passes to the
CLI.

A job fails when it raises, exits outside the documented codes, breaks a
closed form of its problem, or prints a malformed certificate.  Verdicts
that are disputed today (the general check at (0.5, 1.5)) are not pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
import traceback
from dataclasses import dataclass

PAPER = "example:paper"
GENCONE = "perfbench/problems/gencone.vep"
POLYTOPE = "perfbench/problems/polytope.vep"
BENCH_PROBLEMS = (GENCONE, POLYTOPE)

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}
STATIONARY = "stationary-within-tol"
REFUTED_BY_DIRECTION = "refuted-by-direction"
CERTIFIED = "certified-on-samples"
# loosest stationarity tolerance any command uses (the solve post-check)
STAT_TOL = 1e-2
# the polytope solve's post-check needs sampled graph normals, which exist
# for p = n = 1 only; the CLI then exits 3 without a report
POLYTOPE_POST_CHECK_LIMIT = "sampled graph normals implemented for p = n = 1"

STATIONARITY_POINTS = (("0", "1"), ("0.5", "1.5"), ("1", "2"))
STATIONARITY_MODES = (
    ("general", ()),
    ("smooth-concave", ("--smooth-concave",)),
    ("lambda-grid", ("--lambda-grid", "0.25,0.5,1")),
)


@dataclass(frozen=True)
class JobSpec:
    key: str          # stable name of the job within a pass
    command: str      # CLI command, used to group per-command medians
    problem: str
    args: tuple       # command arguments after the problem
    solution: tuple   # closed-form minimizer (xi..., x...) of the problem


@dataclass
class JobResult:
    key: str
    command: str
    argv: list
    seconds: float
    exit: int | None
    failure: str | None
    digest: str
    note: str | None = None


def _stationarity_jobs(problem: str, solution: tuple) -> list[JobSpec]:
    jobs = []
    for xi, x in STATIONARITY_POINTS:
        for mode, extra in STATIONARITY_MODES:
            jobs.append(JobSpec(
                f"stationarity-{mode}@({xi},{x})", "check-stationarity", problem,
                ("--xi-bar", xi, "--x-bar", x, "--gamma", "0.5") + extra, solution))
    return jobs


def _paper_certify() -> list[JobSpec]:
    sol = (0.0, 1.0)
    return [
        JobSpec("solve", "solve", PAPER, ("--starts", "2"), sol),
        *_stationarity_jobs(PAPER, sol),
        JobSpec("stability", "probe-stability", PAPER,
                ("--xi-bar", "0", "--x-bar", "1", "--gamma", "0.9"), sol),
        JobSpec("subtrans", "check-subtransversality", PAPER,
                ("--xi-bar", "0", "--x-bar", "1"), sol),
        JobSpec("constants", "estimate-constants", PAPER,
                ("--xi-bar", "0", "--rho", "1"), sol),
        JobSpec("erbo-a", "check-erbo", PAPER, ("--xi-bar", "0", "--rho", "1"), sol),
        JobSpec("erbo-b", "check-erbo", PAPER, ("--xi-bar", "0", "--rho", "1"), sol),
    ]


def _gencone_oracle() -> list[JobSpec]:
    sol = (0.0, 1.0)
    return [
        JobSpec("solve", "solve", GENCONE, ("--starts", "2"), sol),
        *_stationarity_jobs(GENCONE, sol),
        JobSpec("stability", "probe-stability", GENCONE,
                ("--xi-bar", "0", "--x-bar", "1", "--gamma", "0.9"), sol),
    ]


def _polytope_solve() -> list[JobSpec]:
    sol = (0.0, 0.5, 0.5)
    return [
        JobSpec("solve-a", "solve", POLYTOPE, ("--starts", "1"), sol),
        JobSpec("solve-b", "solve", POLYTOPE, ("--starts", "1"), sol),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple   # every problem the workload loads (for setup_s)
    warmup: JobSpec   # untimed first job
    passes: tuple     # the job list of one pass


WORKLOADS = {
    "paper-certify": Workload(
        "paper-certify", (PAPER,),
        JobSpec("warmup", "check-stationarity", PAPER,
                ("--xi-bar", "0", "--x-bar", "1", "--gamma", "0.5", "--smooth-concave"),
                (0.0, 1.0)),
        tuple(_paper_certify())),
    "polytope-solve": Workload(
        "polytope-solve", (POLYTOPE,),
        JobSpec("warmup", "eval", POLYTOPE, ("--xi", "0", "--x", "0.5,0.5"),
                (0.0, 0.5, 0.5)),
        tuple(_polytope_solve())),
    "gencone-oracle": Workload(
        "gencone-oracle", (GENCONE,),
        JobSpec("warmup", "check-stationarity", GENCONE,
                ("--xi-bar", "0", "--x-bar", "1", "--gamma", "0.5", "--smooth-concave"),
                (0.0, 1.0)),
        tuple(_gencone_oracle())),
}


def cli_seed(bench_seed: int, pass_index: int, job_index: int) -> int:
    """The --seed a job passes to the CLI; a pure function of its position."""
    return random.Random(f"{bench_seed}/{pass_index}/{job_index}").randrange(2**31)


def argv_for(spec: JobSpec, seed: int) -> list[str]:
    return ["--seed", str(seed), "--format", "json-like", spec.command,
            spec.problem, *spec.args]


# ---------------------------------------------------------------------------
# running and checking one job
# ---------------------------------------------------------------------------

_TIME_LINE = re.compile(r"^time: .*$", re.MULTILINE)


class SolveCapture:
    """Keeps the incumbent of the last ``solver.solve_penalized`` call.

    A polytope solve whose post-check exits 3 prints no report; the captured
    incumbent still lets the job be checked against the closed form.  The
    wrapper adds one Python call per solve.
    """

    def __init__(self):
        self.incumbent = None
        self._original = None

    def install(self):
        from vep import solver
        self._original = original = solver.solve_penalized

        def capture(*args, **kwargs):
            out = original(*args, **kwargs)
            self.incumbent = tuple(float(v) for part in out[0] for v in part)
            return out

        solver.solve_penalized = capture

    def restore(self):
        from vep import solver
        solver.solve_penalized = self._original


def run_job(main, spec: JobSpec, seed: int, capture: SolveCapture) -> JobResult:
    """Run one job through ``main`` with its output captured, then check it."""
    argv = argv_for(spec, seed)
    capture.incumbent = None
    out, err = io.StringIO(), io.StringIO()
    failure = None
    code = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a job that raises is recorded, the run goes on
            failure = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = time.perf_counter() - t0
    body = _TIME_LINE.sub("", out.getvalue()).strip()
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    note = None
    if failure is None:
        failure, note = check_job(spec, code, body, err.getvalue(), capture.incumbent)
    return JobResult(spec.key, spec.command, argv, seconds, code, failure, digest, note)


def check_job(spec: JobSpec, code, body: str, stderr: str, incumbent):
    """Return (failure or None, note or None) for one finished job."""
    if code not in DOCUMENTED_EXITS:
        return f"undocumented exit code {code!r}", None
    if spec.problem == POLYTOPE and spec.command == "solve" and code == 3 \
            and POLYTOPE_POST_CHECK_LIMIT in stderr:
        if incumbent is None or not _close(incumbent, spec.solution, 1e-3):
            return f"incumbent {incumbent} not within 1e-3 of {spec.solution}", None
        return None, "exit-3-post-check-unsupported"
    if code in (2, 3):
        return f"exit {code}: {stderr.strip()[:200]}", None
    try:
        doc = json.loads(body)
    except ValueError:
        return "report body is not JSON", None
    res = doc.get("results", {})
    try:
        return _check_results(spec, code, res), None
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {exc!r}", None


def _close(a, b, tol) -> bool:
    return len(a) == len(b) and math.dist(a, b) <= tol


def _check_gamma(cert: dict) -> str | None:
    g = float(cert["constant"])
    if not 0.99 <= g <= 1.01:
        return f"gamma {g} outside [0.99, 1.01]"
    return None


def _check_results(spec: JobSpec, code: int, res: dict) -> str | None:
    cmd = spec.command
    if cmd == "eval":
        merit = float(res["merit"])
        return None if merit <= 1e-9 else f"merit {merit} at the minimizer"
    if cmd == "check-erbo":
        if spec.problem != PAPER:
            return None
        verdict = res["error_bound"]["verdict"]
        if verdict != CERTIFIED:  # acceptance criterion 6 on the worked instance
            return f"error bound verdict {verdict}"
        return _check_gamma(res["gamma_estimate"])
    if cmd == "estimate-constants":
        for key in ("lipschitz_f", "openness_rate"):
            if not math.isfinite(float(res[key])):
                return f"{key} not finite"
        return _check_gamma(res["gamma"]) if spec.problem == PAPER else None
    if cmd == "check-subtransversality":
        for key in ("normal_cone_test", "kappa"):
            if not res[key]["verdict"]:
                return f"{key} without verdict"
        return None
    if cmd == "probe-stability":
        verdict = res["stability"]["verdict"]
        # E(xi) = [1, |xi| + 1] on both p = n = 1 instances: lsc and Aubin at (0, 1)
        return None if verdict == CERTIFIED else f"stability verdict {verdict}"
    if cmd == "check-stationarity":
        return _check_stationarity(spec, res["stationarity"])
    if cmd == "solve":
        if code != 0:
            return f"solve exit {code}"
        got = tuple(res["incumbent_xi"]) + tuple(res["incumbent_x"])
        if not _close(got, spec.solution, 1e-3):
            return f"incumbent {got} not within 1e-3 of {spec.solution}"
        if "post_check" in res:
            return _check_certificate_shape(res["post_check"])
        return None
    return f"no check for command {cmd}"


def _check_stationarity(spec: JobSpec, rep: dict) -> str | None:
    point = tuple(rep["point"][0]) + tuple(rep["point"][1])
    if _close(point, spec.solution, 1e-12) and rep["verdict"] != STATIONARY:
        return f"verdict {rep['verdict']} at the solution point"
    return _check_certificate_shape(rep)


def _check_certificate_shape(rep: dict) -> str | None:
    verdict = rep["verdict"]
    if verdict == STATIONARY:
        parts = rep["decomposition"]
        if not parts:
            return "stationary verdict without a decomposition"
        total = [sum(col) for col in zip(*parts)]
        norm = math.hypot(*total)
        if norm > STAT_TOL:
            return f"decomposition sums to norm {norm}"
    elif verdict == REFUTED_BY_DIRECTION:
        d = rep["direction"]
        if not d or math.hypot(*d) <= 0.0:
            return "refutation without a direction"
    return None
