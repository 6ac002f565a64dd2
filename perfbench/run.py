"""Closed-loop benchmark of the vep command line.

One caller runs a fixed, seeded job list of CLI commands in-process through
``vep.cli.main`` and waits for each reply; every job's report is checked.

    python3 perfbench/run.py --workload paper-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports vep from ``src/``.  With
``--trace 0`` it times the job list untraced for about ``--seconds`` seconds
(whole job list at least once) and reports the end-to-end metrics; with
``--trace 1`` it runs each job of the list once untraced and once with spans
around the public functions of every module, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Job
logs and spans go to ``.bench_out/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os

# pinned before numpy loads: single-threaded BLAS and vep sweeps
THREAD_VARS = ("VEP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
COMMAND_METRICS = (
    ("erbo_s", "check-erbo"),
    ("constants_s", "estimate-constants"),
    ("subtrans_s", "check-subtransversality"),
    ("stationarity_s", "check-stationarity"),
    ("stability_s", "probe-stability"),
    ("solve_s", "solve"),
)
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import vep
from vep import problem
for source in sys.argv[1:]:
    problem.load(source)
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(problems) -> list[float]:
    """Fresh interpreters: ``import vep`` plus loading the workload's problems."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, *problems],
                             cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# problem checks (closed forms written in the problem files)
# ---------------------------------------------------------------------------

def check_problems(workload: str, seed: int) -> list[str]:
    """Both bench problems parse; on gencone-oracle the oracle reproduces
    E(xi) = [1, |xi| + 1] at xi = 0 and two seeded xi."""
    from vep import problem as pb

    failures = []
    loaded = {}
    for source in jobs.BENCH_PROBLEMS:
        try:
            loaded[source] = pb.load(source)
        except (pb.ProblemError, ValueError) as err:
            failures.append(f"{source}: {err}")
    prob = loaded.get(jobs.GENCONE)
    if workload == "gencone-oracle" and prob is not None:
        rng = random.Random(f"oracle/{seed}")
        grid = pb.OracleGrid()
        for xi in (0.0, round(rng.uniform(-1.5, 1.5), 6), round(rng.uniform(-1.5, 1.5), 6)):
            sols = pb.oracle_solutions(prob, [xi])
            step = 2 * (abs(xi) + 1) / (grid.x_resolution - 1)
            lo, hi = (float(sols.min()), float(sols.max())) if len(sols) else (None, None)
            if lo is None or abs(lo - 1) > step or abs(hi - (abs(xi) + 1)) > step:
                failures.append(f"oracle E({xi}) = [{lo}, {hi}], expected "
                                f"[1, {abs(xi) + 1}]")
    return failures


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_loop(main, wl: jobs.Workload, seed: int, seconds: float, log, capture) -> list:
    """Cycle through the job list until the next job would end after
    ``seconds``; the whole list always runs at least once."""
    results = []
    deadline = time.perf_counter() + seconds
    last: dict = {}
    pass_index = index = 0
    while True:
        spec = wl.passes[index]
        if pass_index > 0 and time.perf_counter() + last[spec.key] > deadline:
            break
        res = jobs.run_job(main, spec, jobs.cli_seed(seed, pass_index, index), capture)
        last[spec.key] = res.seconds
        results.append(res)
        log(res, pass_index)
        index += 1
        if index == len(wl.passes):
            index, pass_index = 0, pass_index + 1
    return results


def paired_pass(main, wl: jobs.Workload, seed: int, log, capture, tracer) -> tuple:
    """Run every job of the pass untraced and then traced, back to back with
    the same seed, so the machine's drift cancels in the tracing overhead."""
    untraced, traced = [], []
    for index, spec in enumerate(wl.passes):
        job_seed = jobs.cli_seed(seed, 0, index)
        untraced.append(jobs.run_job(main, spec, job_seed, capture))
        log(untraced[-1], 0)
        tracer.begin_job(index, spec.command)
        tracer.install()
        try:
            traced.append(jobs.run_job(tracer.root(main), spec, job_seed, capture))
        finally:
            tracer.restore()
        log(traced[-1], 0)
    tracer.finish()
    return untraced, traced


def pass_seconds(wl: jobs.Workload, results) -> float:
    """Wall time of one whole job list: sum over its jobs of the median time."""
    by_key: dict = {}
    for r in results:
        by_key.setdefault(r.key, []).append(r.seconds)
    return sum(statistics.median(by_key[spec.key]) for spec in wl.passes)


def command_medians(results) -> dict:
    by_cmd: dict = {}
    for r in results:
        by_cmd.setdefault(r.command, []).append(r.seconds)
    return {cmd: (statistics.median(v), len(v)) for cmd, v in by_cmd.items()}


def run_workload(args) -> int:
    if not (SRC / "vep" / "__init__.py").is_file():
        print(f"error: no vep sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    wl = jobs.WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [] if args.trace else measure_setup(wl.problems)

    sys.path.insert(0, str(SRC))
    import vep
    from vep import cli
    if Path(vep.__file__).resolve().parent != SRC / "vep":
        print(f"error: imported vep from {vep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log_fh = open(OUT / f"{stem}.jsonl", "w", encoding="utf-8")

    def log(res, pass_index):
        log_fh.write(json.dumps({"pass": pass_index, **res.__dict__}) + "\n")

    with log_fh:
        log_fh.write(json.dumps({"environment": env, "workload": args.workload,
                                 "seconds": args.seconds, "setup_s": setup}) + "\n")
        problem_failures = check_problems(args.workload, args.seed)
        capture = jobs.SolveCapture()
        capture.install()
        warm = jobs.run_job(cli.main, wl.warmup, jobs.cli_seed(args.seed, -1, 0), capture)
        log(warm, -1)
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            untraced, traced = paired_pass(cli.main, wl, args.seed, log, capture, tracer)
            overhead = pass_seconds(wl, traced) - pass_seconds(wl, untraced)
            tracer.write_spans(OUT / f"{stem}-spans.json")
            results = untraced + traced
            values = tracer.metrics(overhead)
            wanted = bench["per_layer"]
        else:
            results = timed_loop(cli.main, wl, args.seed, args.seconds, log, capture)
            values = {
                "run_s": (pass_seconds(wl, results), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
            wanted = bench["end_to_end"]
        capture.restore()

    everything = [warm] + results
    failed = [r for r in everything if r.failure]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  loadavg {env['loadavg']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}")
    for msg in problem_failures:
        print(f"problem check failed: {msg}")
    for r in failed:
        print(f"job failed: {r.key} {' '.join(r.argv)}: {r.failure}")
    notes = sorted({r.note for r in everything if r.note})
    for note in notes:
        count = sum(r.note == note for r in everything)
        print(f"note: {count} job(s) {note}")
    if args.trace:
        print_trace(wl, tracer, values, results)
    else:
        print_end_to_end(wl, results, setup, values, len(failed), len(everything))

    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not failed and not problem_failures,
                      "attempted": len(everything), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def print_end_to_end(wl, results, setup, values, n_failed, n_attempted):
    passes = len(results) / len(wl.passes)
    print(f"{len(results)} timed jobs ({passes:.2f} passes of {len(wl.passes)}), "
          f"1 untimed warm-up")
    rows = [
        ("run_s", values["run_s"][0], "s", f"sum of per-job medians over {passes:.2f} passes"),
        ("setup_s", values["setup_s"][0], "s",
         f"median of {len(setup)} fresh interpreters: "
         + ", ".join(f"{t:.3f}" for t in setup)),
        ("peak_rss_mb", values["peak_rss_mb"][0], "MB", "this process"),
        ("failed_frac", n_failed / n_attempted, "ratio",
         f"{n_failed} failed / {n_attempted} attempted jobs, warm-up included"),
    ]
    medians = command_medians(results)
    for metric, cmd in COMMAND_METRICS:
        if cmd in medians:
            med, n = medians[cmd]
            rows.append((metric, med, "s", f"median of {n} {cmd} jobs"))
        else:
            rows.append((metric, None, "s", f"no {cmd} jobs in this workload"))
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<15} {shown:>10} {unit:<6} {note}")


def print_trace(wl, tracer, values, results):
    print(f"traced pass overhead: {values['trace.overhead_s'][0]:.3f} s "
          f"(traced minus untraced job list); spans recorded {tracer.spans_total}, "
          f"kept {len(tracer.span_name)}")
    for cmd in sorted({spec.command for spec in wl.passes}):
        top = ", ".join(f"{n} {s:.3f}s" for n, s in tracer.top_self(cmd))
        print(f"  largest self time in {cmd}: {top}")
    for name, (value, unit) in values.items():
        if value:
            print(f"  {name:<52} {value:>14.6g} {unit}")


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    code = 0
    for name in jobs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*jobs.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
