#!/usr/bin/env python3
"""Write the report body and exit code of a fixed list of CLI commands.

Usage, from the root of a checkout (the one whose ``src/`` is run):

    python3 path/to/scripts/report_bodies.py OUTDIR

Each of the 57 commands below runs as
``python -m vep.cli --seed 3 --format json-like ...`` in its own
subprocess, with ``src/`` of the current directory on the path.  For
command k the script writes ``OUTDIR/NN.txt``: the command line, its stdout
without the ``time:`` lines, its exit code and its stderr.  The progress
line it prints for each command gives the exit code and the wall seconds,
and a last line the wall seconds of the whole list; the files hold no
times.  Run it on two checkouts and compare the directories with
``diff -r``: an empty diff means that every body and every exit code
matches.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

PAPER = "example:paper"
GENCONE = "perfbench/problems/gencone.vep"
POLYTOPE = "perfbench/problems/polytope.vep"
CANCELLED_KINK = "tests/data/gencone_cancelled_kink.vep"
CURVED_BOX = "tests/data/curved_box.vep"
VI1 = "tests/data/vi1.vep"
LCP2 = "tests/data/lcp2.vep"
# each instance's minimizer, as its header comment gives it
VI1_MIN = ("0.5", "0.5")
LCP2_MIN = ("0.928571428571", "0.285714285714,0.357142857143")

STATIONARITY_FLAGS = (
    (),
    ("--smooth-concave",),
    ("--lambda-grid", "0.25,0.5,1"),
    ("--smooth-concave", "--eps-list", "0.02,0.05,0.1", "--lf", "2"),
)


def commands() -> list[tuple[str, ...]]:
    cmds = [("check-stationarity", prob, "--xi-bar", xi, "--x-bar", x, "--gamma", "0.5")
            + flags
            for prob in (PAPER, GENCONE)
            for xi, x in (("0", "1"), ("0.5", "1.5"), ("1", "2"))
            for flags in STATIONARITY_FLAGS]
    cmds += [
        ("solve", PAPER, "--starts", "2"),
        ("solve", GENCONE, "--starts", "2"),
        ("solve", POLYTOPE, "--starts", "1"),
        ("probe-stability", PAPER, "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.9"),
        ("probe-stability", GENCONE, "--xi-bar", "0", "--x-bar", "1", "--gamma", "0.9"),
        ("eval", POLYTOPE, "--xi", "0", "--x", "0.5,0.5"),
        ("eval", PAPER, "--xi", "0.25", "--x", "-1.5"),
        ("check-subtransversality", GENCONE, "--xi-bar", "0", "--x-bar", "1"),
        ("eval", PAPER, "--xi", "0.25", "--x", "-1.5", "--epsilon", "0.1"),
        ("eval", POLYTOPE, "--xi", "0", "--x", "0.5,0.5", "--epsilon", "0.1"),
        ("eval", GENCONE, "--xi", "0.3", "--x", "1.2"),
        ("check-subtransversality", PAPER, "--xi-bar", "0", "--x-bar", "1"),
        ("check-erbo", PAPER, "--xi-bar", "0"),
        ("check-erbo", GENCONE, "--xi-bar", "0", "--gamma", "0.3"),
        ("estimate-constants", PAPER),
        ("estimate-constants", GENCONE),
        ("check-stationarity", POLYTOPE, "--xi-bar", "0", "--x-bar", "0.5,0.5",
         "--gamma", "0.5"),
        ("check-stationarity", POLYTOPE, "--xi-bar", "0", "--x-bar", "0.5,0.5",
         "--gamma", "0.5", "--lambda-grid", "0.25,0.5,1"),
        ("check-stationarity", POLYTOPE, "--xi-bar", "0.5", "--x-bar", "0.75,0.75",
         "--gamma", "0.5"),
        ("probe-stability", POLYTOPE, "--xi-bar", "0", "--x-bar", "0.5,0.5",
         "--gamma", "0.9"),
        ("solve", PAPER, "--lambda0", "2", "--lambda-max", "1", "--starts", "1"),
        ("estimate-constants", POLYTOPE),
        ("check-stationarity", POLYTOPE, "--xi-bar", "0", "--x-bar", "0.5,0.5",
         "--gamma", "0.5", "--smooth-concave"),
        ("check-subtransversality", POLYTOPE, "--xi-bar", "0", "--x-bar", "0.5,0.5"),
        ("check-stationarity", CANCELLED_KINK, "--xi-bar", "0.5", "--x-bar", "1.5",
         "--gamma", "0.5"),
        ("check-stationarity", CURVED_BOX, "--xi-bar", "0.5", "--x-bar", "1.25",
         "--gamma", "0.5"),
        ("check-subtransversality", GENCONE, "--xi-bar", "0.5", "--x-bar", "1.5"),
        ("check-subtransversality", CURVED_BOX, "--xi-bar", "0", "--x-bar", "1"),
    ]
    for prob, (xi, x) in ((VI1, VI1_MIN), (LCP2, LCP2_MIN)):
        cmds += [("eval", prob, "--xi", xi, "--x", x),
                 ("check-stationarity", prob, "--xi-bar", xi, "--x-bar", x, "--gamma", "0.5")]
    cmds.append(("solve", VI1, "--starts", "2"))
    return cmds


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    total = 0.0
    for k, cmd in enumerate(commands(), start=1):
        argv = ("--seed", "3", "--format", "json-like") + cmd
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "vep.cli", *argv],
                             capture_output=True, text=True, env=env)
        seconds = time.perf_counter() - start
        total += seconds
        body = [line for line in run.stdout.splitlines() if not line.startswith("time:")]
        text = "\n".join([" ".join(argv), *body, f"exit: {run.returncode}",
                          "stderr:", run.stderr.rstrip()])
        (out / f"{k:02d}.txt").write_text(text + "\n")
        print(f"{k:02d} exit {run.returncode} {seconds:.1f} s: {' '.join(cmd)}", flush=True)
    print(f"total {total:.1f} s for {k} commands")


if __name__ == "__main__":
    main()
