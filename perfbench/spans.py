"""Spans around the public functions of every vep module, recorded from outside.

``Tracer.install`` replaces module attributes (and two class attributes) with
timing wrappers, so calls through another module (``geo.cap_points``) and
calls through a module's own globals both pass through them.  ``restore``
puts every original back.  Each call records a span (name, start, end,
parent span, job id); aggregates (calls, self time) are kept for every call,
full spans for the first ``MAX_SPANS`` calls only.

Self time of a span is its duration minus the durations of its direct
children; the benchmark runs single-threaded (``VEP_THREADS=1``), so
children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import defaultdict

import numpy as np
import scipy.optimize

# (module, function) pairs wrapped as module attributes; a dotted function
# name is a class attribute.  Names are reported as "<module>.<function>".
TARGETS = {
    "cli": ("cmd_check_erbo", "cmd_estimate_constants", "cmd_check_subtransversality",
            "cmd_check_stationarity", "cmd_probe_stability", "cmd_solve",
            "Report.render"),
    "diagnostics": ("estimate_gamma", "verify_error_bound", "stability_probe",
                    "graph_e_distance_oracles", "subtransversality_kappa",
                    "estimate_lipschitz_f", "estimate_openness_rate", "check_c_bounded"),
    "solver": ("solve_penalized", "penalized_value", "check_stationarity_general",
               "check_stationarity_smooth_concave"),
    "subdiff": ("nu_partial_subgradient_smooth", "nu_subgradient_full",
                "nu_outer_estimate", "mu_subgradient_estimate", "graph_E_normals",
                "coderivative_K"),
    "merit": ("eval_merit", "eval_nu", "eval_mu"),
    "problem": ("load", "slice_at", "oracle_solutions", "graph_samples"),
    "geometry": ("dist", "project", "cap_points", "dual_cone", "cone_contains",
                 "halfspace_vertices", "wolfe_min_norm", "min_norm_point",
                 "polyline_project", "dist_orthant_batch", "truncated_normal",
                 "nnls", "linprog"),
    "expr": ("eval_expr", "VectorFunc.eval", "grad_hull"),
}
# "cli.main" is the root span of a job, opened by the benchmark itself;
# "subdiff.nnls" is scipy.optimize.nnls, which subdiff imports at call time.
EXTRA_SPANS = ("cli.main", "subdiff.nnls", "parallel.pmap")
ERROR_COUNTED = ("geometry.halfspace_vertices", "geometry.project")
# full spans kept per run (aggregates cover every call); bounds memory, since
# one gencone-oracle pass makes about three million calls
MAX_SPANS = 100_000


def span_names() -> list[str]:
    names = [EXTRA_SPANS[0]]
    for mod, fns in TARGETS.items():
        names.extend(f"{mod}.{fn}" for fn in fns)
    names.extend(EXTRA_SPANS[1:])
    return names


def _array_key(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.ids = {n: i for i, n in enumerate(self.names)}
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.errors = [0] * k
        self.cmd_self = defaultdict(lambda: [0.0] * k)  # command -> self time per name
        self.pmap_items = 0
        self.vertex_exact = 0
        self.cap_keys: set = set()
        self.cap_distinct = 0
        self.slice_keys: set = set()
        self.slice_distinct = 0
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_total = 0
        self.stack: list = []  # [name id, start, child seconds, span id]
        self.job = -1
        self.command = ""
        self.t0 = time.perf_counter()
        self._saved: list = []

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job_id: int, command: str):
        """Start a job: the distinct-key sets behind the waste ratios are per job."""
        self.job, self.command = job_id, command
        self.cap_distinct += len(self.cap_keys)
        self.slice_distinct += len(self.slice_keys)
        self.cap_keys, self.slice_keys = set(), set()

    def finish(self):
        self.begin_job(-1, "")

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, pre=None, post=None):
        nid = self.ids[name]
        counts_errors = name in ERROR_COUNTED
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(args, kwargs)
            sid = self.spans_total
            self.spans_total += 1
            parent = stack[-1][3] if stack else -1
            frame = [nid, clock(), 0.0, sid]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if counts_errors:
                    self.errors[nid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[nid] += 1
                own = dur - frame[2]
                self.self_s[nid] += own
                self.cmd_self[self.command][nid] += own
                if stack:
                    stack[-1][2] += dur
                if sid < MAX_SPANS:
                    self.span_id.append(sid)
                    self.span_name.append(nid)
                    self.span_parent.append(parent)
                    self.span_job.append(self.job)
                    self.span_start.append(frame[1] - self.t0)
                    self.span_end.append(end - self.t0)
            if post is not None:
                post(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, pre=None, post=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, pre, post))

    # -- hooks for the ratio metrics --------------------------------------

    def _pre_pmap(self, args, kwargs):
        fn, items = args[0], list(args[1])
        self.pmap_items += len(items)
        return (fn, items) + tuple(args[2:])

    def _post_eval_nu(self, out):
        if out.method == "vertex-exact":
            self.vertex_exact += 1

    def _pre_cap_points(self, args, kwargs):
        C = args[0]
        res = args[1] if len(args) > 1 else kwargs.get("res_deg")
        self.cap_keys.add((C.dim, C.kind, _array_key(C.mat), res))
        return args

    def _pre_slice_at(self, args, kwargs):
        K, xi = args[0], args[1] if len(args) > 1 else kwargs["xi"]
        self.slice_keys.add((id(K), _array_key(xi)))
        return args

    # -- install / restore ------------------------------------------------

    def install(self):
        hooks = {
            "merit.eval_nu": (None, self._post_eval_nu),
            "geometry.cap_points": (self._pre_cap_points, None),
            "problem.slice_at": (self._pre_slice_at, None),
        }
        for mod, fns in TARGETS.items():
            module = importlib.import_module(f"vep.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                pre, post = hooks.get(name, (None, None))
                if "." in fn:
                    cls, meth = fn.split(".")
                    self._patch(getattr(module, cls), meth, name, pre, post)
                else:
                    self._patch(module, fn, name, pre, post)
        # each of these modules binds its own name for pmap
        for mod in ("_parallel", "problem", "diagnostics"):
            module = importlib.import_module(f"vep.{mod}")
            self._patch(module, "pmap", "parallel.pmap", self._pre_pmap)
        self._patch(scipy.optimize, "nnls", "subdiff.nnls")

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def root(self, fn):
        """Wrap the benchmark's own call of cli.main as the job's root span."""
        return self.wrap("cli.main", fn)

    # -- results ----------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_s[i], "s")
        cid = self.ids
        out["parallel.pmap.items"] = (self.pmap_items, "count")
        nu_calls = self.calls[cid["merit.eval_nu"]]
        out["merit.eval_nu.vertex_exact_frac"] = (
            self.vertex_exact / nu_calls if nu_calls else 0.0, "ratio")
        cap_calls = self.calls[cid["geometry.cap_points"]]
        out["geometry.cap_points.recompute_ratio"] = (
            cap_calls / self.cap_distinct if self.cap_distinct else 0.0, "ratio")
        slice_calls = self.calls[cid["problem.slice_at"]]
        out["problem.slice_at.repeat_ratio"] = (
            slice_calls / self.slice_distinct if self.slice_distinct else 0.0, "ratio")
        for name in ERROR_COUNTED:
            out[f"{name}.errors"] = (self.errors[cid[name]], "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def top_self(self, command: str, k: int = 6) -> list[tuple[str, float]]:
        row = self.cmd_self.get(command)
        if row is None:
            return []
        order = sorted(range(len(row)), key=lambda i: -row[i])[:k]
        return [(self.names[i], row[i]) for i in order if row[i] > 0]

    def write_spans(self, path):
        doc = {
            "names": self.names,
            "spans_total": self.spans_total,
            "spans_kept": len(self.span_name),
            "columns": ["id", "name", "parent", "job", "start_s", "end_s"],
            "id": self.span_id.tolist(),
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "job": self.span_job.tolist(),
            "start_s": [round(v, 7) for v in self.span_start],
            "end_s": [round(v, 7) for v in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
