"""Every function the benchmark tracer wraps still exists in ``vep``.

``perfbench/spans.py`` patches the names in its ``TARGETS`` table, and the
``pmap`` name bound in three modules; a renamed or deleted function would
otherwise surface only in a traced benchmark run.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PMAP_MODULES = ("_parallel", "problem", "diagnostics")


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(f"vep.{module}")
    return functools.reduce(lambda o, part: getattr(o, part, None), dotted.split("."), obj)


def test_tracer_targets_resolve():
    spans = _load_spans()
    names = [(mod, fn) for mod, fns in spans.TARGETS.items() for fn in fns]
    names += [(mod, "pmap") for mod in PMAP_MODULES]
    missing = [f"{mod}.{fn}" for mod, fn in names if not callable(_resolve(mod, fn))]
    assert not missing, f"traced names not found in vep: {missing}"
