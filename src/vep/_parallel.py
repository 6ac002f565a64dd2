"""Serial map over the items of a grid sweep.

``pmap`` is a named function so the benchmark tracer (``perfbench/spans.py``)
can patch it and count the items of every sweep.  ``problem`` calls it once
per stacked oracle call; ``diagnostics`` binds it only for the tracer.
Results keep the input order.
"""


def pmap(fn, items):
    return [fn(x) for x in items]
