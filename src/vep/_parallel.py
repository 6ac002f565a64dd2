"""Serial map over the items of a grid sweep.

``pmap`` is a named function so the benchmark tracer (``perfbench/spans.py``)
can patch it and count the items of every sweep.  ``problem`` maps the one
per-row step of the stacked oracle with it, the qhull of each n = 2 member
set; ``diagnostics`` binds it only for the tracer.
Results keep the input order.
"""


def pmap(fn, items):
    return [fn(x) for x in items]
