"""Serial map over the items of a grid sweep.

``pmap`` is a named function, imported by name in ``problem`` and
``diagnostics``, so the benchmark tracer (``perfbench/spans.py``) can patch
each of those names and count the items of every sweep.  Results keep the
input order.
"""


def pmap(fn, items):
    return [fn(x) for x in items]
