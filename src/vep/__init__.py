"""Toolkit for programs whose constraints are the strong solutions of a
parametric vector-order feasibility system: merit functions, error-bound
certificates, constant estimation, a penalization solver and stationarity
checks."""

__version__ = "0.1.0"

_SUBMODULES = ("cli", "diagnostics", "expr", "geometry", "merit", "problem", "solver", "subdiff")


def __getattr__(name: str):  # PEP 562: ``vep.solver`` imports its module on first use
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
