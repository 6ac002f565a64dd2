"""Problem data model, problem-file loading, the parametric constraint map
and the brute-force solution oracle used as ground truth everywhere.

A problem instance consists of dimensions (p, n, m), a vector bifunction f
over (xi, x, z), an ordering cone C, a parametric feasible-set map K(xi)
(box or polytope with expression coefficients), a scalar objective over
(xi, x) and a geometric set Omega for xi.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import merit as mr
from ._parallel import pmap


class ProblemError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parametric constraint map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParamBox:
    """Parametric box: lower_i(xi) <= x_i <= upper_i(xi).

    A bound of None means unbounded on that side.
    """

    lower: tuple
    upper: tuple

    @property
    def n(self) -> int:
        return len(self.lower)

    @cached_property
    def entries(self) -> tuple:
        """``_entry_table`` of the lower and of the upper bounds."""
        return (_entry_table(self.lower, (self.n,), -np.inf),
                _entry_table(self.upper, (self.n,), np.inf))


@dataclass(frozen=True, eq=False)
class ParamPolytope:
    """Parametric polytope: A(xi) x <= b(xi), entries given as expressions."""

    rows: tuple  # tuple of tuples of Expr
    rhs: tuple   # tuple of Expr

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @cached_property
    def entries(self) -> tuple:
        """``_entry_table`` of A and of b."""
        return (_entry_table(sum(self.rows, ()), (len(self.rows), self.n), None),
                _entry_table(self.rhs, (len(self.rhs),), None))


def _entry_table(exprs, shape: tuple, missing) -> tuple[np.ndarray, tuple]:
    """(table, variable) for the entry expressions ``exprs`` of a map, in
    row-major order over ``shape``: ``table`` holds each entry without a
    variable, evaluated once, and ``missing`` for a None entry; ``variable``
    lists (index, expression) for the others, whose table entries are NaN,
    the index being that of the entry's column in a stack of slices."""
    table, variable = np.full(len(exprs), np.nan), []
    for i, e in enumerate(exprs):
        if e is None:
            table[i] = missing
        elif ex.vars_of(e):
            variable.append(((slice(None), *np.unravel_index(i, shape)), e))
        else:
            table[i] = ex.eval_expr(e)
    return geo._read_only(table.reshape(shape)), tuple(variable)


def slice_at(K, xi) -> geo.Box | geo.Halfspaces:
    """The set K(xi) in exact box / halfspace form: ``slice_arrays`` for
    one parameter row."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    first, second = slice_arrays(K, xi[None])
    if isinstance(K, ParamPolytope):
        return geo.Halfspaces(first[0], second[0])
    if np.any(first[0] > second[0] + 1e-12):
        raise ProblemError(f"empty slice at xi={xi.tolist()}: lower > upper")
    return geo.Box(first[0], second[0])


def slice_arrays(K, XI: np.ndarray):
    """The slices K(XI[i]) of N parameter rows at once, with the numbers of
    ``slice_at``: (lower, upper) of shape (N, n) for a box map, (A, b) of
    shapes (N, k, n) and (N, k) for a polytope map.  Entries without a
    variable are copied from the map's ``entries`` table, and each other
    entry expression is evaluated once, over the columns of XI."""
    if not isinstance(K, (ParamBox, ParamPolytope)):
        raise TypeError(f"unknown constraint map {type(K).__name__}")
    cols = list(XI.T)
    out = []
    for table, variable in K.entries:
        arr = np.empty((len(XI),) + table.shape)
        if len(variable) < table.size:
            arr[:] = table
        for idx, e in variable:
            arr[idx] = ex.eval_expr(e, xi=cols)
        out.append(arr)
    return tuple(out)


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VepProblem:
    name: str
    p: int
    n: int
    m: int
    f: ex.VectorFunc
    cone: geo.ConeRepr
    K: ParamBox | ParamPolytope
    objective: ex.Expr
    omega: geo.Box | geo.Halfspaces
    window: Mapping = field(default_factory=dict)
    asserts: frozenset = frozenset()

    def __post_init__(self):
        # ``load`` hands one problem to every command that names its file, so
        # the window is a read-only mapping of read-only copies
        window = {k: tuple(geo._read_only(np.array(a, dtype=float)) for a in v)
                  for k, v in self.window.items()}
        # samples are drawn between a window's bounds: each bound and the
        # width between them must be finite
        for k, (lo, up) in window.items():
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(up - lo).all():
                    raise ProblemError(f"the {k} window is not a finite range")
        object.__setattr__(self, "window", MappingProxyType(window))

    def xi_window(self) -> tuple[np.ndarray, np.ndarray]:
        if "xi" in self.window:
            return self.window["xi"]
        return np.full(self.p, -1.0), np.full(self.p, 1.0)

    def x_window(self) -> tuple[np.ndarray, np.ndarray]:
        if "x" in self.window:
            return self.window["x"]
        return np.full(self.n, -4.0), np.full(self.n, 4.0)

    def point(self, xi, x) -> tuple[np.ndarray, np.ndarray | None]:
        """The point (xi, x) as float arrays of shapes (p,) and (n,).

        Raises ProblemError on a wrong length or a non-finite entry, so no
        wrong-length point is silently broadcast.  An x of None, from a
        caller that takes xi alone, is returned as None.
        """
        return (_checked_vector("xi", xi, self.p),
                None if x is None else _checked_vector("x", x, self.n))

    def points(self, XI, X) -> tuple[np.ndarray, np.ndarray]:
        """N points, one per row, as float arrays of shapes (N, p) and (N, n).

        Raises ProblemError on a row of the wrong length, row counts that
        differ or a non-finite entry: rows are never broadcast.
        """
        XI, X = _checked_rows("xi", XI, self.p), _checked_rows("x", X, self.n)
        if len(XI) != len(X):
            raise ProblemError(f"{len(XI)} xi rows but {len(X)} x rows")
        return XI, X


def _checked_vector(name: str, v, dim: int) -> np.ndarray:
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.shape != (dim,):
        raise ProblemError(f"{name} has {a.size} entries, expected {dim}")
    if not np.all(np.isfinite(a)):
        raise ProblemError(f"{name} has a non-finite entry: {a.tolist()}")
    return a


def _checked_rows(name: str, v, dim: int) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ProblemError(f"{name} rows have shape {a.shape}, expected (N, {dim})")
    if not np.isfinite(a).all():
        raise ProblemError(f"{name} rows have a non-finite entry")
    return a


@dataclass(frozen=True)
class OracleGrid:
    """Sampling plan for the brute-force solution oracle."""

    x_resolution: int = 201
    tol_c: float = 1e-9

    def __post_init__(self):
        if self.x_resolution <= 0 or self.tol_c <= 0:
            raise ValueError("x_resolution and tol_c must be positive")


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

_SECTION = re.compile(r"^\[([a-zA-Z]+)\]\s*$")
# the keys each section may hold, per type (the first is the default) where
# it has types; [K] kinks is retired and read as nothing
_KEYS = {"problem": {None: {"p", "n", "m", "window_xi", "window_x", "asserts"}},
         "cone": {"orthant": {"type"}, "generators": {"type", "rows"}, "halfspaces": {"type", "rows"}},
         "k": {"box": {"type", "lower", "upper", "kinks"}, "polytope": {"type", "a", "b", "kinks"}},
         "f": {None: {"components"}}, "objective": {None: {"expr"}},
         "omega": {"box": {"type", "lower", "upper"}, "halfspaces": {"type", "a", "b"}}}


def _split_top(s: str, sep: str) -> list[str]:
    """Split at top parenthesis level only."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    """{section: {key: value}}, names in lower case; an unknown section, or a
    key that the section's type does not read, raises naming its line."""
    sections: dict[str, dict[str, str]] = {}
    where: dict[tuple[str, str], tuple[int, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()     # no key, number or expression holds '#'
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            header, current = m.group(1), m.group(1).lower()
            if current not in _KEYS:
                raise ProblemError(f"line {lineno}: unknown section [{header}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ProblemError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ProblemError(f"line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        where[current, key] = (lineno, header)
        sections[current][key] = val.strip()
    for (section, key), (lineno, header) in sorted(where.items(), key=lambda kv: kv[1]):
        kinds = _KEYS[section]
        kind = next(iter(kinds))
        kind = kind and sections[section].get("type", kind).lower()
        if key not in kinds.get(kind, {key}):
            raise ProblemError(f"line {lineno}: unknown key {key!r} in [{header}]")
    return sections


def _parse_bound_expr(token: str, p: int):
    """A bound expression over xi, or None for an infinite bound."""
    if token.strip().lower() in ("inf", "+inf", "-inf"):
        return None
    try:
        return ex.parse(token, (p, 0, 0))
    except ex.ParseError as err:
        raise ProblemError(f"bad bound expression {token!r}: {err}")


def _parse_numbers(val: str) -> list[float]:
    out = []
    for tok in _split_top(val, ","):
        t = tok.strip().lower()
        if t in ("inf", "+inf"):
            out.append(np.inf)
        elif t == "-inf":
            out.append(-np.inf)
        else:
            try:
                out.append(float(tok))
            except ValueError:
                raise ProblemError(f"bad number {tok!r}")
    return out


def _parse_window(val: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    rows = _split_top(val, ";")
    if len(rows) == 1:
        nums = _parse_numbers(rows[0])
        if len(nums) != 2:
            raise ProblemError(f"window needs two numbers, got {val!r}")
        return np.full(dim, nums[0]), np.full(dim, nums[1])
    if len(rows) != dim:
        raise ProblemError(f"window rows ({len(rows)}) do not match dimension {dim}")
    lo, up = [], []
    for r in rows:
        nums = _parse_numbers(r)
        if len(nums) != 2:
            raise ProblemError(f"window row needs two numbers, got {r!r}")
        lo.append(nums[0])
        up.append(nums[1])
    return np.asarray(lo), np.asarray(up)


def parse_problem_text(text: str, name: str) -> VepProblem:
    sec = _parse_sections(text)
    if "problem" not in sec:
        raise ProblemError("missing [problem] section")
    prob = sec["problem"]
    try:
        p = int(prob["p"])
        n = int(prob["n"])
        m = int(prob["m"])
    except KeyError as err:
        raise ProblemError(f"[problem] missing key {err}")
    dims = (p, n, n)

    window: dict = {}
    if "window_xi" in prob:
        window["xi"] = _parse_window(prob["window_xi"], p)
    if "window_x" in prob:
        window["x"] = _parse_window(prob["window_x"], n)
    asserts = frozenset(
        a.strip() for a in prob.get("asserts", "").split(",") if a.strip()
    )

    # cone
    if "cone" not in sec:
        raise ProblemError("missing [cone] section")
    ckind = sec["cone"].get("type", "orthant").lower()
    if ckind == "orthant":
        cone = geo.orthant(m)
    elif ckind in ("generators", "halfspaces"):
        if "rows" not in sec["cone"]:
            raise ProblemError("[cone] rows required for generators/halfspaces form")
        rows = [np.array(_parse_numbers(r)) for r in _split_top(sec["cone"]["rows"], ";")]
        mat = np.vstack(rows)
        if mat.shape[1] != m:
            raise ProblemError(f"[cone] rows have width {mat.shape[1]}, expected {m}")
        cone = geo.ConeRepr(m, ckind, mat)
    else:
        raise ProblemError(f"[cone] unknown type {ckind!r}")
    if not geo.cone_nontrivial(cone):
        raise ProblemError("[cone] ordering cone is trivial")
    if not geo.cone_pointed(cone):
        raise ProblemError("[cone] ordering cone is not pointed")

    # constraint map
    if "k" not in sec:
        raise ProblemError("missing [K] section")
    ksec = sec["k"]
    kkind = ksec.get("type", "box").lower()
    if kkind == "box":
        lows = _split_top(ksec.get("lower", ""), ";")
        ups = _split_top(ksec.get("upper", ""), ";")
        if len(lows) != n or len(ups) != n:
            raise ProblemError(f"[K] needs {n} lower and upper bounds")
        K = ParamBox(tuple(_parse_bound_expr(t, p) for t in lows),
                     tuple(_parse_bound_expr(t, p) for t in ups))
    elif kkind == "polytope":
        rows = []
        for r in _split_top(ksec.get("a", ""), ";"):
            entries = [ex.parse(t, (p, 0, 0)) for t in _split_top(r, ",")]
            if len(entries) != n:
                raise ProblemError(f"[K] A row width {len(entries)}, expected {n}")
            rows.append(tuple(entries))
        rhs = tuple(ex.parse(t, (p, 0, 0)) for t in _split_top(ksec.get("b", ""), ";"))
        if len(rhs) != len(rows):
            raise ProblemError("[K] A and b row counts differ")
        K = ParamPolytope(tuple(rows), rhs)
    else:
        raise ProblemError(f"[K] unknown type {kkind!r}")

    # f
    if "f" not in sec or "components" not in sec["f"]:
        raise ProblemError("missing [f] components")
    comps = _split_top(sec["f"]["components"], ";")
    if len(comps) != m:
        raise ProblemError(f"[f] has {len(comps)} components, expected {m}")
    try:
        f = ex.VectorFunc(tuple(ex.parse(c, dims) for c in comps), dims)
    except ex.ParseError as err:
        raise ProblemError(f"[f] {err}")

    # objective
    if "objective" not in sec or "expr" not in sec["objective"]:
        raise ProblemError("missing [objective] expr")
    try:
        objective = ex.parse(sec["objective"]["expr"], (p, n, 0))
    except ex.ParseError as err:
        raise ProblemError(f"[objective] {err}")

    # Omega
    if "omega" in sec:
        osec = sec["omega"]
        okind = osec.get("type", "box").lower()
        if okind == "box":
            lo = np.array(_parse_numbers(osec.get("lower", "-inf")))
            up = np.array(_parse_numbers(osec.get("upper", "inf")))
            if len(lo) == 1 and p > 1:
                lo = np.full(p, lo[0])
            if len(up) == 1 and p > 1:
                up = np.full(p, up[0])
            if len(lo) != p or len(up) != p:
                raise ProblemError("[Omega] bounds do not match p")
            try:
                omega = geo.Box(lo, up)
            except geo.GeometryError as err:
                raise ProblemError(f"[Omega] {err}")
        elif okind == "halfspaces":
            omega = _halfspace_omega(osec, p)
        else:
            raise ProblemError(f"[Omega] unknown type {okind!r}")
    else:
        omega = geo.full_space(p)

    problem = VepProblem(
        name=name, p=p, n=n, m=m, f=f, cone=cone, K=K,
        objective=objective, omega=omega, window=window, asserts=asserts,
    )
    _validate_standing(problem)
    return problem


def _halfspace_omega(osec: dict, p: int) -> geo.Halfspaces:
    """[Omega] {xi : A xi <= b}: finite A rows (';'-separated) of width p,
    one b entry (','-separated) per row, and a nonempty set."""
    if "a" not in osec or "b" not in osec:
        raise ProblemError("[Omega] halfspaces need A and b")
    rows = [_parse_numbers(r) for r in _split_top(osec["a"], ";")]
    b = np.array(_parse_numbers(osec["b"]))
    if any(len(r) != p for r in rows) or len(b) != len(rows):
        raise ProblemError(f"[Omega] needs A rows of width {p} and one b entry per row")
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(b))):
        raise ProblemError("[Omega] A and b need finite entries")
    omega = geo.Halfspaces(np.array(rows), b)
    if geo.dist(np.zeros(p), omega) == np.inf:
        raise ProblemError("[Omega] halfspace set is empty")
    return omega


def _validate_standing(prob: VepProblem):
    """Standing-assumption surrogate: closed nonempty slices on 1000 sampled
    xi, their bounds evaluated in one pass and, for a polytope map, the
    emptiness of every slice read from one basis enumeration."""
    lo, up = prob.xi_window()
    XI = np.random.default_rng(0).uniform(lo, up, size=(1000, prob.p))
    try:
        first, second = slice_arrays(prob.K, XI)
    except ex.EvalError as err:
        raise ProblemError(f"standing assumption violated: {err}")
    if isinstance(prob.K, ParamBox):
        empty, why = np.any(first > second + 1e-12, axis=1), "lower > upper"
    else:
        empty, why = geo.basis_points(first, second)[2] == 3, geo.NO_VERTICES[3]
    if empty.any():
        raise ProblemError("standing assumption violated: empty slice at "
                           f"xi={XI[np.argmax(empty)].tolist()}: {why}")


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def _builtin_tent() -> VepProblem:
    """Built-in worked instance: p = n = 1, m = 2, tent-shaped feasible map."""
    dims = (1, 1, 1)
    f = ex.VectorFunc((ex.parse("x1 - z1", dims), ex.parse("abs(xi1)", dims)), dims)
    K = ParamBox(
        (ex.parse("-abs(xi1) - 1", (1, 0, 0)),),
        (ex.parse("abs(xi1) + 1", (1, 0, 0)),),
    )
    return VepProblem(
        name="example:paper",
        p=1, n=1, m=2,
        f=f,
        cone=geo.orthant(2),
        K=K,
        objective=ex.parse("xi1^2 + x1^2", (1, 1, 0)),
        omega=geo.Box([0.0], [np.inf]),
        window={"xi": (np.array([-2.0]), np.array([2.0])),
                "x": (np.array([-4.0]), np.array([4.0]))},
        asserts=frozenset({"K-concave", "nu-convex", "K-lsc", "K-usc", "f-C-usc"}),
    )


_BUILTINS = {
    "example:paper": _builtin_tent,
    "example:tent": _builtin_tent,
}


def load(source: str) -> VepProblem:
    """Load a problem from a builtin id or a problem file path.

    The file is read and hashed on every call, so an edit is always seen.
    The same text from the same path gives the same frozen problem, so the
    parse, the standing-assumption check and the data derived from C, K and
    f (cone caps, facets, slice tables) are computed once per process.  A
    builtin id is built once."""
    if source in _BUILTINS:
        return _builtin(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ProblemError(f"cannot read problem file {source!r}: {err}")
    import hashlib  # on first use: ``import vep`` and builtin problems do without it

    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return _parsed(text, f"{source}#{digest}")


@functools.cache
def _builtin(source: str) -> VepProblem:
    return _BUILTINS[source]()


@functools.lru_cache(maxsize=8)
def _parsed(text: str, name: str) -> VepProblem:
    # keyed on the full text, not on the digest in ``name``; a failed parse
    # raises and is not cached, so it raises again on the next load
    return parse_problem_text(text, name)


# ---------------------------------------------------------------------------
# the graph of the solution map as a finite system
# ---------------------------------------------------------------------------

def _bound_exprs(K, xi: np.ndarray) -> tuple[tuple, tuple]:
    """Lower and upper bound expressions of K near xi, None where unbounded.
    A polytope with n = 1 is read as bounds b_j / a_j: their max over the
    rows with a_j(xi) < 0 and their min over those with a_j(xi) > 0."""
    if isinstance(K, ParamBox):
        return K.lower, K.upper
    if K.n != 1:
        raise ProblemError("the solution-graph system of a polytope K needs n = 1")
    sides: tuple[list, list] = ([], [])
    for (a,), b in zip(K.rows, K.rhs):
        slope = float(ex.eval_expr(a, xi=xi))
        if abs(slope) < ex.EPS_DIV:
            raise ProblemError(f"the solution-graph system needs nonzero K rows at xi={xi.tolist()}")
        sides[slope > 0].append(ex.Div(b, a))
    return tuple((functools.reduce(op, es) if es else None,)
                 for op, es in zip((ex.Max2, ex.Min2), sides))


def E_system(prob: VepProblem, xi) -> tuple:
    """Expressions h_j over xi and x, each listed once, whose region
    {h_j >= 0} is the graph of the solution map near the parameter xi: K's
    bounds and, for f affine in z, <w, f(xi, x, v)> for every facet normal
    w of C and vertex v of K(xi), the vertex form of a robust linear
    constraint (Ben-Tal and Nemirovski, Math. Oper. Res. 23, 1998), with
    <w, f(v + d) - f(v)> along each unbounded side d of the slice."""
    xi, _ = prob.point(xi, None)
    if not prob.f.affine_in_z:
        raise ProblemError("the solution-graph system needs f affine in z")
    try:
        facets = prob.cone.facets
    except geo.GeometryError as err:
        raise ProblemError(f"the solution-graph system: {err}") from None
    lower, upper = _bound_exprs(prob.K, xi)
    x = [ex.Var("x", i + 1) for i in range(prob.n)]
    rows = [ex.Sub(xk, lo) for xk, lo in zip(x, lower) if lo is not None]
    rows += [ex.Sub(up, xk) for xk, up in zip(x, upper) if up is not None]
    # a coordinate free on both sides takes the point 0 of its line
    ends = [[b for b in pair if b is not None] or [ex.Const(0.0)] for pair in zip(lower, upper)]
    v0 = tuple(e[0] for e in ends)
    sides = [v0[:i] + (ex.Add(v0[i], ex.Const(step)),) + v0[i + 1:]
             for i, pair in enumerate(zip(lower, upper))
             for bound, step in zip(pair, (-1.0, 1.0)) if bound is None]

    def wf(w, v):
        return functools.reduce(ex.Add, [ex.Mul(ex.Const(float(c)), ex.substitute(comp, "z", v))
                                         for c, comp in zip(w, prob.f.components) if c != 0.0])

    for w in facets:
        rows += [wf(w, v) for v in itertools.product(*ends)]
        rows += [ex.Sub(wf(w, v), wf(w, v0)) for v in sides]
    return tuple(dict.fromkeys(rows))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

# why a slice has no grid, by the code ``_grid_bounds`` returns
_NO_GRID = ("", "empty slice at xi={}: lower > upper",
            "unbounded slice requires an explicit window in the problem")


def _grid_bounds(prob: VepProblem, first: np.ndarray, second: np.ndarray):
    """Grid bounds of N slices, given as ``slice_arrays`` returns them:
    (lo, up, truncated, code), lo and up of shape (N, n).

    A bounded box slice is its own bounds.  A polytope slice with a vertex
    list is the box of its vertices (``geo.basis_vertices``) padded by
    1e-9.  Unbounded slices are never silently truncated: they take the
    problem's x window and are flagged ``truncated``.  ``code`` (N,) is 0
    for a slice with finite bounds and otherwise indexes the reason in
    ``_NO_GRID``.
    """
    window = prob.window.get("x")
    if first.ndim == 2:         # box: (lower, upper)
        empty = np.any(first > second + 1e-12, axis=1)
        unbounded = ~np.all(np.isfinite(first) & np.isfinite(second), axis=1)
        lo, up = first, second
        if window is not None:
            lo = np.where(np.isfinite(first), first, window[0])
            up = np.where(np.isfinite(second), second, window[1])
    else:                       # polytope: (A, b)
        Z, vertex, code = geo.basis_vertices(first, second)
        lo = np.where(vertex[..., None], Z, np.inf).min(axis=1) - 1e-9
        up = np.where(vertex[..., None], Z, -np.inf).max(axis=1) + 1e-9
        empty, unbounded = np.zeros(len(Z), dtype=bool), code != 0
        if window is not None:
            lo[unbounded], up[unbounded] = window
    code = np.select([empty, unbounded & (window is None)], [1, 2], 0)
    return lo, up, unbounded, code


def _linspaces(lo: np.ndarray, up: np.ndarray, num: int) -> np.ndarray:
    """``np.linspace(lo[..., i], up[..., i], num)`` of every entry, on a new
    last axis, bit for bit.  One call serves all entries, except that a
    zero step in one entry switches numpy to its denormal formula for every
    entry: then each entry takes its own call."""
    if num > 1 and np.any((up - lo) / (num - 1) == 0):
        return np.array([np.linspace(a, b, num) for a, b in zip(lo.ravel(), up.ravel())]
                        ).reshape(lo.shape + (num,))
    return np.linspace(lo, up, num, axis=-1)


def _one_row(S) -> tuple[np.ndarray, np.ndarray]:
    """A box or halfspace slice as the arrays ``slice_arrays`` gives one row."""
    pair = (S.lower, S.upper) if isinstance(S, geo.Box) else (S.A, S.b)
    return pair[0][None], pair[1][None]


def _axis_grids(prob: VepProblem, S, resolution: int):
    """Per-axis grids covering the slice S, and whether the window truncated
    it: ``_grid_bounds`` of one slice."""
    lo, up, truncated, code = _grid_bounds(prob, *_one_row(S))
    if code[0]:
        raise ProblemError(_NO_GRID[code[0]])
    return list(_linspaces(lo[0], up[0], resolution)), bool(truncated[0])


def _grid_points(axes) -> np.ndarray:
    """The grid of n axes of one length R, as points (R^n, n), the first
    axis slowest: ``_grid_rows`` of one row."""
    return _grid_rows(np.stack(axes)[None])[0]


def _grid_rows(axes: np.ndarray) -> np.ndarray:
    """``_grid_points`` of N rows of axes (N, n, R) at once: (N, R^n, n)."""
    N, n, R = axes.shape
    cols = [axes[:, i].reshape((N,) + (1,) * i + (R,) + (1,) * (n - 1 - i)) for i in range(n)]
    return np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(N, R ** n, n)


def _members(S, pts: np.ndarray, tol: float) -> np.ndarray:
    """The points of pts (M, n) in the slice S within tol: ``_member_rows``
    of one slice."""
    return _member_rows(*_one_row(S), pts[None], np.array([tol]))[0]


def _member_rows(first: np.ndarray, second: np.ndarray, P: np.ndarray, tol: np.ndarray):
    """The points of P (B, M, n) in their rows' slices, given as
    ``slice_arrays`` gives them, within tol (B,): a mask (B, M)."""
    tol = tol[:, None, None]
    if first.ndim == 2:
        return _all_last((P >= first[:, None] - tol) & (P <= second[:, None] + tol))
    return _all_last(np.matmul(P, first.transpose(0, 2, 1)) <= second[:, None] + tol)


def _all_last(B: np.ndarray) -> np.ndarray:
    """``B.all(axis=-1)`` by one pass per column: numpy reduces a short last
    axis row by row."""
    out = B[..., 0].copy()
    for j in range(1, B.shape[-1]):
        out &= B[..., j]
    return out


def _max_last(D: np.ndarray) -> np.ndarray:
    """``D.max(axis=-1)`` by one pass per column (a max is exact)."""
    out = D[..., 0].copy()
    for j in range(1, D.shape[-1]):
        np.maximum(out, D[..., j], out=out)
    return out


def _oracle_rows(prob: VepProblem, XI, grid: OracleGrid) -> tuple[list, list]:
    """The oracle at each parameter row of XI (N, p) in one stacked pass:
    the per-row solution arrays of ``oracle_solutions`` and grid steps.

    The grid x kept in K(xi) (within half a step) form the member set M.
    When f is affine in z, z -> dist(f(xi, x, z), C) is convex, so its max
    over M is attained at an extreme point of conv M (Rockafellar, *Convex
    Analysis*, 1970, Sec. 32) and z ranges over those points only;
    otherwise z ranges over all of M.  The slices of all rows are computed
    at once, then the rows go through ``_oracle_block`` in blocks of at
    most 5,000 grid points, which bounds the temporaries.  The first row
    whose slice has no grid raises its ``ProblemError`` once the rows
    before it are done.
    """
    XI = _checked_rows("xi", XI, prob.p)
    n, R = prob.n, grid.x_resolution
    if n > 2:
        raise ProblemError(f"oracle grids support n <= 2: at n = {n} each xi compares "
                           f"{R}^{2 * n} (x, z) grid pairs")
    first, second = slice_arrays(prob.K, XI)
    lo, up, _, code = _grid_bounds(prob, first, second)
    N = int(np.argmax(code != 0)) if code.any() else len(XI)
    sols, steps = [], []
    block = max(1, 5_000 // R ** n)
    for s in range(0, N, block):
        r = slice(s, min(s + block, N))
        got, step = _oracle_block(prob, XI[r], first[r], second[r], lo[r], up[r], grid)
        sols += got
        steps += step
    if N < len(XI):
        raise ProblemError(_NO_GRID[code[N]].format(XI[N].tolist()))
    return sols, steps


def _oracle_block(prob: VepProblem, XI, first, second, lo, up, grid: OracleGrid):
    """``_oracle_rows`` of B rows whose slices, ``slice_arrays`` (first,
    second), have the grid bounds (lo, up): the grids and member sets of
    all rows at once, then the (x, z) pairs of all rows, with z from
    ``_padded_z`` (a repeated point cannot change a max), through
    ``_f_dists`` in chunks of at most 5,000 pairs."""
    axes = _linspaces(lo, up, grid.x_resolution)
    steps = (axes[..., 1] - axes[..., 0]).max(axis=1) if grid.x_resolution > 1 else np.zeros(len(XI))
    P = _grid_rows(axes)
    owner, points = np.nonzero(_member_rows(first, second, P, 0.5 * steps + 1e-12))
    X = P[owner, points]            # member grid points, row by row in order
    keep = np.zeros(len(X), dtype=bool)
    if len(X):
        Z = _padded_z(prob, X, np.bincount(owner, minlength=len(XI)))
        chunk = max(1, 5_000 // Z.shape[1])
        keep = np.concatenate([
            _max_last(mr._f_dists(prob, XI[o], X[c], Z[o])) <= grid.tol_c
            for c in (slice(i, i + chunk) for i in range(0, len(X), chunk)) for o in [owner[c]]])
    return np.split(X[keep], np.cumsum(np.bincount(owner[keep], minlength=len(XI)))[:-1]), steps.tolist()


def _padded_z(prob: VepProblem, X: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The z points of B rows, shape (B, V, n), from their member points X,
    ``counts[i]`` of them for row i in order: the extreme points of each
    member set when f is affine in z (min and max for n = 1, qhull for
    n = 2, mapped with ``pmap``), all of them otherwise, each row padded
    to V with its own first point."""
    ends, full = np.cumsum(counts), np.flatnonzero(counts)
    if prob.f.affine_in_z and prob.n == 1:
        Z, starts = np.zeros((len(counts), 2, 1)), ends[full] - counts[full]
        Z[full] = np.stack([np.minimum.reduceat(X, starts), np.maximum.reduceat(X, starts)], 1)
        return Z
    parts = [m for m in np.split(X, ends[:-1]) if len(m)]
    if prob.f.affine_in_z:
        parts = pmap(geo._prune_hull, parts)
    Z = np.zeros((len(counts), max(map(len, parts)), prob.n))
    for i, m in zip(full, parts):
        Z[i] = np.concatenate([m, np.repeat(m[:1], Z.shape[1] - len(m), 0)])
    return Z


def oracle_solutions(prob: VepProblem, xi, grid: OracleGrid | None = None) -> np.ndarray:
    """Grid approximation of the strong-solution set E(xi).

    A grid point x is kept iff it lies in K(xi) (within grid tolerance) and
    dist(f(xi, x, z), C) <= tol_c for every grid z in K(xi).
    """
    xi, _ = prob.point(xi, None)
    return _oracle_rows(prob, xi[None], grid or OracleGrid())[0][0]


def oracle_dist_to_solutions(prob: VepProblem, xi, x) -> float:
    xi, x = prob.point(xi, x)
    sols = oracle_solutions(prob, xi)
    if len(sols) == 0:
        return float("inf")
    return float(np.min(np.linalg.norm(sols - x, axis=1)))


def graph_samples(prob: VepProblem, xi_lo: float, xi_hi: float, n_xi: int) -> np.ndarray:
    """Sampled graph of the solution map over a scalar-xi window (p = 1):
    the rows (t, x) of every solution x at every t, in t order."""
    if prob.p != 1:
        raise ProblemError("graph sampling implemented for p = 1")
    ts = np.linspace(xi_lo, xi_hi, n_xi)
    per_t, _ = _oracle_rows(prob, ts[:, None], OracleGrid())
    return np.column_stack([np.repeat(ts, [len(s) for s in per_t]), np.concatenate(per_t)])
