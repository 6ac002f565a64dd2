"""Problem data model, problem-file loading, the parametric constraint map
and the brute-force solution oracle used as ground truth everywhere.

A problem instance consists of dimensions (p, n, m), a vector bifunction f
over (xi, x, z), an ordering cone C, a parametric feasible-set map K(xi)
(box or polytope with expression coefficients), a scalar objective over
(xi, x) and a geometric set Omega for xi.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from ._parallel import pmap


class ProblemError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parametric constraint map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParamBox:
    """Parametric box: lower_i(xi) <= x_i <= upper_i(xi).

    A bound of None means unbounded on that side.  ``kinks`` lists declared
    kink locations of the bound expressions as (block, index, value).
    """

    lower: tuple
    upper: tuple
    kinks: tuple = ()

    @property
    def n(self) -> int:
        return len(self.lower)


@dataclass(frozen=True, eq=False)
class ParamPolytope:
    """Parametric polytope: A(xi) x <= b(xi), entries given as expressions."""

    rows: tuple  # tuple of tuples of Expr
    rhs: tuple   # tuple of Expr
    kinks: tuple = ()

    @property
    def n(self) -> int:
        return len(self.rows[0])


def slice_at(K, xi) -> geo.Box | geo.Halfspaces:
    """The set K(xi) in exact box / halfspace form."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if isinstance(K, ParamBox):
        lo = np.array([
            -np.inf if e is None else float(ex.eval_expr(e, xi=xi)) for e in K.lower
        ])
        up = np.array([
            np.inf if e is None else float(ex.eval_expr(e, xi=xi)) for e in K.upper
        ])
        if np.any(lo > up + 1e-12):
            raise ProblemError(f"empty slice at xi={xi.tolist()}: lower > upper")
        return geo.Box(lo, up)
    if isinstance(K, ParamPolytope):
        A = np.array([[float(ex.eval_expr(e, xi=xi)) for e in row] for row in K.rows])
        b = np.array([float(ex.eval_expr(e, xi=xi)) for e in K.rhs])
        return geo.Halfspaces(A, b)
    raise TypeError(f"unknown constraint map {type(K).__name__}")


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
    omega: geo.Box | geo.Halfspaces | geo.Polytope
    window: dict = field(default_factory=dict)
    asserts: frozenset = frozenset()

    def xi_window(self) -> tuple[np.ndarray, np.ndarray]:
        if "xi" in self.window:
            return self.window["xi"]
        return np.full(self.p, -1.0), np.full(self.p, 1.0)

    def x_window(self) -> tuple[np.ndarray, np.ndarray]:
        if "x" in self.window:
            return self.window["x"]
        return np.full(self.n, -4.0), np.full(self.n, 4.0)


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
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION.match(line)
        if m:
            current = m.group(1).lower()
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ProblemError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ProblemError(f"line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        sections[current][key.strip().lower()] = val.strip()
    return sections


def _parse_bound_expr(token: str, p: int):
    t = token.strip().lower()
    if t in ("inf", "+inf"):
        return "upper-inf"
    if t == "-inf":
        return "lower-inf"
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


def _parse_kinks(val: str) -> tuple:
    kinks = []
    for tok in _split_top(val, ","):
        if not tok:
            continue
        m = re.fullmatch(r"(xi|x|z)(\d+)@(-?[0-9.eE+]+)", tok.strip())
        if not m:
            raise ProblemError(f"bad kink annotation {tok!r} (expected e.g. xi1@0)")
        kinks.append((m.group(1), int(m.group(2)), float(m.group(3))))
    return tuple(kinks)


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
    kinks = _parse_kinks(ksec.get("kinks", ""))
    if kkind == "box":
        lows = _split_top(ksec.get("lower", ""), ";")
        ups = _split_top(ksec.get("upper", ""), ";")
        if len(lows) != n or len(ups) != n:
            raise ProblemError(f"[K] needs {n} lower and upper bounds")
        lower = []
        upper = []
        for t in lows:
            b = _parse_bound_expr(t, p)
            lower.append(None if isinstance(b, str) else b)
        for t in ups:
            b = _parse_bound_expr(t, p)
            upper.append(None if isinstance(b, str) else b)
        K = ParamBox(tuple(lower), tuple(upper), kinks)
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
        K = ParamPolytope(tuple(rows), rhs, kinks)
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
            rows = [np.array(_parse_numbers(r)) for r in _split_top(osec["a"], ";")]
            b = np.array(_parse_numbers(osec["b"]))
            omega = geo.Halfspaces(np.vstack(rows), b)
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


def _validate_standing(prob: VepProblem):
    """Standing-assumption surrogate: closed nonempty slices on sampled xi."""
    rng = np.random.default_rng(0)
    lo, up = prob.xi_window()
    for _ in range(1000):
        xi = rng.uniform(lo, up)
        try:
            slice_at(prob.K, xi)
        except ProblemError as err:
            raise ProblemError(f"standing assumption violated: {err}")


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
        kinks=(("xi", 1, 0.0),),
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
    """Load a problem from a builtin id or a problem file path."""
    if source in _BUILTINS:
        return _BUILTINS[source]()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ProblemError(f"cannot read problem file {source!r}: {err}")
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return parse_problem_text(text, name=f"{source}#{digest}")


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def _axis_grids(prob: VepProblem, S, resolution: int):
    """Per-axis grids covering the slice.

    Unbounded slices are never silently truncated: they require an explicit
    window on the problem, and the truncation is flagged to the caller.
    """
    if isinstance(S, geo.Box):
        if S.bounded:
            lo, up, truncated = S.lower, S.upper, False
        else:
            if "x" not in prob.window:
                raise ProblemError(
                    "unbounded slice requires an explicit window in the problem"
                )
            wlo, wup = prob.window["x"]
            lo = np.where(np.isfinite(S.lower), S.lower, wlo)
            up = np.where(np.isfinite(S.upper), S.upper, wup)
            truncated = True
    else:
        try:
            verts = geo.halfspace_vertices(S)
            pad = 1e-9 + 0.0 * verts[0]
            lo, up, truncated = verts.min(axis=0) - pad, verts.max(axis=0) + pad, False
        except geo.GeometryError:
            if "x" not in prob.window:
                raise ProblemError(
                    "unbounded slice requires an explicit window in the problem"
                )
            lo, up = prob.window["x"]
            truncated = True
    if np.any(~np.isfinite(lo)) or np.any(~np.isfinite(up)):
        raise ProblemError("unbounded slice without an explicit window")
    axes = [np.linspace(lo[i], up[i], resolution) for i in range(len(lo))]
    return axes, truncated


def _grid_points(axes) -> np.ndarray:
    if len(axes) == 1:
        return axes[0].reshape(-1, 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _members(S, pts: np.ndarray, tol: float) -> np.ndarray:
    if isinstance(S, geo.Box):
        return np.all((pts >= S.lower - tol) & (pts <= S.upper + tol), axis=1)
    return np.all(pts @ S.A.T <= S.b + tol, axis=1)


def _dist_to_cone_batch(prob: VepProblem, F: np.ndarray) -> np.ndarray:
    """Distance of stacked values F (shape (m, ...)) to the ordering cone."""
    if prob.cone.kind == "orthant":
        return geo.dist_orthant_batch(F)
    cols = F.reshape(prob.m, -1)
    return np.array([geo.dist(cols[:, j], prob.cone)
                     for j in range(cols.shape[1])]).reshape(F.shape[1:])


def oracle_solutions(prob: VepProblem, xi, grid: OracleGrid | None = None) -> np.ndarray:
    """Grid approximation of the strong-solution set E(xi).

    A grid point x is kept iff it lies in K(xi) (within grid tolerance) and
    dist(f(xi, x, z), C) <= tol_c for every grid z in K(xi).
    """
    grid = grid or OracleGrid()
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    S = slice_at(prob.K, xi)
    axes, truncated = _axis_grids(prob, S, grid.x_resolution)
    if prob.n > 3:
        raise ProblemError("oracle grids support n <= 3")
    pts = _grid_points(axes)
    step = max(float(a[1] - a[0]) if len(a) > 1 else 0.0 for a in axes)
    keep = _members(S, pts, 0.5 * step + 1e-12)
    X = pts[keep]
    Z = X  # z ranges over the same slice grid
    if len(X) == 0:
        return np.zeros((0, prob.n))
    sols = []
    chunk = max(1, int(2_000_000 // max(len(Z), 1)))
    for start in range(0, len(X), chunk):
        xb = X[start:start + chunk]
        env_x = [xb[:, j][:, None] for j in range(prob.n)]
        env_z = [Z[:, j][None, :] for j in range(prob.n)]
        vals = [
            np.broadcast_to(
                np.asarray(ex.eval_expr(c, xi=xi, x=env_x, z=env_z), dtype=float),
                (len(xb), len(Z)),
            )
            for c in prob.f.components
        ]
        worst = _dist_to_cone_batch(prob, np.stack(vals)).max(axis=1)  # over z
        sols.append(xb[worst <= grid.tol_c])
    return np.vstack(sols) if sols else np.zeros((0, prob.n))


def oracle_dist_to_solutions(prob: VepProblem, xi, x) -> float:
    sols = oracle_solutions(prob, xi)
    if len(sols) == 0:
        return float("inf")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(np.min(np.linalg.norm(sols - x, axis=1)))


def graph_samples(prob: VepProblem, xi_lo: float, xi_hi: float, n_xi: int) -> np.ndarray:
    """Sampled graph of the solution map over a scalar-xi window (p = 1)."""
    if prob.p != 1:
        raise ProblemError("graph sampling implemented for p = 1")
    ts = np.linspace(xi_lo, xi_hi, n_xi)
    per_t = pmap(lambda t: oracle_solutions(prob, [t]), ts)
    rows = [np.concatenate([[t], s]) for t, sols in zip(ts, per_t) for s in sols]
    if not rows:
        return np.zeros((0, 1 + prob.n))
    return np.asarray(rows)
