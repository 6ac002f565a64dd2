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


@dataclass(frozen=True, eq=False)
class ParamPolytope:
    """Parametric polytope: A(xi) x <= b(xi), entries given as expressions."""

    rows: tuple  # tuple of tuples of Expr
    rhs: tuple   # tuple of Expr

    @property
    def n(self) -> int:
        return len(self.rows[0])


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
    shapes (N, k, n) and (N, k) for a polytope map.  Each bound expression
    is evaluated once, over the columns of XI."""
    cols = list(XI.T)

    def fill(out, exprs, missing):
        for j, e in enumerate(exprs):
            out[:, j] = missing if e is None else ex.eval_expr(e, xi=cols)
        return out

    N = len(XI)
    if isinstance(K, ParamBox):
        return (fill(np.empty((N, K.n)), K.lower, -np.inf),
                fill(np.empty((N, K.n)), K.upper, np.inf))
    if isinstance(K, ParamPolytope):
        A = np.empty((N, len(K.rows), K.n))
        for r, row in enumerate(K.rows):
            fill(A[:, r], row, None)
        return A, fill(np.empty((N, len(K.rhs))), K.rhs, None)
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
    omega: geo.Box | geo.Halfspaces
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
    if not np.all(np.isfinite(a)):
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
        lower = []
        upper = []
        for t in lows:
            b = _parse_bound_expr(t, p)
            lower.append(None if isinstance(b, str) else b)
        for t in ups:
            b = _parse_bound_expr(t, p)
            upper.append(None if isinstance(b, str) else b)
        K = ParamBox(tuple(lower), tuple(upper))
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


def _oracle_rows(prob: VepProblem, XI, grid: OracleGrid) -> tuple[list, list]:
    """The oracle at each parameter row of XI (N, p), mapped with ``pmap``:
    the per-row solution arrays of ``oracle_solutions`` and grid steps.

    The grid x kept in K(xi) (within half a step) form the member set M.
    When f is affine in z, z -> dist(f(xi, x, z), C) is convex, so its max
    over M is attained at an extreme point of conv M (Rockafellar, *Convex
    Analysis*, 1970, Sec. 32) and z ranges over those points only;
    otherwise z ranges over all of M, in chunks of at most 2,000,000 pairs.
    """
    XI = _checked_rows("xi", XI, prob.p)
    if prob.n > 2:
        raise ProblemError(f"oracle grids support n <= 2: at n = {prob.n} each xi compares "
                           f"{grid.x_resolution}^{2 * prob.n} (x, z) grid pairs")

    def at(xi):
        S = slice_at(prob.K, xi)
        axes, _ = _axis_grids(prob, S, grid.x_resolution)
        pts = _grid_points(axes)
        step = max(float(a[1] - a[0]) if len(a) > 1 else 0.0 for a in axes)
        X = pts[_members(S, pts, 0.5 * step + 1e-12)]
        if len(X) == 0:
            return np.zeros((0, prob.n)), step
        Z = geo._prune_hull(X) if prob.f.affine_in_z else X
        chunk = max(1, 2_000_000 // len(Z))
        worst = np.concatenate([
            mr._f_dists(prob, np.broadcast_to(xi, (len(xb), prob.p)), xb,
                        np.broadcast_to(Z, (len(xb),) + Z.shape)).max(axis=1)
            for xb in np.split(X, range(chunk, len(X), chunk))])
        return X[worst <= grid.tol_c], step

    per_xi = pmap(at, XI)
    return [sols for sols, _ in per_xi], [step for _, step in per_xi]


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
    """Sampled graph of the solution map over a scalar-xi window (p = 1)."""
    if prob.p != 1:
        raise ProblemError("graph sampling implemented for p = 1")
    ts = np.linspace(xi_lo, xi_hi, n_xi)
    per_t, _ = _oracle_rows(prob, ts[:, None], OracleGrid())
    return np.vstack([np.column_stack([np.full(len(s), t), s]) for t, s in zip(ts, per_t)])
