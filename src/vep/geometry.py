"""Convex geometry kernel: cones, projections, normal cones, support
functions and min-norm points over structured convex bodies.

Sets are small and low-dimensional (desk scale); the implementations
favour robustness and exactness certificates over speed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# linprog is bound, not called: the benchmark tracer wraps it by this name
from scipy.optimize import linprog, nnls  # noqa: F401
from scipy.spatial import ConvexHull, QhullError

TOL_ON = 1e-7
TOL_MNP = 1e-10
CAP_RES_DEG = 2.0  # angular resolution of cone-cap discretization in 2-D


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# set representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box; bounds may be +-inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if lo.shape != up.shape:
            raise GeometryError("box bounds differ in length")
        if np.any(lo > up + 1e-12):
            raise GeometryError("box has lower > upper")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def vertices(self) -> np.ndarray:
        if not self.bounded:
            raise GeometryError("vertices of an unbounded box")
        if self.dim > 16:
            raise GeometryError("box vertex enumeration beyond 16 dims")
        return box_corners(self.lower, self.upper)


def box_corners(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The 2^n corners of boxes with bounds of shape (..., n), as an array of
    shape (..., 2^n, n); the first coordinate changes slowest."""
    n = lower.shape[-1]
    upper_bit = (np.arange(2 ** n)[:, None] >> np.arange(n)[::-1]) & 1
    return np.where(upper_bit == 1, upper[..., None, :], lower[..., None, :])


@dataclass(frozen=True, eq=False)
class Halfspaces:
    """Intersection of halfspaces {y : A y <= b}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if len(A) != len(b):
            raise GeometryError("halfspace matrix and offsets differ in length")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]


def full_space(dim: int) -> Box:
    return Box(np.full(dim, -np.inf), np.full(dim, np.inf))


@dataclass(frozen=True, eq=False)
class ConeRepr:
    """Closed convex cone: nonnegative orthant, generated, or halfspace form.

    ``mat`` is a read-only copy of the rows passed in, so the data derived
    from it once per cone (``dual``, ``cap``, ``faces``) cannot go stale.
    """

    dim: int
    kind: str  # 'orthant' | 'generators' | 'halfspaces'
    mat: np.ndarray | None = None  # generators / halfspace normals as rows

    def __post_init__(self):
        if self.kind not in ("orthant", "generators", "halfspaces"):
            raise GeometryError(f"unknown cone kind {self.kind!r}")
        if self.kind != "orthant":
            m = np.array(np.atleast_2d(np.asarray(self.mat, dtype=float)))
            if m.size == 0:
                m = m.reshape(0, self.dim)
            if m.shape[1] != self.dim:
                raise GeometryError("cone matrix has wrong width")
            object.__setattr__(self, "mat", _read_only(m))

    @cached_property
    def dual(self) -> ConeRepr:
        """Negative dual cone {x : <c, x> <= 0 for all c in C}."""
        if self.kind == "orthant":
            return generated_cone(-np.eye(self.dim))
        if self.kind == "generators":
            return ConeRepr(self.dim, "halfspaces", self.mat)
        return ConeRepr(self.dim, "generators", self.mat)

    @cached_property
    def cap(self) -> np.ndarray:
        """Discretization of cone ∩ unit ball as conv of finitely many points."""
        return _read_only(_cap_points(self))

    @cached_property
    def faces(self) -> tuple:
        """(R, P) for every linearly independent set of at most ``dim``
        generator rows R, with P = Rᵀ(RRᵀ)⁻¹ (the pseudo-inverse of R), so
        that Rᵀ(Pᵀx) projects x onto the span of R.

        A halfspace-form cone {x : Ax <= 0} stores the faces of its polar
        cone(rows of A).  The table has at most Σ_{j<=dim} C(k, j) entries
        for k rows, all of them when the rows are in general position.
        """
        rows = np.eye(self.dim) if self.kind == "orthant" else self.mat
        faces = []
        for j in range(1, min(len(rows), self.dim) + 1):
            for subset in itertools.combinations(range(len(rows)), j):
                R = rows[list(subset)]
                if np.linalg.matrix_rank(R) == j:
                    faces.append((_read_only(R), _read_only(np.linalg.pinv(R))))
        return tuple(faces)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def orthant(m: int) -> ConeRepr:
    return ConeRepr(m, "orthant")


def generated_cone(generators) -> ConeRepr:
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    return ConeRepr(g.shape[1], "generators", g)


def cone_members(C: ConeRepr, V, tol: float) -> np.ndarray:
    """``cone_contains`` for every row of V (shape (M, dim)) in one pass: the
    sign test for the orthant, the row test for halfspace form and
    ``dist_cone_batch`` for generator form, each relative to max(1, |v|)."""
    V = np.asarray(V, dtype=float).reshape(-1, C.dim)
    scale = tol * np.maximum(1.0, np.linalg.norm(V, axis=1))
    if C.kind == "orthant":
        return np.all(V >= -scale[:, None], axis=1)
    if C.kind == "halfspaces":
        return np.all(V @ C.mat.T <= scale[:, None], axis=1)
    return dist_cone_batch(V.T, C) <= scale


def cone_contains(C: ConeRepr, v, tol: float = 1e-9) -> bool:
    return bool(cone_members(C, v, tol)[0])


def cone_pointed(C: ConeRepr) -> bool:
    """Pointedness check: no generator's negation lies in the cone."""
    if C.kind == "orthant":
        return True
    if C.kind == "halfspaces":
        if len(C.mat) == 0:
            return C.dim == 0
        return bool(np.linalg.matrix_rank(C.mat, tol=1e-12) == C.dim)
    G = C.mat[np.linalg.norm(C.mat, axis=1) > 1e-9]
    return not cone_members(C, -G, 1e-9).any()


def cone_nontrivial(C: ConeRepr) -> bool:
    if C.kind == "orthant":
        return C.dim >= 1
    if C.kind == "generators":
        return bool(len(C.mat) > 0 and np.max(np.abs(C.mat)) > 1e-9)
    # halfspace form: nontrivial iff some nonzero direction is feasible
    if len(C.mat) == 0:
        return C.dim >= 1
    return bool(np.linalg.matrix_rank(C.mat, tol=1e-12) < C.dim
                or cone_members(C, np.vstack([-C.mat, C.mat]), 1e-9).any())


def dual_cone(C: ConeRepr) -> ConeRepr:
    """Negative dual cone {x : <c, x> <= 0 for all c in C}, built once per cone."""
    return C.dual


# ---------------------------------------------------------------------------
# projections and distances
# ---------------------------------------------------------------------------

def _project_cone(x: np.ndarray, C: ConeRepr) -> np.ndarray:
    """The rule of ``dist_cone_batch``: the nearest Rᵀc, c = Pᵀx >= 0, over
    the apex and the faces (R, P); in halfspace form that projects onto the
    polar cone, and x minus it onto the cone (Moreau)."""
    if C.kind == "orthant":
        return np.maximum(x, 0.0)
    best, near = float(x @ x), np.zeros_like(x)
    for R, P in C.faces:
        c = x @ P
        if np.all(c >= 0.0):
            cand = c @ R
            res = float((x - cand) @ (x - cand))
            if res < best:
                best, near = res, cand
    return near if C.kind == "generators" else x - near


def project_polytopes(A: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Exact projections of the rows of X (N, n) onto the polytopes
    {z : A[i] z <= b[i]}, A of shape (N, k, n) and b (N, k), or one polytope
    (leading size 1) for every row.  A point z is feasible when it meets
    every row i within 1e-9 (|b_i| + |a_i| (|x| + |z|)).  A feasible x is
    its own projection.  Otherwise the candidates are, for each subset S of
    at most n rows whose unit rows U_S span a volume above 1e-12
    (``_row_subsets``, as in ``basis_points``), the projection of x onto
    {z : A_S z = b_S}: x - U_Sᵀ (U_S U_Sᵀ)⁻¹ (U_S x - c_S), c_S being b_S
    scaled as the rows, one formula for every size of S.  The projection is
    the nearest feasible candidate, which a maximal independent subset of
    its active rows yields (the KKT conditions; Nocedal & Wright,
    *Numerical Optimization*, 2006, ch. 16).  Without one the polytope is
    empty and the row is +inf.  Every product and inverse acts on one row's
    arrays, so a row's result does not depend on the others.
    """
    norms = np.sqrt(np.sum(A * A, axis=2))
    size = np.sqrt(np.sum(X * X, axis=1))[:, None]
    out = X.copy()
    slack = b - (A @ X[..., None])[..., 0]
    rest = np.flatnonzero(np.any(slack < -1e-9 * (np.abs(b) + norms * 2.0 * size), axis=1))
    for i in range(0, len(rest), 1024):     # blocks bound the (rows, candidates, k) temporaries
        blk = rest[i:i + 1024]
        one = blk if len(A) > 1 else slice(None)
        out[blk] = _nearest_feasible(A[one], b[one], norms[one], X[blk], size[blk])
    return out


def _nearest_feasible(A, b, norms, X, size) -> np.ndarray:
    """The enumeration of ``project_polytopes`` for rows X outside their
    polytopes, given the row norms of A and the norms ``size`` of X."""
    k, n = A.shape[1:]
    unit = A / np.where(norms > 0.0, norms, 1.0)[..., None]
    r = (unit @ X[..., None])[..., 0] - b / np.where(norms > 0.0, norms, 1.0)
    cands, ok = [], []
    for j in range(1, min(k, n) + 1):
        rows = _row_subsets(k, j)
        US = unit[:, rows]
        G = US @ US.swapaxes(2, 3)      # Gram matrices; det G is the squared volume
        ok.append(np.linalg.det(G) > 1e-24)
        Ginv = np.linalg.inv(np.where(ok[-1][..., None, None], G, np.eye(j)))
        cands.append(X[:, None, :] - (r[:, rows][..., None, :] @ Ginv @ US)[..., 0, :])
    Z = np.concatenate(cands, axis=1)                                   # (N, candidates, n)
    slack = b[:, None, :] - Z @ A.transpose(0, 2, 1)
    size = (size + np.sqrt(np.sum(Z * Z, axis=2)))[..., None]
    feasible = np.concatenate(ok, axis=1) & np.all(
        slack >= -1e-9 * (np.abs(b)[:, None, :] + norms[:, None, :] * size), axis=2)
    gap = np.sum((X[:, None, :] - Z) ** 2, axis=2)
    nearest = np.argmin(np.where(feasible, gap, np.inf), axis=1)
    Z = Z[np.arange(len(X)), nearest]
    Z[~feasible.any(axis=1)] = np.inf
    return Z


def project_rows(X: np.ndarray, S) -> np.ndarray:
    """``project`` of every row of X (shape (N, n)) onto one box or
    halfspace set, in one pass; rows of +inf when the halfspace set is
    empty."""
    if isinstance(S, Box):
        return np.clip(X, S.lower, S.upper)
    if isinstance(S, Halfspaces):
        return project_polytopes(S.A[None], S.b[None], X)
    raise TypeError(f"cannot project onto {type(S).__name__}")


def project(x, S):
    """Euclidean projection of ``x`` onto a convex set or cone."""
    x = np.asarray(x, dtype=float)
    if isinstance(S, ConeRepr):
        return _project_cone(x, S)
    z = project_rows(x[None], S)[0]
    if np.isinf(z).any():
        raise GeometryError("infeasible halfspace representation")
    return z


def dist(x, S) -> float:
    """Distance of a point to a set; +inf for an infeasible halfspace set.
    A polyhedral cone other than the orthant takes ``dist_cone_batch``, so
    a value's distance is one number whether it comes alone or in a batch."""
    x = np.asarray(x, dtype=float)
    if isinstance(S, ConeRepr) and S.kind != "orthant":
        return float(dist_cone_batch(x, S))
    near = _project_cone(x, S) if isinstance(S, ConeRepr) else project_rows(x[None], S)[0]
    return float(np.linalg.norm(x - near))


def dist_orthant_batch(F: np.ndarray) -> np.ndarray:
    """Vectorized distance to the nonnegative orthant; F has shape (m, ...)."""
    neg = np.minimum(F, 0.0)
    return np.sqrt(np.sum(neg * neg, axis=0))


def dist_cone_batch(F: np.ndarray, C: ConeRepr) -> np.ndarray:
    """Exact distance of stacked values F (shape (m, ...)) to the cone C.

    By Moreau's decomposition (J. J. Moreau, C. R. Acad. Sci. Paris 255,
    1962) the projection onto a polyhedral cone is, among the projections
    onto the spans of its faces ``C.faces`` with nonnegative coefficients
    and the apex, the one nearest to x.  The residual ‖x - Rᵀc‖ is formed
    explicitly: ‖x‖² - ‖Rᵀc‖² cancels to about 1e-8 near the cone.  For a
    halfspace-form cone the faces are those of the polar cone, and the
    distance is the norm of the projection onto the polar.  Every product is
    an elementwise multiply-add in a fixed order, so a column's distance
    does not depend on the other columns.  Temporaries are a few arrays of
    one value per column, reused across faces.
    """
    if C.kind == "orthant":
        return dist_orthant_batch(F)
    X = np.asarray(F, dtype=float).reshape(C.dim, -1)
    n = X.shape[1]
    polar = C.kind == "halfspaces"
    best = X[0] * X[0]                      # squared residual, apex first
    for i in range(1, C.dim):
        best += X[i] * X[i]
    out = np.zeros(n) if polar else best    # squared distance
    coef = np.empty((C.dim, n))
    proj, tmp, res, ok = np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    norm2 = np.empty(n) if polar else None
    for R, P in C.faces:
        c = coef[:len(R)]                   # c = Pᵀx
        np.multiply(P[0][:, None], X[0], out=c)
        for i in range(1, C.dim):
            c += P[i][:, None] * X[i]
        np.all(c >= 0.0, axis=0, out=ok)
        res.fill(0.0)
        if polar:
            norm2.fill(0.0)
        for i in range(C.dim):
            np.multiply(R[0, i], c[0], out=proj)    # coordinate i of Rᵀc
            for r in range(1, len(R)):
                proj += np.multiply(R[r, i], c[r], out=tmp)
            if polar:
                norm2 += np.multiply(proj, proj, out=tmp)
            np.subtract(X[i], proj, out=proj)
            res += np.multiply(proj, proj, out=proj)
        ok &= res < best
        np.copyto(best, res, where=ok)
        if polar:
            np.copyto(out, norm2, where=ok)
    return np.sqrt(out).reshape(np.shape(F)[1:])


# ---------------------------------------------------------------------------
# min-norm point (Wolfe)
# ---------------------------------------------------------------------------

def _affine_min(Q: np.ndarray) -> np.ndarray:
    """Coefficients of the min-norm point of the affine hull of rows of Q."""
    m = len(Q)
    G = Q @ Q.T
    M = np.zeros((m + 1, m + 1))
    M[:m, :m] = G
    M[:m, m] = 1.0
    M[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return sol[:m]


def _segment_refine(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dense pairwise refinement: exact line-search toward each point."""
    x = x.copy()
    for _ in range(200):
        improved = False
        xn = float(x @ x)
        for p in P:
            d = p - x
            dd = float(d @ d)
            if dd <= 0.0:
                continue
            t = -float(x @ d) / dd
            if t <= 0.0:
                continue
            t = min(t, 1.0)
            cand = x + t * d
            cn = float(cand @ cand)
            if cn < xn - TOL_MNP * max(1.0, xn):
                x, xn, improved = cand, cn, True
        if not improved:
            break
    return x


def wolfe_min_norm(points):
    """Min-norm point of conv(points).

    Returns (q, indices, weights) with q = sum_i weights[i] * points[indices[i]].
    Active-set iteration in the style of Wolfe's algorithm, with a dense
    pairwise-refinement fallback when the active-set path stalls.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if len(P) == 0:
        raise GeometryError("min-norm of an empty point set")
    k = len(P)
    j0 = int(np.argmin(np.einsum("ij,ij->i", P, P)))
    idx = [j0]
    w = np.array([1.0])
    x = P[j0].astype(float).copy()
    max_outer = 16 * min(k, 512) + 64
    for _ in range(max_outer):
        dots = P @ x
        xx = float(x @ x)
        j = int(np.argmin(dots))
        gap = xx - float(dots[j])
        if gap <= TOL_MNP * max(1.0, xx):
            # optimal: every point of conv(P) has squared norm >= xx - 2*gap,
            # so the refinement below could never gain the 10*TOL_MNP it needs
            return x, idx, w
        if j in idx:
            break
        idx.append(j)
        w = np.append(w, 0.0)
        for _ in range(64):
            a = _affine_min(P[idx])
            if np.min(a) > 1e-13:
                w = a
                break
            cand = [
                w[i] / (w[i] - a[i])
                for i in range(len(idx))
                if a[i] <= 1e-13 and (w[i] - a[i]) > 1e-18
            ]
            if not cand:
                w = np.maximum(a, 0.0)
                s = w.sum()
                w = w / s if s > 0 else np.full(len(idx), 1.0 / len(idx))
                break
            theta = min(1.0, min(cand))
            w = w + theta * (a - w)
            w[w < 1e-13] = 0.0
            keep = w > 0.0
            idx = [idx[i] for i in range(len(keep)) if keep[i]]
            w = w[keep]
            w = w / w.sum()
        x = w @ P[idx]
    refined = _segment_refine(P, x)
    if float(refined @ refined) < float(x @ x) - 10 * TOL_MNP * max(1.0, float(x @ x)):
        # recover simplex weights for the refined point
        aug = np.vstack([P.T, np.ones(len(P))])
        target = np.concatenate([refined, [1.0]])
        coef, _ = nnls(aug, target)
        support = np.nonzero(coef > 1e-12)[0]
        if len(support) and abs(coef.sum() - 1.0) < 1e-6:
            return refined, list(support), coef[support] / coef[support].sum()
        return refined, idx, w
    return x, idx, w


# ---------------------------------------------------------------------------
# normal cones and ray unions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RayUnion:
    """Union of finitely generated cones (each branch closed convex)."""

    branches: tuple
    exact: bool = True
    note: str = ""

    def __post_init__(self):
        norm = []
        for b in self.branches:
            arr = np.atleast_2d(np.asarray(b, dtype=float))
            if arr.size == 0:
                arr = arr.reshape(0, arr.shape[-1] if arr.ndim == 2 and arr.shape[-1] else 1)
            norm.append(arr)
        object.__setattr__(self, "branches", tuple(norm))

    @property
    def dim(self) -> int:
        return self.branches[0].shape[1]


def _active_box_generators(S: Box, x: np.ndarray) -> np.ndarray:
    gens = []
    for i in range(S.dim):
        scale = 1.0 + min(abs(x[i]), abs(S.upper[i]) if np.isfinite(S.upper[i]) else abs(x[i]))
        if np.isfinite(S.upper[i]) and abs(x[i] - S.upper[i]) <= TOL_ON * scale:
            e = np.zeros(S.dim)
            e[i] = 1.0
            gens.append(e)
        if np.isfinite(S.lower[i]) and abs(x[i] - S.lower[i]) <= TOL_ON * scale:
            e = np.zeros(S.dim)
            e[i] = -1.0
            gens.append(e)
    return np.asarray(gens) if gens else np.zeros((0, S.dim))


def normal_cone(S, point) -> RayUnion:
    """Normal cone (convex-analysis sense) to a convex set at a point on it."""
    x = np.asarray(point, dtype=float)
    d = dist(x, S)
    if not d <= TOL_ON * (1.0 + np.linalg.norm(x)):
        raise GeometryError(f"point is not on the set (dist {d:.3g})")
    if isinstance(S, Box):
        return RayUnion((_active_box_generators(S, x),))
    if isinstance(S, Halfspaces):
        resid = S.A @ x - S.b
        scale = 1.0 + np.abs(S.b)
        active = resid >= -TOL_ON * scale
        return RayUnion((S.A[active],)) if np.any(active) else RayUnion((np.zeros((0, S.dim)),))
    raise TypeError(f"no normal cone for {type(S).__name__}")


# ---------------------------------------------------------------------------
# sampled limiting normals to graph-like sets
# ---------------------------------------------------------------------------

def polyline_project(w: np.ndarray, branch: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest point on the polyline through the ordered branch samples."""
    if len(branch) == 1:
        q = branch[0]
        return q, float(np.linalg.norm(w - q))
    a = branch[:-1]
    b = branch[1:]
    d = b - a
    dd = np.einsum("ij,ij->i", d, d)
    dd[dd == 0.0] = 1.0
    t = np.clip(np.einsum("ij,ij->i", w - a, d) / dd, 0.0, 1.0)
    cand = a + t[:, None] * d
    dists = np.linalg.norm(cand - w, axis=1)
    j = int(np.argmin(dists))
    return cand[j], float(dists[j])


def _sphere_dirs(dim: int, n: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return np.c_[np.cos(ang), np.sin(ang)]
    rng = np.random.default_rng(0)
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# clustering of limit directions: a gap wider than _GAP_DEG splits two
# clusters, and a cluster no wider than _RAY_WIDTH_DEG is one ray
_GAP_DEG = 12.0
_RAY_WIDTH_DEG = 5.0


def _angular_hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    if len(A) == 0 and len(B) == 0:
        return 0.0
    if len(A) == 0 or len(B) == 0:
        return np.pi
    cos = np.clip(A @ B.T, -1.0, 1.0)
    ang = np.arccos(cos)
    return max(float(ang.min(axis=1).max()), float(ang.min(axis=0).max()))


def _cluster_dirs_2d(dirs: np.ndarray):
    ang = np.sort(np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * np.pi))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    cut = np.nonzero(gaps > np.deg2rad(_GAP_DEG))[0]
    if len(cut) == 0:
        # directions wrap the whole circle
        return [np.array([[math.cos(a), math.sin(a)] for a in
                          np.linspace(0, 2 * np.pi, 32, endpoint=False)])]
    # rotate so clusters do not wrap
    start = cut[-1] + 1
    ang = np.concatenate([ang[start:], ang[:start] + 2 * np.pi])
    clusters = []
    cur = [ang[0]]
    for a in ang[1:]:
        if a - cur[-1] > np.deg2rad(_GAP_DEG):
            clusters.append(cur)
            cur = [a]
        else:
            cur.append(a)
    clusters.append(cur)
    branches = []
    for c in clusters:
        width = c[-1] - c[0]
        if width <= np.deg2rad(_RAY_WIDTH_DEG):
            mid = 0.5 * (c[0] + c[-1])
            branches.append(np.array([[math.cos(mid), math.sin(mid)]]))
        else:
            branches.append(np.array([[math.cos(c[0]), math.sin(c[0])],
                                      [math.cos(c[-1]), math.sin(c[-1])]]))
    return branches


def limiting_normal_graph(boundary_branches, point, *, radii) -> RayUnion:
    """Sampled basic normal cone to a planar curve described by samples.

    ``boundary_branches`` is a list of ordered point arrays in the plane
    (one-sided smooth parameterizations near ``point``).  Probe points on
    the circles of the given ``radii`` around ``point`` are projected onto
    the polylines; the limit directions cone[x - Proj(x, S)] are clustered
    into ray/fan branches.  Always flagged approximate.
    """
    point = np.asarray(point, dtype=float)
    branches = [np.atleast_2d(np.asarray(b, dtype=float)) for b in boundary_branches]
    dim = len(point)
    if dim != 2:
        raise GeometryError(f"sampled limiting normals are planar, got dimension {dim}")
    scale = max(1.0, float(np.linalg.norm(point)))
    near = min(polyline_project(point, b)[1] for b in branches)
    if near > 1e-6 * scale:
        raise GeometryError(f"point is not on the sampled set (dist {near:.3g})")
    radii = sorted(radii, reverse=True)
    per_radius = []
    for r in radii:
        dirs = []
        for u in _sphere_dirs(dim, 240):
            w = point + r * u
            best_q, best_d = None, np.inf
            for b in branches:
                q, dq = polyline_project(w, b)
                if dq < best_d:
                    best_q, best_d = q, dq
            if best_d <= 1e-12 * scale or best_d == np.inf:
                continue
            if np.linalg.norm(best_q - point) > 4.0 * r:
                continue
            dirs.append((w - best_q) / best_d)
        per_radius.append(np.asarray(dirs) if dirs else np.zeros((0, dim)))
    if _angular_hausdorff(per_radius[-1], per_radius[-2]) > 0.08:
        raise GeometryError("ray directions failed to stabilize across radii")
    finest = per_radius[-1]
    if len(finest) == 0:
        return RayUnion((np.zeros((0, dim)),), exact=False, note="sampled")
    return RayUnion(tuple(_cluster_dirs_2d(finest)), exact=False, note="sampled")


# ---------------------------------------------------------------------------
# convex bodies: conv(points) + r*B + capped cones
# ---------------------------------------------------------------------------

def cap_points(C: ConeRepr) -> np.ndarray:
    """Discretization of cone ∩ unit ball as conv of finitely many points,
    built once per cone and read-only."""
    return C.cap


def _cap_points(C: ConeRepr) -> np.ndarray:
    d = C.dim
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
        return np.vstack([np.zeros((1, 1)), dirs[cone_members(C, dirs, 1e-9)]])
    if C.kind == "halfspaces":      # no generators: above 2-D, unit directions in the cone
        rays = _sphere_dirs(d, 64) if d > 2 else np.zeros((0, 2))
        rays = rays[cone_members(C, rays, 1e-9)]
    else:
        rays = np.eye(d) if C.kind == "orthant" else C.mat
    rays = np.array([g / nrm for g in rays if (nrm := np.linalg.norm(g)) > 1e-12]).reshape(-1, d)
    if d > 2:       # apex plus unit rays (coarse cap)
        return np.vstack([np.zeros((1, d)), rays])
    dirs = _sphere_dirs(2, int(round(360.0 / CAP_RES_DEG)))
    return _prune_hull(np.vstack([np.zeros((1, 2)), rays, dirs[cone_members(C, dirs, 1e-9)]]))


def _prune_hull(pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if len(pts) <= 1:
        return pts
    d = pts.shape[1]
    if d == 1:
        lo, hi = float(pts.min()), float(pts.max())
        return np.array([[lo]]) if hi - lo <= 0.0 else np.array([[lo], [hi]])
    if len(pts) <= 3:
        return np.unique(pts, axis=0)
    if d <= 6:
        try:
            hull = ConvexHull(pts)
            return pts[hull.vertices]
        except QhullError:
            pass
    # a flat set: its hull within its affine hull, in reduced coordinates
    centred = pts - pts.mean(axis=0)
    _, sing, Vt = np.linalg.svd(centred, full_matrices=False)
    rank = int(np.sum(sing > 1e-10 * sing[0]))
    Y = centred @ Vt[:rank].T
    if rank == 0:
        return pts[:1]
    if rank == 1:
        lo, hi = int(np.argmin(Y[:, 0])), int(np.argmax(Y[:, 0]))
        return pts[[lo, hi]]
    if rank <= 6:
        try:
            return pts[ConvexHull(Y).vertices]
        except QhullError:
            pass
    return np.unique(pts, axis=0)


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """conv(points) ⊕ ball*B ⊕ sum of discretized cone caps."""

    dim: int
    points: np.ndarray
    ball: float = 0.0
    caps: tuple = ()
    label: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, self.dim)
        if pts.shape[0] == 0 and (self.caps or self.ball > 0):
            pts = np.zeros((1, self.dim))
        object.__setattr__(self, "points", pts)
        if pts.shape[0] and pts.shape[1] != self.dim:
            raise GeometryError("body points have wrong dimension")

    @property
    def is_empty(self) -> bool:
        return len(self.points) == 0

    def effective_points(self) -> np.ndarray:
        """Hull points after folding the cone caps in (ball kept separate)."""
        if self.is_empty:
            return self.points
        pts = self.points
        for cap in self.caps:
            cp = cap_points(cap)
            pts = _prune_hull((pts[:, None, :] + cp[None, :, :]).reshape(-1, self.dim))
        return pts

    def ball_discretized(self) -> np.ndarray:
        """Points covering the whole body with the ball sampled on a sphere."""
        pts = self.effective_points()
        if self.ball <= 0.0 or len(pts) == 0:
            return pts
        dirs = _sphere_dirs(self.dim, int(round(360.0 / CAP_RES_DEG)) if self.dim == 2 else 64)
        shift = self.ball * dirs
        return _prune_hull((pts[:, None, :] + shift[None, :, :]).reshape(-1, self.dim))


def body_from_points(points, label: str = "", ball: float = 0.0) -> ConvexBody:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return ConvexBody(pts.shape[1] if pts.size else 1, _prune_hull(pts) if pts.size else pts,
                      ball=ball, label=label)


def unit_ball_body(dim: int) -> ConvexBody:
    return ConvexBody(dim, np.zeros((1, dim)), ball=1.0, label="ball")


def minkowski(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    if a.dim != b.dim:
        raise GeometryError("minkowski sum dimension mismatch")
    if a.is_empty or b.is_empty:
        return ConvexBody(a.dim, np.zeros((0, a.dim)), label="empty")
    pts = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, a.dim)
    return ConvexBody(a.dim, _prune_hull(pts), ball=a.ball + b.ball,
                      caps=a.caps + b.caps, label=f"{a.label}+{b.label}")


def scale_body(a: ConvexBody, t: float) -> ConvexBody:
    """t * body for t >= 0; caps are discretized into hull points."""
    if t < 0:
        raise GeometryError("negative scaling of a body")
    pts = a.effective_points()
    return ConvexBody(a.dim, t * pts, ball=t * a.ball, label=a.label)


def product_body(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Cartesian product; balls are discretized (inscribed, flagged by label)."""
    pa = a.ball_discretized()
    pb = b.ball_discretized()
    if len(pa) == 0 or len(pb) == 0:
        return ConvexBody(a.dim + b.dim, np.zeros((0, a.dim + b.dim)), label="empty")
    pts = np.concatenate(
        [np.repeat(pa, len(pb), axis=0), np.tile(pb, (len(pa), 1))], axis=1
    )
    return ConvexBody(a.dim + b.dim, _prune_hull(pts), label=f"({a.label})x({b.label})")


def support(body: ConvexBody, direction) -> float:
    """Support function of a body; -inf on the empty body."""
    d = np.asarray(direction, dtype=float)
    if body.is_empty:
        return -float("inf")
    val = float(np.max(body.points @ d))
    for cap in body.caps:
        val += float(np.max(cap_points(cap) @ d))
    return val + body.ball * float(np.linalg.norm(d))


def min_norm_point(body: ConvexBody) -> tuple[np.ndarray, float]:
    """Point of the body nearest the origin and its norm."""
    if body.is_empty:
        raise GeometryError("min-norm point of an empty body")
    q, _, _ = wolfe_min_norm(body.effective_points())
    nq = float(np.linalg.norm(q))
    if nq <= body.ball:
        return np.zeros(body.dim), 0.0
    d0 = nq - body.ball
    point = q * (d0 / nq) if body.ball > 0 else q
    return point, d0


def dist_to_body(x, body: ConvexBody) -> float:
    x = np.asarray(x, dtype=float)
    if body.is_empty:
        return float("inf")
    q, _, _ = wolfe_min_norm(body.effective_points() - x)
    return max(float(np.linalg.norm(q)) - body.ball, 0.0)


def body_contains(body: ConvexBody, x, tol: float = 1e-8) -> bool:
    return dist_to_body(x, body) <= tol


def truncated_normal(x, S) -> ConvexBody:
    """Unit-truncated normal map: N(x;S) ∩ B on the set, unit projection
    direction off the set."""
    x = np.asarray(x, dtype=float)
    q = project(x, S)
    d = float(np.linalg.norm(x - q))
    dim = len(x)
    if d <= TOL_ON * (1.0 + np.linalg.norm(x)):
        gens = normal_cone(S, q).branches[0]
        if len(gens) == 0:
            return ConvexBody(dim, np.zeros((1, dim)), label="normal-cap")
        return ConvexBody(dim, np.zeros((1, dim)),
                          caps=(generated_cone(gens),), label="normal-cap")
    return ConvexBody(dim, ((x - q) / d).reshape(1, -1), label="unit-outward")


# ---------------------------------------------------------------------------
# halfspace-form polytopes
# ---------------------------------------------------------------------------

# why a slice has no vertex list, by the code ``basis_points`` returns
NO_VERTICES = ("", "halfspace set unbounded or empty: rows have rank < dim",
               "halfspace set unbounded", "halfspace set empty")


def basis_points(A: np.ndarray, b: np.ndarray):
    """Basis enumeration for a stack of polytopes {z : A[i] z <= b[i]}, A of
    shape (N, k, n) and b of shape (N, k).

    Returns (Z, feasible, code).  Z, of shape (N, S, n), holds the solution
    of every nonsingular n-row subsystem of each slice (zeros for the
    singular ones), in the order of the row subsets; ``feasible`` (N, S)
    marks the solutions with A z <= b, which are the vertices, a degenerate
    vertex once per subsystem it solves.  ``code`` (N,) is 0 for a bounded,
    nonempty slice and otherwise indexes the reason in ``NO_VERTICES`` that
    it has no vertex list: no nonsingular n-row subsystem (rank A < n), an
    extreme ray of the recession cone (a null direction d of an (n-1)-row
    subsystem with Ad <= 0 or Ad >= 0), or no feasible solution.
    """
    N, k, n = A.shape
    norms = np.linalg.norm(A, axis=2)
    At = A.transpose(0, 2, 1)
    rows = _row_subsets(k, n)
    AS = A[:, rows]
    nonsingular = np.abs(np.linalg.det(AS)) > 1e-12 * np.prod(norms[:, rows], axis=2)
    Z = np.zeros((N, len(rows), n))
    Z[nonsingular] = np.linalg.solve(AS[nonsingular], b[:, rows][nonsingular][..., None])[..., 0]
    feasible = nonsingular & np.all(Z @ At <= (b + 1e-9 * (1.0 + np.abs(b)))[:, None, :], axis=2)
    # generalized cross product: the null direction of each (n-1)-row
    # subsystem, from its n minors in one determinant call
    M = A[:, _row_subsets(k, n - 1)]
    cols, signs = _minors(n)
    d = np.linalg.det(M[..., cols].swapaxes(-3, -2)) * signs
    dn = np.linalg.norm(d, axis=2)
    real = dn > 1e-12 * np.prod(np.linalg.norm(M, axis=3), axis=2)
    Ad, tol = d @ At, 1e-9 * dn[..., None] * norms[:, None, :]
    ray = real & (np.all(Ad <= tol, axis=2) | np.all(Ad >= -tol, axis=2))
    code = np.zeros(N, dtype=int)    # the first reason that applies wins
    code[~feasible.any(axis=1)] = 3
    code[ray.any(axis=1)] = 2
    code[~nonsingular.any(axis=1)] = 1
    return Z, feasible, code


@functools.lru_cache(maxsize=None)
def _row_subsets(k: int, j: int) -> np.ndarray:
    subsets = list(itertools.combinations(range(k), j))
    return _read_only(np.array(subsets, dtype=int).reshape(len(subsets), j))


@functools.lru_cache(maxsize=None)
def _minors(n: int) -> tuple:
    """Column indices of the n minors of an (n-1) x n matrix, and their signs."""
    cols = np.array([[c for c in range(n) if c != j] for j in range(n)], dtype=int)
    return _read_only(cols.reshape(n, n - 1)), _read_only((-1.0) ** np.arange(n))


def halfspace_vertices(H: Halfspaces) -> np.ndarray:
    """Vertices of a bounded, nonempty {z : Az <= b}: ``basis_points`` for
    one slice, a degenerate vertex kept once."""
    Z, feasible, code = basis_points(H.A[None], H.b[None])
    if code[0]:
        raise GeometryError(NO_VERTICES[code[0]])
    Z = Z[0][feasible[0]]
    # a degenerate vertex solves several subsystems: keep its first solution
    gap = np.abs(Z[:, None, :] - Z[None, :, :]).max(axis=2)
    return Z[~np.triu(gap <= 1e-9 * (1.0 + np.abs(Z).max(axis=1)), 1).any(axis=0)]
