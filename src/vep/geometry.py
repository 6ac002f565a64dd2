"""Convex geometry kernel: cones, projections, normal cones, support
functions and min-norm points over structured convex bodies.

Sets are small and low-dimensional (desk scale); the implementations
favour robustness and exactness certificates over speed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# qhull (``_prune_hull``) loads on first use; a name already bound (a tracer's
# wrapper) is kept.  nnls and linprog are bound for the tracer only.
_SCIPY_NAMES = ("nnls", "linprog", "ConvexHull", "QhullError")


def _bind_scipy() -> dict:
    from scipy.optimize import linprog, nnls
    from scipy.spatial import ConvexHull, QhullError
    for name, obj in zip(_SCIPY_NAMES, (nnls, linprog, ConvexHull, QhullError)):
        globals().setdefault(name, obj)
    return globals()


def __getattr__(name: str):  # PEP 562: ``geo.nnls`` resolves before first use
    if name in _SCIPY_NAMES:
        return _bind_scipy()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """Axis-aligned box; bounds may be +-inf.  The bounds are read-only
    copies of the arrays passed in, so a box can be shared safely."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _read_only(np.array(self.lower, dtype=float))
        up = _read_only(np.array(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if lo.shape != up.shape:
            raise GeometryError("box bounds differ in length")
        if np.any(lo > up + 1e-12):
            raise GeometryError("box has lower > upper")

    @property
    def dim(self) -> int:
        return len(self.lower)


def box_corners(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The 2^n corners of boxes with bounds of shape (..., n), as an array of
    shape (..., 2^n, n); the first coordinate changes slowest."""
    return np.where(_upper_bits(lower.shape[-1]), upper[..., None, :], lower[..., None, :])


@functools.lru_cache(maxsize=None)
def _upper_bits(n: int) -> np.ndarray:
    """(2^n, n) mask of the coordinates each box corner takes from ``upper``."""
    return _read_only((np.arange(2 ** n)[:, None] >> np.arange(n)[::-1]) & 1 == 1)


@dataclass(frozen=True, eq=False)
class Halfspaces:
    """Intersection of halfspaces {y : A y <= b}, held as read-only copies
    of the arrays passed in."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = _read_only(np.array(np.atleast_2d(self.A), dtype=float))
        b = _read_only(np.array(np.atleast_1d(self.b), dtype=float))
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
    def facets(self) -> np.ndarray:
        """Unit generators of the dual cone {w : <w, c> >= 0 on C}, read-only:
        e_i, the negated rows of a halfspace form or, for a generator form
        of full rank, the null vectors (generalized cross products) of its
        (dim - 1)-generator subsets that are >= 0 on every generator."""
        W = np.eye(self.dim) if self.kind == "orthant" else -self.mat
        if self.kind == "generators":
            G = self.mat
            if np.linalg.matrix_rank(G) < self.dim:
                raise GeometryError("a generator-form cone of rank < dim has no facet list")
            cols, signs = _minors(self.dim)
            D = np.linalg.det(G[_row_subsets(len(G), self.dim - 1)][..., cols].swapaxes(-3, -2)) * signs
            S, tol = D @ G.T, 1e-9 * np.linalg.norm(D, axis=1)[:, None] * np.linalg.norm(G, axis=1)
            up, down = np.all(S >= -tol, axis=1), np.all(S <= tol, axis=1)
            W = np.where(up[:, None], D, -D)[up | down]
        norms = np.linalg.norm(W, axis=1)
        return _read_only(W[norms > 1e-12] / norms[norms > 1e-12, None])

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

    @cached_property
    def face_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """``faces`` as one read-only stack, zero-padded to the largest face:
        R of shape (F, k, dim) and P of shape (F, dim, k)."""
        k = max((len(R) for R, _ in self.faces), default=0)
        R = np.zeros((len(self.faces), k, self.dim))
        P = np.zeros((len(self.faces), self.dim, k))
        for f, (Rf, Pf) in enumerate(self.faces):
            R[f, :len(Rf)], P[f, :, :len(Rf)] = Rf, Pf
        return _read_only(R), _read_only(P)


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

def project_cone_rows(X: np.ndarray, C: ConeRepr) -> np.ndarray:
    """Projections of the rows of X (N, dim) onto the cone C, by the rule of
    ``dist_cone_batch``: the nearest Rᵀc, c = Pᵀx >= 0, over the apex and
    the faces (R, P); in halfspace form that projects onto the polar cone,
    and x minus it onto the cone (Moreau).  Every product is one row's
    vector-matrix product (a stacked matmul), so a row's projection does
    not depend on the others."""
    if C.kind == "orthant":
        return np.maximum(X, 0.0)
    rows = X[:, None, :]
    best, near = np.matmul(rows, X[:, :, None])[:, 0, 0], np.zeros_like(X)
    for R, P in C.faces:
        c = np.matmul(rows, P)
        cand = np.matmul(c, R)[:, 0]
        r = X - cand
        res = np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]
        take = np.all(c[:, 0] >= 0.0, axis=1) & (res < best)
        best = np.where(take, res, best)
        near[take] = cand[take]
    return near if C.kind == "generators" else X - near


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
    arrays, so a row's result does not depend on the others.  A stack that
    shares one A takes A's unit rows, Gram inverses and nonsingular subsets
    from the per-A cache of ``_projection_table`` and broadcasts them over
    the rows, with the same products in the same order.
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
    polytopes, given the row norms of A and the norms ``size`` of X.  A
    stack of one A takes the parts that read A alone from the cache of
    ``_projection_table``, broadcast over the rows."""
    k, n = A.shape[1:]
    if (A == A[:1]).all():
        A, norms = A[:1], norms[:1]
        scale, unit, grams = _projection_table(np.asarray(A[0], dtype=float).tobytes(), k, n)
    else:
        scale, unit, grams = _projection_parts(A, norms)
    r = (unit @ X[..., None])[..., 0] - b / scale
    cands, ok = [], []
    for rows, US, nonsingular, Ginv in grams:
        ok.append(nonsingular)
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


def _projection_parts(A, norms) -> tuple:
    """The parts of ``_nearest_feasible`` that read the stack A (N, k, n)
    alone: the row scales (norms, 1 for a zero row), the unit rows and, per
    subset size j, (row subsets, their unit rows US, whether their Gram
    matrices are nonsingular, the inverses, identity where singular)."""
    k, n = A.shape[1:]
    scale = np.where(norms > 0.0, norms, 1.0)
    unit = A / scale[..., None]
    grams = []
    for j in range(1, min(k, n) + 1):
        rows = _row_subsets(k, j)
        US = unit[:, rows]
        G = US @ US.swapaxes(2, 3)      # Gram matrices; det G is the squared volume
        ok = np.linalg.det(G) > 1e-24
        grams.append((rows, US, ok, np.linalg.inv(np.where(ok[..., None, None], G, np.eye(j)))))
    return scale, unit, tuple(grams)


@functools.lru_cache(maxsize=64)
def _projection_table(A: bytes, k: int, n: int) -> tuple:
    """``_projection_parts`` of the one (k, n) matrix whose float64 bytes
    are ``A``, read-only: a solve on a polytope K projects onto slices of
    one A at every kernel call."""
    A = np.frombuffer(A).reshape(1, k, n)
    scale, unit, grams = _projection_parts(A, np.sqrt(np.sum(A * A, axis=2)))
    return (_read_only(scale), _read_only(unit),
            tuple(tuple(_read_only(a) for a in g) for g in grams))


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
        return project_cone_rows(x[None], S)[0]
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
    near = (project_cone_rows if isinstance(S, ConeRepr) else project_rows)(x[None], S)[0]
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
    distance is the norm of the projection onto the polar.

    All faces go through one pass over ``C.face_stack``: c = Pᵀx, Rᵀc and
    the squared residual are elementwise multiply-adds over (faces, rows,
    columns) in a fixed order, so a column's distance does not depend on
    the other columns.  A padded row adds only ±0 terms and has c = ±0, so
    every face gives the numbers of its own unpadded products.  The nearest
    candidate is the first minimum over the apex and the faces with c >= 0;
    an inf or NaN residual never wins, as under a strict ``<`` scan.
    Columns go in blocks, which bound the (faces, rows, columns) temporaries.
    """
    if C.kind == "orthant":
        return dist_orthant_batch(F)
    X = np.asarray(F, dtype=float).reshape(C.dim, -1)
    out = np.empty(X.shape[1])
    for i in range(0, X.shape[1], 4096):
        out[i:i + 4096] = _dist_cone_block(X[:, i:i + 4096], C)
    return np.sqrt(out).reshape(np.shape(F)[1:])


def _dist_cone_block(X: np.ndarray, C: ConeRepr) -> np.ndarray:
    """The squared distances of ``dist_cone_batch`` for the columns of X (dim, n)."""
    polar = C.kind == "halfspaces"
    R, P = C.face_stack
    best = X[0] * X[0]                      # squared residual, apex first
    for i in range(1, C.dim):
        best += X[i] * X[i]
    if not len(R):
        return np.zeros(X.shape[1]) if polar else best
    c = P[:, 0, :, None] * X[0]             # c = Pᵀx, (F, k, n)
    for i in range(1, C.dim):
        c += P[:, i, :, None] * X[i]
    proj = R[:, 0, :, None] * c[:, 0, None]     # Rᵀc, (F, dim, n)
    for r in range(1, R.shape[1]):
        proj += R[:, r, :, None] * c[:, r, None]
    D = X - proj
    D *= D
    res = D[:, 0]
    for i in range(1, C.dim):
        res += D[:, i]
    res[~((c >= 0.0).all(axis=1) & (res < np.inf))] = np.inf
    if not polar:
        return np.minimum(best, res.min(axis=0))
    first = res.argmin(axis=0)[None]
    proj *= proj
    norm2 = proj[:, 0]
    for i in range(1, C.dim):
        norm2 += proj[:, i]
    near = np.take_along_axis(res, first, axis=0)[0] < best
    return np.where(near, np.take_along_axis(norm2, first, axis=0)[0], 0.0)


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


def wolfe_min_norm(points):
    """Min-norm point of conv(points).

    Returns (q, indices, weights) with q = sum_i weights[i] * points[indices[i]].
    Active-set iteration in the style of Wolfe's algorithm.  It stops when
    the gap x.x - min(P x) is at most TOL_MNP * max(1, x.x); should the
    point that minimizes P x already be in the active set (a stall) or the
    iteration cap be reached first, the active-set iterate is returned.
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
# polylines through sampled sets, and sphere directions
# ---------------------------------------------------------------------------

def polyline_project(w: np.ndarray, branch: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest point on the polyline through the ordered branch samples:
    ``polyline_project_rows`` of one point."""
    Q, d = polyline_project_rows(np.asarray(w, dtype=float)[None], branch)
    return Q[0], float(d[0])


def polyline_project_rows(W: np.ndarray, branch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest points Q (P, dim) on the polyline through the ordered branch
    samples for the rows of W (P, dim), and their distances (P,): for each
    row, the first segment at the least distance.  The dot products are
    ``np.einsum`` over each (row, segment) pair's coordinates and the
    distances are taken as ``np.linalg.norm(..., axis=1)`` takes them, so
    a row's numbers do not depend on the others.  Rows go in blocks of at
    most 20,000 (row, segment, coordinate) entries."""
    if len(branch) == 1:
        D = W - branch[0]
        return np.repeat(branch[:1], len(W), axis=0), np.sqrt(np.matmul(D[:, None], D[..., None])[:, 0, 0])
    segments = _segments(branch)
    Q, dist = np.empty_like(W), np.empty(len(W))
    block = max(1, 20_000 // segments[1].size)
    for s in range(0, len(W), block):
        cand, dists = _on_segments(W[s:s + block], *segments)
        j, rows = np.argmin(dists, axis=1), np.arange(len(cand))
        Q[s:s + block], dist[s:s + block] = cand[rows, j], dists[rows, j]
    return Q, dist


def _segments(branch: np.ndarray):
    """The segments of the polyline through two or more branch samples:
    starts a, directions d and squared lengths dd (1 for a zero length)."""
    a = branch[:-1]
    d = branch[1:] - a
    dd = np.einsum("ij,ij->i", d, d)
    dd[dd == 0.0] = 1.0
    return a, d, dd


def _on_segments(W: np.ndarray, a, d, dd) -> tuple[np.ndarray, np.ndarray]:
    """The nearest point of each segment (P, S, dim) to each row of W
    (P, dim), and its distance (P, S).  The squares are summed in
    coordinate order, the order of ``np.add.reduce`` over a contiguous
    axis this short."""
    w = W[:, None, :]
    t = np.clip(np.einsum("pij,ij->pi", w - a, d) / dd, 0.0, 1.0)
    cand = a + t[..., None] * d
    D = cand - w
    D *= D
    sq = D[..., 0]
    for i in range(1, D.shape[2]):
        sq += D[..., i]
    return cand, np.sqrt(sq)


def _sphere_dirs(dim: int, n: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return np.c_[np.cos(ang), np.sin(ang)]
    rng = np.random.default_rng(0)
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# convex bodies: conv(points) + r*B
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
    """The extreme points of the rows of pts (N, d): qhull's vertices where
    it can take them, or else the hull within the affine hull, in reduced
    coordinates.  Of exact copies of a row, one is returned."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if len(pts) <= 1:
        return pts.copy()
    d = pts.shape[1]
    if d == 1:
        lo, hi = int(np.argmin(pts[:, 0])), int(np.argmax(pts[:, 0]))
        return pts[[lo] if pts[hi, 0] - pts[lo, 0] <= 0.0 else [lo, hi]]
    if len(pts) <= 3:
        return pts[np.unique(pts, axis=0, return_index=True)[1]]
    _bind_scipy()
    if d <= 6:
        try:
            return pts[ConvexHull(pts).vertices]
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
        return pts[[int(np.argmin(Y[:, 0])), int(np.argmax(Y[:, 0]))]]
    if rank <= 6:
        try:
            return pts[ConvexHull(Y).vertices]
        except QhullError:
            pass
    return pts[np.unique(pts, axis=0, return_index=True)[1]]


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """conv(points) ⊕ ball*B.  A cone cap is folded into the points where
    the body is made (``truncated_normal``)."""

    dim: int
    points: np.ndarray
    ball: float = 0.0

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, self.dim)
        if pts.shape[0] == 0 and self.ball > 0:
            pts = np.zeros((1, self.dim))
        object.__setattr__(self, "points", pts)
        if pts.shape[0] and pts.shape[1] != self.dim:
            raise GeometryError("body points have wrong dimension")

    @property
    def is_empty(self) -> bool:
        return len(self.points) == 0


@functools.lru_cache(maxsize=None)
def _unit_ball_points(dim: int) -> np.ndarray:
    """Hull points of the unit ball sampled as a 180-gon in 2-D, +-1 in 1-D
    and 64 fixed directions above, built once per dimension, read-only."""
    dirs = _sphere_dirs(dim, int(round(360.0 / CAP_RES_DEG)) if dim == 2 else 64)
    return _read_only(_prune_hull(dirs))


def body_from_points(points, ball: float = 0.0) -> ConvexBody:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return ConvexBody(pts.shape[1] if pts.size else 1, _prune_hull(pts) if pts.size else pts,
                      ball=ball)


def minkowski(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    if a.dim != b.dim:
        raise GeometryError("minkowski sum dimension mismatch")
    if a.is_empty or b.is_empty:
        return ConvexBody(a.dim, np.zeros((0, a.dim)))
    pts = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, a.dim)
    return ConvexBody(a.dim, _prune_hull(pts), ball=a.ball + b.ball)


def product_with_ball(a: ConvexBody, n: int) -> ConvexBody:
    """a x B^n for a body a without a ball, B^n discretized
    (``_unit_ball_points``, inscribed).

    The rows are the pairs (row of a, ball row), a's row slowest.  As
    vert(P x Q) = vert(P) x vert(Q) (Ziegler, Lectures on Polytopes, 1995,
    sec. 0.1), the pairs are kept as they are, qhull's answer in its index
    order, when a is 1-D with two distinct rows and the product has
    dimension 3 or more.  ``_prune_hull`` still takes planar products
    (qhull lists their hull counter-clockwise) and other factors."""
    pa, pb = a.points, _unit_ball_points(n)
    dim = a.dim + n
    if len(pa) == 0:
        return ConvexBody(dim, np.zeros((0, dim)))
    pts = np.concatenate(
        [np.repeat(pa, len(pb), axis=0), np.tile(pb, (len(pa), 1))], axis=1
    )
    if dim < 3 or not (a.dim == 1 and len(pa) == 2 and pa[0, 0] != pa[1, 0]):
        pts = _prune_hull(pts)
    return ConvexBody(dim, pts)


def support(body: ConvexBody, direction) -> float:
    """Support function of a body; -inf on the empty body."""
    d = np.asarray(direction, dtype=float)
    if body.is_empty:
        return -float("inf")
    return float(np.max(body.points @ d)) + body.ball * float(np.linalg.norm(d))


def min_norm_point(body: ConvexBody) -> tuple[np.ndarray, float]:
    """Point of the body nearest the origin and its norm."""
    if body.is_empty:
        raise GeometryError("min-norm point of an empty body")
    q, _, _ = wolfe_min_norm(body.points)
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
    q, _, _ = wolfe_min_norm(body.points - x)
    return max(float(np.linalg.norm(q)) - body.ball, 0.0)


def body_contains(body: ConvexBody, x, tol: float = 1e-8) -> bool:
    return dist_to_body(x, body) <= tol


def truncated_normal(x, S) -> ConvexBody:
    """Unit-truncated normal map: N(x;S) ∩ B on the set, its cap's points
    (``cap_points``) as the body's points, and the unit projection
    direction off the set."""
    x = np.asarray(x, dtype=float)
    q = project(x, S)
    d = float(np.linalg.norm(x - q))
    dim = len(x)
    if d <= TOL_ON * (1.0 + np.linalg.norm(x)):
        gens = normal_cone(S, q).branches[0]
        if len(gens) == 0:
            return ConvexBody(dim, np.zeros((1, dim)))
        # 0.0 + turns a -0.0 entry into 0.0, as the sum with the apex did
        return ConvexBody(dim, _prune_hull(0.0 + cap_points(_normal_cone(gens.tobytes(), dim))))
    return ConvexBody(dim, ((x - q) / d).reshape(1, -1))


@functools.lru_cache(maxsize=64)
def _normal_cone(gens: bytes, dim: int) -> ConeRepr:
    """The cone generated by the rows whose float64 bytes are ``gens``.  A
    sweep meets a few active sets many times, and each cone builds its cap
    (a qhull call) once: the 64 most recent cones are kept."""
    return generated_cone(np.frombuffer(gens).reshape(-1, dim))


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
    rows = _row_subsets(k, n)
    Z = np.zeros((N, len(rows), n))
    # the rank and ray checks read A alone: a stack of one A takes them
    # from the cache of ``_a_checks`` and solves A[0]'s nonsingular
    # subsystems against every b by broadcasting, one solve per (slice,
    # subsystem) as for a gathered stack
    if N and (A == A[:1]).all():
        nonsingular, ray = _a_checks(np.asarray(A[0], dtype=float).tobytes(), k, n)
        solved = rows[nonsingular[0]]
        Z[:, nonsingular[0]] = np.linalg.solve(A[0][solved], b[:, solved][..., None])[..., 0]
        nonsingular = np.repeat(nonsingular, N, axis=0)
        ray = np.repeat(ray, N)
    else:
        nonsingular, ray = _a_checks_rows(A)
        Z[nonsingular] = np.linalg.solve(A[:, rows][nonsingular],
                                         b[:, rows][nonsingular][..., None])[..., 0]
    slack = b + 1e-9 * (1.0 + np.abs(b))
    feasible = nonsingular & np.all(Z @ A.transpose(0, 2, 1) <= slack[:, None, :], axis=2)
    code = np.zeros(N, dtype=int)    # the first reason that applies wins
    code[~feasible.any(axis=1)] = 3
    code[ray] = 2
    code[~nonsingular.any(axis=1)] = 1
    return Z, feasible, code


@functools.lru_cache(maxsize=64)
def _a_checks(A: bytes, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_a_checks_rows`` of the one (k, n) matrix whose float64 bytes are
    ``A``, read-only: a solve meets one A at every kernel call."""
    nonsingular, ray = _a_checks_rows(np.frombuffer(A).reshape(1, k, n))
    return _read_only(nonsingular), _read_only(ray)


def _a_checks_rows(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of the stack A (N, k, n): which n-row subsystems are
    nonsingular (N, S), in the order of the row subsets, and whether the
    recession cone of {z : A z <= b} has an extreme ray (N,), a null
    direction d of an (n-1)-row subsystem with Ad <= 0 or Ad >= 0."""
    k, n = A.shape[1:]
    norms = np.linalg.norm(A, axis=2)
    rows = _row_subsets(k, n)
    nonsingular = np.abs(np.linalg.det(A[:, rows])) > 1e-12 * np.prod(norms[:, rows], axis=2)
    # generalized cross product: the null direction of each (n-1)-row
    # subsystem, from its n minors in one determinant call
    M = A[:, _row_subsets(k, n - 1)]
    cols, signs = _minors(n)
    d = np.linalg.det(M[..., cols].swapaxes(-3, -2)) * signs
    dn = np.linalg.norm(d, axis=2)
    real = dn > 1e-12 * np.prod(np.linalg.norm(M, axis=3), axis=2)
    Ad, tol = d @ A.transpose(0, 2, 1), 1e-9 * dn[..., None] * norms[:, None, :]
    ray = real & (np.all(Ad <= tol, axis=2) | np.all(Ad >= -tol, axis=2))
    return nonsingular, ray.any(axis=1)


@functools.lru_cache(maxsize=None)
def _row_subsets(k: int, j: int) -> np.ndarray:
    subsets = list(itertools.combinations(range(k), j))
    return _read_only(np.array(subsets, dtype=int).reshape(len(subsets), j))


@functools.lru_cache(maxsize=None)
def _minors(n: int) -> tuple:
    """Column indices of the n minors of an (n-1) x n matrix, and their signs."""
    cols = np.array([[c for c in range(n) if c != j] for j in range(n)], dtype=int)
    return _read_only(cols.reshape(n, n - 1)), _read_only((-1.0) ** np.arange(n))


def basis_vertices(A: np.ndarray, b: np.ndarray):
    """``basis_points`` with each vertex marked once: (Z, vertex, code),
    ``vertex`` = ``first_solutions(Z, feasible)``."""
    Z, feasible, code = basis_points(A, b)
    return Z, first_solutions(Z, feasible), code


def first_solutions(Z: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """The basis points Z (N, S, n) that ``feasible`` (N, S) marks and that
    are not within 1e-9 (1 + |z|) of an earlier marked one, as a mask
    (N, S).  A degenerate vertex solves several subsystems: its first
    solution is kept."""
    gap = np.abs(Z[:, :, None, :] - Z[:, None, :, :]).max(axis=3)
    again = (gap <= 1e-9 * (1.0 + np.abs(Z).max(axis=2))[:, None, :]) & feasible[:, :, None]
    return feasible & ~np.triu(again, 1).any(axis=1)


def halfspace_vertices(H: Halfspaces) -> np.ndarray:
    """Vertices of a bounded, nonempty {z : Az <= b}: ``basis_vertices`` of
    one slice."""
    Z, vertex, code = basis_vertices(H.A[None], H.b[None])
    if code[0]:
        raise GeometryError(NO_VERTICES[code[0]])
    return Z[0][vertex[0]]
