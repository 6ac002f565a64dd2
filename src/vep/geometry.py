"""Convex geometry kernel: cones, projections, normal cones, support
functions and min-norm points over structured convex bodies.

Sets are small and low-dimensional (desk scale); the implementations
favour robustness and exactness certificates over speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull, QhullError

TOL_PROJ = 1e-9
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

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def vertices(self) -> np.ndarray:
        if not self.bounded:
            raise GeometryError("vertices of an unbounded box")
        if self.dim > 16:
            raise GeometryError("box vertex enumeration beyond 16 dims")
        corners = np.array(np.meshgrid(*[(lo, up) for lo, up in zip(self.lower, self.upper)],
                                       indexing="ij"))
        return corners.reshape(self.dim, -1).T


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of finitely many points; zero points encode the empty set."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[-1] if pts.ndim == 2 and pts.shape[-1] else 1)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_empty(self) -> bool:
        return len(self.points) == 0


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

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.A @ x <= self.b + tol * (1.0 + np.abs(self.b))))


def full_space(dim: int) -> Box:
    return Box(np.full(dim, -np.inf), np.full(dim, np.inf))


def empty_set(dim: int) -> Polytope:
    return Polytope(np.zeros((0, dim)))


@dataclass(frozen=True, eq=False)
class ConeRepr:
    """Closed convex cone: nonnegative orthant, generated, or halfspace form."""

    dim: int
    kind: str  # 'orthant' | 'generators' | 'halfspaces'
    mat: np.ndarray | None = None  # generators / halfspace normals as rows

    def __post_init__(self):
        if self.kind not in ("orthant", "generators", "halfspaces"):
            raise GeometryError(f"unknown cone kind {self.kind!r}")
        if self.kind != "orthant":
            m = np.atleast_2d(np.asarray(self.mat, dtype=float))
            if m.size == 0:
                m = m.reshape(0, self.dim)
            if m.shape[1] != self.dim:
                raise GeometryError("cone matrix has wrong width")
            object.__setattr__(self, "mat", m)


def orthant(m: int) -> ConeRepr:
    return ConeRepr(m, "orthant")


def generated_cone(generators) -> ConeRepr:
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    return ConeRepr(g.shape[1], "generators", g)


def cone_generators(C: ConeRepr) -> np.ndarray:
    """Generator rows for orthant/generator cones (halfspace form unsupported)."""
    if C.kind == "orthant":
        return np.eye(C.dim)
    if C.kind == "generators":
        return C.mat
    raise GeometryError("halfspace-form cone has no explicit generators")


def cone_contains(C: ConeRepr, v, tol: float = 1e-9) -> bool:
    v = np.asarray(v, dtype=float)
    scale = max(1.0, float(np.linalg.norm(v)))
    if C.kind == "orthant":
        return bool(np.all(v >= -tol * scale))
    if C.kind == "halfspaces":
        if len(C.mat) == 0:
            return True
        return bool(np.all(C.mat @ v <= tol * scale))
    G = C.mat
    if len(G) == 0:
        return bool(np.linalg.norm(v) <= tol)
    coef, resid = nnls(G.T, v)
    return bool(resid <= tol * scale)


def cone_pointed(C: ConeRepr) -> bool:
    """Pointedness check: no generator's negation lies in the cone."""
    if C.kind == "orthant":
        return True
    if C.kind == "halfspaces":
        if len(C.mat) == 0:
            return C.dim == 0
        return bool(np.linalg.matrix_rank(C.mat, tol=1e-12) == C.dim)
    for g in C.mat:
        if np.linalg.norm(g) > 1e-9 and cone_contains(C, -g):
            return False
    return True


def cone_nontrivial(C: ConeRepr) -> bool:
    if C.kind == "orthant":
        return C.dim >= 1
    if C.kind == "generators":
        return bool(len(C.mat) > 0 and np.max(np.abs(C.mat)) > 1e-9)
    # halfspace form: nontrivial iff some nonzero direction is feasible
    if len(C.mat) == 0:
        return C.dim >= 1
    return bool(np.linalg.matrix_rank(C.mat, tol=1e-12) < C.dim) or any(
        cone_contains(C, -n) or cone_contains(C, n) for n in C.mat
    )


def dual_cone(C: ConeRepr) -> ConeRepr:
    """Negative dual cone {x : <c, x> <= 0 for all c in C}."""
    if C.kind == "orthant":
        return generated_cone(-np.eye(C.dim))
    if C.kind == "generators":
        return ConeRepr(C.dim, "halfspaces", C.mat.copy())
    return ConeRepr(C.dim, "generators", C.mat.copy())


# ---------------------------------------------------------------------------
# projections and distances
# ---------------------------------------------------------------------------

def _project_cone(x: np.ndarray, C: ConeRepr) -> np.ndarray:
    if C.kind == "orthant":
        return np.maximum(x, 0.0)
    if C.kind == "generators":
        G = C.mat
        if len(G) == 0:
            return np.zeros_like(x)
        coef, _ = nnls(G.T, x)
        return G.T @ coef
    # halfspace cone via Moreau: x = proj_C(x) + proj_polar(x)
    if len(C.mat) == 0:
        return x.copy()
    polar = generated_cone(C.mat)
    return x - _project_cone(x, polar)


def _hildreth(x: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projection onto {y : Ay <= b} by Hildreth's dual coordinate ascent."""
    y = x.astype(float).copy()
    k = len(A)
    lam = np.zeros(k)
    n2 = np.einsum("ij,ij->i", A, A)
    if np.any(n2 < 1e-300):
        keep = n2 >= 1e-300
        bad = ~keep
        if np.any(b[bad] < -1e-12):
            raise GeometryError("infeasible halfspace representation")
        A, b, n2 = A[keep], b[keep], n2[keep]
        k = len(A)
        lam = np.zeros(k)
    scale = max(1.0, float(np.linalg.norm(x)), float(np.max(np.abs(b))) if k else 1.0)
    for sweep in range(5000):
        biggest = 0.0
        for i in range(k):
            w = (A[i] @ y - b[i]) / n2[i]
            new = max(0.0, lam[i] + w)
            d = new - lam[i]
            if d != 0.0:
                lam[i] = new
                y = y - d * A[i]
                biggest = max(biggest, abs(d) * math.sqrt(n2[i]))
        if biggest <= 1e-12 * scale:
            viol = float(np.max(A @ y - b)) if k else 0.0
            if viol <= 1e-8 * scale:
                return y
    # Did not converge: distinguish infeasibility from slow convergence.
    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b,
                  bounds=[(None, None)] * A.shape[1], method="highs")
    if not res.success:
        raise GeometryError("infeasible halfspace representation")
    raise GeometryError("halfspace projection failed to converge")


def project(x, S):
    """Euclidean projection of ``x`` onto a convex set or cone."""
    x = np.asarray(x, dtype=float)
    if isinstance(S, Box):
        return np.clip(x, S.lower, S.upper)
    if isinstance(S, Polytope):
        if S.is_empty:
            raise GeometryError("projection onto the empty set")
        q, _, _ = wolfe_min_norm(S.points - x)
        return x + q
    if isinstance(S, Halfspaces):
        if S.contains(x, tol=1e-12):
            return x.copy()
        return _hildreth(x, S.A, S.b)
    if isinstance(S, ConeRepr):
        return _project_cone(x, S)
    raise TypeError(f"cannot project onto {type(S).__name__}")


def dist(x, S) -> float:
    """Distance of a point to a set; +inf for the empty set."""
    x = np.asarray(x, dtype=float)
    if isinstance(S, Polytope) and S.is_empty:
        return float("inf")
    try:
        return float(np.linalg.norm(x - project(x, S)))
    except GeometryError as err:
        if "infeasible" in str(err):
            return float("inf")
        raise


def excess(A_points, S) -> float:
    """sup over a in A of dist(a, S); excess of the empty set is 0."""
    pts = np.atleast_2d(np.asarray(A_points, dtype=float))
    if pts.size == 0:
        return 0.0
    return max(dist(a, S) for a in pts)


def dist_orthant_batch(F: np.ndarray) -> np.ndarray:
    """Vectorized distance to the nonnegative orthant; F has shape (m, ...)."""
    neg = np.minimum(F, 0.0)
    return np.sqrt(np.sum(neg * neg, axis=0))


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

    def contains(self, v, tol: float = 1e-8) -> bool:
        v = np.asarray(v, dtype=float)
        if np.linalg.norm(v) <= tol:
            return True
        return any(cone_contains(generated_cone(b) if len(b) else
                                 generated_cone(np.zeros((0, len(v)))), v, tol)
                   for b in self.branches)


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
    if isinstance(S, Polytope):
        return RayUnion((_polytope_normal_generators(S, x),))
    raise TypeError(f"no normal cone for {type(S).__name__}")


def _polytope_normal_generators(S: Polytope, x: np.ndarray) -> np.ndarray:
    pts = S.points
    d = S.dim
    if d == 1:
        lo, up = float(pts.min()), float(pts.max())
        return _active_box_generators(Box([lo], [up]), x)
    center = pts.mean(axis=0)
    U, s, _ = np.linalg.svd(pts - center, full_matrices=True) if len(pts) > 1 else (None, np.zeros(0), None)
    rank = int(np.sum(s > 1e-10 * max(1.0, s.max() if len(s) else 1.0)))
    if rank == d:
        try:
            hull = ConvexHull(pts)
        except QhullError as err:  # pragma: no cover
            raise GeometryError(f"polytope hull failed: {err}")
        gens = []
        for eq in hull.equations:  # n . y + off <= 0 on the polytope
            n, off = eq[:-1], eq[-1]
            if abs(n @ x + off) <= TOL_ON * (1.0 + abs(off)):
                gens.append(n)
        return np.asarray(gens) if gens else np.zeros((0, d))
    # degenerate polytope: split into affine-hull part plus orthogonal lines
    _, _, Vt = np.linalg.svd(pts - center)
    basis = Vt[:rank]
    comp = Vt[rank:]
    gens = [v for c in comp for v in (c, -c)]
    if rank > 0:
        sub = Polytope((pts - center) @ basis.T)
        sub_gens = _polytope_normal_generators(sub, basis @ (x - center))
        gens.extend(g @ basis for g in sub_gens)
    return np.asarray(gens) if gens else np.zeros((0, d))


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


def _cluster_dirs_nd(dirs: np.ndarray):
    reps: list[np.ndarray] = []
    for d in dirs:
        placed = False
        for i, r in enumerate(reps):
            if np.arccos(np.clip(d @ r, -1, 1)) <= np.deg2rad(_RAY_WIDTH_DEG):
                reps[i] = r + d
                reps[i] = reps[i] / np.linalg.norm(reps[i])
                placed = True
                break
        if not placed:
            reps.append(d.copy())
    return [r.reshape(1, -1) for r in reps]


def limiting_normal_graph(boundary_branches, point, inside=None, *, radii) -> RayUnion:
    """Sampled basic normal cone to a set described by boundary samples.

    ``boundary_branches`` is a list of ordered point arrays (one-sided smooth
    parameterizations near ``point``); ``inside`` is an optional membership
    predicate for thick sets so interior probes are skipped.  Probe points on
    the spheres of the given ``radii`` around ``point`` are projected onto the
    boundary polylines; the limit directions cone[x - Proj(x, S)] are
    clustered into ray/fan branches.  Always flagged approximate.
    """
    point = np.asarray(point, dtype=float)
    branches = [np.atleast_2d(np.asarray(b, dtype=float)) for b in boundary_branches]
    dim = len(point)
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
            if inside is not None and inside(w):
                continue
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
    out = _cluster_dirs_2d(finest) if dim == 2 else _cluster_dirs_nd(finest)
    return RayUnion(tuple(out), exact=False, note="sampled")


# ---------------------------------------------------------------------------
# convex bodies: conv(points) + r*B + capped cones
# ---------------------------------------------------------------------------

def cap_points(C: ConeRepr) -> np.ndarray:
    """Discretization of cone ∩ unit ball as conv of finitely many points."""
    d = C.dim
    if d == 1:
        pts = [np.zeros(1)]
        for s in (1.0, -1.0):
            if cone_contains(C, np.array([s])):
                pts.append(np.array([s]))
        return np.asarray(pts)
    if d == 2:
        pts = [np.zeros(2)]
        try:
            gens = cone_generators(C)
            for g in gens:
                nrm = np.linalg.norm(g)
                if nrm > 1e-12:
                    pts.append(g / nrm)
        except GeometryError:
            pass
        for u in _sphere_dirs(2, int(round(360.0 / CAP_RES_DEG))):
            if cone_contains(C, u):
                pts.append(u)
        return _prune_hull(np.asarray(pts))
    # higher dimension: apex plus unit generators (coarse cap)
    pts = [np.zeros(d)]
    try:
        gens = cone_generators(C)
    except GeometryError:
        gens = np.asarray([u for u in _sphere_dirs(d, 64) if cone_contains(C, u)])
    for g in gens:
        nrm = np.linalg.norm(g)
        if nrm > 1e-12:
            pts.append(g / nrm)
    return np.asarray(pts)


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
    return np.unique(np.round(pts, 12), axis=0)


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


def support(obj, direction) -> float:
    """Support function; +inf on uncapped cones that contain the direction's dual."""
    d = np.asarray(direction, dtype=float)
    if isinstance(obj, ConvexBody):
        if obj.is_empty:
            return -float("inf")
        val = float(np.max(obj.points @ d))
        for cap in obj.caps:
            val += float(np.max(cap_points(cap) @ d))
        return val + obj.ball * float(np.linalg.norm(d))
    if isinstance(obj, ConeRepr):
        return 0.0 if cone_contains(dual_cone(obj), d) else float("inf")
    if isinstance(obj, RayUnion):
        best = -float("inf")
        for b in obj.branches:
            if len(b) == 0:
                best = max(best, 0.0)
            elif np.all(b @ d <= 1e-12 * (1.0 + np.abs(b @ d))):
                best = max(best, 0.0)
            else:
                return float("inf")
        return best
    raise TypeError(f"no support function for {type(obj).__name__}")


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
    d = dist(x, S)
    dim = len(x)
    if d <= TOL_ON * (1.0 + np.linalg.norm(x)):
        gens = normal_cone(S, project(x, S)).branches[0]
        if len(gens) == 0:
            return ConvexBody(dim, np.zeros((1, dim)), label="normal-cap")
        return ConvexBody(dim, np.zeros((1, dim)),
                          caps=(generated_cone(gens),), label="normal-cap")
    u = (x - project(x, S)) / d
    return ConvexBody(dim, u.reshape(1, -1), label="unit-outward")


# ---------------------------------------------------------------------------
# halfspace-form polytopes
# ---------------------------------------------------------------------------

def halfspace_vertices(H: Halfspaces) -> np.ndarray:
    """Vertices of a bounded halfspace intersection (Chebyshev center + qhull)."""
    from scipy.spatial import HalfspaceIntersection

    A, b = H.A, H.b
    if H.dim == 1:
        lo, up = -np.inf, np.inf
        for a, off in zip(A[:, 0], b):
            if a > 1e-300:
                up = min(up, off / a)
            elif a < -1e-300:
                lo = max(lo, off / a)
            elif off < -1e-12:
                raise GeometryError("halfspace set empty")
        if not (np.isfinite(lo) and np.isfinite(up)):
            raise GeometryError("halfspace set unbounded")
        if lo > up + 1e-12:
            raise GeometryError("halfspace set empty")
        return np.array([[lo]]) if up - lo <= 0 else np.array([[lo], [up]])
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    res = linprog(
        np.concatenate([np.zeros(H.dim), [-1.0]]),
        A_ub=np.hstack([A, norms]),
        b_ub=b,
        bounds=[(None, None)] * H.dim + [(0, None)],
        method="highs",
    )
    if not res.success or res.x[-1] <= 1e-12:
        raise GeometryError("halfspace set empty or has no interior")
    interior = res.x[:-1]
    try:
        hs = HalfspaceIntersection(np.hstack([A, -b.reshape(-1, 1)]), interior)
    except QhullError as err:
        raise GeometryError(f"halfspace vertex enumeration failed: {err}")
    return _prune_hull(hs.intersections)
