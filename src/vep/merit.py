"""The auxiliary functions: the cone-excess value nu, the feasibility gap mu
and their sum, the merit value whose zero level set is the solution graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import problem as pb

ARGMAX_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class NuEval:
    value: float
    argmax: tuple  # maximizing z points
    method: str    # 'vertex-exact' | 'grid' | 'multistart'
    flags: tuple = ()


@dataclass(frozen=True, eq=False)
class MeritEval:
    nu: float
    mu: float
    merit: float
    argmax_z: tuple
    method: str
    flags: tuple = ()


def _dist_f_to_cone(prob: pb.VepProblem, xi, x, z) -> float:
    return float(_f_dists(prob, xi[None], x[None], np.reshape(z, (1, 1, -1)))[0, 0])


def _dist_rows(D: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of D (shape (..., d)), each computed as
    np.linalg.norm computes a vector's: the square root of one dot product
    (a stacked matmul; a sum of squares rounds differently)."""
    return np.sqrt(np.matmul(D[..., None, :], D[..., :, None])[..., 0, 0])


def _f_values(prob: pb.VepProblem, XI: np.ndarray, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """f(XI[i], X[i], Z[i, j]) for N points and V slice points each, Z of
    shape (N, V, n), as an array of shape (N, V, m): one evaluation of f."""
    xi, x, z = [c[:, None] for c in XI.T], [c[:, None] for c in X.T], list(Z.transpose(2, 0, 1))
    F = np.empty(Z.shape[:2] + (prob.m,))
    for j, comp in enumerate(prob.f.components):
        F[..., j] = ex.eval_expr(comp, xi, x, z)
    return F


def _f_dists(prob: pb.VepProblem, XI: np.ndarray, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """dist(f(XI[i], X[i], Z[i, j]), C) for N points and V slice points
    each, Z of shape (N, V, n): one evaluation of f and one cone distance."""
    return _cone_dists(prob, _f_values(prob, XI, X, Z))


def _cone_dists(prob: pb.VepProblem, F: np.ndarray) -> np.ndarray:
    """dist(F[..., :], C) for values F of shape (..., m).  An entry does not
    depend on the others: the orthant distance is taken as ``geo.dist``
    takes it, any other cone's by ``geo.dist_cone_batch``."""
    if prob.cone.kind == "orthant":
        return _dist_rows(F - np.maximum(F, 0.0))
    return geo.dist_cone_batch(F.transpose((F.ndim - 1,) + tuple(range(F.ndim - 1))), prob.cone)


def _selector(mask: np.ndarray):
    """An index for the rows that ``mask`` marks: the full slice when it
    marks every row, so that gathers are views and scatters plain writes."""
    return slice(None) if mask.all() else mask


def _slice_vertices(prob: pb.VepProblem, XI: np.ndarray, X: np.ndarray, eps: float):
    """The vertex-exact part of N points' slices enlarged by eps:
    (exact, Z, feasible, mu).

    ``exact`` marks the points whose slice is a bounded, nonempty box or,
    at eps = 0, a polytope with a vertex list; for those, Z (N', V, n)
    holds the basis points of the enlarged slice (the corners of the box
    widened by eps, or ``geo.basis_points``, ``feasible`` marking the
    vertices; None for box corners, which all are) and mu the distance of x
    to the slice itself.  A bounded box in more than 16 dimensions raises
    GeometryError: its corners are too many to list.
    """
    if isinstance(prob.K, pb.ParamBox):
        lo, up = pb.slice_arrays(prob.K, XI)
        exact = (np.isfinite(lo) & np.isfinite(up) & (lo <= up + 1e-12)).all(axis=1)
        if not exact.any():
            return exact, None, None, None
        if prob.n > 16:
            raise geo.GeometryError("box vertex enumeration beyond 16 dims")
        sel = _selector(exact)
        lo, up, X = lo[sel], up[sel], X[sel]
        return exact, geo.box_corners(lo - eps, up + eps), None, _dist_rows(X - X.clip(lo, up))
    A, b = pb.slice_arrays(prob.K, XI)
    Z, feasible, code = geo.basis_points(A, b)
    exact = (code == 0) & (eps == 0.0)      # an enlarged polytope takes the grid
    sel = _selector(exact)
    A, b, X = A[sel], b[sel], X[sel]
    inside = (np.matmul(A, X[..., None])[..., 0] <= b + 1e-12 * (1.0 + np.abs(b))).all(axis=1)
    mu, out = np.zeros(len(X)), ~inside
    if out.any():
        mu[out] = _dist_rows(X[out] - geo.project_polytopes(A[out], b[out], X[out]))
    return exact, Z[sel], feasible[sel], mu


@dataclass(frozen=True, eq=False)
class Farthest:
    """The farthest slice vertices of the vertex-exact points of a kernel
    call: ``exact`` (N,) marks those points; for the E of them, Z (E, V, n)
    holds their slices' basis points, F (E, V, m) the values of f there,
    ``dists`` (E, V) the cone distances of F (-inf at infeasible basis
    points) and ``mask`` (E, V) the vertices within ``ARGMAX_TOL`` of the
    max (infeasible basis points are never in it)."""

    exact: np.ndarray
    Z: np.ndarray
    F: np.ndarray
    dists: np.ndarray
    mask: np.ndarray


def _merit_parts(prob: pb.VepProblem, XI, X, farthest: bool = False):
    """nu and mu of N points, the rows of XI (N, p) and X (N, n), at once,
    and with ``farthest`` a ``Farthest`` record as well (None when no point
    is vertex-exact).

    Entry i of each equals ``eval_merit(prob, XI[i], X[i]).nu`` and ``.mu``:
    both read this kernel.  Where f is affine in z and a slice is a bounded
    box or a polytope with a vertex list, the sup of nu is a max over the
    slice's vertices: the slices of all such points, f over all (point,
    vertex) pairs and the cone distance of every value are each computed
    once (infeasible basis points of a polytope count as -inf; a repeated
    vertex cannot change a max).  Every other point takes the grid and
    local ascent of ``_grid_nu`` and ``geo.dist`` to its slice.
    """
    XI, X = prob.points(XI, X)
    nu, mu, far, _ = _kernel_parts(prob, XI, X, farthest)
    return (nu, mu, far) if farthest else (nu, mu)


def _kernel_parts(prob: pb.VepProblem, XI: np.ndarray, X: np.ndarray, farthest: bool,
                  eps: float = 0.0):
    """``_merit_parts`` of rows that are already float arrays of shapes
    (N, p) and (N, n) with finite entries, such as the rows the solver
    builds from checked points by clipped steps, without ``prob.points``'
    re-validation, and of the slices enlarged by eps for nu: (nu, mu, far,
    grid), ``grid`` the ``NuEval`` of each row that is not vertex-exact."""
    nu, mu = np.empty(len(XI)), np.empty(len(XI))
    exact = np.zeros(len(XI), dtype=bool)
    if prob.f.affine_in_z and len(XI):
        exact, Z, feasible, mu_exact = _slice_vertices(prob, XI, X, eps)
    far = None
    sel = _selector(exact)
    if exact.any():
        F = _f_values(prob, XI[sel], X[sel], Z)
        dists = _cone_dists(prob, F)
        if feasible is not None:
            dists = np.where(feasible, dists, -np.inf)
        nu[sel] = dists.max(axis=1)
        mu[sel] = mu_exact
        if farthest:
            far = Farthest(exact, Z, F, dists, dists >= nu[sel][:, None] - ARGMAX_TOL)
    grid = []
    if sel is exact:
        for i in np.flatnonzero(~exact):
            S = pb.slice_at(prob.K, XI[i])
            grid.append(_grid_nu(prob, XI[i], X[i], eps, S))
            nu[i], mu[i] = grid[-1].value, geo.dist(X[i], S)
    return nu, mu, far, grid


def eval_merit_batch(prob: pb.VepProblem, XI, X) -> np.ndarray:
    """Merit of N points, the rows of XI (N, p) and X (N, n), at once:
    entry i equals ``eval_merit(prob, XI[i], X[i]).merit`` bit for bit."""
    nu, mu = _merit_parts(prob, XI, X)
    return nu + mu


def eval_nu(prob: pb.VepProblem, xi, x, eps: float = 0.0) -> NuEval:
    """sup over z in the (eps-enlarged) slice of dist(f(xi, x, z), C).

    When f is affine in z and the slice is a bounded box/polytope the sup
    is attained at a vertex and evaluated exactly; otherwise a dense grid
    plus multistart local ascent is used and the method is recorded.  The
    value is the merit kernel's, as ``_point`` reads it.
    """
    xi, x = prob.point(xi, x)
    return _point(prob, xi, x, eps)[0]


def _point(prob: pb.VepProblem, xi: np.ndarray, x: np.ndarray, eps: float):
    """eval_nu and mu at a point checked by ``prob.point``, the one row of a
    kernel call: (NuEval, mu).  A vertex-exact argmax lists the farthest
    vertices in basis order, a degenerate polytope vertex once
    (``geo.first_solutions``); an enlarged box in n > 1 dimensions is
    flagged ``eps-box-superset``.  An overflow of f or of a distance raises
    ProblemError."""
    try:
        with np.errstate(over="raise"):
            nu, mu, far, grid = _kernel_parts(prob, xi[None], x[None], True, eps)
    except FloatingPointError as err:
        raise pb.ProblemError(f"the point overflows f or a distance: {err}") from None
    if grid:
        return grid[0], float(mu[0])
    mask = far.mask
    if isinstance(prob.K, pb.ParamPolytope):
        mask = mask & geo.first_solutions(far.Z, far.dists != -np.inf)
    flags = ("eps-box-superset",) if eps > 0.0 and prob.n > 1 else ()
    return NuEval(float(nu[0]), tuple(far.Z[0][mask[0]]), "vertex-exact", flags), float(mu[0])


def _grid_nu(prob: pb.VepProblem, xi: np.ndarray, x: np.ndarray, eps: float, S) -> NuEval:
    """eval_nu of a point that is not vertex-exact, on its slice S: the max
    over a grid of the (eps-enlarged) slice, refined on a box by Nelder-Mead
    ascent from the five best grid points."""
    flags: list[str] = []
    axes, truncated = pb._axis_grids(prob, S, 201)
    if truncated:
        flags.append("unbounded-window")
    if eps > 0.0:
        axes = [np.linspace(a[0] - eps, a[-1] + eps, len(a)) for a in axes]
    pts = pb._grid_points(axes)
    if eps > 0.0:
        member = _dist_rows(pts - geo.project_rows(pts, S)) <= eps + 1e-12
    else:
        member = pb._members(S, pts, 1e-12)
    pts = pts[member]
    if len(pts) == 0:
        raise pb.ProblemError("empty sampling set for the excess supremum")
    vals = _f_dists(prob, xi[None], x[None], pts[None])[0]
    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    method = "grid"
    best_pts = [pts[order[0]]]
    if isinstance(S, geo.Box):
        from scipy.optimize import minimize
        lo = np.where(np.isfinite(S.lower), S.lower - eps, -1e9)
        up = np.where(np.isfinite(S.upper), S.upper + eps, 1e9)
        seeds = [pts[j] for j in order[:5]]
        for s in seeds:
            # clip inside the objective: keeps the ascent feasible
            res = minimize(
                lambda z: -_dist_f_to_cone(prob, xi, x, np.clip(z, lo, up)), s,
                method="Nelder-Mead",
                options={"fatol": 1e-12, "xatol": 1e-10, "maxiter": 400})
            z = np.clip(res.x, lo, up)
            v = _dist_f_to_cone(prob, xi, x, z)
            if v > best_val + 1e-15:
                best_val, best_pts, method = v, [z], "multistart"
            elif v >= best_val - ARGMAX_TOL:
                best_pts.append(z)
                method = "multistart"
    arg = []
    for cand in itertools.chain(best_pts, (pts[j] for j in order[:64])):
        v = _dist_f_to_cone(prob, xi, x, cand)
        if v >= best_val - ARGMAX_TOL and not any(
            np.linalg.norm(cand - a) <= 1e-7 for a in arg
        ):
            arg.append(np.asarray(cand, dtype=float))
    return NuEval(best_val, tuple(arg), method, tuple(flags))


def eval_mu(prob: pb.VepProblem, xi, x) -> float:
    """Distance of x to the slice K(xi)."""
    xi, x = prob.point(xi, x)
    return geo.dist(x, pb.slice_at(prob.K, xi))


def eval_merit(prob: pb.VepProblem, xi, x, eps: float = 0.0) -> MeritEval:
    """nu, mu and their sum at one point: the one row of a kernel call."""
    xi, x = prob.point(xi, x)
    nu, mu = _point(prob, xi, x, eps)
    return MeritEval(nu.value, mu, nu.value + mu, nu.argmax, nu.method, nu.flags)


# ---------------------------------------------------------------------------
# sampled hypothesis probes
# ---------------------------------------------------------------------------

def probe_lower_semicontinuity(prob: pb.VepProblem, n_sequences: int,
                               seed: int) -> tuple[bool, float]:
    """liminf of merit along random convergent sequences vs the limit value.

    Returns (ok, worst gap); worst gap is max over sequences of
    merit(limit) - liminf_k merit_k.  Every sequence is drawn first, then
    its limit and its tail points at r = 1e-7, 1e-8 along a fixed direction
    go through one kernel call.
    """
    rng = np.random.default_rng(seed)
    xlo, xup = prob.x_window()
    wlo, wup = prob.xi_window()
    XI, X = [], []
    for _ in range(n_sequences):
        xi0 = rng.uniform(wlo, wup)
        x0 = rng.uniform(xlo, xup)
        d_xi = rng.uniform(-1, 1, prob.p)
        d_x = rng.uniform(-1, 1, prob.n)
        XI += [xi0, xi0 + 1e-7 * d_xi, xi0 + 1e-8 * d_xi]
        X += [x0, x0 + 1e-7 * d_x, x0 + 1e-8 * d_x]
    merit = eval_merit_batch(prob, np.reshape(XI, (-1, prob.p)),
                             np.reshape(X, (-1, prob.n))).reshape(-1, 3)
    worst = float(np.max(merit[:, 0] - merit[:, 1:].min(axis=1), initial=-np.inf))
    return bool(worst <= 1e-6), worst


def probe_midpoint_convexity(prob: pb.VepProblem, which: str,
                             n_segments: int, seed: int) -> tuple[bool, float]:
    """Midpoint convexity of nu or mu on random segments inside the window:
    every segment is drawn first, then its midpoint and ends go through one
    kernel call."""
    rng = np.random.default_rng(seed)
    xlo, xup = prob.x_window()
    wlo, wup = prob.xi_window()
    XI, X = [], []
    for _ in range(n_segments):
        xi1, xi2 = rng.uniform(wlo, wup), rng.uniform(wlo, wup)
        x1, x2 = rng.uniform(xlo, xup), rng.uniform(xlo, xup)
        XI += [0.5 * (xi1 + xi2), xi1, xi2]
        X += [0.5 * (x1 + x2), x1, x2]
    nu, mu = _merit_parts(prob, np.reshape(XI, (-1, prob.p)), np.reshape(X, (-1, prob.n)))
    val = (nu if which == "nu" else mu).reshape(-1, 3)
    worst = float(np.max(val[:, 0] - 0.5 * (val[:, 1] + val[:, 2]), initial=-np.inf))
    return bool(worst <= 1e-8), worst
