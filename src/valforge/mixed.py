"""Mixed area-measure densities, mixed volumes, and Steiner coefficients.

Two independent mixed-volume backends serve as mutual oracles:

* a quadrature route for smooth bodies, V(L, K[k], L_2, ...) =
  (1/n) integral h_L * D(D^2 h_K [k], D^2 h_{L_2}, ...): ``mixed_area_density``
  returns the mixed discriminant at the grid nodes as a plain array, and
  ``mixed_volume_smooth`` integrates a support function against a node
  array.  Every smooth mixed volume and Steiner coefficient goes through
  that one routine (a polytope is allowed only in the plain support-function
  slot).  Mixed volumes are linear in the support slot, so a signed sum of
  densities, built once, values a whole sum of mixed volumes that share
  their support body: ``synthesis`` values every kernel and combination
  that way, with K in the support slot against one compiled node table;
* a polarization route for polytopes, the inclusion-exclusion sum of the
  2^n - 1 volumes of Minkowski sums of nonempty subsets of the bodies.

Minkowski-sum volumes default to convex hulls of vertex sums; for large vertex
sets in R^3 an exact Gauss-map overlay evaluator (facet and edge-crossing
contributions to the surface decomposition of the sum) avoids materializing
the product vertex set.  Its candidate arc crossings come from a KD-tree over
the arc midpoints followed by the exact angular reach test on those pairs, and
its support values are taken in row blocks of fixed size, so its working
memory does not grow with (directions x vertices).
"""

import itertools
import math
import warnings

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.special import comb

from .bodies import ConvexBody, NotSmoothError, hull_edges, make_ball, mean_support_integral
from .sphere import SphereGrid, ball_volume, mixed_discriminant_stack, restricted_hessian_stack

__all__ = [
    "mixed_area_density",
    "mixed_volume_quadrature",
    "mixed_volume_smooth",
    "minkowski_volume",
    "parallel_body_volume",
    "polytope_mixed_volume",
    "polytope_volume",
    "steiner_coefficients",
]

# vertex-product size beyond which the n=3 overlay engine takes over in "auto"
_HULL_POINT_LIMIT = 200_000
# (directions x vertices) products the overlay forms at once: 2^17 doubles (1 MB), or two rows
_SUPPORT_BLOCK_ELEMENTS = 1 << 17


def mixed_area_density(K: ConvexBody, k: int, others, grid: SphereGrid) -> np.ndarray:
    """Node values (G,) of the mixed area-measure density with K in k slots and ``others`` in the rest.

    Node-wise mixed discriminant of (D^2 h_K taken k times, D^2 h_{L_2}, ...).
    All Hessian-slot bodies must be smooth; polytopes are rejected.
    """
    n = grid.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"multiplicity k must satisfy 1 <= k <= n-1, got k={k}")
    others = list(others)
    if len(others) != n - 1 - k:
        raise ValueError(f"expected {n - 1 - k} companion bodies, got {len(others)}")
    for b in [K, *others]:
        if not b.smooth:
            raise NotSmoothError("mixed area densities need smooth bodies in Hessian slots")
    k_stack = restricted_hessian_stack(K.support, grid.nodes)
    return mixed_discriminant_stack([k_stack] * k + [restricted_hessian_stack(b.support, grid.nodes) for b in others])


def mixed_volume_smooth(L1: ConvexBody, density: np.ndarray, grid: SphereGrid) -> float:
    """(1/n) integral h_{L1} * density: V(L1, K[k], L_2, ...) for density = mixed_area_density(K, k, [L_2, ...]).

    Only the support values of L1 are integrated, so L1 may be a polytope.
    The density is any node array on this grid: by linearity a signed sum of
    mixed area densities gives the matching sum of mixed volumes.
    """
    return grid.integrate(L1.support_values(grid.nodes) * density) / grid.n


def mixed_volume_quadrature(bodies, grid: SphereGrid) -> float:
    """V(B_1, ..., B_n) with B_1 in the support slot and B_2..B_n in Hessian slots."""
    bodies = list(bodies)
    if len(bodies) != grid.n:
        raise ValueError(f"need exactly n={grid.n} bodies, got {len(bodies)}")
    return mixed_volume_smooth(bodies[0], mixed_area_density(bodies[1], 1, bodies[2:], grid), grid)


# -- polytope volume route ----------------------------------------------------


def polytope_volume(P: ConvexBody) -> float:
    """Exact volume of the convex hull of the vertex set; 0 for flat input."""
    if P.vertices is None:
        raise ValueError("polytope volume needs a vertex-backed body")
    if P.lower_dimensional:
        return 0.0
    try:
        return float(ConvexHull(P.vertices).volume)
    except QhullError:
        warnings.warn("degenerate vertex set treated as lower-dimensional (volume 0)", stacklevel=2)
        return 0.0


def _sum_vertex_points(vertex_sets, lambdas):
    """Candidate vertices of sum_i lambda_i P_i, pruning through pairwise hulls."""
    active = [(lam, V) for lam, V in zip(lambdas, vertex_sets) if lam > 0]
    if not active:
        return None
    points = active[0][0] * active[0][1]
    for lam, V in active[1:]:
        points = (points[:, None, :] + lam * V[None, :, :]).reshape(-1, points.shape[1])
        if len(points) > 64:
            try:
                points = points[ConvexHull(points).vertices]
            except QhullError:
                pass  # degenerate intermediate; keep raw candidates
    return points


def minkowski_volume(vertex_sets, lambdas) -> float:
    """Volume of sum_i lambda_i conv(V_i) via the hull of vertex sums."""
    points = _sum_vertex_points(vertex_sets, lambdas)
    if points is None or len(points) <= points.shape[1]:
        return 0.0
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


class OverlayDegenerateError(RuntimeError):
    """Gauss-map overlay hit a non-generic configuration; fall back to hulls."""


def _near_arc_pairs(arcs_i, arcs_j):
    """Index pairs (i, j), sorted row-major, of arcs whose midpoints lie within their reach sum.

    A KD-tree over the unit midpoints returns the pairs within the chord of the
    widest reach sum; the exact angular test then runs on those pairs only.
    """
    mid_i, reach_i, mid_j, reach_j = arcs_i["mid"], arcs_i["reach"], arcs_j["mid"], arcs_j["reach"]
    widest = min(math.pi, reach_i.max(initial=0.0) + reach_j.max(initial=0.0) + 1e-9)
    radius = 2.0 * math.sin(0.5 * widest) + 1e-12
    pairs = cKDTree(mid_i).sparse_distance_matrix(cKDTree(mid_j), radius, output_type="ndarray")
    ii, jj = pairs["i"], pairs["j"]
    sep = np.arccos(np.clip(np.einsum("kl,kl->k", mid_i[ii], mid_j[jj]), -1.0, 1.0))
    near = sep <= reach_i[ii] + reach_j[jj] + 1e-9
    order = np.lexsort((jj[near], ii[near]))
    return ii[near][order], jj[near][order]


class _GaussMapOverlay:
    """Exact volume polynomial of Minkowski combinations of 3-polytopes.

    The boundary of sum_i lambda_i P_i decomposes (for bodies in generic
    relative position) into translated facets of the summands and edge-crossing
    parallelograms; vol = (1/3) sum_faces h(u) * area(u) then has an explicit
    polynomial dependence on the coefficients, evaluated here without forming
    any Minkowski-sum hull.
    """

    def __init__(self, vertex_sets):
        self.vertex_sets = [np.asarray(V, dtype=float) for V in vertex_sets]
        self.m = len(self.vertex_sets)
        if any(V.shape[1] != 3 for V in self.vertex_sets):
            raise OverlayDegenerateError("overlay engine is specific to R^3")
        self._facets = []  # per body: (normals, areas)
        self._arcs = []  # per body: arc endpoints a, b, midpoints, reaches, edge vectors w
        self._hull_volumes = []
        for V in self.vertex_sets:
            hull = ConvexHull(V)
            facets, arcs = self._hull_data(hull)
            self._facets.append(facets)
            self._arcs.append(arcs)
            self._hull_volumes.append(float(hull.volume))
        self._crossings = []  # (i, j, directions, parallelogram areas)
        for i in range(self.m):
            for j in range(i + 1, self.m):
                dirs, areas = self._cross_arcs(self._arcs[i], self._arcs[j])
                self._crossings.append((i, j, dirs, areas))
        # support values of every body at every face direction
        self._support_facets = [self._supports(f[0]) for f in self._facets]
        self._support_cross = [self._supports(d) for (_, _, d, _) in self._crossings]
        self._self_check()

    def _supports(self, directions):
        """(m, D) support values max_v <d, v>, from row blocks of the directions.

        A block holds at most _SUPPORT_BLOCK_ELEMENTS products but at least two
        rows, and the last block is moved back to full size, overlapping the one
        before: numpy computes a one-row product by another BLAS routine, whose
        last bits differ.  Every value then equals the one-shot product's.
        """
        out = np.empty((self.m, len(directions)))
        for i, V in enumerate(self.vertex_sets):
            rows = max(2, _SUPPORT_BLOCK_ELEMENTS // len(V))
            for start in range(0, len(directions), rows):
                block = slice(max(0, min(start, len(directions) - rows)), start + rows)
                out[i, block] = np.max(directions[block] @ V.T, axis=1)
        return out

    @staticmethod
    def _hull_data(hull):
        """Facet (normals, areas) and the normal arcs of the non-flat edges."""
        normals, f, g, ends, theta = hull_edges(hull)
        simplices = hull.points[hull.simplices]
        cross = np.cross(simplices[:, 1] - simplices[:, 0], simplices[:, 2] - simplices[:, 0])
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        arc = theta > 1e-6  # coplanar triangulation edges have zero-length arcs
        a, b, w = normals[f[arc]], normals[g[arc]], ends[arc, 1] - ends[arc, 0]
        mid = (a + b) / np.linalg.norm(a + b, axis=1)[:, None]
        reach = np.arccos(np.clip(np.einsum("ij,ij->i", a, mid), -1.0, 1.0))  # angular half-length
        return (normals, areas), {"a": a, "b": b, "w": w, "mid": mid, "reach": reach}

    @staticmethod
    def _cross_arcs(arcs_i, arcs_j, tol=1e-10):
        """Directions where normal arcs of edges from two bodies cross transversally.

        Only candidate pairs are tried: a KD-tree over the arc midpoints, then the exact reach test.
        """
        ai, bi, wi = arcs_i["a"], arcs_i["b"], arcs_i["w"]
        aj, bj, wj = arcs_j["a"], arcs_j["b"], arcs_j["w"]
        ci_plane = np.cross(ai, bi)  # normal of each arc's great-circle plane
        cj_plane = np.cross(aj, bj)
        ii, jj = _near_arc_pairs(arcs_i, arcs_j)
        u = np.cross(wi[ii], wj[jj])
        nu = np.linalg.norm(u, axis=1)
        scale = np.linalg.norm(wi[ii], axis=1) * np.linalg.norm(wj[jj], axis=1)
        keep = nu > 1e-9 * scale  # parallel edges span a zero-area face
        ii, jj, u, nu = ii[keep], jj[keep], u[keep], nu[keep]
        if len(ii) == 0:
            return np.zeros((0, 3)), np.zeros(0)
        u = u / nu[:, None]

        def memberships(v):
            # signed positions of v inside each arc, normalized per arc plane
            s1 = np.einsum("kl,kl->k", np.cross(ai[ii], v), ci_plane[ii])
            s2 = np.einsum("kl,kl->k", np.cross(v, bi[ii]), ci_plane[ii])
            s3 = np.einsum("kl,kl->k", np.cross(aj[jj], v), cj_plane[jj])
            s4 = np.einsum("kl,kl->k", np.cross(v, bj[jj]), cj_plane[jj])
            bound_i = tol * np.einsum("kl,kl->k", ci_plane[ii], ci_plane[ii])
            bound_j = tol * np.einsum("kl,kl->k", cj_plane[jj], cj_plane[jj])
            strict = (s1 > bound_i) & (s2 > bound_i) & (s3 > bound_j) & (s4 > bound_j)
            near = (s1 > -bound_i) & (s2 > -bound_i) & (s3 > -bound_j) & (s4 > -bound_j)
            return strict, near

        strict_p, near_p = memberships(u)
        strict_m, near_m = memberships(-u)
        if np.any(near_p & ~strict_p) or np.any(near_m & ~strict_m):
            raise OverlayDegenerateError("arc crossing within tolerance of an arc endpoint")
        accept = strict_p | strict_m
        dirs = np.where(strict_p[:, None], u, -u)[accept]
        return dirs, nu[accept]

    def _self_check(self):
        # single-body volumes must reproduce the hull volumes exactly
        for i, ref in enumerate(self._hull_volumes):
            lam = [0.0] * self.m
            lam[i] = 1.0
            got = self.volume(lam)
            if not math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-12):
                raise OverlayDegenerateError(
                    f"overlay self-check failed on body {i}: {got!r} vs hull {ref!r}"
                )

    def volume(self, lambdas) -> float:
        lam = np.asarray(lambdas, dtype=float)
        total = 0.0
        for i, (normals, areas) in enumerate(self._facets):
            if lam[i] == 0.0 or len(areas) == 0:
                continue
            h = lam @ self._support_facets[i]
            total += lam[i] ** 2 * float(np.dot(areas, h))
        for (i, j, _, par_areas), H in zip(self._crossings, self._support_cross):
            if lam[i] == 0.0 or lam[j] == 0.0 or len(par_areas) == 0:
                continue
            h = lam @ H
            total += lam[i] * lam[j] * float(np.dot(par_areas, h))
        return total / 3.0


def polytope_mixed_volume(bodies, engine: str = "auto") -> float:
    """Mixed volume V(P_1, ..., P_n) of n polytopes by polarization.

    V(P_1, ..., P_n) = (1/n!) sum_S (-1)^(n - |S|) vol(sum_{i in S} P_i) over
    the 2^n - 1 nonempty subsets S (Schneider, Convex Bodies, Sec. 5.1).

    ``engine`` selects the Minkowski-volume evaluator: "hull" (convex hulls of
    vertex sums), "overlay" (exact Gauss-map overlay, n = 3, generic position),
    or "auto" (overlay for large vertex products, hulls otherwise; when the
    overlay rejects the bodies, a UserWarning gives its reason and hulls are used).
    """
    bodies = list(bodies)
    n = bodies[0].n
    if len(bodies) != n:
        raise ValueError(f"mixed volume in R^{n} needs exactly {n} bodies, got {len(bodies)}")
    vertex_sets = []
    for b in bodies:
        if b.vertices is None:
            raise ValueError("polytope mixed volume needs vertex-backed bodies")
        vertex_sets.append(np.asarray(b.vertices, dtype=float))

    overlay = None
    if engine not in ("auto", "hull", "overlay"):
        raise ValueError(f"unknown engine {engine!r}")
    product_size = math.prod(len(V) for V in vertex_sets)
    if engine == "overlay" or (engine == "auto" and n == 3 and product_size > _HULL_POINT_LIMIT):
        try:
            overlay = _GaussMapOverlay(vertex_sets)
        except OverlayDegenerateError as err:
            if engine == "overlay":
                raise
            warnings.warn(f"Gauss-map overlay not applicable ({err}); using convex hulls", stacklevel=2)

    total = 0.0
    for subset in itertools.product((0, 1), repeat=n):
        if any(subset):
            vol = overlay.volume(subset) if overlay is not None else minkowski_volume(vertex_sets, subset)
            total += (-1) ** (n - sum(subset)) * vol
    return total / math.factorial(n)


# -- Steiner coefficients -----------------------------------------------------


def _parallel_body_coefficients(P: ConvexBody) -> list:
    """Coefficients of t^0..t^n in vol(P + t*B) for a full-dimensional polytope P (n <= 3).

    Decomposes the parallel body into the polytope, facet prisms, edge wedges,
    and vertex sphere sectors: [area, perimeter, pi] in R^2 and
    [V, A, sum_e len_e * theta_e / 2, 4 pi / 3] in R^3, with theta_e the
    exterior dihedral angle along edge e.
    """
    if P.vertices is None:
        raise ValueError("parallel body volume needs a vertex-backed polytope")
    if P.lower_dimensional:
        raise ValueError("parallel body volume needs a full-dimensional polytope")
    if P.n not in (2, 3):
        raise NotImplementedError("parallel body volumes are implemented for n in {2, 3}")
    V = np.asarray(P.vertices, dtype=float)
    hull = ConvexHull(V)
    if P.n == 2:
        return [float(hull.volume), float(hull.area), math.pi]
    # edge wedges carry sum_e len_e * theta_e / 2, the support integral of P
    return [float(hull.volume), float(hull.area), mean_support_integral(V), ball_volume(3)]


def parallel_body_volume(P: ConvexBody, t: float) -> float:
    """Exact volume of P + t*B for a full-dimensional polytope P (n <= 3)."""
    return sum(c * t**j for j, c in enumerate(_parallel_body_coefficients(P)))


def _steiner_smooth(K: ConvexBody, grid: SphereGrid) -> list:
    # t^0: vol(K) = V(K[n]); t^j for 0 < j < n: C(n, j) V(K[n-j], B[j]), the
    # ball in the support slot and j - 1 Hessian slots; t^n: vol(B)
    n = grid.n
    ball = make_ball(1.0, n=n)
    volumes = [mixed_volume_smooth(K, mixed_area_density(K, n - 1, [], grid), grid)]
    for j in range(1, n):
        volumes.append(mixed_volume_smooth(ball, mixed_area_density(K, n - j, [ball] * (j - 1), grid), grid))
    return [float(comb(n, j)) * value for j, value in enumerate(volumes)] + [ball_volume(n)]


def steiner_coefficients(K: ConvexBody, grid: SphereGrid) -> list:
    """Coefficients of t^0..t^n in vol(K + t B).

    Smooth bodies go through the quadrature mixed-volume assembly; polytopes
    through the exact parallel-body decomposition.
    """
    if K.smooth:
        return _steiner_smooth(K, grid)
    if K.vertices is not None:
        return _parallel_body_coefficients(K)
    raise ValueError("Steiner coefficients need a smooth body or a polytope")
