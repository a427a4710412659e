"""Convex bodies backed by support functions.

Supported kinds: ellipsoid (h = sqrt(<x, A x>)), ball, perturbed ball
(h = R + band-limited harmonic perturbation, convexity certified on a grid),
polytope (h = max of vertex inner products, exact), and nonnegative Minkowski
combinations of these.  Bodies are immutable after construction and safe to
share across threads.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import ConvexHull

from .harmonics import HarmonicCombination, combine_dictionary, harmonic_from_json, harmonic_to_json
from .sphere import (
    ConstantFunction,
    LinearFunction,
    SphericalFunction,
    SumFunction,
    build_grid,
    min_hessian_eigenvalue,
)

__all__ = [
    "ConvexBody",
    "ConvexityViolation",
    "NotSmoothError",
    "ball_approx",
    "body_from_dict",
    "body_to_dict",
    "convexity_certificate",
    "ellipsoid_approx",
    "make_ball",
    "make_ellipsoid",
    "make_perturbed_ball",
    "make_polytope",
    "minkowski_support",
    "translate",
]


class NotSmoothError(TypeError):
    """Raised when a Hessian (or certificate) is requested from a non-smooth body."""


class ConvexityViolation(ValueError):
    """Perturbed-ball construction failed its positive-definiteness certificate."""

    def __init__(self, node, eigenvalue):
        self.node = np.asarray(node, dtype=float)
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"support Hessian eigenvalue {self.eigenvalue:.3e} below threshold at node {self.node}"
        )


class EllipsoidSupport(SphericalFunction):
    """h(x) = sqrt(<x, A x>) for symmetric positive definite A."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

    def values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.sqrt(np.einsum("gi,ij,gj->g", X, self.A, X))

    def hessians(self, X):
        # Hess h = (<x,Ax> A - (Ax)(Ax)^T) / <x,Ax>^{3/2}
        X = np.atleast_2d(np.asarray(X, dtype=float))
        q = np.einsum("gi,ij,gj->g", X, self.A, X)
        AX = X @ self.A
        return (q[:, None, None] * self.A[None, :, :] - AX[:, :, None] * AX[:, None, :]) / q[
            :, None, None
        ] ** 1.5


class PolytopeSupport(SphericalFunction):
    """h(x) = max_v <x, v> over the vertex list; exact but not differentiable."""

    def __init__(self, vertices):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))

    def values(self, X):
        return np.max(np.atleast_2d(X) @ self.vertices.T, axis=1)

    def hessians(self, X):
        raise NotSmoothError("polytope support functions have no pointwise Hessian")


@dataclass(frozen=True)
class ConvexBody:
    """A convex body given through its support function.

    ``smooth`` marks bodies whose support Hessian is available everywhere on
    the sphere; only those may occupy Hessian slots of mixed functionals.
    """

    kind: str
    n: int
    support: SphericalFunction
    smooth: bool
    matrix: np.ndarray | None = None
    radius: float | None = None
    perturbation: HarmonicCombination | None = None
    vertices: np.ndarray | None = None
    parts: tuple | None = None
    center: np.ndarray | None = None
    lower_dimensional: bool = False

    def support_values(self, X) -> np.ndarray:
        return self.support.values(X)

    def support_hessians(self, X) -> np.ndarray:
        if not self.smooth:
            raise NotSmoothError(f"{self.kind} body has no support Hessians")
        return self.support.hessians(X)


def _require_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


def make_ellipsoid(A) -> ConvexBody:
    """Ellipsoid {y : <y, A^{-1} y> <= 1}-style body with h(x) = sqrt(<x, A x>).

    A must be finite, symmetric (within 1e-12) and positive definite.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"ellipsoid matrix must be square, got shape {A.shape}")
    _require_finite("ellipsoid matrix", A)
    if np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("ellipsoid matrix must be symmetric within 1e-12")
    A = 0.5 * (A + A.T)
    if np.min(np.linalg.eigvalsh(A)) <= 0.0:
        raise ValueError("ellipsoid matrix must be positive definite")
    return ConvexBody(kind="ellipsoid", n=A.shape[0], support=EllipsoidSupport(A), smooth=True, matrix=A)


def make_ball(radius: float, n: int = 3) -> ConvexBody:
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"ball radius must be positive and finite, got {radius}")
    return ConvexBody(kind="ball", n=n, support=ConstantFunction(radius), smooth=True, radius=float(radius))


# smallest support-Hessian eigenvalue a perturbed ball must keep at every grid node
_CERTIFICATE_THRESHOLD = 1e-6


def make_perturbed_ball(radius: float, g, grid) -> ConvexBody:
    """Body with h = radius + g for a harmonic-dictionary perturbation g.

    ``g`` is a HarmonicCombination, kept as the body's ``perturbation``, or a
    {(l, j): c} label dict.  The support Hessian is swept over the grid
    nodes; construction fails with ConvexityViolation unless its smallest
    eigenvalue is >= 1e-6 (a NaN eigenvalue fails too).
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"perturbed ball radius must be positive and finite, got {radius}")
    n = grid.n
    if not isinstance(g, HarmonicCombination):
        g = combine_dictionary(n, g)
    support = SumFunction([(1.0, ConstantFunction(radius)), (1.0, g)])
    min_eig, node = min_hessian_eigenvalue(support, grid)
    if not min_eig >= _CERTIFICATE_THRESHOLD:
        raise ConvexityViolation(node, min_eig)
    return ConvexBody(kind="perturbed_ball", n=n, support=support, smooth=True, radius=float(radius), perturbation=g)


def make_polytope(vertices) -> ConvexBody:
    """Polytope as the convex hull of its vertices; lower-dimensional input is flagged."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    if V.size == 0:
        raise ValueError("polytope needs at least one vertex")
    _require_finite("polytope vertices", V)
    n = V.shape[1]
    centered = V - V.mean(axis=0)
    rank = np.linalg.matrix_rank(centered, tol=1e-10) if len(V) > 1 else 0
    return ConvexBody(
        kind="polytope",
        n=n,
        support=PolytopeSupport(V),
        smooth=False,
        vertices=V,
        lower_dimensional=bool(rank < n),
    )


def minkowski_support(bodies, lambdas) -> ConvexBody:
    """Minkowski combination sum_i lambda_i K_i; support functions add."""
    bodies = list(bodies)
    lambdas = [float(t) for t in lambdas]
    if len(bodies) != len(lambdas):
        raise ValueError("need one coefficient per body")
    if any(t < 0 for t in lambdas):
        raise ValueError("Minkowski coefficients must be nonnegative")
    n = bodies[0].n
    if any(b.n != n for b in bodies):
        raise ValueError("all bodies must share the ambient dimension")
    parts = [(t, b) for t, b in zip(lambdas, bodies) if t > 0]
    support = SumFunction([(t, b.support) for t, b in parts]) if parts else ConstantFunction(0.0)
    return ConvexBody(
        kind="minkowski_combination",
        n=n,
        support=support,
        smooth=all(b.smooth for _, b in parts) and bool(parts),
        parts=tuple(parts),
    )


def translate(body: ConvexBody, v) -> ConvexBody:
    """Translate a body by v; adds <x, v> to the support function."""
    v = np.asarray(v, dtype=float)
    _require_finite("translation vector", v)
    support = SumFunction([(1.0, body.support), (1.0, LinearFunction(v))])
    vertices = body.vertices + v[None, :] if body.vertices is not None else None
    center = v if body.center is None else body.center + v
    return replace(body, support=support, vertices=vertices, center=center)


def convexity_certificate(body: ConvexBody, grid) -> float:
    """Smallest eigenvalue of the support Hessian over the grid nodes.

    A strictly positive value certifies positive Gauss curvature at grid
    resolution.  Rejected for polytopes (no pointwise Hessian).
    """
    if not body.smooth:
        raise NotSmoothError("convexity certificate requires a smooth-kind body")
    return min_hessian_eigenvalue(body.support, grid)[0]


# -- polytope approximations of round bodies ---------------------------------

_ICO_CACHE: dict = {}


def _icosphere(level: int) -> np.ndarray:
    """Unit vertices of the level-times subdivided icosahedron."""
    if level in _ICO_CACHE:
        return _ICO_CACHE[level]
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(level):
        midpoint: dict = {}

        def midpt(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpt(a, b), midpt(b, c), midpt(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    out = np.asarray(verts)
    _ICO_CACHE[level] = out
    return out


# the two vertices a triangle shares with its neighbour opposite local vertex 0, 1, 2
_SHARED_VERTICES = np.array([[1, 2], [0, 2], [0, 1]])


def hull_edges(hull: ConvexHull):
    """Unit facet normals and every edge of a 3-d hull's triangulation once.

    Returns (normals, f, g, ends, theta): the edge between facets f < g runs
    from ends[:, 0] to ends[:, 1] and has exterior dihedral angle theta (0 on
    edges between coplanar triangles).
    """
    normals = hull.equations[:, :3]
    normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    f, local = np.nonzero(hull.neighbors > np.arange(len(hull.neighbors))[:, None])
    g = hull.neighbors[f, local]
    ends = hull.points[hull.simplices[f[:, None], _SHARED_VERTICES[local]]]
    nf, ng = normals[f], normals[g]
    theta = np.arctan2(np.linalg.norm(np.cross(nf, ng), axis=1), np.einsum("ij,ij->i", nf, ng))
    return normals, f, g, ends, theta


def mean_support_integral(vertices) -> float:
    """Exact integral of a 3-polytope support function over the sphere.

    Equals the edge functional sum_e len_e * theta_e / 2 (theta_e the exterior
    dihedral angle), obtained from the parallel-body decomposition.
    """
    _, _, _, ends, theta = hull_edges(ConvexHull(np.asarray(vertices, dtype=float)))
    return 0.5 * float(np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1) @ theta)


def ball_approx(level: int) -> ConvexBody:
    """Polytope approximation of the unit ball in R^3 (subdivided icosahedron).

    The vertices are scaled so the support-function deficit is mean-zero over
    the sphere: mixed volumes against independent bodies then lose their
    first-order approximation bias (an inscribed polytope's deficit is
    one-signed and shows up in every mixed functional).
    """
    verts = _icosphere(level)
    return make_polytope(verts * (4.0 * np.pi / mean_support_integral(verts)))


_ellipsoid_mw_grid = {}


def ellipsoid_approx(A, level: int, rotation=None) -> ConvexBody:
    """Polytope approximation of the ellipsoid with h = sqrt(<x, A x>).

    The ellipsoid is the image of the unit ball under A^{1/2}; the image of a
    subdivided icosahedron is rescaled so its support-function deficit against
    the ellipsoid is mean-zero on the sphere.  An optional rotation applied to
    the sphere vertices first breaks symmetry degeneracies between bodies.
    """
    A = np.asarray(A, dtype=float)
    w, Q = np.linalg.eigh(0.5 * (A + A.T))
    if np.min(w) <= 0:
        raise ValueError("ellipsoid matrix must be positive definite")
    root = (Q * np.sqrt(w)[None, :]) @ Q.T
    ball = _icosphere(level)
    if rotation is not None:
        ball = ball @ np.asarray(rotation, dtype=float).T
    verts = ball @ root.T
    if 3 not in _ellipsoid_mw_grid:
        _ellipsoid_mw_grid[3] = build_grid(3, 50)
    grid = _ellipsoid_mw_grid[3]
    target = grid.integrate(EllipsoidSupport(A).values(grid.nodes))
    return make_polytope(verts * (target / mean_support_integral(verts)))


# -- JSON round trip ----------------------------------------------------------


def body_to_dict(body: ConvexBody) -> dict:
    """JSON-ready description; float fields round-trip bit-exactly via repr."""
    if body.kind == "ellipsoid":
        out = {"kind": "ellipsoid", "matrix": [[float(v) for v in row] for row in body.matrix]}
    elif body.kind == "ball":
        out = {"kind": "ball", "radius": float(body.radius)}
    elif body.kind == "polytope":
        out = {"kind": "polytope", "vertices": [[float(v) for v in row] for row in body.vertices]}
    elif body.kind == "perturbed_ball":
        out = {
            "kind": "perturbed_ball",
            "radius": float(body.radius),
            "coeffs": harmonic_to_json(body.perturbation),
        }
    else:
        raise ValueError(f"body kind {body.kind!r} has no JSON form")
    if body.center is not None and np.any(body.center != 0.0):
        out["center"] = [float(v) for v in body.center]
    return out


def body_from_dict(data: dict, grid) -> ConvexBody:
    """Inverse of body_to_dict; perturbed balls re-run their convexity certificate on ``grid``."""
    n = grid.n
    kind = data["kind"]
    if kind == "ellipsoid":
        body = make_ellipsoid(np.asarray(data["matrix"], dtype=float))
    elif kind == "ball":
        body = make_ball(float(data["radius"]), n=n)
    elif kind == "polytope":
        body = make_polytope(np.asarray(data["vertices"], dtype=float))
    elif kind == "perturbed_ball":
        body = make_perturbed_ball(float(data["radius"]), harmonic_from_json(n, data.get("coeffs", {})), grid)
    else:
        raise ValueError(f"unknown body kind {kind!r}")
    if "center" in data:
        body = translate(body, np.asarray(data["center"], dtype=float))
    return body
