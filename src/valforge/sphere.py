"""Sphere quadrature grids, tangent frames, restricted Hessians, mixed discriminants.

Conventions used throughout the package: points on the unit sphere S^{n-1} are
unit row vectors, a batch of points is an (m, n) array.  For a function f on
the sphere, D^2 f denotes the Hessian of its 1-homogeneous extension
F(y) = |y| f(y/|y|), evaluated at a unit vector.  It annihilates the radial
direction and restricts to a symmetric bilinear form on the tangent space;
in terms of the intrinsic spherical Hessian it equals grad^2 f + f * Id.

Per-grid tables: ``build_grid`` returns read-only ``nodes`` and ``weights``
and gives the grid a store of derived arrays (``_grid_tables``) that lives
exactly as long as its ``nodes`` array.  ``tangent_bases`` and the harmonic
monomial tables read and fill that store, read-only, when they are passed
that very node array; any other array (a copy, a slice, a broadcast view)
is computed afresh on every call.  Grids held in module-level caches
(``kernels._norm_grid_cache``, ``bodies._ellipsoid_mw_grid``) therefore keep
their tables for the life of the process.  ``restricted_hessian_stack``
takes its frames from ``tangent_bases`` of the nodes it is given, so every
tangent form on a grid is written in that grid's one cached basis, the basis
the spanning frame's solvers expect.  ``min_hessian_eigenvalue`` is the
convexity sweep over those forms.
"""

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, roots_jacobi, roots_legendre

__all__ = [
    "SphereGrid",
    "SphericalFunction",
    "ConstantFunction",
    "LinearFunction",
    "SumFunction",
    "build_grid",
    "fd_hessians",
    "min_hessian_eigenvalue",
    "mixed_discriminant_stack",
    "monomial_sphere_integral",
    "sphere_area",
    "tangent_basis",
    "tangent_bases",
]


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return float(2.0 * np.pi ** (0.5 * n) / gamma(0.5 * n))


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return sphere_area(n) / n


def monomial_sphere_integral(exponents) -> float:
    """Exact integral of the monomial prod_i x_i^{a_i} over S^{n-1}.

    Vanishes when any exponent is odd; otherwise equals
    2 * prod Gamma(b_i) / Gamma(sum b_i) with b_i = (a_i + 1) / 2.
    """
    a = np.asarray(exponents, dtype=int)
    if np.any(a % 2 == 1):
        return 0.0
    b = (a + 1) / 2.0
    return float(2.0 * np.prod(gamma(b)) / gamma(b.sum()))


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes and positive weights on S^{n-1}.

    Integrates polynomials (restricted to the sphere) of total degree up to
    ``degree`` exactly; the weights sum to the sphere area.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, values))


# id(grid.nodes) -> {name: read-only array}; an entry is dropped when its
# nodes array is freed, so a live id always names the grid's own array
_GRID_TABLES: dict = {}


def _grid_tables(X) -> dict | None:
    """The derived-array store of the grid whose ``nodes`` is X, or None for any other array."""
    return _GRID_TABLES.get(id(X))


def build_grid(n: int, degree: int) -> SphereGrid:
    """Product quadrature grid on S^{n-1} exact up to polynomial ``degree``.

    Gauss nodes in each polar cosine (the iterated polar factorization picks
    up a (1-u^2)^((d-3)/2) surface-measure factor per level, handled by the
    matching Gauss-Jacobi rule; the innermost level is plain Gauss-Legendre)
    times a uniform rule in the angular coordinate.
    """
    if n < 2:
        raise ValueError(f"sphere grid needs ambient dimension n >= 2, got {n}")
    if degree < 2:
        raise ValueError(f"sphere grid needs exactness degree >= 2, got {degree}")

    m_angle = 2 * (degree + 1)
    angles = 2.0 * np.pi * np.arange(m_angle) / m_angle
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(m_angle, 2.0 * np.pi / m_angle)

    m_polar = degree + 1
    for d in range(3, n + 1):
        alpha = 0.5 * (d - 3)
        if alpha == 0.0:
            u, w = roots_legendre(m_polar)
        else:
            u, w = roots_jacobi(m_polar, alpha, alpha)
        s = np.sqrt(1.0 - u * u)
        m_prev = nodes.shape[0]
        new_nodes = np.empty((m_polar * m_prev, d))
        new_nodes[:, : d - 1] = (s[:, None, None] * nodes[None, :, :]).reshape(-1, d - 1)
        new_nodes[:, d - 1] = np.repeat(u, m_prev)
        nodes = new_nodes
        weights = (w[:, None] * weights[None, :]).ravel()

    norms = np.linalg.norm(nodes, axis=1)
    nodes = nodes / norms[:, None]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    _GRID_TABLES[id(nodes)] = {}
    weakref.finalize(nodes, _GRID_TABLES.pop, id(nodes), None)
    return SphereGrid(n=n, nodes=nodes, weights=weights, degree=degree)


def tangent_bases(X: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent bases at a batch of unit vectors.

    Returns an (m, n, n-1) array whose columns at row g are the first n-1
    columns of the Householder reflection mapping the last coordinate axis
    to X[g].  At the axis itself the reflection degenerates to the identity.
    On a grid's own nodes the bases are computed once and returned read-only.
    """
    store = _grid_tables(X)
    if store is None:
        return _householder_bases(X)
    if "tangent_bases" not in store:
        B = _householder_bases(X)
        B.setflags(write=False)
        store["tangent_bases"] = B
    return store["tangent_bases"]


def _householder_bases(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, n = X.shape
    V = X.copy()
    V[:, -1] -= 1.0
    nv2 = np.einsum("ij,ij->i", V, V)
    safe = np.where(nv2 > 1e-24, nv2, 1.0)
    scale = np.where(nv2 > 1e-24, 2.0 / safe, 0.0)
    B = np.broadcast_to(np.eye(n)[:, : n - 1], (m, n, n - 1)).copy()
    B -= scale[:, None, None] * V[:, :, None] * V[:, None, : n - 1]
    return B


def tangent_basis(x) -> np.ndarray:
    """Orthonormal tangent basis at one unit vector, as an (n, n-1) matrix."""
    return tangent_bases(np.asarray(x, dtype=float)[None])[0]


class SphericalFunction:
    """Scalar field on the sphere with the Hessian of its 1-homogeneous extension.

    Subclasses override ``values`` and, when a closed form exists, ``hessians``;
    the base class falls back to central finite differences with one Richardson
    extrapolation level.
    """

    def values(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, x) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def hessians(self, X: np.ndarray) -> np.ndarray:
        """Ambient (m, n, n) Hessian stack of the extension; annihilates each point."""
        return fd_hessians(self, np.atleast_2d(np.asarray(X, dtype=float)))

    def hessian(self, x) -> np.ndarray:
        return self.hessians(np.asarray(x, dtype=float)[None])[0]


class ConstantFunction(SphericalFunction):
    """f == c; support function of the centered ball of radius c."""

    def __init__(self, c: float):
        self.c = float(c)

    def values(self, X):
        X = np.atleast_2d(X)
        return np.full(X.shape[0], self.c)

    def hessians(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[1]
        return self.c * (np.eye(n)[None, :, :] - X[:, :, None] * X[:, None, :])


class LinearFunction(SphericalFunction):
    """f(x) = <x, v>; support function of the point {v}.  Zero Hessian."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def values(self, X):
        return np.atleast_2d(X) @ self.v

    def hessians(self, X):
        X = np.atleast_2d(X)
        m, n = X.shape
        return np.zeros((m, n, n))


class SumFunction(SphericalFunction):
    """Weighted sum of spherical functions; values and Hessians add."""

    def __init__(self, parts):
        self.parts = [(float(w), f) for w, f in parts]

    def values(self, X):
        X = np.atleast_2d(X)
        out = np.zeros(X.shape[0])
        for w, f in self.parts:
            out += w * f.values(X)
        return out

    def hessians(self, X):
        X = np.atleast_2d(X)
        m, n = X.shape
        out = np.zeros((m, n, n))
        for w, f in self.parts:
            out += w * f.hessians(X)
        return out


def _extension_values(f: SphericalFunction, Y: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(Y, axis=1)
    return r * f.values(Y / r[:, None])


# coarse step h of fd_hessians; the fine step is h / 2
_FD_STEP = 1e-3


def fd_hessians(f: SphericalFunction, X: np.ndarray) -> np.ndarray:
    """Finite-difference Hessians of the 1-homogeneous extension of f.

    Central second differences at steps h = 1e-3 and h/2 combined by one
    Richardson level, (4 H(h/2) - H(h)) / 3.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, n = X.shape

    def at_step(h):
        H = np.empty((m, n, n))
        for i in range(n):
            for j in range(i, n):
                ei = np.zeros(n)
                ei[i] = h
                ej = np.zeros(n)
                ej[j] = h
                vpp = _extension_values(f, X + ei + ej)
                vpm = _extension_values(f, X + ei - ej)
                vmp = _extension_values(f, X - ei + ej)
                vmm = _extension_values(f, X - ei - ej)
                H[:, i, j] = (vpp - vpm - vmp + vmm) / (4.0 * h * h)
                H[:, j, i] = H[:, i, j]
        return H

    coarse = at_step(_FD_STEP)
    fine = at_step(_FD_STEP / 2.0)
    return (4.0 * fine - coarse) / 3.0


def restricted_hessian_stack(f: SphericalFunction, nodes: np.ndarray) -> np.ndarray:
    """Tangent-restricted Hessians of f at all nodes, shape (m, n-1, n-1), in the ``tangent_bases`` frames."""
    bases = tangent_bases(nodes)
    return np.swapaxes(bases, 1, 2) @ f.hessians(nodes) @ bases


def min_hessian_eigenvalue(f: SphericalFunction, grid: SphereGrid):
    """(value, node): the smallest eigenvalue of D^2 f over the grid nodes and a node attaining it."""
    eigs = np.linalg.eigvalsh(restricted_hessian_stack(f, grid.nodes))[:, 0]
    imin = int(np.argmin(eigs))
    return float(eigs[imin]), grid.nodes[imin]


# rows (columns) i + 1, i + 2 mod 3: the 2 x 2 minor of entry (i, j) of a 3 x 3 matrix
_MINOR = ((1, 2), (2, 0), (0, 1))


def mixed_discriminant_stack(stacks) -> np.ndarray:
    """Vectorized mixed discriminant of m stacks of symmetric matrices.

    Each entry of ``stacks`` has shape (g, m, m); the result has shape (g,).
    Closed forms for m = 1 (the entry), m = 2, where the polarization is
    D(A, B) = (a11 b22 + a22 b11 - a12 b21 - a21 b12) / 2, and m = 3, where
    D(A, B, C) = (1/3) sum_ij a_ij cof(B, C)_ij with cof(B, C) the polarized
    cofactor matrix, (cof(B + C) - cof(B) - cof(C)) / 2 (as
    sum_ij b_ij cof(B)_ij = 3 det B); the subset sum for m >= 4.
    """
    stacks = [np.asarray(s, dtype=float) for s in stacks]
    m = len(stacks)
    g = stacks[0].shape[0]
    for s in stacks:
        if s.shape != (g, m, m):
            raise ValueError("stacks must share shape (g, m, m) with m = len(stacks)")
    if m == 1:
        return stacks[0][:, 0, 0].copy()
    if m == 2:
        A, B = stacks
        return 0.5 * (
            A[:, 0, 0] * B[:, 1, 1] + A[:, 1, 1] * B[:, 0, 0] - A[:, 0, 1] * B[:, 1, 0] - A[:, 1, 0] * B[:, 0, 1]
        )
    if m == 3:
        A, B, C = stacks
        total = np.zeros(g)
        for i, j in itertools.product(range(3), repeat=2):
            (i1, i2), (j1, j2) = _MINOR[i], _MINOR[j]
            cofactor = B[:, i1, j1] * C[:, i2, j2] + C[:, i1, j1] * B[:, i2, j2]
            cofactor -= B[:, i1, j2] * C[:, i2, j1] + C[:, i1, j2] * B[:, i2, j1]
            total += A[:, i, j] * cofactor
        return total / 6.0
    total = np.zeros(g)
    for r in range(1, m + 1):
        sign = (-1.0) ** (m - r)
        for combo in itertools.combinations(range(m), r):
            acc = stacks[combo[0]].copy()
            for i in combo[1:]:
                acc += stacks[i]
            total += sign * np.linalg.det(acc)
    return total / math.factorial(m)
