"""Separable decompositions of smooth kernels on products of spheres.

A kernel F on (S^{n-1})^m is expanded against the tensor product of the
orthonormal harmonic dictionary on each factor; every surviving coefficient
becomes one separable term (the coefficient is folded into the first factor).
For band-limited kernels the expansion is exact up to quadrature roundoff.
The norm-bound ledger tracks the partial sums sum_j prod_i ||f_i^j||_{C^{l_i}}
that control convergence of downstream accumulations.
"""

from dataclasses import dataclass

import numpy as np

from .harmonics import HarmonicCombination, combine_dictionary, dictionary_values, harmonic_dictionary
from .sphere import SphereGrid, build_grid, restricted_hessian_stack, tangent_bases

__all__ = [
    "ReconstructionFailure",
    "TensorDecomposition",
    "c_norm",
    "decompose_kernel",
    "harmonic_table_kernel",
    "norm_bound_report",
    "reconstruct",
    "reconstruct_batch",
    "separable_kernel",
]

_MAX_PRODUCT_EVALS = 200_000_000


class ReconstructionFailure(RuntimeError):
    """The kernel is not band-limited enough for the requested dictionary degree."""


@dataclass(frozen=True)
class TensorDecomposition:
    """Finite separable expansion F = sum_j f_1^j x ... x f_m^j.

    Terms are sorted by decreasing coefficient magnitude and each carries the
    raw expansion coefficient in ``coefficients`` (already folded into the
    first factor of the term).
    """

    n: int
    factors: int
    terms: tuple
    coefficients: np.ndarray
    residual: float
    max_degree: int
    dropped_mass: float = 0.0

    def __len__(self) -> int:
        return len(self.terms)


def separable_kernel(bodies):
    """Kernel F(x_1, ..., x_m) = prod_i h_{K_i}(x_i) from a list of bodies."""
    supports = [b.support for b in bodies]

    def F(*points):
        shape = np.broadcast_shapes(*(np.asarray(p).shape[:-1] for p in points))
        out = np.ones(shape)
        for f, p in zip(supports, points):
            p = np.asarray(p, dtype=float)
            flat = np.broadcast_to(p, shape + (p.shape[-1],)).reshape(-1, p.shape[-1])
            out = out * f.values(flat).reshape(shape)
        return out

    return F


def harmonic_table_kernel(n: int, entries):
    """Kernel sum c * phi_{l_1 j_1} x ... x phi_{l_m j_m} from labelled coefficients.

    ``entries`` is an iterable of (coefficient, ((l_1, j_1), ..., (l_m, j_m))).
    """
    entries = [(float(c), tuple((int(l), int(j)) for l, j in labels)) for c, labels in entries]
    factors = {len(labels) for _, labels in entries}
    if len(factors) != 1:
        raise ValueError("all kernel entries need the same number of factors")
    funcs = [
        (c, [combine_dictionary(n, {label: 1.0}) for label in labels]) for c, labels in entries
    ]

    def F(*points):
        shape = np.broadcast_shapes(*(np.asarray(p).shape[:-1] for p in points))
        out = np.zeros(shape)
        for c, fs in funcs:
            term = np.full(shape, c)
            for f, p in zip(fs, points):
                p = np.asarray(p, dtype=float)
                flat = np.broadcast_to(p, shape + (p.shape[-1],)).reshape(-1, p.shape[-1])
                term = term * f.values(flat).reshape(shape)
            out += term
        return out

    return F


def decompose_kernel(
    F, factors: int, max_degree: int, n: int = 3, grid: SphereGrid | None = None, tol: float = 1e-10
) -> TensorDecomposition:
    """Expand a kernel on (S^{n-1})^factors into separable dictionary terms.

    Coefficients come from quadrature on the product grid (exact for kernels
    band-limited within ``max_degree``); terms below ``tol`` in magnitude are
    dropped and the rest are sorted by decreasing magnitude.  Raises
    ReconstructionFailure when the sup-norm residual on a test subgrid exceeds
    10 * tol.
    """
    if factors < 1:
        raise ValueError("need at least one kernel factor")
    if grid is None:
        grid = build_grid(n, 2 * max_degree + 2)
    entries = harmonic_dictionary(n, max_degree)
    phi = dictionary_values(grid.nodes, max_degree)  # (D, G)
    weighted = phi * grid.weights[None, :]

    g = grid.size
    if g ** factors > _MAX_PRODUCT_EVALS:
        raise ValueError("product grid too large; lower max_degree or the grid degree")
    mesh = np.meshgrid(*[np.arange(g)] * factors, indexing="ij")
    points = [grid.nodes[m] for m in mesh]
    values = np.asarray(F(*points), dtype=float)

    # contracting the trailing point axis each pass prepends the matching
    # dictionary axis, so after `factors` passes the axes read (i_1, ..., i_m)
    coeff = values
    for _ in range(factors):
        coeff = np.tensordot(weighted, coeff, axes=([1], [factors - 1]))

    flat = coeff.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    keep = order[np.abs(flat[order]) > tol]
    dropped_mass = float(np.sum(np.abs(flat))) - float(np.sum(np.abs(flat[keep])))
    terms = []
    kept_coeffs = []
    for pos in keep:
        labels = np.unravel_index(pos, coeff.shape)
        c = float(flat[pos])
        factor_fns = []
        for slot, d_idx in enumerate(labels):
            entry = entries[d_idx]
            weight = c if slot == 0 else 1.0
            factor_fns.append(
                combine_dictionary(n, {(entry.degree, entry.index): weight})
            )
        terms.append(tuple(factor_fns))
        kept_coeffs.append(c)

    decomp = TensorDecomposition(
        n=n,
        factors=factors,
        terms=tuple(terms),
        coefficients=np.asarray(kept_coeffs),
        residual=0.0,
        max_degree=max_degree,
        dropped_mass=dropped_mass,
    )
    residual = _sup_residual(F, decomp, grid)
    if residual > 10.0 * tol:
        raise ReconstructionFailure(
            f"sup-norm residual {residual:.3e} exceeds 10*tol={10 * tol:.1e}; "
            "kernel is not band-limited within the dictionary degree"
        )
    return TensorDecomposition(
        n=n,
        factors=factors,
        terms=decomp.terms,
        coefficients=decomp.coefficients,
        residual=residual,
        max_degree=max_degree,
        dropped_mass=dropped_mass,
    )


def _sup_residual(F, decomp: TensorDecomposition, grid: SphereGrid, per_axis: int = 12) -> float:
    stride = max(1, grid.size // per_axis)
    sample = grid.nodes[::stride]
    mesh = np.meshgrid(*[np.arange(len(sample))] * decomp.factors, indexing="ij")
    points = [sample[m] for m in mesh]
    exact = np.asarray(F(*points), dtype=float)
    approx = reconstruct_batch(decomp, points)
    return float(np.max(np.abs(exact - approx))) if exact.size else 0.0


def reconstruct(decomp: TensorDecomposition, points) -> float:
    """Evaluate the finite expansion at one tuple of unit vectors."""
    points = [np.asarray(p, dtype=float)[None] for p in points]
    if len(points) != decomp.factors:
        raise ValueError(f"expected {decomp.factors} points, got {len(points)}")
    return float(reconstruct_batch(decomp, points)[0])


def reconstruct_batch(decomp: TensorDecomposition, points) -> np.ndarray:
    """Vectorized expansion values over broadcastable batches of unit vectors."""
    points = [np.asarray(p, dtype=float) for p in points]
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in points))
    out = np.zeros(shape)
    for term in decomp.terms:
        prod = np.ones(shape)
        for f, p in zip(term, points):
            flat = np.broadcast_to(p, shape + (p.shape[-1],)).reshape(-1, p.shape[-1])
            prod = prod * f.values(flat).reshape(shape)
        out += prod
    return out


_NORM_GRID_DEGREE = 40
_norm_grid_cache: dict = {}


def _norm_grid(n: int) -> SphereGrid:
    if n not in _norm_grid_cache:
        _norm_grid_cache[n] = build_grid(n, _NORM_GRID_DEGREE)
    return _norm_grid_cache[n]


def c_norm(f, order: int, grid: SphereGrid | None = None) -> float:
    """Grid estimate of the C^order norm (order <= 2) of a spherical function.

    Maxima over the nodes of |f|, the intrinsic gradient norm, and the
    operator norm of the intrinsic Hessian (D^2 f - f Id on the tangent
    space), accumulated up to the requested order.
    """
    if order not in (0, 1, 2):
        raise ValueError("C^l norms are estimated for l in {0, 1, 2}")
    if grid is None:
        grid = _norm_grid(f.n if isinstance(f, HarmonicCombination) else 3)
    vals = f.values(grid.nodes)
    best = float(np.max(np.abs(vals)))
    if order >= 1:
        if isinstance(f, HarmonicCombination):
            grads = f.spherical_gradients(grid.nodes)
        else:  # fall back to tangential projection of extension gradient via differences
            raise ValueError("C^1/C^2 norm estimates need harmonic-combination functions")
        best = max(best, float(np.max(np.linalg.norm(grads, axis=1))))
    if order >= 2:
        bases = tangent_bases(grid.nodes)
        forms = restricted_hessian_stack(f, grid.nodes, bases)
        forms -= vals[:, None, None] * np.eye(grid.n - 1)[None, :, :]
        best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(forms)))))
    return best


def norm_bound_report(decomp: TensorDecomposition, l, grid: SphereGrid | None = None) -> dict:
    """Cumulative sums of prod_i ||f_i^j||_{C^{l_i}} across the expansion terms.

    Returns the monotone partial-sum sequence and a summability flag: the
    truncation tail (coefficient mass dropped below the decomposition
    tolerance) must stay below 1e-3 of the retained total.
    """
    l = tuple(int(v) for v in l)
    if len(l) != decomp.factors:
        raise ValueError(f"need one differentiability order per factor, got {len(l)}")
    products = []
    for term in decomp.terms:
        prod = 1.0
        for f, order in zip(term, l):
            prod *= c_norm(f, order, grid=grid)
        products.append(prod)
    partial = np.cumsum(products) if products else np.zeros(0)
    total = float(partial[-1]) if len(partial) else 0.0
    tail = float(decomp.dropped_mass / total) if total > 0 else float(decomp.dropped_mass)
    return {
        "partial_sums": partial,
        "tail_fraction": tail,
        "summable": bool(tail < 1e-3),
    }
