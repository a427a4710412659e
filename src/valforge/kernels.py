"""Separable decompositions of smooth kernels on products of spheres.

A kernel F on (S^{n-1})^m is expanded against the orthonormal harmonic
dictionary on each factor and stored as a label table: a row of m
dictionary indices and a coefficient per kept term.  With W = Phi w the
quadrature-weighted dictionary values, a ``RankOneSumKernel``
sum_t c_t f_{t,1} x ... x f_{t,m} has the coefficient tensor
sum_t c_t (W f_{t,1}) x ... x (W f_{t,m}), from each factor's values on the
G grid nodes; any other callable is evaluated on the G^m product grid,
which is contracted with W once per factor.  Either way the expansion is
checked against F on a ~13^m product sample.  The norm-bound ledger tracks
the partial sums sum_j |c_j| prod_i ||phi_{t_ji}||_{C^{l_i}}.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .harmonics import HarmonicCombination, combine_dictionary, dictionary_values, harmonic_dictionary
from .sphere import SphereGrid, build_grid, restricted_hessian_stack

__all__ = [
    "RankOneSumKernel",
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
# coefficients at or below this magnitude are dropped; the reconstruction
# check allows a sup-norm residual of 10 times it
_DROP_TOL = 1e-10


class ReconstructionFailure(RuntimeError):
    """The kernel is not band-limited enough for the requested dictionary degree."""


@dataclass(frozen=True)
class TensorDecomposition:
    """Finite separable expansion F = sum_j c_j phi_{t_j1} x ... x phi_{t_jm}.

    ``terms`` (any sequence of index rows, coerced) is a (J, factors) array of
    indices into ``harmonic_dictionary(n, max_degree)``; ``coefficients`` holds
    the J coefficients, sorted by decreasing magnitude.
    """

    n: int
    factors: int
    terms: np.ndarray
    coefficients: np.ndarray
    residual: float
    max_degree: int
    dropped_mass: float = 0.0

    def __post_init__(self):
        terms = np.asarray(self.terms, dtype=int).reshape(-1, self.factors)
        coefficients = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if len(terms) != len(coefficients):
            raise ValueError(f"{len(terms)} label rows of {self.factors} but {len(coefficients)} coefficients")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "coefficients", coefficients)

    def __len__(self) -> int:
        return len(self.terms)

    def contract_first(self, phi: np.ndarray):
        """(u_2, ..., u_m), W: the sorted labels of slots 2..m, and the first slot contracted with ``phi``.

        For dictionary values ``phi`` of shape (D, P), W[i_2, ..., i_m, p] sums
        c_j phi[t_j1, p] over the terms with later labels (u_2[i_2], ..., u_m[i_m]).
        """
        used, position = zip(*(np.unique(column, return_inverse=True) for column in self.terms.T))
        C = np.zeros([len(u) for u in used])
        np.add.at(C, position, self.coefficients)
        return used[1:], np.tensordot(C, phi[used[0]], axes=(0, 0))


def _flat_batches(points):
    """Broadcast shape of point batches (..., n), and each batch broadcast to it as rows (P, n)."""
    points = [np.asarray(p, dtype=float) for p in points]
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in points))
    return shape, [np.broadcast_to(p, shape + p.shape[-1:]).reshape(-1, p.shape[-1]) for p in points]


class RankOneSumKernel:
    """Kernel F(x_1, ..., x_m) = sum_t c_t f_{t,1}(x_1) ... f_{t,m}(x_m) over spherical functions.

    ``terms`` holds (c_t, (f_{t,1}, ..., f_{t,m})), all with the same m; calls
    broadcast over the leading axes of the point batches.
    """

    def __init__(self, terms):
        self.terms = tuple((float(c), tuple(fs)) for c, fs in terms)
        counts = {len(fs) for _, fs in self.terms}
        if len(counts) != 1:
            raise ValueError("a kernel needs at least one term, and all terms the same number of factors")
        (self.factors,) = counts

    def __call__(self, *points):
        shape, flats = _flat_batches(points)
        out = np.zeros(shape)
        for c, fs in self.terms:
            term = np.full(shape, c)
            for f, X in zip(fs, flats):
                term = term * f.values(X).reshape(shape)
            out += term
        return out


def separable_kernel(bodies) -> RankOneSumKernel:
    """Kernel F(x_1, ..., x_m) = prod_i h_{K_i}(x_i) from a list of bodies."""
    return RankOneSumKernel([(1.0, [b.support for b in bodies])])


def harmonic_table_kernel(n: int, entries) -> RankOneSumKernel:
    """Kernel sum c * phi_{l_1 j_1} x ... x phi_{l_m j_m} from labelled coefficients.

    ``entries`` is an iterable of (coefficient, ((l_1, j_1), ..., (l_m, j_m)));
    a label outside the n-variable dictionary raises ValueError.
    """
    return RankOneSumKernel(
        (c, [combine_dictionary(n, {(int(l), int(j)): 1.0}) for l, j in labels]) for c, labels in entries
    )


def decompose_kernel(
    F, factors: int, max_degree: int, n: int = 3, grid: SphereGrid | None = None
) -> TensorDecomposition:
    """Expand a kernel on (S^{n-1})^factors into separable dictionary terms.

    Coefficients come from quadrature on ``grid`` (exact for kernels
    band-limited within ``max_degree``): per factor for a RankOneSumKernel,
    on the product grid for any other callable.  Terms of magnitude 1e-10 or
    less are dropped and the rest are sorted by decreasing magnitude.
    Raises ReconstructionFailure when the sup-norm residual on a test
    subgrid exceeds 1e-9.
    """
    if factors < 1:
        raise ValueError("need at least one kernel factor")
    if grid is None:
        grid = build_grid(n, 2 * max_degree + 2)
    weighted = dictionary_values(grid.nodes, max_degree) * grid.weights[None, :]  # (D, G)

    if isinstance(F, RankOneSumKernel):
        if F.factors != factors:
            raise ValueError(f"kernel has {F.factors} factors, expected {factors}")
        coeff = np.zeros((len(weighted),) * factors)
        for c, fs in F.terms:
            term = np.asarray(c)
            for f in fs:
                term = np.multiply.outer(term, weighted @ f.values(grid.nodes))
            coeff += term
    else:
        if grid.size**factors > _MAX_PRODUCT_EVALS:
            raise ValueError("product grid too large; lower max_degree or the grid degree")
        mesh = np.meshgrid(*[np.arange(grid.size)] * factors, indexing="ij")
        coeff = np.asarray(F(*[grid.nodes[m] for m in mesh]), dtype=float)
        # contracting the trailing point axis each pass prepends the matching
        # dictionary axis, so after `factors` passes the axes read (i_1, ..., i_m)
        for _ in range(factors):
            coeff = np.tensordot(weighted, coeff, axes=([1], [factors - 1]))

    flat = coeff.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    keep = order[np.abs(flat[order]) > _DROP_TOL]
    decomp = TensorDecomposition(
        n=n,
        factors=factors,
        terms=np.column_stack(np.unravel_index(keep, coeff.shape)),
        coefficients=flat[keep],
        residual=0.0,
        max_degree=max_degree,
        dropped_mass=float(np.sum(np.abs(flat))) - float(np.sum(np.abs(flat[keep]))),
    )
    residual = _sup_residual(F, decomp, grid)
    if residual > 10.0 * _DROP_TOL:
        raise ReconstructionFailure(
            f"sup-norm residual {residual:.3e} exceeds {10 * _DROP_TOL:.1e}; "
            "kernel is not band-limited within the dictionary degree"
        )
    return replace(decomp, residual=residual)


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
    shape, flats = _flat_batches(points)
    later, out = decomp.contract_first(dictionary_values(flats[0], decomp.max_degree))
    for labels, X in zip(later, flats[1:]):
        out = np.einsum("u...p,up->...p", out, dictionary_values(X, decomp.max_degree)[labels])
    return out.reshape(shape)


_NORM_GRID_DEGREE = 40
_norm_grid_cache: dict = {}


def _norm_grid(n: int) -> SphereGrid:
    if n not in _norm_grid_cache:
        _norm_grid_cache[n] = build_grid(n, _NORM_GRID_DEGREE)
    return _norm_grid_cache[n]


def c_norm(f, order: int) -> float:
    """Grid estimate of the C^order norm (order <= 2) of a spherical function.

    Maxima over the nodes of the degree-40 grid of |f|, the intrinsic
    gradient norm, and the operator norm of the intrinsic Hessian (D^2 f - f Id
    on the tangent space), accumulated up to the requested order.
    """
    if order not in (0, 1, 2):
        raise ValueError("C^l norms are estimated for l in {0, 1, 2}")
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
        forms = restricted_hessian_stack(f, grid.nodes)
        forms -= vals[:, None, None] * np.eye(grid.n - 1)[None, :, :]
        best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(forms)))))
    return best


def norm_bound_report(decomp: TensorDecomposition, l) -> dict:
    """Cumulative sums of |c_j| prod_i ||phi_{t_ji}||_{C^{l_i}} across the expansion terms.

    Each distinct (label, order) norm is estimated once.  Returns the
    monotone partial-sum sequence and a summability flag: the truncation tail
    (coefficient mass dropped below the decomposition tolerance) must stay
    below 1e-3 of the retained total.
    """
    l = tuple(int(v) for v in l)
    if len(l) != decomp.factors:
        raise ValueError(f"need one differentiability order per factor, got {len(l)}")
    entries = harmonic_dictionary(decomp.n, decomp.max_degree)
    rows = decomp.terms.tolist()
    keys = {key for row in rows for key in zip(row, l)}
    norms = {key: c_norm(entries[key[0]], key[1]) for key in keys}
    products = [abs(c) * math.prod(norms[key] for key in zip(row, l)) for row, c in zip(rows, decomp.coefficients)]
    partial = np.cumsum(products) if products else np.zeros(0)
    total = float(partial[-1]) if len(partial) else 0.0
    tail = float(decomp.dropped_mass / total) if total > 0 else float(decomp.dropped_mass)
    return {
        "partial_sums": partial,
        "tail_fraction": tail,
        "summable": bool(tail < 1e-3),
    }
