"""Orthonormal band-limited harmonic dictionaries and functions expanded in them.

A band-limited function is one coefficient vector ``c`` over the orthonormal
dictionary: entry (l, j) is the j-th degree-l harmonic restriction, and the
entries run by degree, then by index, so the dictionary of each degree
extends the one below.  Labels appear only at the edges: the ``"l,j"`` JSON
keys (``harmonic_to_json`` / ``harmonic_from_json``) and the labelled dicts
of ``combine_dictionary``, which checks them once against a per-(n, degree)
table of block offsets.  Parity filtering is a mask on the degrees.

Degree-l harmonics are polynomials in the canonical (sorted) monomial
order; a function evaluates as sum_l M_l (rows_l^T c_l), with the monomial
table M_l[g, t] = x_g^{e_t} gathered from one power table P[g, i, d] =
x_{g,i}^d that is filled by repeated multiplication and shared by every
degree of a call.  On a grid's own ``nodes`` array each M_l is built once
and kept, read-only, in the grid's store (``sphere._grid_tables``) for as
long as the grid lives; every other array gets fresh tables from one power
table per call.  Exact integer maps on monomial coefficients give grad p and
Hess p from the tables of degrees l-1 and l-2.  A degree-l harmonic
polynomial p restricted to the sphere has the closed-form extension Hessian

    H(x) = Hess p(x) + (1-l) [ p(x) (Id - (l+1) x x^T) + x (grad p)^T + (grad p) x^T ],

obtained by differentiating |y|^{1-l} p(y) twice and evaluating at |x| = 1.
Restrictions of harmonics of distinct degrees are L2-orthogonal on the sphere,
so an orthonormal dictionary up to a cutoff degree provides exact expansions
of band-limited fields.  The dictionary construction is fully deterministic:
each degree-l harmonic space is spanned by the closed-form harmonic
extensions of the monomials q x_n^r with r <= 1 (Axler, Bourdon & Ramey,
Harmonic Function Theory, ch. 5), computed in exact integers and
orthonormalized against the exact monomial sphere integrals.
"""

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import solve_triangular

from .sphere import SphericalFunction, _grid_tables, monomial_sphere_integral

__all__ = [
    "HarmonicCombination",
    "harmonic_dictionary",
    "dictionary_positions",
    "dictionary_size",
    "dictionary_values",
    "harmonic_count",
    "combine_dictionary",
    "harmonic_from_json",
    "harmonic_to_json",
    "project_to_dictionary",
]


@lru_cache(maxsize=None)
def _monomial_exponents(n: int, degree: int) -> np.ndarray:
    """Exponent rows of total degree ``degree`` in n variables, sorted: the canonical order."""
    if degree < 0:
        return np.zeros((0, n), dtype=int)
    rows = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        rows.append(e)
    rows = np.asarray(sorted(set(map(tuple, rows))), dtype=int)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _monomial_index(n: int, degree: int) -> dict:
    """Position of each exponent tuple in the canonical order."""
    return {tuple(e): t for t, e in enumerate(_monomial_exponents(n, degree).tolist())}


def _monomial_tables(X: np.ndarray, degrees) -> dict:
    """{l: M_l} with M_l[g, t] = x_g^{e_t} over the canonical degree-l monomials.

    One power table P[g, i, d] = x_{g,i}^d, filled by repeated multiplication,
    serves every degree missing from the store; each M_l is the product of n
    gathers from it.  On a grid's own nodes the tables are stored read-only
    and reused.  Negative degrees give empty (G, 0) tables.
    """
    n = X.shape[1]
    store = _grid_tables(X)
    tables = {} if store is None else store.setdefault("monomials", {})
    missing = [l for l in set(degrees) if l not in tables]
    if missing:
        P = np.ones(X.shape + (max(max(missing), 0) + 1,))
        for d in range(1, P.shape[2]):
            P[:, :, d] = P[:, :, d - 1] * X
        for l in missing:
            exps = _monomial_exponents(n, l)
            M = P[:, 0, exps[:, 0]]
            for i in range(1, n):
                M = M * P[:, i, exps[:, i]]
            if store is not None:
                M.setflags(write=False)
            tables[l] = M
    return {l: tables[l] for l in degrees}


@lru_cache(maxsize=None)
def _derivative_maps(n: int, degree: int):
    """Exact integer gradient (n, T_{l-1}, T_l) and Hessian (n, n, T_{l-2}, T_l) maps."""

    def gradient_map(l):
        index = _monomial_index(n, l - 1)
        D = np.zeros((n, len(index), len(_monomial_exponents(n, l))))
        for t, e in enumerate(_monomial_exponents(n, l).tolist()):
            for i in np.flatnonzero(e):
                D[i, index[tuple(e[:i] + [e[i] - 1] + e[i + 1 :])], t] = e[i]
        return D

    grad = gradient_map(degree)
    return grad, np.einsum("jab,ibc->ijac", gradient_map(degree - 1), grad)


def _harmonic_basis(n: int, degree: int) -> np.ndarray:
    """Harmonic coefficient rows, one per monomial q x_n^r with r <= 1, in the canonical order.

    Row q x_n^r is the harmonic extension sum_j (-1)^j x_n^{2j+r} Delta'^j q / (2j+r)!
    (the factor r! is 1), with Delta' the Laplacian in the first n-1
    variables; the sum telescopes under Delta.  It is the identity on the
    columns with last exponent <= 1, so it is the reduced-row-echelon
    nullspace basis of the Laplacian.  The Delta'^j q coefficients are exact
    integers and each entry is one correctly rounded int / int division.
    """
    exps = _monomial_exponents(n, degree).tolist()
    index = _monomial_index(n, degree)
    free = [e for e in exps if e[-1] <= 1]
    basis = np.zeros((len(free), len(exps)))
    for k, e in enumerate(free):
        r = e[-1]
        poly = {tuple(e[:-1]): 1}
        for j in range((degree - r) // 2 + 1):
            for a, c in poly.items():
                basis[k, index[a + (2 * j + r,)]] = (-1) ** j * c / math.factorial(2 * j + r)
            lap = {}
            for a, c in poly.items():
                for i, ai in enumerate(a):
                    if ai >= 2:
                        b = a[:i] + (ai - 2,) + a[i + 1 :]
                        lap[b] = lap.get(b, 0) + c * ai * (ai - 1)
            poly = lap
    return basis


@lru_cache(maxsize=None)
def _harmonic_coefficients(n: int, degree: int):
    """Orthonormal coefficient rows of the degree-``degree`` harmonics in n variables.

    Returns (exponents, coeff_matrix); rows of coeff_matrix are L2-orthonormal
    on the sphere with respect to the (unnormalized) surface measure.
    """
    exps = _monomial_exponents(n, degree)
    raw = _harmonic_basis(n, degree)
    # every summed exponent has total degree 2l, so a mixed-radix key in base
    # 2l + 1 tells them apart without sorting exponent rows
    sums = (exps[:, None, :] + exps[None, :, :]).reshape(-1, n)
    _, first, inverse = np.unique(sums @ (2 * degree + 1) ** np.arange(n), return_index=True, return_inverse=True)
    pair_integrals = np.array([monomial_sphere_integral(a) for a in sums[first]])[inverse].reshape(len(exps), len(exps))
    gram = raw @ pair_integrals @ raw.T
    L = np.linalg.cholesky(gram)
    ortho = solve_triangular(L, raw, lower=True)
    return exps, ortho




def harmonic_count(n: int, degree: int) -> int:
    """Dimension of the degree-``degree`` harmonics in n variables: C(l+n-1, n-1) - C(l+n-3, n-1)."""
    return math.comb(degree + n - 1, n - 1) - (math.comb(degree + n - 3, n - 1) if degree >= 2 else 0)


@lru_cache(maxsize=None)
def _offsets(n: int, max_degree: int) -> np.ndarray:
    """Block starts in dictionary order: degree l occupies offsets[l]:offsets[l + 1]."""
    offsets = np.cumsum([0] + [harmonic_count(n, l) for l in range(max_degree + 1)])
    offsets.setflags(write=False)
    return offsets


def dictionary_size(n: int, max_degree: int) -> int:
    return int(_offsets(n, max_degree)[-1])


@lru_cache(maxsize=None)
def _dictionary_labels(n: int, max_degree: int) -> np.ndarray:
    """The (l, j) label of every dictionary entry, in dictionary order, shape (D, 2)."""
    offsets = _offsets(n, max_degree)
    degrees = np.repeat(np.arange(max_degree + 1), np.diff(offsets))
    labels = np.column_stack([degrees, np.arange(offsets[-1]) - offsets[degrees]])
    labels.setflags(write=False)
    return labels


@lru_cache(maxsize=None)
def _dictionary_degree(n: int, size: int) -> int:
    """The degree whose dictionary has exactly ``size`` entries (-1 for none)."""
    degree = -1
    while dictionary_size(n, degree) < size:
        degree += 1
    if dictionary_size(n, degree) != size:
        raise ValueError(f"{size} coefficients fill no n = {n} harmonic dictionary")
    return degree


def dictionary_positions(n: int, labels, max_degree: int | None = None) -> np.ndarray:
    """Positions of (l, j) labels in ``harmonic_dictionary(n, max_degree)``.

    Raises ValueError for the first label outside that dictionary (by default
    the dictionary of the label's own degree).
    """
    l, j = np.asarray(labels, dtype=int).reshape(len(labels), 2).T
    top = int(l.max(initial=-1)) if max_degree is None else max_degree
    offsets = _offsets(n, top)
    inside = (0 <= l) & (l <= top) & (0 <= j)
    inside[inside] &= j[inside] < np.diff(offsets)[l[inside]]
    if not inside.all():
        bad = int(np.argmin(inside))
        degree = l[bad] if max_degree is None else max_degree
        raise ValueError(f"harmonic label {l[bad]},{j[bad]} is outside the n = {n} dictionary of degree <= {degree}")
    return offsets[l] + j


class HarmonicCombination(SphericalFunction):
    """Band-limited spherical function sum_d c_d phi_d over the orthonormal harmonic dictionary.

    ``c`` holds the coefficients in ``harmonic_dictionary(n, max_degree)``
    order; each dictionary extends the one of the degree below, so the same
    vector serves every larger dictionary.  The monomial coefficients
    rows_l^T c_l of each degree are computed once, on first use, and degrees
    whose block of ``c`` is all zero are skipped.
    """

    def __init__(self, n: int, c):
        self.n = int(n)
        self.c = np.array(c, dtype=float).reshape(-1)
        self.c.setflags(write=False)
        self.max_degree = _dictionary_degree(self.n, len(self.c))

    @property
    def labels(self) -> np.ndarray:
        """The (l, j) label of each coefficient, shape (len(c), 2)."""
        return _dictionary_labels(self.n, self.max_degree)

    @cached_property
    def _monomials(self) -> dict:
        offsets = _offsets(self.n, self.max_degree)
        blocks = {l: self.c[offsets[l] : offsets[l + 1]] for l in range(self.max_degree + 1)}
        return {l: _harmonic_coefficients(self.n, l)[1].T @ c for l, c in blocks.items() if c.any()}

    def values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = _monomial_tables(X, self._monomials)
        out = np.zeros(X.shape[0])
        for l, p in self._monomials.items():
            out += tables[l] @ p
        return out

    def hessians(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m, n = X.shape
        tables = _monomial_tables(X, {l - d for l in self._monomials for d in range(3)})
        # per degree only the scalar, gradient and Hessian parts; the (m, n, n)
        # extension terms are applied once to their (1 - l)-weighted sums
        hess = np.zeros((m, n * n))
        scalar = np.zeros(m)
        radial = np.zeros(m)
        grad = np.zeros((m, n))
        for l, p in self._monomials.items():
            d1, d2 = _derivative_maps(n, l)
            c = 1.0 - l
            vals = tables[l] @ p
            scalar += c * vals
            radial += c * (l + 1.0) * vals
            grad += c * (tables[l - 1] @ (d1 @ p).T)
            hess += tables[l - 2] @ (d2 @ p).reshape(n * n, -1).T
        out = hess.reshape(m, n, n)
        out -= radial[:, None, None] * X[:, :, None] * X[:, None, :]
        cross = X[:, :, None] * grad[:, None, :]
        out += cross + np.swapaxes(cross, 1, 2)
        out += scalar[:, None, None] * np.eye(n)
        return out

    def spherical_gradients(self, X):
        """Intrinsic gradient of the restriction, (I - x x^T) grad p, shape (m, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = _monomial_tables(X, {l - d for l in self._monomials for d in range(2)})
        out = np.zeros_like(X)
        for l, p in self._monomials.items():
            out += tables[l - 1] @ (_derivative_maps(X.shape[1], l)[0] @ p).T
        radial = np.einsum("ij,ij->i", out, X)
        return out - radial[:, None] * X


@lru_cache(maxsize=None)
def harmonic_dictionary(n: int, max_degree: int):
    """Orthonormal dictionary of harmonic restrictions of degree <= max_degree.

    Returns a tuple of HarmonicCombination entries, entry d holding the unit
    vector e_d; entry attributes ``degree`` and ``index`` give its label (l, j).
    """
    entries = []
    for d, (l, j) in enumerate(_dictionary_labels(n, max_degree).tolist()):
        fn = HarmonicCombination(n, np.eye(1, dictionary_size(n, l), d)[0])
        fn.degree, fn.index = l, j
        entries.append(fn)
    return tuple(entries)


def combine_dictionary(n: int, coeffs: dict) -> HarmonicCombination:
    """sum_{(l,j)} c_{lj} * phi_{lj} from labelled coefficients, as a vector in dictionary order.

    Raises ValueError for a label outside the dictionary or a non-finite coefficient.
    """
    labels = [(int(l), int(j)) for l, j in coeffs]
    positions = dictionary_positions(n, labels)
    values = [float(v) for v in coeffs.values()]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("harmonic coefficients must be finite")
    c = np.zeros(dictionary_size(n, max((l for l, _ in labels), default=-1)))
    c[positions] = values
    return HarmonicCombination(n, c)


def harmonic_to_json(g: HarmonicCombination) -> dict:
    """{"l,j": c} over the nonzero coefficients of g, in dictionary order."""
    nonzero = np.flatnonzero(g.c)
    return {f"{l},{j}": c for (l, j), c in zip(g.labels[nonzero].tolist(), g.c[nonzero].tolist())}


def harmonic_from_json(n: int, data: dict) -> HarmonicCombination:
    """Inverse of ``harmonic_to_json``; a malformed or out-of-dictionary label raises ValueError."""
    return combine_dictionary(n, {tuple(key.split(",")): c for key, c in data.items()})


def dictionary_values(X: np.ndarray, max_degree: int) -> np.ndarray:
    """Values of every dictionary entry at the rows of X, shape (D, G): M_l rows_l^T per degree."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    tables = _monomial_tables(X, range(max_degree + 1))
    return np.vstack([(tables[l] @ _harmonic_coefficients(X.shape[1], l)[1].T).T for l in range(max_degree + 1)])


def project_to_dictionary(values: np.ndarray, grid, max_degree: int) -> np.ndarray:
    """L2 projection coefficients of node values onto the dictionary, rows_l M_l^T (w g) per degree.

    Returns the vector in dictionary order; exact for band-limited inputs
    when grid.degree >= 2 * max_degree.
    """
    weighted = grid.weights * np.asarray(values, dtype=float)
    tables = _monomial_tables(grid.nodes, range(max_degree + 1))
    return np.concatenate(
        [_harmonic_coefficients(grid.n, l)[1] @ (tables[l].T @ weighted) for l in range(max_degree + 1)]
    )
