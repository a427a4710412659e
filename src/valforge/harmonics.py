"""Homogeneous harmonic polynomials and orthonormal band-limited dictionaries.

A polynomial stores its coefficients in the canonical (sorted) degree-l
monomial order and evaluates as M_l c with the monomial table
M_l[g, t] = x_g^{e_t}, gathered from one power table P[g, i, d] = x_{g,i}^d
that is filled by repeated multiplication and shared by every degree of a
call.  On a grid's own ``nodes`` array each M_l is built once and kept,
read-only, in the grid's store (``sphere._grid_tables``) for as long as the
grid lives; every other array gets fresh tables from one power table per
call.  Exact integer maps on coefficient vectors give grad p and Hess p from
the tables of degrees l-1 and l-2.  A degree-l harmonic polynomial p
restricted to the sphere has the closed-form extension Hessian

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
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

from .sphere import SphericalFunction, _grid_tables, monomial_sphere_integral

__all__ = [
    "HomogeneousPolynomial",
    "HarmonicCombination",
    "harmonic_dictionary",
    "dictionary_index",
    "dictionary_size",
    "dictionary_values",
    "harmonic_count",
    "combine_dictionary",
    "project_to_dictionary",
    "parity_filter_coeffs",
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


class HomogeneousPolynomial:
    """Homogeneous polynomial sum_t c_t * x^{e_t}, stored in the canonical monomial order."""

    def __init__(self, exponents: np.ndarray, coeffs: np.ndarray):
        rows = np.asarray(exponents, dtype=int)
        self.n = rows.shape[1]
        self.degree = int(rows[0].sum()) if len(rows) else 0
        self.exponents = _monomial_exponents(self.n, self.degree)
        index = _monomial_index(self.n, self.degree)
        self.coeffs = np.zeros(len(self.exponents))
        np.add.at(self.coeffs, [index[tuple(e)] for e in rows.tolist()], np.asarray(coeffs, dtype=float))

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _monomial_tables(X, [self.degree])[self.degree] @ self.coeffs


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


class HarmonicCombination(SphericalFunction):
    """Band-limited spherical function: a sum of restricted harmonic polynomials.

    ``dict_coeffs`` maps dictionary labels (l, j) to coefficients whenever the
    instance was assembled from the orthonormal dictionary, enabling exact
    serialization and parity filtering.
    """

    def __init__(self, pieces, dict_coeffs=None):
        # pieces: list of (degree, HomogeneousPolynomial)
        self.pieces = [(int(l), p) for l, p in pieces]
        self.n = self.pieces[0][1].n if self.pieces else None
        self.dict_coeffs = dict(dict_coeffs) if dict_coeffs is not None else None

    @property
    def max_degree(self) -> int:
        return max((l for l, _ in self.pieces), default=0)

    def values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = _monomial_tables(X, {p.degree for _, p in self.pieces})
        out = np.zeros(X.shape[0])
        for _, p in self.pieces:
            out += tables[p.degree] @ p.coeffs
        return out

    def hessians(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m, n = X.shape
        tables = _monomial_tables(X, {p.degree - d for _, p in self.pieces for d in range(3)})
        # per piece only the scalar, gradient and Hessian parts; the (m, n, n)
        # extension terms are applied once to their (1 - l)-weighted sums
        hess = np.zeros((m, n * n))
        scalar = np.zeros(m)
        radial = np.zeros(m)
        grad = np.zeros((m, n))
        for l, p in self.pieces:
            d1, d2 = _derivative_maps(n, p.degree)
            c = 1.0 - l
            vals = tables[p.degree] @ p.coeffs
            scalar += c * vals
            radial += c * (l + 1.0) * vals
            grad += c * (tables[p.degree - 1] @ (d1 @ p.coeffs).T)
            hess += tables[p.degree - 2] @ (d2 @ p.coeffs).reshape(n * n, -1).T
        out = hess.reshape(m, n, n)
        out -= radial[:, None, None] * X[:, :, None] * X[:, None, :]
        cross = X[:, :, None] * grad[:, None, :]
        out += cross + np.swapaxes(cross, 1, 2)
        out += scalar[:, None, None] * np.eye(n)
        return out

    def spherical_gradients(self, X):
        """Intrinsic gradient of the restriction, (I - x x^T) grad p, shape (m, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tables = _monomial_tables(X, {p.degree - d for _, p in self.pieces for d in range(2)})
        out = np.zeros_like(X)
        for _, p in self.pieces:
            out += tables[p.degree - 1] @ (_derivative_maps(X.shape[1], p.degree)[0] @ p.coeffs).T
        radial = np.einsum("ij,ij->i", out, X)
        return out - radial[:, None] * X


@lru_cache(maxsize=None)
def harmonic_dictionary(n: int, max_degree: int):
    """Orthonormal dictionary of harmonic restrictions of degree <= max_degree.

    Returns a tuple of HarmonicCombination entries; entry attributes ``degree``
    and ``index`` give the label (l, j) and ``dict_coeffs`` is {(l, j): 1.0}.
    """
    entries = []
    for l in range(max_degree + 1):
        exps, coeff_rows = _harmonic_coefficients(n, l)
        for j, row in enumerate(coeff_rows):
            poly = HomogeneousPolynomial(exps, row)
            fn = HarmonicCombination([(l, poly)], dict_coeffs={(l, j): 1.0})
            fn.degree = l
            fn.index = j
            entries.append(fn)
    return tuple(entries)


def harmonic_count(n: int, degree: int) -> int:
    """Dimension of the degree-``degree`` harmonics in n variables: C(l+n-1, n-1) - C(l+n-3, n-1)."""
    return math.comb(degree + n - 1, n - 1) - (math.comb(degree + n - 3, n - 1) if degree >= 2 else 0)


def dictionary_size(n: int, max_degree: int) -> int:
    return sum(harmonic_count(n, l) for l in range(max_degree + 1))


def dictionary_index(n: int, max_degree: int, label) -> int:
    """Position of the label (l, j) in ``harmonic_dictionary(n, max_degree)``.

    Raises ValueError for a label outside that dictionary.
    """
    l, j = (int(v) for v in label)
    if not (0 <= l <= max_degree and 0 <= j < harmonic_count(n, l)):
        raise ValueError(f"harmonic label {l},{j} is outside the n = {n} dictionary of degree <= {max_degree}")
    return dictionary_size(n, l - 1) + j


def combine_dictionary(n: int, coeffs: dict) -> HarmonicCombination:
    """Assemble sum_{(l,j)} c_{lj} * phi_{lj} from dictionary coefficients.

    Raises ValueError for a label outside the dictionary.
    """
    by_degree = {}
    for (l, j), c in coeffs.items():
        dictionary_index(n, int(l), (l, j))
        by_degree.setdefault(int(l), {})[int(j)] = float(c)
    pieces = []
    for l, jc in sorted(by_degree.items()):
        exps, rows = _harmonic_coefficients(n, l)
        total = np.zeros(rows.shape[1])
        for j, c in jc.items():
            total += c * rows[j]
        pieces.append((l, HomogeneousPolynomial(exps, total)))
    return HarmonicCombination(pieces, dict_coeffs={(int(l), int(j)): float(c) for (l, j), c in coeffs.items()})


def dictionary_values(X: np.ndarray, max_degree: int) -> np.ndarray:
    """Values of every dictionary entry at the rows of X, shape (D, G): M_l rows_l^T per degree."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    tables = _monomial_tables(X, range(max_degree + 1))
    return np.vstack([(tables[l] @ _harmonic_coefficients(X.shape[1], l)[1].T).T for l in range(max_degree + 1)])


def project_to_dictionary(values: np.ndarray, grid, max_degree: int) -> dict:
    """L2 projection coefficients of node values onto the dictionary, rows_l M_l^T (w g) per degree.

    Exact for band-limited inputs when grid.degree >= 2 * max_degree.
    """
    weighted = grid.weights * np.asarray(values, dtype=float)
    tables = _monomial_tables(grid.nodes, range(max_degree + 1))
    coeffs = {}
    for l in range(max_degree + 1):
        rows = _harmonic_coefficients(grid.n, l)[1]
        coeffs.update({(l, j): float(c) for j, c in enumerate(rows @ (tables[l].T @ weighted))})
    return coeffs


def parity_filter_coeffs(coeffs: dict, parity: str) -> dict:
    """Keep the even- or odd-degree part of dictionary coefficients."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    rem = 0 if parity == "even" else 1
    return {(l, j): c for (l, j), c in coeffs.items() if l % 2 == rem}
