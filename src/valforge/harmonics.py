"""Homogeneous harmonic polynomials and orthonormal band-limited dictionaries.

A polynomial stores its coefficients in the canonical (sorted) degree-l
monomial order and evaluates as M_l c with the monomial table
M_l[g, t] = x_g^{e_t}, gathered from one power table P[g, i, d] = x_{g,i}^d
that is filled by repeated multiplication and shared by every degree of a
call.  Exact integer maps on coefficient vectors give grad p and Hess p from
the tables of degrees l-1 and l-2.  A degree-l harmonic polynomial p
restricted to the sphere has the closed-form extension Hessian

    H(x) = Hess p(x) + (1-l) [ p(x) (Id - (l+1) x x^T) + x (grad p)^T + (grad p) x^T ],

obtained by differentiating |y|^{1-l} p(y) twice and evaluating at |x| = 1.
Restrictions of harmonics of distinct degrees are L2-orthogonal on the sphere,
so an orthonormal dictionary up to a cutoff degree provides exact expansions
of band-limited fields.  The dictionary construction is fully deterministic:
the harmonic coefficient spaces are rational nullspaces of the integer
Laplacian (the trace of the Hessian map), orthonormalized against the exact
monomial sphere integrals.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

from .sphere import SphericalFunction, monomial_sphere_integral

__all__ = [
    "HomogeneousPolynomial",
    "HarmonicCombination",
    "harmonic_dictionary",
    "dictionary_size",
    "dictionary_values",
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
    serves every degree; each M_l is the product of n gathers from it.
    Negative degrees give empty (G, 0) tables.
    """
    n = X.shape[1]
    P = np.ones(X.shape + (max(degrees, default=0) + 1,))
    for d in range(1, P.shape[2]):
        P[:, :, d] = P[:, :, d - 1] * X
    tables = {}
    for l in degrees:
        exps = _monomial_exponents(n, l)
        M = P[:, 0, exps[:, 0]]
        for i in range(1, n):
            M = M * P[:, i, exps[:, i]]
        tables[l] = M
    return tables


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


def _rational_nullspace(M: np.ndarray) -> np.ndarray:
    """Basis of the nullspace of an integer matrix, via exact RREF over Q."""
    rows, cols = M.shape
    A = [[Fraction(int(M[r, c])) for c in range(cols)] for r in range(rows)]
    pivots = []
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, rows) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        pv = A[row][col]
        A[row] = [a / pv for a in A[row]]
        for r in range(rows):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[row])]
        pivots.append(col)
        row += 1
        if row == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols))
    for k, fc in enumerate(free):
        basis[k, fc] = 1.0
        for prow, pcol in enumerate(pivots):
            basis[k, pcol] = float(-A[prow][fc])
    return basis


@lru_cache(maxsize=None)
def _harmonic_coefficients(n: int, degree: int):
    """Orthonormal coefficient rows of the degree-``degree`` harmonics in n variables.

    Returns (exponents, coeff_matrix); rows of coeff_matrix are L2-orthonormal
    on the sphere with respect to the (unnormalized) surface measure.
    """
    exps = _monomial_exponents(n, degree)
    if degree < 2:
        raw = np.eye(len(exps))
    else:
        raw = _rational_nullspace(np.einsum("iiab->ab", _derivative_maps(n, degree)[1]))

    pair_integrals = np.empty((len(exps), len(exps)))
    for s in range(len(exps)):
        for t in range(s, len(exps)):
            val = monomial_sphere_integral(exps[s] + exps[t])
            pair_integrals[s, t] = val
            pair_integrals[t, s] = val
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

    smoothness = "spectral"

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
        out = np.zeros((m, n, n))
        eye = np.eye(n)
        for l, p in self.pieces:
            d1, d2 = _derivative_maps(n, p.degree)
            vals = tables[p.degree] @ p.coeffs
            grad = tables[p.degree - 1] @ (d1 @ p.coeffs).T
            out += (tables[p.degree - 2] @ (d2 @ p.coeffs).reshape(n * n, -1).T).reshape(m, n, n)
            c = 1.0 - l
            out += c * vals[:, None, None] * (eye[None, :, :] - (l + 1.0) * X[:, :, None] * X[:, None, :])
            cross = X[:, :, None] * grad[:, None, :]
            out += c * (cross + np.swapaxes(cross, 1, 2))
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


def dictionary_size(n: int, max_degree: int) -> int:
    return len(harmonic_dictionary(n, max_degree))


def combine_dictionary(n: int, coeffs: dict) -> HarmonicCombination:
    """Assemble sum_{(l,j)} c_{lj} * phi_{lj} from dictionary coefficients."""
    by_degree = {}
    for (l, j), c in coeffs.items():
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
