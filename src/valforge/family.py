"""The spanning ellipsoid family and its pointwise dual coefficient frame.

For ambient dimension n, the family consists of the N = C(n+1, 2) + 1
ellipsoids with matrices t*Id + E (E ranging over a norm-one basis of the
symmetric matrices) together with the unit ball, where t = 1 + 2/c and c is a
certified constant with c * opnorm(C) <= max_E |tr(C E)| for all symmetric C.
The support Hessians of the family span the symmetric forms on every tangent
space, so the minimum-norm (pseudoinverse) coefficients reconstruct any
tangent form from the family pointwise.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import make_ellipsoid
from .sphere import SphereGrid, restricted_hessian_stack

__all__ = [
    "EllipsoidFamily",
    "SpanningFailure",
    "SpanningFrame",
    "build_family",
    "dual_frame",
    "norm_constant",
    "norm_constant_diagnostic",
    "spanning_certificate",
    "standard_basis",
    "sym_vec",
    "sym_unvec",
]


class SpanningFailure(RuntimeError):
    """The family Hessians failed to span a tangent symmetric-form space."""


def standard_basis(n: int):
    """Norm-one basis of the symmetric n x n matrices, ordered by (i, j), i <= j.

    E_ii = e_i e_i^T and E_ij = e_i e_j^T + e_j e_i^T for i < j; every element
    has operator norm one.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    basis = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            if i == j:
                E[i, i] = 1.0
            else:
                E[i, j] = 1.0
                E[j, i] = 1.0
            basis.append(E)
    return basis


def norm_constant(n: int) -> float:
    """Certified c with c * opnorm(C) <= max_{i<=j} |tr(C E_ij)| for symmetric C.

    Every entry of C is bounded by the trace norm maximum (diagonal entries
    directly, off-diagonal entries by half), and opnorm(C) <= n * max |C_ij|,
    so c = 1/n is always valid.
    """
    return 1.0 / float(n)


def _dual_norm(C, basis):
    return max(abs(float(np.sum(C * E))) for E in basis)


def norm_constant_diagnostic(n: int, samples: int = 100_000, rng=None) -> dict:
    """Sampled tightening of the certified norm constant (diagnostic only).

    Maximizes opnorm(C) / max|tr(C E)| over random unit-operator-norm symmetric
    matrices; the reciprocal of the observed maximum upper-bounds how far the
    certified 1/n can be improved.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    basis = standard_basis(n)
    worst = np.inf
    block = 2048
    done = 0
    while done < samples:
        take = min(block, samples - done)
        raw = rng.normal(size=(take, n, n))
        sym = 0.5 * (raw + np.swapaxes(raw, 1, 2))
        ops = np.max(np.abs(np.linalg.eigvalsh(sym)), axis=1)
        for C, op in zip(sym, ops):
            if op == 0.0:
                continue
            ratio = _dual_norm(C, basis) / op
            if ratio < worst:
                worst = ratio
        done += take
    return {"c_certified": norm_constant(n), "c_sampled_min_ratio": float(worst)}


@dataclass(frozen=True)
class EllipsoidFamily:
    """The N spanning ellipsoids {E_{t Id + E_ij}} plus the unit ball (A = Id)."""

    n: int
    t: float
    c: float
    basis: tuple
    ellipsoids: tuple

    @property
    def size(self) -> int:
        return len(self.ellipsoids)


def build_family(n: int, all_balls: bool = False) -> EllipsoidFamily:
    """Construct the spanning family with t = 1 + 2/c and c the certified constant.

    ``all_balls`` replaces every member by the unit ball; this deliberately
    destroys the spanning property and exists as a negative-control hook.
    """
    c = norm_constant(n)
    t = 1.0 + 2.0 / c
    basis = standard_basis(n)
    if all_balls:
        members = [make_ellipsoid(np.eye(n)) for _ in range(len(basis) + 1)]
    else:
        members = [make_ellipsoid(t * np.eye(n) + E) for E in basis]
        members.append(make_ellipsoid(np.eye(n)))
    return EllipsoidFamily(n=n, t=t, c=c, basis=tuple(basis), ellipsoids=tuple(members))


def sym_vec(forms: np.ndarray) -> np.ndarray:
    """Isometric vectorization of symmetric (…, d, d) matrices into (…, d(d+1)/2).

    Diagonal entries pass through; off-diagonal entries carry sqrt(2), so the
    Euclidean inner product of vectors equals the Frobenius product of forms.
    """
    forms = np.asarray(forms, dtype=float)
    d = forms.shape[-1]
    cols = []
    for a in range(d):
        for b in range(a, d):
            factor = 1.0 if a == b else np.sqrt(2.0)
            cols.append(factor * forms[..., a, b])
    return np.stack(cols, axis=-1)


def sym_unvec(vecs: np.ndarray, d: int) -> np.ndarray:
    vecs = np.asarray(vecs, dtype=float)
    out = np.zeros(vecs.shape[:-1] + (d, d))
    idx = 0
    for a in range(d):
        for b in range(a, d):
            if a == b:
                out[..., a, a] = vecs[..., idx]
            else:
                val = vecs[..., idx] / np.sqrt(2.0)
                out[..., a, b] = val
                out[..., b, a] = val
            idx += 1
    return out


def _frame_matrices(family: EllipsoidFamily, nodes: np.ndarray) -> np.ndarray:
    """Stack of per-node frame matrices, shape (g, D, N) with D = dim Sym^2(tangent)."""
    return np.stack([sym_vec(restricted_hessian_stack(body.support, nodes)) for body in family.ellipsoids], axis=-1)


def _frame_svd(family: EllipsoidFamily, grid: SphereGrid):
    """Frame matrices S (g, D, N) and their thin SVD (u, s, vt).

    Raises SpanningFailure when any node's smallest singular value drops to
    1e-10 or below, which would contradict the spanning construction and
    indicates a bug (or the negative-control family).
    """
    if family.n != grid.n:
        raise ValueError("family and grid dimensions differ")
    S = _frame_matrices(family, grid.nodes)
    u, s, vt = np.linalg.svd(S, full_matrices=False)
    imin = int(np.argmin(s[:, -1]))
    if s[imin, -1] <= 1e-10:
        raise SpanningFailure(
            f"frame matrix smallest singular value {s[imin, -1]:.3e} at node {grid.nodes[imin]}"
        )
    return S, (u, s, vt)


def spanning_certificate(family: EllipsoidFamily, grid: SphereGrid):
    """Minimum over grid nodes of the smallest singular value of the frame matrix.

    Returns (min_sigma, argmin_node); raises SpanningFailure as ``_frame_svd``.
    """
    _, (_, s, _) = _frame_svd(family, grid)
    imin = int(np.argmin(s[:, -1]))
    return float(s[imin, -1]), grid.nodes[imin]


@dataclass(frozen=True)
class SpanningFrame:
    """Per-node minimum-norm coefficient operators for the spanning family.

    ``solvers[g]`` is the pseudoinverse of the node-g frame matrix: applied to
    a vectorized tangent form, written in the grid's ``tangent_bases`` frame
    as ``restricted_hessian_stack`` writes it, it yields family coefficients
    whose Hessian combination reconstructs the form.
    """

    family: EllipsoidFamily
    grid: SphereGrid
    matrices: np.ndarray
    solvers: np.ndarray
    sigmas: np.ndarray

    @property
    def size(self) -> int:
        return self.family.size

    def coefficients_stack(self, forms: np.ndarray) -> np.ndarray:
        """Coefficients for a (g, d, d) stack of tangent forms at all grid nodes."""
        return np.einsum("gnd,gd->gn", self.solvers, sym_vec(forms))

    def reconstruct_stack(self, coefficients: np.ndarray) -> np.ndarray:
        vecs = np.einsum("gdn,gn->gd", self.matrices, coefficients)
        return sym_unvec(vecs, self.grid.n - 1)

    def coefficients_at(self, x, form: np.ndarray) -> np.ndarray:
        """Minimum-norm coefficients for one tangent form at an arbitrary unit x."""
        S = _frame_matrices(self.family, np.asarray(x, dtype=float)[None])[0]
        return np.linalg.pinv(S) @ sym_vec(np.asarray(form, dtype=float))


def dual_frame(family: EllipsoidFamily, grid: SphereGrid) -> SpanningFrame:
    """Build the pointwise pseudoinverse coefficient frame over the grid.

    The solvers are vt^T diag(1/s) u^T from one SVD: numpy's pinv with no
    singular value cut, since ``_frame_svd`` rejects any sigma <= 1e-10.
    """
    S, (u, s, vt) = _frame_svd(family, grid)
    solvers = np.swapaxes(vt, -1, -2) @ ((1.0 / s)[..., None] * np.swapaxes(u, -1, -2))
    return SpanningFrame(family=family, grid=grid, matrices=S, solvers=solvers, sigmas=s[:, -1])
