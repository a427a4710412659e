"""From kernel-represented valuations to finite combinations of mixed volumes.

A k-homogeneous valuation given by a kernel F on (S^{n-1})^{n-k} evaluates as

    mu(K) = sum_j integral f_1^j * D(D^2 h_K [k], D^2 f_2^j, ..., D^2 f_{n-k}^j)

over the separable terms of F.  Expressing each D^2 f_l^j pointwise in the
spanning-family Hessians through the dual frame and regrouping by ellipsoid
multiset yields functions g_alpha with mu(K) = sum_alpha (1/n) integral
g~_alpha dS(K[k], E[alpha]) (g~ = n g absorbs the volume/measure scaling), and
splitting each g~_alpha = h_{L+} - h_{L-} against a large ball turns the sum
into differences of mixed volumes with certified convex bodies.

Evaluation is one routine for kernels and combinations alike.  Both are sums
of mixed volumes, which are symmetric and multilinear, so K can take the
support slot and k - 1 Hessian slots; everything else is a (G, P) node
table T over the (k-1) x (k-1) minors of a restricted Hessian, compiled once
per (valuation, grid) and held on the valuation or combination that owns it,
so it lives exactly as long as that object.  A body then costs
(1/n) integral h_K sum_p det D^2 h_K[I_p, J_p] T[:, p].
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import ConvexBody, body_from_dict, body_to_dict, make_ball, make_perturbed_ball
from .family import EllipsoidFamily, SpanningFrame, build_family
from .harmonics import (
    HarmonicCombination,
    dictionary_positions,
    dictionary_size,
    dictionary_values,
    harmonic_dictionary,
    project_to_dictionary,
)
from .kernels import TensorDecomposition
from .mixed import mixed_area_density, mixed_volume_smooth
from .sphere import SphereGrid, min_hessian_eigenvalue, mixed_discriminant_stack, restricted_hessian_stack

__all__ = [
    "CombinationTerm",
    "FiniteCombination",
    "KernelValuation",
    "accumulate_g_alpha",
    "combination_from_dict",
    "combination_to_dict",
    "convexify",
    "evaluate_combination",
    "evaluate_kernel_valuation",
    "mixed_volume_count_bound",
    "parity_project",
    "synthesize",
]


@dataclass(frozen=True)
class KernelValuation:
    """k-homogeneous valuation represented by a separable kernel decomposition."""

    n: int
    k: int
    decomposition: TensorDecomposition
    parity: str | None = None
    _node_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"homogeneity degree must satisfy 1 <= k <= n-1, got {self.k}")
        if self.decomposition.factors != self.n - self.k:
            raise ValueError(
                f"kernel needs {self.n - self.k} factors, decomposition has {self.decomposition.factors}"
            )
        if self.parity not in (None, "even", "odd"):
            raise ValueError(f"parity must be None, 'even', or 'odd', got {self.parity!r}")


def _on_grid(owner, grid: SphereGrid, build):
    """``build(owner, grid)``, computed once per (builder, grid) and held on ``owner``.

    The key holds the id of ``grid.nodes``, and the entry keeps that array
    alive, so the id cannot name another array while the entry exists (the
    reasoning of ``sphere._GRID_TABLES``).  The entries go when ``owner`` goes.
    """
    key = (build, id(grid.nodes))
    if key not in owner._node_tables:
        owner._node_tables[key] = (grid.nodes, build(owner, grid))
    return owner._node_tables[key][1]


def _label_stacks(v: KernelValuation, grid: SphereGrid) -> dict:
    """The restricted Hessian stack of each label of slots 2..n-k, keyed by dictionary index."""
    entries = harmonic_dictionary(v.n, v.decomposition.max_degree)
    return {int(d): restricted_hessian_stack(entries[d], grid.nodes) for d in np.unique(v.decomposition.terms[:, 1:])}


def _blocks(B: np.ndarray, j: int, complement: bool = False) -> np.ndarray:
    """The blocks B[:, I, J] of a (G, m, m) stack over the pairs of j-subsets (I, J) of range(m), as one
    (G * P, s, s) stack in node-major, lexicographic pair order; with ``complement`` the blocks B[:, I', J']."""
    m = B.shape[-1]
    index = np.array([[i for i in range(m) if (i in S) != complement] for S in itertools.combinations(range(m), j)])
    return B[:, index[:, None, :, None], index[None, :, None, :]].reshape(-1, index.shape[1], index.shape[1])


def _node_table(terms, j: int, grid: SphereGrid) -> np.ndarray:
    """(G, P) table T with sum_terms w D(X[j], B_1, ..., B_r) = sum_p det X[I_p, J_p] T[:, p].

    ``terms`` holds (w, [B_1, ..., B_r]) with r + j = m = n - 1.  The Laplace
    expansion of det(X + sum_i t_i B_i) gives, with I', J' the complements,
    T[:, (I, J)] = (-1)^(sum I + sum J) / C(m, j) sum_terms w D(B_1[I', J'], ..., B_r[I', J']),
    one mixed discriminant call per term.
    """
    m = grid.n - 1
    sign = np.array([(-1.0) ** sum(S) for S in itertools.combinations(range(m), j)])
    table = np.zeros(grid.size * len(sign) ** 2)
    for w, stacks in terms:
        table += w * mixed_discriminant_stack([_blocks(B, j, complement=True) for B in stacks])
    table = table.reshape(grid.size, -1) * np.outer(sign, sign).ravel() / math.comb(m, j)
    table.setflags(write=False)
    return table


def _evaluate(owner, K: ConvexBody, grid: SphereGrid, build) -> float:
    """mixed_volume_smooth(K, sum_p det D^2 h_K[I_p, J_p] T[:, p]) for T = ``_on_grid(owner, grid, build)``."""
    if not K.smooth:
        raise ValueError("valuations evaluate on smooth bodies only (quadrature route)")
    table = _on_grid(owner, grid, build)
    j = owner.k - 1
    density = table[:, 0]
    if j:  # with k = 1 the only minor is the empty one, and K's Hessian stack is not built
        X = restricted_hessian_stack(K.support, grid.nodes)
        minors = mixed_discriminant_stack([_blocks(X, j)] * j)
        density = np.einsum("gp,gp->g", minors.reshape(table.shape), table)
    return mixed_volume_smooth(K, density, grid)


def _kernel_table(v: KernelValuation, grid: SphereGrid) -> np.ndarray:
    """The node table of the terms (n c_j, [D^2 phi_{t_j1}, ..., D^2 phi_{t_j,n-k}]).

    The first slot is summed per group of later labels (``contract_first`` of
    the identity gives each group's coefficient vector), so the table costs one
    Hessian stack and one mixed discriminant call per group, not per term.
    """
    decomp = v.decomposition
    later, first = decomp.contract_first(np.eye(dictionary_size(v.n, decomp.max_degree)))
    stacks = _on_grid(v, grid, _label_stacks)
    def terms():  # a generator, so one group's first-slot stack is alive at a time
        for index in np.ndindex(first.shape[:-1]):
            if first[index].any():
                group = restricted_hessian_stack(HarmonicCombination(v.n, first[index]), grid.nodes)
                yield v.n, [group] + [stacks[u[i]] for u, i in zip(later, index)]

    return _node_table(terms(), v.k - 1, grid)


def evaluate_kernel_valuation(v: KernelValuation, K: ConvexBody, grid: SphereGrid) -> float:
    """Evaluate the kernel valuation on a smooth body by quadrature.

    sum_j c_j integral phi_{t_j1} D(D^2 h_K [k], D^2 phi_{t_j2}, ...), which the
    symmetry of mixed volumes (multilinear in any smooth functions) turns into
    sum_j c_j integral h_K D(D^2 h_K [k - 1], D^2 phi_{t_j1}, ...) over the
    kernel's node table.  For a separable kernel of support functions this
    equals n times the corresponding mixed volume.
    """
    return _evaluate(v, K, grid, _kernel_table)


def accumulate_g_alpha(v: KernelValuation, frame: SpanningFrame) -> dict:
    """Node-sampled g_alpha from the dual-frame coefficients of the kernel terms.

    With psi_u = frame(D^2 phi_u), taken once per label u of slots 2..n-k,
    the label table contracts slot by slot into
    T[x, s_2, ..., s_{n-k}] = sum_j c_j phi_{t_j1}(x) prod_l psi_{t_jl}(x)_{s_l};
    each index tuple adds its slice of T to the multi-index alpha counting
    ellipsoid multiplicities.  With no terms no alpha is reached, so there
    are no buckets unless n - k = 1.
    """
    grid = frame.grid
    N = frame.size
    slots = v.n - v.k - 1
    if slots and not len(v.decomposition):
        return {}
    later, T = v.decomposition.contract_first(dictionary_values(grid.nodes, v.decomposition.max_degree))
    stacks = _on_grid(v, grid, _label_stacks)
    psi = {d: frame.coefficients_stack(forms) for d, forms in stacks.items()}  # (G, N) each
    # T[i_l, ..., i_m, x, s]: s runs over the index tuples of the slots contracted so far
    T = T[..., None]
    for labels in later:
        T = np.einsum("u...gs,ugt->...gst", T, np.stack([psi[d] for d in labels]))
        T = T.reshape(T.shape[:-2] + (-1,))
    T = T.reshape((grid.size,) + (N,) * slots)
    buckets: dict = {}
    for indices in itertools.product(range(N), repeat=slots):
        alpha = tuple(indices.count(s) for s in range(N))
        buckets[alpha] = buckets.get(alpha, 0.0) + T[(slice(None),) + indices]
    return buckets


def parity_project(g: HarmonicCombination, parity: str) -> HarmonicCombination:
    """Even or odd part (g(x) +- g(-x)) / 2 of a dictionary-backed function: its even or odd degrees."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if not isinstance(g, HarmonicCombination):
        raise ValueError("parity projection needs a dictionary-backed band-limited function")
    keep = g.labels[:, 0] % 2 == (parity == "odd")
    return HarmonicCombination(g.n, np.where(keep, g.c, 0.0))


def convexify(g, grid: SphereGrid):
    """Split g = h_{L+} - h_{L-} into (L+, L-, R), both bodies certified convex.

    L- is the centered ball of radius R = max(1, 2 * neg + max|g|), with
    neg = max(0, -lambda_min(D^2 g)) over the grid nodes, and L+ the perturbed
    ball with support R + g.  On those nodes D^2 h_{L+} = D^2 g + R Id has
    smallest eigenvalue R - neg >= max(neg, 1 - neg) >= 1/2, so L+ passes its
    certificate by construction.
    """
    if not isinstance(g, HarmonicCombination):
        raise ValueError("convexify needs a dictionary-backed band-limited function")
    neg = max(0.0, -min_hessian_eigenvalue(g, grid)[0])
    gmax = float(np.max(np.abs(g.values(grid.nodes))))
    radius = max(1.0, 2.0 * neg + gmax)
    return make_perturbed_ball(radius, g, grid), make_ball(radius, n=grid.n), radius


@dataclass(frozen=True)
class CombinationTerm:
    """V(K[k], L+, E[alpha]) - V(K[k], L-, E[alpha]); the carrier g_alpha is
    ``l_plus.perturbation`` and the radius ``l_minus.radius``."""

    alpha: tuple
    l_plus: ConvexBody
    l_minus: ConvexBody


@dataclass(frozen=True)
class FiniteCombination:
    """mu(K) = sum_alpha V(K[k], L+_alpha, E[alpha]) - V(K[k], L-_alpha, E[alpha])."""

    n: int
    k: int
    family: EllipsoidFamily
    terms: tuple
    kernel_max_degree: int
    _node_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def mixed_volume_count(self) -> int:
        return 2 * len(self.terms)


def mixed_volume_count_bound(n: int, k: int) -> int:
    """The paper's N_{n,k} = 2 * C(C(n+1, 2) + n - k - 1, n - k - 1).

    ``synthesize`` makes one alpha-term, two mixed volumes, per multiplicity
    vector of an (n-k-1)-tuple drawn from the N = C(n+1, 2) + 1 family
    members, and there are C(N + n - k - 2, n - k - 1) of those: the bound
    holds by construction, with equality when every alpha is reached.
    """
    return 2 * math.comb(math.comb(n + 1, 2) + n - k - 1, n - k - 1)


# carriers are projected onto the dictionary of degree kernel max_degree + this margin
_PROJECTION_MARGIN = 4


def synthesize(v: KernelValuation, family: EllipsoidFamily, frame: SpanningFrame) -> FiniteCombination:
    """Run the full pipeline: accumulate g_alpha, project, convexify.

    The accumulated node values are rescaled by n (turning the measure-pairing
    normalization into the mixed-volume one), projected onto the harmonic
    dictionary of degree kernel max_degree + 4 as a smooth
    carrier, parity-projected when the valuation declares a parity, and split
    into certified bodies.  Each alpha is an ellipsoid multiset reached by
    ``accumulate_g_alpha``, so there are at most
    ``mixed_volume_count_bound(n, k) // 2`` terms.
    """
    grid = frame.grid
    n = v.n
    buckets = accumulate_g_alpha(v, frame)
    proj_degree = v.decomposition.max_degree + _PROJECTION_MARGIN
    terms = []
    for alpha in sorted(buckets):
        carrier = HarmonicCombination(n, project_to_dictionary(n * buckets[alpha], grid, proj_degree))
        if v.parity is not None:
            carrier = parity_project(carrier, v.parity)
        l_plus, l_minus, _ = convexify(carrier, grid)
        terms.append(CombinationTerm(alpha=alpha, l_plus=l_plus, l_minus=l_minus))
    return FiniteCombination(
        n=n, k=v.k, family=family, terms=tuple(terms), kernel_max_degree=v.decomposition.max_degree
    )


def _combination_table(comb: FiniteCombination, grid: SphereGrid) -> np.ndarray:
    """The node table of the terms (1, [D^2 h_{L+_alpha} - D^2 h_{L-_alpha}, D^2 h_E for E in alpha]).

    For k = 1 the table is the signed measure
    nu = sum_alpha S(L+_alpha, E[alpha]) - S(L-_alpha, E[alpha]), summed
    from the artifact's own bodies by ``mixed_area_density``.  Otherwise each
    family member's stack is built once, not once per alpha-term.
    """
    members = [[i for i, count in enumerate(term.alpha) for _ in range(count)] for term in comb.terms]
    if comb.k == 1:
        nu = np.zeros(grid.size)
        for term, indices in zip(comb.terms, members):
            others = [comb.family.ellipsoids[i] for i in indices]
            nu += mixed_area_density(term.l_plus, 1, others, grid) - mixed_area_density(term.l_minus, 1, others, grid)
        nu.setflags(write=False)
        return nu[:, None]

    def stack(body):
        return restricted_hessian_stack(body.support, grid.nodes)

    family = {i: stack(comb.family.ellipsoids[i]) for i in set().union(*members)}
    terms = ((1.0, [stack(t.l_plus) - stack(t.l_minus)] + [family[i] for i in m]) for t, m in zip(comb.terms, members))
    return _node_table(terms, comb.k - 1, grid)


def evaluate_combination(comb: FiniteCombination, K: ConvexBody, grid: SphereGrid) -> float:
    """Evaluate the finite combination on a smooth body.

    Returns the mixed-volume representation sum_alpha V(K[k], L+, E[alpha]) -
    V(K[k], L-, E[alpha]).  Mixed volumes are symmetric and linear in each
    slot, so the sum is sum_alpha V(K, K[k-1], L+ - L-, E[alpha]), and the
    K-free part is the combination's node table (``_combination_table``).
    """
    return _evaluate(comb, K, grid, _combination_table)


# -- artifact serialization ---------------------------------------------------


def combination_to_dict(comb: FiniteCombination, v: KernelValuation | None = None) -> dict:
    """JSON-ready artifact: family, per-alpha terms, and optionally the kernel.

    A term is its alpha and its two bodies; the carrier is L+'s ``coeffs``.
    """
    out = {
        "n": comb.n,
        "k": comb.k,
        "kernel_max_degree": comb.kernel_max_degree,
        "family": {
            "t": comb.family.t,
            "c": comb.family.c,
            "size": comb.family.size,
            "matrices": [[[float(x) for x in row] for row in b.matrix] for b in comb.family.ellipsoids],
        },
        "mixed_volume_count": comb.mixed_volume_count,
        "terms": [
            {"alpha": list(term.alpha), "l_plus": body_to_dict(term.l_plus), "l_minus": body_to_dict(term.l_minus)}
            for term in comb.terms
        ],
    }
    if v is not None:
        entries = harmonic_dictionary(comb.n, v.decomposition.max_degree)
        out["kernel"] = {
            "factors": v.decomposition.factors,
            "max_degree": v.decomposition.max_degree,
            "parity": v.parity,
            "terms": [
                {"coefficient": float(c), "labels": [f"{entries[d].degree},{entries[d].index}" for d in row]}
                for row, c in zip(v.decomposition.terms.tolist(), v.decomposition.coefficients)
            ],
        }
    return out


def combination_from_dict(data: dict, grid: SphereGrid):
    """Rebuild (combination, kernel valuation or None) from an artifact dict.

    A term is read from its ``alpha``, ``l_plus`` and ``l_minus``; L+ re-runs
    its convexity certificate on the grid.  The ``g`` and ``radius`` keys of
    older artifacts repeat L+'s perturbation and radius and are ignored.

    Both node tables are compiled for that grid here, so that loading pays
    for them and no evaluation does.
    """
    n = int(data["n"])
    k = int(data["k"])
    family = build_family(n)
    stored = np.asarray(data["family"]["matrices"], dtype=float)
    rebuilt = np.asarray([b.matrix for b in family.ellipsoids])
    if stored.shape != rebuilt.shape or not np.allclose(stored, rebuilt, atol=1e-12):
        raise ValueError("artifact family does not match the canonical construction")
    terms = [
        CombinationTerm(
            alpha=tuple(int(a) for a in entry["alpha"]),
            l_plus=body_from_dict(entry["l_plus"], grid=grid),
            l_minus=body_from_dict(entry["l_minus"], grid=grid),
        )
        for entry in data["terms"]
    ]
    comb = FiniteCombination(
        n=n,
        k=k,
        family=family,
        terms=tuple(terms),
        kernel_max_degree=int(data["kernel_max_degree"]),
    )
    valuation = None
    if "kernel" in data:
        kdata = data["kernel"]
        max_degree = int(kdata["max_degree"])
        decomp = TensorDecomposition(
            n=n,
            factors=int(kdata["factors"]),
            terms=[
                dictionary_positions(n, [label.split(",") for label in t["labels"]], max_degree) for t in kdata["terms"]
            ],
            coefficients=[float(t["coefficient"]) for t in kdata["terms"]],
            residual=0.0,
            max_degree=max_degree,
        )
        valuation = KernelValuation(n=n, k=k, decomposition=decomp, parity=kdata.get("parity"))
        _on_grid(valuation, grid, _kernel_table)
    _on_grid(comb, grid, _combination_table)
    return comb, valuation
