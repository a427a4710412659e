import dataclasses
import gc
import itertools
import json
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import valforge as vf
from valforge import synthesis
from valforge.harmonics import dictionary_values
from valforge.sphere import mixed_discriminant_stack, restricted_hessian_stack
from conftest import random_perturbed_ball, random_spd, random_unit


@pytest.fixture(scope="module")
def separable_valuation_k1(grid20):
    p1 = vf.make_perturbed_ball(1.0, {(2, 0): 0.05, (3, 1): 0.02}, grid20)
    p2 = vf.make_perturbed_ball(1.0, {(1, 0): 0.1, (4, 3): 0.03}, grid20)
    decomp = vf.decompose_kernel(vf.separable_kernel([p1, p2]), 2, 4)
    return vf.KernelValuation(n=3, k=1, decomposition=decomp), (p1, p2)


@pytest.fixture(scope="module")
def combination_k1(separable_valuation_k1, family3, frame3):
    v, _ = separable_valuation_k1
    return vf.synthesize(v, family3, frame3)


def test_kernel_valuation_validates(grid20):
    decomp = vf.decompose_kernel(
        lambda X, Y: np.zeros(np.broadcast_shapes(np.asarray(X).shape[:-1], np.asarray(Y).shape[:-1])),
        2,
        2,
    )
    with pytest.raises(ValueError):
        vf.KernelValuation(n=3, k=2, decomposition=decomp)  # needs 1 factor for k=2
    with pytest.raises(ValueError):
        vf.KernelValuation(n=3, k=3, decomposition=decomp)
    with pytest.raises(ValueError):
        vf.KernelValuation(n=3, k=1, decomposition=decomp, parity="both")


def test_kernel_valuation_equals_scaled_mixed_volume(separable_valuation_k1, grid20):
    v, (p1, p2) = separable_valuation_k1
    rng = np.random.default_rng(0)
    for _ in range(3):
        K = random_perturbed_ball(rng, grid20)
        direct = vf.evaluate_kernel_valuation(v, K, grid20)
        mixed = vf.mixed_volume_quadrature([p1, K, p2], grid20)
        assert direct == pytest.approx(3.0 * mixed, rel=1e-7)


def test_kernel_valuation_zero_and_polytope_rejection(grid20):
    zero = vf.decompose_kernel(
        lambda X, Y: np.zeros(np.broadcast_shapes(np.asarray(X).shape[:-1], np.asarray(Y).shape[:-1])),
        2,
        2,
    )
    v = vf.KernelValuation(n=3, k=1, decomposition=zero)
    assert vf.evaluate_kernel_valuation(v, vf.make_ball(1.0), grid20) == 0.0
    cube = vf.make_polytope([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    with pytest.raises(ValueError):
        vf.evaluate_kernel_valuation(v, cube, grid20)


def test_kernel_valuation_homogeneity(separable_valuation_k1, grid20):
    v, _ = separable_valuation_k1
    rng = np.random.default_rng(1)
    K = random_perturbed_ball(rng, grid20)
    base = vf.evaluate_kernel_valuation(v, K, grid20)
    for t in (0.5, 2.0):
        scaled = vf.minkowski_support([K], [t])
        assert vf.evaluate_kernel_valuation(v, scaled, grid20) == pytest.approx(
            t**v.k * base, rel=1e-7
        )


def test_accumulate_top_degree_sums_first_factors(grid20, family3, frame3):
    p = vf.make_perturbed_ball(1.0, {(2, 2): 0.07}, grid20)

    def F(X):
        X = np.asarray(X, float)
        return p.support_values(X.reshape(-1, 3)).reshape(X.shape[:-1])

    decomp = vf.decompose_kernel(F, 1, 3)
    v = vf.KernelValuation(n=3, k=2, decomposition=decomp)
    buckets = vf.accumulate_g_alpha(v, frame3)
    assert list(buckets) == [(0,) * 7]
    # with one factor g_alpha is the kernel itself at the nodes
    assert_allclose(buckets[(0,) * 7], p.support_values(grid20.nodes), atol=1e-12)


def test_accumulate_family_member_reconstruction(frame3, family3, grid20):
    # frame coefficients of a family member's Hessian reproduce it pointwise
    member = family3.ellipsoids[2]
    forms = restricted_hessian_stack(member.support, grid20.nodes)
    coeffs = frame3.coefficients_stack(forms)
    rec = frame3.reconstruct_stack(coeffs)
    assert np.max(np.abs(rec - forms)) < 1e-9


def test_accumulate_term_order_invariance(separable_valuation_k1, frame3):
    v, _ = separable_valuation_k1
    buckets = vf.accumulate_g_alpha(v, frame3)
    reversed_decomp = vf.TensorDecomposition(
        n=3,
        factors=2,
        terms=tuple(reversed(v.decomposition.terms)),
        coefficients=v.decomposition.coefficients[::-1],
        residual=v.decomposition.residual,
        max_degree=v.decomposition.max_degree,
    )
    v2 = vf.KernelValuation(n=3, k=1, decomposition=reversed_decomp)
    buckets2 = vf.accumulate_g_alpha(v2, frame3)
    assert set(buckets) == set(buckets2)
    for alpha in buckets:
        assert np.max(np.abs(buckets[alpha] - buckets2[alpha])) < 1e-10


def test_parity_project():
    even = vf.combine_dictionary(3, {(0, 0): 1.0, (2, 1): 0.5})
    as_even = vf.parity_project(even, "even")
    rng = np.random.default_rng(2)
    X = random_unit(rng, size=20)
    assert_allclose(as_even.values(X), even.values(X), atol=1e-12)
    linear = vf.combine_dictionary(3, {(1, 0): 1.0})
    assert np.max(np.abs(vf.parity_project(linear, "even").values(X))) < 1e-14
    mixed = vf.combine_dictionary(3, {(1, 0): 0.3, (2, 2): 0.7})
    e, o = vf.parity_project(mixed, "even"), vf.parity_project(mixed, "odd")
    assert_allclose(e.values(X) + o.values(X), mixed.values(X), atol=1e-14)
    with pytest.raises(ValueError):
        vf.parity_project(mixed, "both")


def test_convexify_zero_gives_unit_balls(grid20):
    zero = vf.combine_dictionary(3, {})
    l_plus, l_minus, radius = vf.convexify(zero, grid20)
    assert radius == 1.0
    assert l_minus.radius == 1.0
    assert_allclose(l_plus.support_values(grid20.nodes[:5]), 1.0, atol=1e-14)


def test_convexify_random_combination(grid20):
    rng = np.random.default_rng(3)
    coeffs = {(l, j): 0.3 * rng.normal() for l in (1, 2, 3) for j in range(2 * l + 1)}
    g = vf.combine_dictionary(3, coeffs)
    l_plus, l_minus, radius = vf.convexify(g, grid20)
    assert vf.convexity_certificate(l_plus, grid20) > 0
    assert vf.convexity_certificate(l_minus, grid20) > 0
    # exact split h_{L+} - h_{L-} = g at every node
    diff = l_plus.support_values(grid20.nodes) - l_minus.support_values(grid20.nodes)
    assert np.max(np.abs(diff - g.values(grid20.nodes))) < 1e-9


def test_convexify_even_input_gives_symmetric_body(grid20):
    g = vf.combine_dictionary(3, {(2, 0): 0.4, (4, 2): -0.2})
    l_plus, _, _ = vf.convexify(g, grid20)
    vals_plus = l_plus.support_values(grid20.nodes)
    vals_minus = l_plus.support_values(-grid20.nodes)
    assert np.max(np.abs(vals_plus - vals_minus)) < 1e-10


def test_convexify_certificate_holds_by_construction(grid20):
    # lambda_min(D^2 h_{L+}) = R + lambda_min(D^2 g) = R - neg >= max(neg, 1 - neg) >= 1/2
    rng = np.random.default_rng(5)
    for amplitude in np.geomspace(1e-3, 30.0, 12):
        coeffs = {(l, j): amplitude * rng.normal() / (1 + l) for l in range(1, 5) for j in range(2 * l + 1)}
        g = vf.combine_dictionary(3, coeffs)
        l_plus, _, radius = vf.convexify(g, grid20)
        lam_g = float(np.min(np.linalg.eigvalsh(restricted_hessian_stack(g, grid20.nodes))[:, 0]))
        certificate = vf.convexity_certificate(l_plus, grid20)
        assert certificate >= 0.5
        assert abs(certificate - (radius + lam_g)) <= 1e-12 * radius


@pytest.mark.parametrize("n", [3, 4, 5])
def test_alpha_count_is_the_bound(n):
    # synthesize makes one term per multiplicity vector of an (n-k-1)-tuple of family members
    N = vf.build_family(n).size
    for k in range(1, n):
        alphas = {tuple(t.count(s) for s in range(N)) for t in itertools.product(range(N), repeat=n - k - 1)}
        assert len(alphas) == vf.mixed_volume_count_bound(n, k) // 2


def test_synthesize_term_counts(separable_valuation_k1, combination_k1, family3, frame3, grid20):
    assert len(combination_k1.terms) == vf.mixed_volume_count_bound(3, 1) // 2 == 7
    assert combination_k1.mixed_volume_count <= vf.mixed_volume_count_bound(3, 1) == 14

    p = vf.make_perturbed_ball(1.0, {(2, 2): 0.07}, grid20)

    def F(X):
        X = np.asarray(X, float)
        return p.support_values(X.reshape(-1, 3)).reshape(X.shape[:-1])

    v2 = vf.KernelValuation(n=3, k=2, decomposition=vf.decompose_kernel(F, 1, 3))
    comb2 = vf.synthesize(v2, family3, frame3)
    assert len(comb2.terms) == 1
    assert comb2.mixed_volume_count == 2 == vf.mixed_volume_count_bound(3, 2)


def test_round_trip_k1(separable_valuation_k1, combination_k1, grid20):
    v, _ = separable_valuation_k1
    rng = np.random.default_rng(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any numerical warning during evaluation is a failure
        for _ in range(5):
            K = random_perturbed_ball(rng, grid20)
            a = vf.evaluate_kernel_valuation(v, K, grid20)
            b = vf.evaluate_combination(combination_k1, K, grid20)
            assert b == pytest.approx(a, rel=1e-2)


def test_round_trip_multiterm_k2(family3, frame3, grid20):
    kernel = vf.harmonic_table_kernel(
        3, [(0.8, [(0, 0)]), (0.2, [(2, 1)]), (-0.1, [(3, 3)]), (0.05, [(4, 0)])]
    )
    v = vf.KernelValuation(n=3, k=2, decomposition=vf.decompose_kernel(kernel, 1, 4))
    comb = vf.synthesize(v, family3, frame3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        K = random_perturbed_ball(rng, grid20)
        a = vf.evaluate_kernel_valuation(v, K, grid20)
        b = vf.evaluate_combination(comb, K, grid20)
        assert b == pytest.approx(a, rel=1e-2)


def _literal_value(comb, K, grid):
    """sum_alpha V(K[k], L+, E[alpha]) - V(K[k], L-, E[alpha]), one mixed volume at a time, L+- in the support slot."""
    total = 0.0
    for term in comb.terms:
        others = [comb.family.ellipsoids[i] for i, count in enumerate(term.alpha) for _ in range(count)]
        density = vf.mixed_area_density(K, comb.k, others, grid)
        total += vf.mixed_volume_smooth(term.l_plus, density, grid)
        total -= vf.mixed_volume_smooth(term.l_minus, density, grid)
    return total


def _literal_kernel_value(v, K, grid):
    """sum_j c_j integral phi_{t_j1} D(D^2 h_K [k], D^2 phi_{t_j2}, ...), K in the Hessian slots: one mixed
    discriminant per group of terms with the same later labels."""
    decomp = v.decomposition
    later, first = decomp.contract_first(dictionary_values(grid.nodes, decomp.max_degree))
    entries = vf.harmonic_dictionary(v.n, decomp.max_degree)
    k_stack = restricted_hessian_stack(K.support, grid.nodes)
    total = 0.0
    for index in np.ndindex(first.shape[:-1]):
        tail = [restricted_hessian_stack(entries[u[i]], grid.nodes) for u, i in zip(later, index)]
        total += grid.integrate(first[index] * mixed_discriminant_stack([k_stack] * v.k + tail))
    return total


_FACTOR_LABELS = ({(2, 0): 0.05, (3, 1): 0.02}, {(1, 0): 0.1, (4, 3): 0.03}, {(2, 3): 0.04, (1, 2): 0.05})


def _separable_pipeline(n, k, grid):
    """The kernel of the first n - k perturbed balls of ``_FACTOR_LABELS``, and its synthesized combination."""
    family = vf.build_family(n)
    factors = [vf.make_perturbed_ball(1.0, coeffs, grid) for coeffs in _FACTOR_LABELS[: n - k]]
    v = vf.KernelValuation(n=n, k=k, decomposition=vf.decompose_kernel(vf.separable_kernel(factors), n - k, 4, n=n))
    return v, vf.synthesize(v, family, vf.dual_frame(family, grid))


@pytest.fixture(scope="module")
def pipeline_n4_k1():
    # criterion 10's n = 4, k = 1 kernel and combination: 66 alpha-terms on the degree-12 grid
    grid = vf.build_grid(4, 12)
    return (*_separable_pipeline(4, 1, grid), grid)


@pytest.fixture(scope="module")
def combination_n4_k1(pipeline_n4_k1):
    _, comb, grid = pipeline_n4_k1
    return comb, grid


@pytest.fixture(scope="module")
def pipelines(separable_valuation_k1, combination_k1, pipeline_n4_k1, grid20):
    """(kernel valuation, combination, grid) for every (n, k) with n <= 4, on the fixtures' grids."""
    grid12 = pipeline_n4_k1[2]
    out = {(3, 1): (separable_valuation_k1[0], combination_k1, grid20), (4, 1): pipeline_n4_k1}
    for n, k, grid in ((3, 2, grid20), (4, 2, grid12), (4, 3, grid12)):
        out[(n, k)] = (*_separable_pipeline(n, k, grid), grid)
    return out


def test_compiled_k1_equals_literal_mixed_volumes(combination_k1, grid20):
    rng = np.random.default_rng(13)
    bodies = [
        vf.make_ball(rng.uniform(0.5, 2.0)),
        vf.make_ellipsoid(random_spd(rng)),
        random_perturbed_ball(rng, grid20),
        vf.translate(random_perturbed_ball(rng, grid20), rng.uniform(-1.0, 1.0, 3)),
    ]
    for K in bodies:
        literal = _literal_value(combination_k1, K, grid20)
        assert vf.evaluate_combination(combination_k1, K, grid20) == pytest.approx(literal, rel=1e-12)


def test_compiled_n4_k1_equals_literal_mixed_volumes(combination_n4_k1):
    comb, grid = combination_n4_k1
    K = random_perturbed_ball(np.random.default_rng(101), grid)
    assert vf.evaluate_combination(comb, K, grid) == pytest.approx(_literal_value(comb, K, grid), rel=1e-12)


def test_k1_measure_compiles_once_per_grid(combination_k1, grid20, monkeypatch):
    comb = dataclasses.replace(combination_k1)  # the same terms, nothing compiled yet
    density = vf.mixed_area_density
    calls = []

    def counted(*args):
        calls.append(args)
        return density(*args)

    monkeypatch.setattr("valforge.synthesis.mixed_area_density", counted)
    rng = np.random.default_rng(14)
    bodies = [random_perturbed_ball(rng, grid20) for _ in range(5)]
    for K in bodies:
        vf.evaluate_combination(comb, K, grid20)
    assert len(calls) == 2 * len(comb.terms)
    monkeypatch.undo()
    # a second grid compiles its own measure, and the first keeps its own
    grid24 = vf.build_grid(3, 24)
    for grid in (grid24, grid20):
        assert vf.evaluate_combination(comb, bodies[0], grid) == pytest.approx(
            _literal_value(comb, bodies[0], grid), rel=1e-12
        )
    # the compiled measures live and die with the combination
    ref = weakref.ref(comb)
    del comb
    gc.collect()
    assert ref() is None


def test_translation_invariance(separable_valuation_k1, combination_k1, family3, frame3, grid20):
    # for k = 1 the compiled route is (1/n) integral h_K dnu, so invariance rests on
    # integral x dnu = 0 rather than on the Hessian of <x, v> vanishing
    v1, _ = separable_valuation_k1
    kernel = vf.harmonic_table_kernel(3, [(0.8, [(0, 0)]), (0.2, [(2, 1)]), (-0.1, [(3, 3)])])
    v2 = vf.KernelValuation(n=3, k=2, decomposition=vf.decompose_kernel(kernel, 1, 4))
    comb2 = vf.synthesize(v2, family3, frame3)
    evaluations = [
        (vf.evaluate_combination, combination_k1),
        (vf.evaluate_combination, comb2),
        (vf.evaluate_kernel_valuation, v1),
        (vf.evaluate_kernel_valuation, v2),
    ]
    rng = np.random.default_rng(15)
    for K in (random_perturbed_ball(rng, grid20), vf.make_ellipsoid(random_spd(rng)), vf.make_ball(1.3)):
        shift = rng.normal(size=3)
        shifted = vf.translate(K, rng.uniform(0.2, 1.0) * shift / np.linalg.norm(shift))
        for evaluate, valuation in evaluations:
            base = evaluate(valuation, K, grid20)
            assert abs(evaluate(valuation, shifted, grid20) - base) <= 1e-12 * abs(base)


def test_zero_valuation_synthesizes_to_zero(family3, frame3, grid20):
    def zero2(X, Y):
        return np.zeros(np.broadcast_shapes(np.asarray(X).shape[:-1], np.asarray(Y).shape[:-1]))

    def zero1(X):
        return np.zeros(np.asarray(X).shape[:-1])

    for k, fn, factors in ((1, zero2, 2), (2, zero1, 1)):
        v = vf.KernelValuation(n=3, k=k, decomposition=vf.decompose_kernel(fn, factors, 2))
        comb = vf.synthesize(v, family3, frame3)
        K = vf.make_ball(1.0)
        assert abs(vf.evaluate_combination(comb, K, grid20)) < 1e-10


def test_combination_homogeneity(combination_k1, grid20):
    rng = np.random.default_rng(6)
    K = random_perturbed_ball(rng, grid20)
    base = vf.evaluate_combination(combination_k1, K, grid20)
    for t in (0.5, 2.0):
        scaled = vf.minkowski_support([K], [t])
        assert vf.evaluate_combination(combination_k1, scaled, grid20) == pytest.approx(
            t * base, rel=1e-6
        )


def test_pipeline_linearity(family3, frame3, grid20):
    k1 = vf.harmonic_table_kernel(3, [(1.0, [(0, 0), (0, 0)]), (0.3, [(2, 1), (2, 1)])])
    k2 = vf.harmonic_table_kernel(3, [(0.5, [(1, 0), (1, 0)]), (-0.2, [(2, 3), (0, 0)])])

    def k_sum(X, Y):
        return 2.0 * k1(X, Y) - 1.5 * k2(X, Y)

    vs = [
        vf.KernelValuation(n=3, k=1, decomposition=vf.decompose_kernel(f, 2, 2))
        for f in (k1, k2, k_sum)
    ]
    combs = [vf.synthesize(v, family3, frame3) for v in vs]
    rng = np.random.default_rng(7)
    K = random_perturbed_ball(rng, grid20)
    values = [vf.evaluate_combination(c, K, grid20) for c in combs]
    assert values[2] == pytest.approx(2.0 * values[0] - 1.5 * values[1], rel=1e-6, abs=1e-9)


def test_even_parity_bodies_symmetric(family3, frame3, grid20):
    kernel = vf.harmonic_table_kernel(
        3, [(1.0, [(0, 0), (0, 0)]), (0.25, [(2, 1), (2, 4)]), (-0.15, [(4, 2), (2, 0)])]
    )
    v = vf.KernelValuation(
        n=3, k=1, decomposition=vf.decompose_kernel(kernel, 2, 4), parity="even"
    )
    comb = vf.synthesize(v, family3, frame3)
    for term in comb.terms:
        vals = term.l_plus.support_values(grid20.nodes)
        flipped = term.l_plus.support_values(-grid20.nodes)
        assert np.max(np.abs(vals - flipped)) < 1e-10
        assert term.l_minus.kind == "ball"


def test_artifact_roundtrip(separable_valuation_k1, combination_k1, grid20):
    v, _ = separable_valuation_k1
    payload = vf.combination_to_dict(combination_k1, v)
    text = json.dumps(payload, sort_keys=True)
    comb2, v2 = vf.combination_from_dict(json.loads(text), grid20)
    rng = np.random.default_rng(8)
    K = random_perturbed_ball(rng, grid20)
    assert vf.evaluate_combination(comb2, K, grid20) == pytest.approx(
        vf.evaluate_combination(combination_k1, K, grid20), rel=1e-12
    )
    assert vf.evaluate_kernel_valuation(v2, K, grid20) == pytest.approx(
        vf.evaluate_kernel_valuation(v, K, grid20), rel=1e-9
    )
    # byte-identical re-serialization of all floating fields
    again = json.dumps(vf.combination_to_dict(comb2, v2), sort_keys=True)
    assert again == text


def test_artifact_with_exact_zero_entries_still_loads(grid20):
    # the n = 3, k = 2 separable-kernel artifact of the command-line tests, as
    # written when every projected label was stored, exact zeros included
    data = json.loads((Path(__file__).parent / "data" / "separable_k2_artifact.json").read_text())
    (g,) = [term["g"] for term in data["terms"]]
    assert sorted(label for label, c in g.items() if c == 0.0) == ["6,4", "8,13", "8,5"]
    comb, v = vf.combination_from_dict(data, grid20)
    (term,) = vf.combination_to_dict(comb, v)["terms"]
    assert term["l_plus"]["coeffs"] == {label: c for label, c in g.items() if c != 0.0}
    rng = np.random.default_rng(12)
    for K in [random_perturbed_ball(rng, grid20) for _ in range(3)]:
        kernel_value = vf.evaluate_kernel_valuation(v, K, grid20)
        assert vf.evaluate_combination(comb, K, grid20) == pytest.approx(kernel_value, rel=1e-12)


def test_combination_rejects_polytope(combination_k1, grid20):
    cube = vf.make_polytope([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    with pytest.raises(ValueError):
        vf.evaluate_combination(combination_k1, cube, grid20)


def test_minkowski_polynomiality_in_ball_growth(combination_k1, grid20):
    # t -> mu(K + tB) must be a polynomial of degree <= k = 1
    rng = np.random.default_rng(9)
    K = random_perturbed_ball(rng, grid20)
    B = vf.make_ball(1.0)
    ts = np.linspace(0.0, 1.0, 6)
    vals = []
    for t in ts:
        body = vf.minkowski_support([K, B], [1.0, t]) if t > 0 else K
        vals.append(vf.evaluate_combination(combination_k1, body, grid20))
    coeffs = np.polynomial.polynomial.polyfit(ts, vals, 1)
    fitted = np.polynomial.polynomial.polyval(ts, coeffs)
    assert np.max(np.abs(fitted - vals)) < 1e-6 * max(1.0, np.max(np.abs(vals)))


@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_compiled_equals_literal_both_sides(pipelines, n, k):
    v, comb, grid = pipelines[(n, k)]
    rng = np.random.default_rng(10 * n + k)
    for K in [random_perturbed_ball(rng, grid) for _ in range(2)]:
        kernel_literal, comb_literal = _literal_kernel_value(v, K, grid), _literal_value(comb, K, grid)
        assert vf.evaluate_kernel_valuation(v, K, grid) == pytest.approx(kernel_literal, rel=1e-12, abs=0.0)
        assert vf.evaluate_combination(comb, K, grid) == pytest.approx(comb_literal, rel=1e-12, abs=0.0)


def _support_slot_literal(terms, K, k, grid):
    """sum_terms w (1/n) integral h_K D(D^2 h_K [k - 1], D^2 f_1, ...): one mixed discriminant per term."""
    X = restricted_hessian_stack(K.support, grid.nodes)
    total = 0.0
    for w, functions in terms:
        stacks = [restricted_hessian_stack(f, grid.nodes) for f in functions]
        total += w * vf.mixed_volume_smooth(K, mixed_discriminant_stack([X] * (k - 1) + stacks), grid)
    return total


@pytest.mark.parametrize("k", [2, 3])
def test_compiled_equals_literal_n5(k):
    # the minor formula at m = 4 (1 x 1 minors for k = 2, 2 x 2 for k = 3), on two hand-built terms per side,
    # against per-term mixed volumes with the same slots: K in the support slot and k - 1 Hessian slots
    grid = vf.build_grid(5, 8)
    family = vf.build_family(5)
    members = {2: ([3, 9], [12, 12]), 3: ([3], [12])}[k]  # the n - k - 1 family members of each term
    carriers = ({(2, 0): 0.2, (3, 4): -0.1}, {(1, 2): 0.3, (2, 7): 0.15})
    terms = tuple(
        synthesis.CombinationTerm(
            tuple(picks.count(i) for i in range(family.size)),
            vf.make_perturbed_ball(2.0, c, grid),
            vf.make_ball(2.0, n=5),
        )
        for picks, c in zip(members, carriers)
    )
    comb = vf.FiniteCombination(n=5, k=k, family=family, terms=terms, kernel_max_degree=2)
    rows = [[6, 0, 6][: 5 - k], [9, 9, 0][: 5 - k]]  # degrees 0 and 2 only: a linear label has no Hessian
    decomp = vf.TensorDecomposition(
        n=5, factors=5 - k, terms=rows, coefficients=[0.7, -0.3], residual=0.0, max_degree=2
    )
    v = vf.KernelValuation(n=5, k=k, decomposition=decomp)
    entries = vf.harmonic_dictionary(5, 2)
    K = vf.make_ellipsoid(random_spd(np.random.default_rng(50 + k), n=5))
    kernel_terms = [(5 * c, [entries[d] for d in row]) for row, c in zip(rows, decomp.coefficients)]
    # h_{L+} - h_{L-} is the carrier, so each term is one mixed volume of it
    comb_terms = [
        (1.0, [term.l_plus.perturbation] + [family.ellipsoids[i].support for i in picks])
        for term, picks in zip(terms, members)
    ]
    kernel_literal = _support_slot_literal(kernel_terms, K, k, grid)
    comb_literal = _support_slot_literal(comb_terms, K, k, grid)
    assert vf.evaluate_kernel_valuation(v, K, grid) == pytest.approx(kernel_literal, rel=1e-12, abs=0.0)
    assert vf.evaluate_combination(comb, K, grid) == pytest.approx(comb_literal, rel=1e-12, abs=0.0)


def test_per_body_work_does_not_scale_with_terms(pipelines, monkeypatch):
    # after the compile, a body costs at most one discriminant call per minor, whatever the term count
    assert len(pipelines[(4, 2)][1].terms) == 11
    for n, k in ((4, 2), (3, 1)):
        v, comb, grid = pipelines[(n, k)]
        rng = np.random.default_rng(17)
        first, later = random_perturbed_ball(rng, grid), random_perturbed_ball(rng, grid)
        for evaluate, owner in ((vf.evaluate_kernel_valuation, v), (vf.evaluate_combination, comb)):
            evaluate(owner, first, grid)
            calls = {"mixed_discriminant_stack": 0, "mixed_area_density": 0}
            for name in calls:
                function = getattr(synthesis, name)

                def counted(*args, name=name, function=function):
                    calls[name] += 1
                    return function(*args)

                monkeypatch.setattr(synthesis, name, counted)
            evaluate(owner, later, grid)
            monkeypatch.undo()
            assert calls["mixed_discriminant_stack"] <= math.comb(n - 1, k - 1) ** 2
            assert calls["mixed_area_density"] == 0


def _count_builds(monkeypatch) -> list:
    """(owner id, grid nodes id) of every node-table build from here on."""
    builds = []
    for name in ("_kernel_table", "_combination_table"):
        build = getattr(synthesis, name)

        def counted(owner, grid, build=build):
            builds.append((id(owner), id(grid.nodes)))
            return build(owner, grid)

        monkeypatch.setattr(synthesis, name, counted)
    return builds


@pytest.mark.parametrize("k", [1, 2])
def test_tables_compile_once_per_owner_and_grid(pipelines, k, monkeypatch):
    v, comb, grid = pipelines[(3, k)]
    v, comb = dataclasses.replace(v), dataclasses.replace(comb)  # the same terms, nothing compiled yet
    builds = _count_builds(monkeypatch)
    rng = np.random.default_rng(18)
    bodies = [random_perturbed_ball(rng, grid) for _ in range(5)]
    for on in (grid, vf.build_grid(3, 24)):
        for K in bodies:
            vf.evaluate_kernel_valuation(v, K, on)
            vf.evaluate_combination(comb, K, on)
    monkeypatch.undo()
    assert len(builds) == len(set(builds)) == 4
    # the compiled tables live and die with their owners
    refs = [weakref.ref(v), weakref.ref(comb)]
    del v, comb
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("k", [1, 2])
def test_loading_compiles_both_tables(pipelines, k, monkeypatch):
    v, comb, grid = pipelines[(3, k)]
    payload = json.loads(json.dumps(vf.combination_to_dict(comb, v)))
    builds = _count_builds(monkeypatch)
    comb, v = vf.combination_from_dict(payload, grid)
    assert len(builds) == 2
    K = random_perturbed_ball(np.random.default_rng(19), grid)
    vf.evaluate_kernel_valuation(v, K, grid)
    vf.evaluate_combination(comb, K, grid)
    assert len(builds) == 2
