import numpy as np
import pytest
from numpy.testing import assert_allclose

import valforge as vf
from valforge.kernels import RankOneSumKernel, c_norm, reconstruct_batch
from valforge.sphere import SphericalFunction
from conftest import random_unit


def inner_product_kernel(X, Y):
    X, Y = np.broadcast_arrays(np.asarray(X, float), np.asarray(Y, float))
    return np.einsum("...i,...i->...", X, Y)


def zero_kernel(X, Y):
    shape = np.broadcast_shapes(np.asarray(X).shape[:-1], np.asarray(Y).shape[:-1])
    return np.zeros(shape)


def test_inner_product_kernel_three_terms():
    decomp = vf.decompose_kernel(inner_product_kernel, 2, 2)
    assert len(decomp) == 3
    assert decomp.residual < 1e-10
    assert_allclose(np.abs(decomp.coefficients), 4 * np.pi / 3, rtol=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = random_unit(rng), random_unit(rng)
        assert vf.reconstruct(decomp, (x, y)) == pytest.approx(float(x @ y), abs=1e-12)


def test_separable_kernel_roundtrip(grid20):
    p1 = vf.make_perturbed_ball(1.0, {(2, 0): 0.05, (3, 1): 0.02}, grid20)
    p2 = vf.make_perturbed_ball(1.0, {(1, 0): 0.1, (4, 3): 0.03}, grid20)
    F = vf.separable_kernel([p1, p2])
    decomp = vf.decompose_kernel(F, 2, 4)
    assert decomp.residual < 1e-10
    rng = np.random.default_rng(1)
    X = random_unit(rng, size=100)
    Y = random_unit(rng, size=100)
    exact = p1.support_values(X) * p2.support_values(Y)
    approx = reconstruct_batch(decomp, (X, Y))
    assert np.max(np.abs(exact - approx)) < 1e-9


def test_zero_kernel_empty():
    decomp = vf.decompose_kernel(zero_kernel, 2, 2)
    assert len(decomp) == 0
    rng = np.random.default_rng(2)
    assert vf.reconstruct(decomp, (random_unit(rng), random_unit(rng))) == 0.0


def test_single_factor_kernel(grid20):
    p = vf.make_perturbed_ball(1.0, {(2, 2): 0.07}, grid20)

    def F(X):
        X = np.asarray(X, float)
        return p.support_values(X.reshape(-1, 3)).reshape(X.shape[:-1])

    decomp = vf.decompose_kernel(F, 1, 3)
    rng = np.random.default_rng(3)
    X = random_unit(rng, size=50)
    assert np.max(np.abs(reconstruct_batch(decomp, (X,)) - p.support_values(X))) < 1e-10


def test_not_band_limited_rejected():
    E = vf.make_ellipsoid(np.diag([2.0, 1.0, 0.7]))
    with pytest.raises(vf.ReconstructionFailure):
        vf.decompose_kernel(vf.separable_kernel([E, E]), 2, 3)


def test_term_count_bound():
    decomp = vf.decompose_kernel(inner_product_kernel, 2, 3)
    assert len(decomp) <= ((3 + 1) ** 2) ** 2


def test_linearity_of_decomposition():
    def combo(X, Y):
        return 2.0 * inner_product_kernel(X, Y)

    d1 = vf.decompose_kernel(inner_product_kernel, 2, 2)
    d2 = vf.decompose_kernel(combo, 2, 2)
    rng = np.random.default_rng(4)
    X = random_unit(rng, size=40)
    Y = random_unit(rng, size=40)
    assert_allclose(
        reconstruct_batch(d2, (X, Y)), 2.0 * reconstruct_batch(d1, (X, Y)), atol=1e-9
    )


def test_reconstruct_validates_arity():
    decomp = vf.decompose_kernel(inner_product_kernel, 2, 2)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        vf.reconstruct(decomp, (random_unit(rng),))


def test_norm_bound_report_inner_product():
    decomp = vf.decompose_kernel(inner_product_kernel, 2, 2)
    report = vf.norm_bound_report(decomp, (0, 0))
    sums = report["partial_sums"]
    assert len(sums) == 3
    assert np.all(np.diff(sums) >= 0)
    # terms are (4pi/3) phi_i x phi_i with sup|phi_i| = sqrt(3/4pi) |x_i|max <= 1 each
    assert sums[-1] <= 3.0 + 1e-9
    assert report["summable"]


def test_norm_bound_orders(grid20):
    p1 = vf.make_perturbed_ball(1.0, {(2, 0): 0.05}, grid20)
    p2 = vf.make_perturbed_ball(1.0, {(1, 1): 0.1}, grid20)
    decomp = vf.decompose_kernel(vf.separable_kernel([p1, p2]), 2, 3)
    r0 = vf.norm_bound_report(decomp, (0, 0))
    r2 = vf.norm_bound_report(decomp, (2, 2))
    assert r2["partial_sums"][-1] >= r0["partial_sums"][-1]
    with pytest.raises(ValueError):
        vf.norm_bound_report(decomp, (0, 0, 0))


def test_c_norm_single_term():
    f = vf.combine_dictionary(3, {(0, 0): 2.0})
    # constant function: C^0 = C^1 = C^2 = the constant value
    c0 = c_norm(f, 0)
    assert c0 == pytest.approx(2.0 / np.sqrt(4 * np.pi), rel=1e-12)
    assert c_norm(f, 2) == pytest.approx(c0, rel=1e-9)


class _LargestBatch(SphericalFunction):
    """Wraps a spherical function and records the largest batch it was evaluated on."""

    def __init__(self, f):
        self.f = f
        self.largest = 0

    def values(self, X):
        self.largest = max(self.largest, len(X))
        return self.f.values(X)


@pytest.mark.parametrize("n, factors", [(3, 1), (3, 2), (4, 1)])
def test_rank_one_sum_matches_product_grid(n, factors):
    grid = vf.build_grid(n, 12)
    supports = [
        _LargestBatch(vf.make_perturbed_ball(1.0, coeffs, grid).support)
        for coeffs in ({(2, 0): 0.05, (3, 1): 0.02}, {(1, 0): 0.1, (4, 3): 0.03})[:factors]
    ]
    table = [(0.3, [(2, 1), (4, 2)]), (-0.2, [(1, 0), (3, 2)]), (0.1, [(0, 0), (2, 4)])]
    kernel = RankOneSumKernel(
        [(1.0, supports)] + [(c, [vf.combine_dictionary(n, {l: 1.0}) for l in labels[:factors]]) for c, labels in table]
    )
    quadrature = vf.build_grid(n, 10)
    structured = vf.decompose_kernel(kernel, factors, 4, n=n, grid=quadrature)
    # factors are evaluated on the grid and the residual sample, never on the product grid
    assert max(f.largest for f in supports) <= quadrature.size
    opaque = vf.decompose_kernel(lambda *points: kernel(*points), factors, 4, n=n, grid=quadrature)
    assert len(structured) == len(opaque) > 0
    got = dict(zip(map(tuple, structured.terms.tolist()), structured.coefficients))
    want = dict(zip(map(tuple, opaque.terms.tolist()), opaque.coefficients))
    assert set(got) == set(want)
    # the two quadratures sum the same products in different orders
    assert max(abs(got[row] - want[row]) for row in want) <= 1e-14 * max(map(abs, want.values()))
    assert structured.residual < 1e-12


def test_table_kernel_rejects_labels_outside_the_dictionary():
    for label in ((2, 5), (1, -1), (-1, 0)):
        with pytest.raises(ValueError, match="outside the n = 3 dictionary"):
            vf.harmonic_table_kernel(3, [(1.0, [(0, 0), label])])
    with pytest.raises(ValueError):
        vf.harmonic_table_kernel(3, [(1.0, [(0, 0)]), (0.5, [(0, 0), (1, 0)])])


def test_decomposition_label_table_is_coerced_and_checked():
    decomp = vf.TensorDecomposition(n=3, factors=2, terms=[], coefficients=[], residual=0.0, max_degree=2)
    assert decomp.terms.shape == (0, 2) and len(decomp) == 0
    with pytest.raises(ValueError):
        vf.TensorDecomposition(n=3, factors=2, terms=[[0, 1, 2]], coefficients=[1.0], residual=0.0, max_degree=2)
