import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import valforge as vf
from valforge import sphere
from valforge.sphere import (
    ConstantFunction,
    SphericalFunction,
    mixed_discriminant_stack,
    monomial_sphere_integral,
    restricted_hessian_stack,
    sphere_area,
    tangent_bases,
)
from conftest import random_spd
from finite_differences import fd_hessians


def test_grid_weight_sums():
    g3 = vf.build_grid(3, 20)
    assert_allclose(g3.weights.sum(), 4 * np.pi, rtol=1e-10)
    g2 = vf.build_grid(2, 10)
    assert_allclose(g2.weights.sum(), 2 * np.pi, rtol=1e-10)
    # circle nodes equally spaced
    angles = np.sort(np.arctan2(g2.nodes[:, 1], g2.nodes[:, 0]))
    gaps = np.diff(angles)
    assert_allclose(gaps, gaps[0], atol=1e-12)


def test_grid_node_norms_and_positive_weights():
    for n in (2, 3, 4):
        g = vf.build_grid(n, 8)
        assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-12)
        assert np.all(g.weights > 0)
        assert_allclose(g.weights.sum(), sphere_area(n), rtol=1e-10)


def test_grid_quadratic_monomial():
    g = vf.build_grid(3, 20)
    assert_allclose(g.integrate(g.nodes[:, 2] ** 2), 4 * np.pi / 3, rtol=1e-10)


@pytest.mark.parametrize("n,degree", [(2, 10), (3, 12), (4, 8)])
def test_grid_polynomial_exactness(n, degree):
    g = vf.build_grid(n, degree)
    rng = np.random.default_rng(0)
    exponents = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    for e in rng.choice(len(exponents), size=40, replace=False):
        expo = exponents[int(e)]
        vals = np.prod(g.nodes ** np.asarray(expo), axis=1)
        exact = monomial_sphere_integral(expo)
        assert abs(g.integrate(vals) - exact) <= 1e-10 * max(1.0, abs(exact))


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        vf.build_grid(1, 10)
    with pytest.raises(ValueError):
        vf.build_grid(3, 1)


def test_tangent_basis_at_poles_and_axes():
    b = vf.tangent_basis(np.array([0.0, 0.0, 1.0]))
    assert_allclose(b, np.eye(3)[:, :2], atol=1e-14)
    b1 = vf.tangent_basis(np.array([1.0, 0.0, 0.0]))
    assert_allclose(b1.T @ b1, np.eye(2), atol=1e-12)
    assert_allclose(b1.T @ np.array([1.0, 0.0, 0.0]), 0.0, atol=1e-12)


def test_tangent_basis_gram_random():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    B = tangent_bases(X)
    grams = np.einsum("gia,gib->gab", B, B)
    assert_allclose(grams, np.broadcast_to(np.eye(2), grams.shape), atol=1e-12)
    assert_allclose(np.einsum("gia,gi->ga", B, X), 0.0, atol=1e-12)
    # deterministic
    assert_allclose(B, tangent_bases(X), atol=0)


def _restricted_hessian(f, x):
    """The one-point restricted Hessian stack at x."""
    x = np.asarray(x, dtype=float)[None]
    return restricted_hessian_stack(f, x)[0]


def test_restricted_hessian_ball_is_identity():
    form = _restricted_hessian(ConstantFunction(1.0), [0.3, -0.4, np.sqrt(0.75)])
    assert_allclose(form, np.eye(2), atol=1e-10)


def test_restricted_hessian_ellipsoid_closed_form():
    body = vf.make_ellipsoid(np.diag([4.0, 1.0, 1.0]))
    form = _restricted_hessian(body.support, [1.0, 0.0, 0.0])
    assert_allclose(form, 0.5 * np.eye(2), atol=1e-12)


def test_restricted_hessian_spectral_vs_fd():
    from valforge.harmonics import combine_dictionary

    f = combine_dictionary(3, {(2, 1): 0.4, (2, 3): -0.2})
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    assert np.max(np.abs(f.hessians(X) - fd_hessians(f, X))) < 1e-6


def test_fd_hessian_annihilates_radial_direction():
    body = vf.make_ellipsoid(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.8]]))
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    H = fd_hessians(body.support, X)
    assert np.max(np.abs(np.einsum("gij,gj->gi", H, X))) < 1e-6


def _mixed_discriminant(mats):
    """The one-point mixed discriminant stack of m x m matrices."""
    return mixed_discriminant_stack([np.asarray(A, dtype=float)[None] for A in mats])[0]


def test_mixed_discriminant_identity_pair():
    assert_allclose(_mixed_discriminant([np.eye(2), np.eye(2)]), 1.0, atol=1e-14)


def test_mixed_discriminant_polarization_oracle():
    A, B = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
    oracle = (np.linalg.det(A + B) - np.linalg.det(A) - np.linalg.det(B)) / 2.0
    assert_allclose(_mixed_discriminant([A, B]), oracle, atol=1e-12)
    assert_allclose(oracle, 5.0, atol=1e-12)


def test_mixed_discriminant_symmetry_and_diagonal():
    rng = np.random.default_rng(4)
    mats = [rng.normal(size=(3, 3)) for _ in range(3)]
    mats = [0.5 * (m + m.T) for m in mats]
    base = _mixed_discriminant(mats)
    for perm in itertools.permutations(range(3)):
        assert _mixed_discriminant([mats[p] for p in perm]) == pytest.approx(base, abs=1e-12)
    A = 0.5 * (rng.normal(size=(4, 4)) + rng.normal(size=(4, 4)).T)
    A = 0.5 * (A + A.T)
    assert_allclose(_mixed_discriminant([A] * 4), np.linalg.det(A), atol=1e-10)


def test_mixed_discriminant_multilinearity():
    rng = np.random.default_rng(5)
    mats = [0.5 * (m + m.T) for m in rng.normal(size=(3, 2, 2))]
    left = _mixed_discriminant([mats[0] + mats[1], mats[2]])
    right = _mixed_discriminant([mats[0], mats[2]]) + _mixed_discriminant([mats[1], mats[2]])
    assert_allclose(left, right, atol=1e-10)
    assert_allclose(
        _mixed_discriminant([2.5 * mats[0], mats[2]]),
        2.5 * _mixed_discriminant([mats[0], mats[2]]),
        atol=1e-10,
    )


def test_mixed_discriminant_rejects_size_mismatch():
    with pytest.raises(ValueError):
        _mixed_discriminant([np.eye(2), np.eye(3)])


def test_mixed_discriminant_stack_matches_scalar():
    rng = np.random.default_rng(6)
    stacks = [0.5 * (m + np.swapaxes(m, 1, 2)) for m in rng.normal(size=(2, 7, 2, 2))]
    batch = mixed_discriminant_stack(stacks)
    for g in range(7):
        assert batch[g] == pytest.approx(_mixed_discriminant([s[g] for s in stacks]), abs=1e-12)


def _det_polarization(mats):
    """(1/m!) sum over nonempty subsets S of (-1)^(m-|S|) det(sum_{i in S} A_i), per node."""
    m = len(mats)
    total = 0.0
    for r in range(1, m + 1):
        for subset in itertools.combinations(mats, r):
            total = total + (-1.0) ** (m - r) * np.linalg.det(sum(subset))
    return total / math.factorial(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mixed_discriminant_stack_matches_det_polarization(m):
    rng = np.random.default_rng(10 + m)
    raw = rng.normal(size=(m, 200, m, m))
    stacks = list(0.5 * (raw + np.swapaxes(raw, 2, 3)))
    reference = _det_polarization(stacks)
    got = mixed_discriminant_stack(stacks)
    assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))
    # the diagonal case is the determinant itself
    assert_allclose(mixed_discriminant_stack([stacks[0]] * m), np.linalg.det(stacks[0]), rtol=1e-12, atol=1e-13)


def test_restricted_hessian_stack_matches_einsum(grid20):
    rng = np.random.default_rng(12)
    bases = tangent_bases(grid20.nodes)
    for f in (
        vf.make_ellipsoid(random_spd(rng)).support,
        vf.make_perturbed_ball(1.0, {(2, 1): 0.05, (3, 4): -0.03, (4, 0): 0.02}, grid20).support,
    ):
        reference = np.einsum("gia,gij,gjb->gab", bases, f.hessians(grid20.nodes), bases)
        got = restricted_hessian_stack(f, grid20.nodes)
        assert np.max(np.abs(got - reference)) <= 1e-15 * np.max(np.abs(reference))


def test_grid_arrays_are_read_only(grid20):
    for array in (grid20.nodes, grid20.weights, tangent_bases(grid20.nodes)):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_tangent_bases_on_grid_nodes_match_a_copy():
    grid = vf.build_grid(3, 10)
    copy = grid.nodes.copy()
    cold = tangent_bases(grid.nodes)
    warm = tangent_bases(grid.nodes)
    assert warm is cold
    assert np.array_equal(cold, tangent_bases(copy))
    assert tangent_bases(copy).flags.writeable


def test_only_a_grids_own_nodes_use_its_store():
    grid = vf.build_grid(3, 10)
    store = sphere._grid_tables(grid.nodes)
    assert store == {}
    before = len(sphere._GRID_TABLES)
    for other in (grid.nodes.copy(), grid.nodes[:50], np.broadcast_to(grid.nodes, grid.nodes.shape)):
        assert sphere._grid_tables(other) is None
        tangent_bases(other)
        vf.combine_dictionary(3, {(2, 1): 1.0}).hessians(other)
    assert len(sphere._GRID_TABLES) == before
    assert store == {}


def test_grid_store_dies_with_the_grid():
    grid = vf.build_grid(3, 10)
    tangent_bases(grid.nodes)
    key = id(grid.nodes)
    nodes = weakref.ref(grid.nodes)
    assert key in sphere._GRID_TABLES
    del grid
    gc.collect()
    assert nodes() is None
    assert key not in sphere._GRID_TABLES


class _ValuesOnly(SphericalFunction):
    def values(self, X):
        return np.ones(len(np.atleast_2d(X)))


def test_values_only_subclass_has_no_hessians():
    # there is no finite-difference fallback: a subclass without hessians raises, naming itself
    with pytest.raises(NotImplementedError, match="_ValuesOnly does not implement hessians"):
        restricted_hessian_stack(_ValuesOnly(), vf.build_grid(3, 4).nodes)
