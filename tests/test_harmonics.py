import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from valforge.harmonics import (
    HarmonicCombination,
    _derivative_maps,
    _harmonic_basis,
    _harmonic_coefficients,
    _monomial_exponents,
    _monomial_tables,
    combine_dictionary,
    dictionary_positions,
    dictionary_size,
    harmonic_count,
    harmonic_dictionary,
    project_to_dictionary,
)
from valforge.synthesis import parity_project
from valforge.sphere import _grid_tables, build_grid, restricted_hessian_stack
from conftest import random_unit
from finite_differences import fd_hessians

DEGREES = range(9)


def seeds(test):
    """Run ``test`` on five hypothesis-drawn rng seeds."""
    return settings(max_examples=5, deadline=None)(given(seed=st.integers(0, 2**32 - 1))(test))


def random_degree_piece(rng, n, l):
    """Unit-norm random combination of the degree-l dictionary entries."""
    labels = [(e.degree, e.index) for e in harmonic_dictionary(n, l) if e.degree == l]
    c = rng.normal(size=len(labels))
    c /= np.linalg.norm(c)
    return combine_dictionary(n, dict(zip(labels, c)))


def test_dictionary_sizes():
    # dim of degree-l harmonics on S^2 is 2l + 1
    entries = harmonic_dictionary(3, 5)
    counts = {}
    for e in entries:
        counts[e.degree] = counts.get(e.degree, 0) + 1
    assert counts == {l: 2 * l + 1 for l in range(6)}
    # and on S^3 it is (l + 1)^2
    entries4 = harmonic_dictionary(4, 3)
    counts4 = {}
    for e in entries4:
        counts4[e.degree] = counts4.get(e.degree, 0) + 1
    assert counts4 == {l: (l + 1) ** 2 for l in range(4)}


def test_dictionary_orthonormal(grid20):
    entries = harmonic_dictionary(3, 4)
    vals = np.stack([e.values(grid20.nodes) for e in entries])
    gram = (vals * grid20.weights) @ vals.T
    assert_allclose(gram, np.eye(len(entries)), atol=1e-12)


def test_laplace_eigenfunction_property(grid20):
    # D^2 f = grad^2 f + f Id, so trace(D^2 f) = Delta f + (n-1) f = (n-1+l - l^2 - l ... )
    # for a degree-l harmonic restriction: Delta_S f = -l(l+1) f on S^2.
    for l, j in [(1, 0), (2, 3), (3, 2), (4, 7)]:
        f = combine_dictionary(3, {(l, j): 1.0})
        forms = restricted_hessian_stack(f, grid20.nodes)
        vals = f.values(grid20.nodes)
        laplace = np.einsum("gaa->g", forms) - 2.0 * vals
        assert_allclose(laplace, -l * (l + 1) * vals, atol=1e-9)


def test_combination_hessian_matches_fd():
    f = combine_dictionary(3, {(0, 0): 0.5, (1, 2): 0.3, (3, 4): -0.2, (4, 1): 0.1})
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    assert np.max(np.abs(f.hessians(X) - fd_hessians(f, X))) < 1e-6
    H = f.hessians(X)
    assert np.max(np.abs(np.einsum("gij,gj->gi", H, X))) < 1e-12


def test_projection_roundtrip_band_limited(grid20):
    coeffs = {(0, 0): 1.2, (2, 1): -0.4, (4, 6): 0.25}
    f = combine_dictionary(3, coeffs)
    recovered = project_to_dictionary(f.values(grid20.nodes), grid20, 5)
    assert len(recovered) == dictionary_size(3, 5)
    expected = np.zeros(dictionary_size(3, 5))
    expected[: len(f.c)] = f.c
    assert_allclose(recovered, expected, rtol=0, atol=1e-12)


def test_parity_filter():
    coeffs = {(0, 0): 1.0, (1, 1): 0.5, (2, 2): 0.25, (3, 3): 0.125}
    f = combine_dictionary(3, coeffs)
    fe = parity_project(f, "even")
    fo = parity_project(f, "odd")
    assert [tuple(f.labels[d]) for d in np.flatnonzero(fe.c)] == [(0, 0), (2, 2)]
    assert [tuple(f.labels[d]) for d in np.flatnonzero(fo.c)] == [(1, 1), (3, 3)]
    assert np.array_equal(fe.c + fo.c, f.c)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    assert_allclose(fe.values(X) + fo.values(X), f.values(X), atol=1e-14)
    assert_allclose(fe.values(-X), fe.values(X), atol=1e-14)
    assert_allclose(fo.values(-X), -fo.values(X), atol=1e-14)


def test_antipodal_degree_parity():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    for l in range(5):
        entry = [e for e in harmonic_dictionary(3, l) if e.degree == l][0]
        assert_allclose(entry.values(-X), (-1.0) ** l * entry.values(X), atol=1e-14)


@pytest.mark.parametrize("n", [3, 4])
@seeds
def test_values_match_direct_powers(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(7, n))
    for l in DEGREES:
        exps = _monomial_exponents(n, l)
        c = rng.normal(size=len(exps))
        direct = np.prod(X[:, None, :] ** exps[None, :, :], axis=2) @ c
        assert_allclose(_monomial_tables(X, [l])[l] @ c, direct, rtol=1e-12, atol=1e-12)
        f = random_degree_piece(rng, n, l)
        monomials = _harmonic_coefficients(n, l)[1].T @ f.c[dictionary_size(n, l - 1) :]
        direct = np.prod(X[:, None, :] ** exps[None, :, :], axis=2) @ monomials
        assert_allclose(f.values(X), direct, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4])
@seeds
def test_hessians_match_fd_and_annihilate_x(n, seed):
    rng = np.random.default_rng(seed)
    X = random_unit(rng, n, 6)
    for l in DEGREES:
        f = random_degree_piece(rng, n, l)
        H = f.hessians(X)
        assert np.max(np.abs(H - fd_hessians(f, X))) < 1e-6, l
        assert np.max(np.abs(np.einsum("gij,gj->gi", H, X))) < 1e-12, l


@pytest.mark.parametrize("n", [3, 4])
@seeds
def test_spherical_gradients_tangent_and_match_fd(n, seed):
    rng = np.random.default_rng(seed)
    X = random_unit(rng, n, 6)
    T = rng.normal(size=X.shape)
    T -= np.einsum("gi,gi->g", T, X)[:, None] * X
    T /= np.linalg.norm(T, axis=1)[:, None]
    s = 1e-5
    for l in DEGREES:
        f = random_degree_piece(rng, n, l)
        grads = f.spherical_gradients(X)
        assert np.max(np.abs(np.einsum("gi,gi->g", grads, X))) < 1e-12, l
        fd = (f.values(np.cos(s) * X + np.sin(s) * T) - f.values(np.cos(s) * X - np.sin(s) * T)) / (2 * s)
        assert_allclose(np.einsum("gi,gi->g", grads, T), fd, atol=1e-6, err_msg=f"degree {l}")


@seeds
def test_projection_roundtrip_n4(seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(4, 8)
    coeffs = {(e.degree, e.index): rng.normal() for e in harmonic_dictionary(4, 4) if rng.random() < 0.3}
    f = combine_dictionary(4, coeffs)
    recovered = project_to_dictionary(f.values(grid.nodes), grid, 4)
    assert len(recovered) == len(harmonic_dictionary(4, 4))
    expected = np.zeros(len(recovered))
    expected[: len(f.c)] = f.c
    assert_allclose(recovered, expected, rtol=0, atol=1e-12)


# sha256 of the raw harmonic rows of degrees 2..8, as first computed by an
# exact Fraction RREF of the integer Laplacian; artifacts key carriers by
# (l, j), so any change to these rows silently changes stored artifacts
RAW_ROW_SHA256 = {
    3: {
        2: "252380874ff10a9a5537b259c36ff3909e13669f4ac2f787c7646410dca2939f",
        3: "0a29788fbe1a472626be251aa341b1b30b020352e9e6d78cc6d0cf13d0fb39ae",
        4: "2a1d3c409b961f5176c4f1fe6120e0d631e0386180ffc89e642aeff7cc78c223",
        5: "f3af2b04ff2d20682ef63d3cff3151c536c007b537eb3e54f3b5b82c572d63c2",
        6: "5940ee62a69b7b227a8829e5ebb06940065b27fd0b0b7fd1a01b5aaa765ca3ec",
        7: "4abbedb710f667c25c29a6e475f7067454a1473f3e59bab11a40e85de99525af",
        8: "890ad4cd4bbfcba82798c198fa9db508c06ef9b71e068b3e3173867ef7f8d3b5",
    },
    4: {
        2: "50c92269d023d60d3419a7fbc067ba70c4e7eb8b6d878f92fc90a26d1cc99130",
        3: "34f9ce5bd52f89e6907ce1d80461eb33224a87a2841b3bf7583564502f4d7423",
        4: "f1eaf9c184e84949a5822e53b0e13bcaeb28af0c31ebf1776141c8a6eb82e7f0",
        5: "e2c788d64c9b2f63c83300bd3723f0d7e9ab604ce71af6912b3398f73a0b12d7",
        6: "212eb34f901eb8c4bdee2736fc8e1d84e2de20853c91b5e7a2116494ddc1a543",
        7: "9578d3c2a4354f48d4958b71808e56b5686644862a6b0401a6de125dc1c83b47",
        8: "083dbb8419dcf3da41ffc1933dc2bfd82a2facd32b7ca5399c678ec62215bb24",
    },
}


@pytest.mark.parametrize("n", [3, 4])
def test_harmonic_basis_rows_pinned(n):
    for l in range(2, 9):
        assert hashlib.sha256(_harmonic_basis(n, l).tobytes()).hexdigest() == RAW_ROW_SHA256[n][l], l


@pytest.mark.parametrize("n", [3, 4, 5])
def test_harmonic_basis_is_reduced_nullspace_of_laplacian(n):
    for l in DEGREES:
        rows = _harmonic_basis(n, l)
        exps = _monomial_exponents(n, l)
        free = exps[:, -1] <= 1
        assert rows.shape[0] == math.comb(n + l - 1, n - 1) - math.comb(n + l - 3, n - 1), l
        assert np.array_equal(rows[:, free], np.eye(rows.shape[0])), l
        lap = np.einsum("iiab->ab", _derivative_maps(n, l)[1])
        assert np.all(np.abs(lap @ rows.T) <= 1e-12 * (np.abs(lap) @ np.abs(rows.T))), l


@pytest.mark.parametrize("n", [3, 4])
def test_grid_tables_give_the_same_bits_as_a_copy(n):
    rng = np.random.default_rng(n)
    f = combine_dictionary(n, {label: rng.normal() for label in [(0, 0), (1, 1), (2, 3), (4, 2), (6, 5)]})
    grid = build_grid(n, 8)
    copy = grid.nodes.copy()
    for _ in ("cold", "warm"):
        assert np.array_equal(f.values(grid.nodes), f.values(copy))
        assert np.array_equal(f.hessians(grid.nodes), f.hessians(copy))
        assert np.array_equal(f.spherical_gradients(grid.nodes), f.spherical_gradients(copy))
    stored = _grid_tables(grid.nodes)["monomials"]
    assert set(stored) == set(range(-2, 7))
    assert _monomial_tables(grid.nodes, [6])[6] is stored[6]
    with pytest.raises(ValueError):
        stored[6][0, 0] = 0.0
    assert _monomial_tables(copy, [6])[6].flags.writeable


def test_label_positions_match_the_dictionary():
    for n in (2, 3, 4):
        entries = harmonic_dictionary(n, 5)
        assert dictionary_size(n, 5) == len(entries)
        labels = [(e.degree, e.index) for e in entries]
        assert dictionary_positions(n, labels, 5).tolist() == list(range(len(entries)))
        assert HarmonicCombination(n, np.zeros(len(entries))).labels.tolist() == [list(label) for label in labels]
        for label in ((6, 0), (2, harmonic_count(n, 2)), (-1, 0), (1, -1)):
            with pytest.raises(ValueError, match=f"outside the n = {n} dictionary of degree <= 5"):
                dictionary_positions(n, [(0, 0), label], 5)
    with pytest.raises(ValueError, match="harmonic label 2,9 is outside the n = 3 dictionary"):
        combine_dictionary(3, {(2, 9): 1.0})
