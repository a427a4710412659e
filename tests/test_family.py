import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import valforge as vf
from valforge.family import _frame_matrices, norm_constant_diagnostic, sym_unvec, sym_vec
from conftest import random_unit


def test_standard_basis_counts_and_norms():
    for n in (2, 3, 4):
        basis = vf.standard_basis(n)
        assert len(basis) == n * (n + 1) // 2
        for E in basis:
            assert np.max(np.abs(np.linalg.eigvalsh(E))) == pytest.approx(1.0, abs=1e-12)
    gram = np.array(
        [[np.sum(a * b) for b in vf.standard_basis(3)] for a in vf.standard_basis(3)]
    )
    assert np.linalg.matrix_rank(gram) == 6


def test_norm_constant_values():
    assert vf.norm_constant(3) == pytest.approx(1 / 3)
    assert vf.norm_constant(2) == pytest.approx(1 / 2)


def test_norm_constant_bound_sampled():
    rng = np.random.default_rng(0)
    basis = vf.standard_basis(3)
    c = vf.norm_constant(3)
    for _ in range(10_000):
        C = rng.normal(size=(3, 3))
        C = 0.5 * (C + C.T)
        op = np.max(np.abs(np.linalg.eigvalsh(C)))
        dual = max(abs(np.sum(C * E)) for E in basis)
        assert c * op <= dual + 1e-12
    # E_11 delivers ratio exactly one
    E11 = basis[0]
    assert max(abs(np.sum(E11 * E)) for E in basis) == pytest.approx(1.0)
    diag = norm_constant_diagnostic(3, samples=5000)
    assert diag["c_sampled_min_ratio"] >= c


def test_build_family_counts():
    fam3 = vf.build_family(3)
    assert (fam3.size, fam3.t, fam3.c) == (7, 7.0, pytest.approx(1 / 3))
    fam2 = vf.build_family(2)
    assert (fam2.size, fam2.t) == (4, 5.0)
    for n in (2, 3, 4, 5):
        fam = vf.build_family(n)
        assert fam.size == math.comb(n + 1, 2) + 1
        for body in fam.ellipsoids:
            assert np.min(np.linalg.eigvalsh(body.matrix)) >= fam.t - 1.0 - 1e-12 or np.allclose(
                body.matrix, np.eye(n)
            )


def test_spanning_certificate_positive(grid20, family3):
    sigma, node = vf.spanning_certificate(family3, grid20)
    assert sigma > 0
    assert np.linalg.norm(node) == pytest.approx(1.0, abs=1e-12)


def test_spanning_certificate_n2():
    fam = vf.build_family(2)
    grid = vf.build_grid(2, 10)
    sigma, _ = vf.spanning_certificate(fam, grid)
    assert sigma > 0


def test_all_balls_family_fails(grid20):
    fam = vf.build_family(3, all_balls=True)
    with pytest.raises(vf.SpanningFailure):
        vf.spanning_certificate(fam, grid20)
    with pytest.raises(vf.SpanningFailure):
        vf.dual_frame(fam, grid20)


def test_sym_vec_isometry():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 2, 2))
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    B = rng.normal(size=(5, 2, 2))
    B = 0.5 * (B + np.swapaxes(B, 1, 2))
    frob = np.einsum("gij,gij->g", A, B)
    dots = np.einsum("gd,gd->g", sym_vec(A), sym_vec(B))
    assert_allclose(dots, frob, atol=1e-12)
    assert_allclose(sym_unvec(sym_vec(A), 2), A, atol=1e-14)


def test_dual_frame_reconstruction_on_grid(frame3):
    assert np.array_equal(frame3.solvers, np.linalg.pinv(frame3.matrices))
    rng = np.random.default_rng(2)
    g = frame3.grid.size
    forms = rng.normal(size=(g, 2, 2))
    forms = 0.5 * (forms + np.swapaxes(forms, 1, 2))
    rec = frame3.reconstruct_stack(frame3.coefficients_stack(forms))
    assert np.max(np.abs(rec - forms)) < 1e-9


def test_dual_frame_reconstruction_random_nodes(family3, frame3):
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = random_unit(rng)
        form = rng.normal(size=(2, 2))
        form = 0.5 * (form + form.T)
        psi = frame3.coefficients_at(x, form)
        S = _frame_matrices(family3, x[None])[0]
        assert np.max(np.abs(S @ psi - sym_vec(form))) < 1e-9


def test_dual_frame_identity_member(frame3):
    # the identity form is the ball member's Hessian: reconstruction is exact
    g = frame3.grid.size
    eye = np.broadcast_to(np.eye(2), (g, 2, 2)).copy()
    coeffs = frame3.coefficients_stack(eye)
    rec = frame3.reconstruct_stack(coeffs)
    assert np.max(np.abs(rec - eye)) < 1e-10


def test_dual_frame_projection_idempotent(frame3):
    rng = np.random.default_rng(4)
    g = frame3.grid.size
    forms = rng.normal(size=(g, 2, 2))
    forms = 0.5 * (forms + np.swapaxes(forms, 1, 2))
    once = frame3.reconstruct_stack(frame3.coefficients_stack(forms))
    twice = frame3.reconstruct_stack(frame3.coefficients_stack(once))
    assert np.max(np.abs(once - twice)) < 1e-10


def test_dual_frame_coefficient_continuity(family3, frame3):
    # empirical Lipschitz probe of the coefficient field for a fixed smooth body
    body = vf.make_ellipsoid(np.diag([1.4, 1.0, 0.8]))
    grid = frame3.grid
    from valforge.sphere import restricted_hessian_stack

    forms = restricted_hessian_stack(body.support, grid.nodes)
    coeffs = frame3.coefficients_stack(forms)
    # compare neighbouring polar nodes along the same meridian
    m_angle = 2 * (grid.degree + 1)
    ratios = []
    for g in range(0, grid.size - m_angle, m_angle):
        dx = np.linalg.norm(grid.nodes[g + m_angle] - grid.nodes[g])
        dpsi = np.linalg.norm(coeffs[g + m_angle] - coeffs[g])
        ratios.append(dpsi / dx)
    lipschitz = max(ratios)
    assert np.isfinite(lipschitz)
    assert lipschitz < 10.0  # smooth coefficient field at moderate slope


def test_contradiction_inequality(family3):
    # for unit-operator-norm C with C x = 0, the defining combination of the
    # family Hessians keeps a trace pairing of at least c (t - 1) - 1 = 1
    rng = np.random.default_rng(5)
    t = family3.t
    basis = family3.basis
    for _ in range(50):
        x = random_unit(rng)
        P = np.eye(3) - np.outer(x, x)
        C = rng.normal(size=(3, 3))
        C = P @ (0.5 * (C + C.T)) @ P
        op = np.max(np.abs(np.linalg.eigvalsh(C)))
        if op < 1e-12:
            continue
        C /= op
        best = 0.0
        for E in basis:
            A = t * np.eye(3) + E
            q = float(x @ A @ x)
            Ax = A @ x
            B_mat = q * E - np.outer(Ax, Ax) + t * q * np.outer(x, x)
            best = max(best, abs(float(np.sum(C * B_mat))))
        assert best >= 1.0 - 1e-8


def test_contradiction_matrix_matches_hessian_combination(family3):
    # q^{3/2} Hess h_E(A) - t q Hess h_ball reproduces the algebraic combination
    rng = np.random.default_rng(6)
    t = family3.t
    x = random_unit(rng)
    E = family3.basis[2]
    A = t * np.eye(3) + E
    q = float(x @ A @ x)
    Ax = A @ x
    algebraic = q * E - np.outer(Ax, Ax) + t * q * np.outer(x, x)
    ell = vf.make_ellipsoid(A)
    ball = vf.make_ball(1.0)
    hess_combo = q**1.5 * ell.support.hessian(x) - t * q * ball.support.hessian(x)
    assert_allclose(hess_combo, algebraic, atol=1e-9)
