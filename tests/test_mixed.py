import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import valforge as vf
from valforge import mixed
from valforge.mixed import OverlayDegenerateError, _GaussMapOverlay, minkowski_volume, parallel_body_volume
from conftest import random_perturbed_ball, random_rotation, random_spd


def unit_cube():
    return vf.make_polytope([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])


def test_density_all_balls_is_one(grid20):
    B = vf.make_ball(1.0)
    density = vf.mixed_area_density(B, 1, [B], grid20)
    assert_allclose(density, 1.0, atol=1e-9)
    assert np.all(np.isfinite(density))


def test_density_ellipsoid_value_at_axis(grid20):
    body = vf.make_ellipsoid(np.diag([4.0, 1.0, 1.0]))
    density = vf.mixed_area_density(body, 2, [], grid20)
    # nearest node to e1 carries det(0.5 Id) = 0.25 up to grid resolution
    from valforge.sphere import restricted_hessian_stack

    x = np.array([[1.0, 0.0, 0.0]])
    form = restricted_hessian_stack(body.support, x)[0]
    assert np.linalg.det(form) == pytest.approx(0.25, abs=1e-12)


def test_density_argument_symmetry(grid20):
    rng = np.random.default_rng(0)
    K = vf.make_ellipsoid(random_spd(rng))
    l2 = vf.make_ellipsoid(random_spd(rng))
    # in R^3 with k=1 there is one companion slot; symmetry swaps K copies instead
    d1 = vf.mixed_area_density(K, 1, [l2], grid20)
    d2 = vf.mixed_area_density(K, 1, [l2], grid20)
    assert_allclose(d1, d2, atol=1e-12)


def test_density_mass_equals_mixed_volume(grid20):
    rng = np.random.default_rng(1)
    K = vf.make_ellipsoid(random_spd(rng))
    B = vf.make_ball(1.0)
    density = vf.mixed_area_density(K, 1, [B], grid20)
    mass = grid20.integrate(density)
    via_volume = 3.0 * vf.mixed_volume_smooth(B, density, grid20)
    assert mass == pytest.approx(via_volume, rel=1e-12)


def test_density_rejects_bad_arguments(grid20):
    cube = unit_cube()
    B = vf.make_ball(1.0)
    with pytest.raises(vf.NotSmoothError):
        vf.mixed_area_density(cube, 1, [B], grid20)
    with pytest.raises(ValueError):
        vf.mixed_area_density(B, 3, [], grid20)
    with pytest.raises(ValueError):
        vf.mixed_area_density(B, 1, [B, B], grid20)


def test_ball_mixed_volume(grid20):
    B = vf.make_ball(1.0)
    assert vf.mixed_volume_quadrature([B, B, B], grid20) == pytest.approx(4 * np.pi / 3, abs=1e-8)


def test_mixed_volume_slot_symmetry(grid30):
    E = vf.make_ellipsoid(np.diag([2.0, 1.0, 0.7]))
    B = vf.make_ball(1.0)
    # V(B, B, E): evaluate with E in the support slot and with E in a Hessian slot
    a = vf.mixed_volume_quadrature([E, B, B], grid30)
    b = vf.mixed_volume_quadrature([B, B, E], grid30)
    assert a == pytest.approx(b, rel=1e-8)


def test_mixed_volume_cube_in_support_slot():
    grid = vf.build_grid(3, 60)
    B = vf.make_ball(1.0)
    value = vf.mixed_volume_quadrature([unit_cube(), B, B], grid)
    # V(C, B, B) = pi; support-function kinks limit the quadrature rate
    assert value == pytest.approx(np.pi, rel=2e-3)


def test_mixed_volume_translation_invariance(grid20):
    rng = np.random.default_rng(2)
    K = vf.make_ellipsoid(random_spd(rng))
    L = vf.make_ellipsoid(random_spd(rng))
    base = vf.mixed_volume_quadrature([L, K, K], grid20)
    shifted_L = vf.translate(L, np.array([0.4, -0.2, 0.9]))
    shifted_K = vf.translate(K, np.array([-0.3, 0.5, 0.1]))
    assert vf.mixed_volume_quadrature([shifted_L, K, K], grid20) == pytest.approx(base, rel=1e-7)
    assert vf.mixed_volume_quadrature([L, shifted_K, shifted_K], grid20) == pytest.approx(base, rel=1e-7)


def test_mixed_volume_multilinearity(grid20):
    rng = np.random.default_rng(3)
    K = vf.make_ellipsoid(random_spd(rng))
    L1 = vf.make_ellipsoid(random_spd(rng))
    L2 = vf.make_ellipsoid(random_spd(rng))
    summed = vf.minkowski_support([L1, L2], [1.0, 1.0])
    left = vf.mixed_volume_quadrature([summed, K, K], grid20)
    right = vf.mixed_volume_quadrature([L1, K, K], grid20) + vf.mixed_volume_quadrature([L2, K, K], grid20)
    assert left == pytest.approx(right, rel=1e-8)
    scaled = vf.minkowski_support([L1], [2.5])
    assert vf.mixed_volume_quadrature([scaled, K, K], grid20) == pytest.approx(
        2.5 * vf.mixed_volume_quadrature([L1, K, K], grid20), rel=1e-10
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mixed_volume_quadrature_monotone(seed, grid20):
    # K ⊂ K + tB and E_A ⊂ E_{A+P} (P positive semidefinite): the mixed volume
    # does not decrease, whichever of the n slots the larger body takes
    rng = np.random.default_rng(seed)
    K = random_perturbed_ball(rng, grid20)
    grown = vf.minkowski_support([K, vf.make_ball(1.0)], [1.0, rng.uniform(0.01, 1.0)])
    A = random_spd(rng)
    v = rng.normal(size=(3, int(rng.integers(1, 4))))
    E_A, E_AP = vf.make_ellipsoid(A), vf.make_ellipsoid(A + 0.2 * v @ v.T)
    others = [vf.make_ellipsoid(random_spd(rng)), random_perturbed_ball(rng, grid20)]
    for small, large in ((K, grown), (E_A, E_AP)):
        for slot in range(3):
            before = vf.mixed_volume_quadrature(others[:slot] + [small] + others[slot:], grid20)
            after = vf.mixed_volume_quadrature(others[:slot] + [large] + others[slot:], grid20)
            assert after >= before


def test_mixed_volume_diagonal_is_volume(grid30):
    rng = np.random.default_rng(4)
    A = random_spd(rng)
    E = vf.make_ellipsoid(A)
    vol = vf.mixed_volume_quadrature([E, E, E], grid30)
    assert vol == pytest.approx(4 * np.pi / 3 * np.sqrt(np.linalg.det(A)), rel=1e-6)
    cube = unit_cube()
    assert vf.polytope_mixed_volume([cube] * 3) == pytest.approx(vf.polytope_volume(cube), rel=1e-6)


def test_polytope_volumes():
    assert vf.polytope_volume(unit_cube()) == pytest.approx(1.0, abs=1e-12)
    simplex = vf.make_polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert vf.polytope_volume(simplex) == pytest.approx(1 / 6, abs=1e-12)
    doubled = vf.make_polytope(2.0 * np.asarray(unit_cube().vertices))
    assert vf.polytope_volume(doubled) == pytest.approx(8.0, abs=1e-12)
    flat = vf.make_polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert vf.polytope_volume(flat) == 0.0


def test_box_valuation_identity():
    # vol(P) + vol(Q) = vol(P u Q) + vol(P n Q) for boxes with convex union
    def box(lo, hi):
        return vf.make_polytope(
            [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
        )

    P = box((0, 0, 0), (1, 1, 1))
    Q = box((0.5, 0, 0), (1.5, 1, 1))
    union = box((0, 0, 0), (1.5, 1, 1))
    inter = box((0.5, 0, 0), (1, 1, 1))
    lhs = vf.polytope_volume(P) + vf.polytope_volume(Q)
    rhs = vf.polytope_volume(union) + vf.polytope_volume(inter)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_polytope_mixed_volume_cube_diagonal():
    assert vf.polytope_mixed_volume([unit_cube()] * 3) == pytest.approx(1.0, abs=1e-9)


def test_polytope_mixed_volume_ball_refinement():
    cube = unit_cube()
    errors = []
    for level in (1, 2, 3):
        approx = vf.ball_approx(level)
        v = vf.polytope_mixed_volume([cube, cube, approx])
        errors.append(abs(v - 2.0))
    # V(C, C, B) = 2 from the Steiner expansion; quadratic refinement rate
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] / errors[0] < 0.35 and errors[2] / errors[1] < 0.35
    assert errors[2] < 5e-3
    v_cbb = vf.polytope_mixed_volume([cube, vf.ball_approx(3), vf.ball_approx(3)])
    assert v_cbb == pytest.approx(np.pi, rel=5e-3)


def test_overlay_matches_hull_engine():
    rng = np.random.default_rng(5)
    vsets = [rng.normal(size=(14, 3)) for _ in range(3)]
    overlay = _GaussMapOverlay(vsets)
    for lam in [(1, 0, 0), (0, 2, 0), (1, 1, 0), (1, 1, 1), (3, 1, 2), (2, 2, 2)]:
        hull_value = minkowski_volume(vsets, lam)
        assert overlay.volume(lam) == pytest.approx(hull_value, rel=1e-9, abs=1e-12)


def test_polytope_mixed_volume_engines_agree():
    rng = np.random.default_rng(6)
    polys = [vf.make_polytope(rng.normal(size=(10, 3))) for _ in range(3)]
    hull_value = vf.polytope_mixed_volume(polys, engine="hull")
    overlay_value = vf.polytope_mixed_volume(polys, engine="overlay")
    assert overlay_value == pytest.approx(hull_value, rel=1e-9)


def dense_arc_pairs(arcs_i, arcs_j):
    """All-pairs reference for the overlay's candidate search: arccos of the full midpoint cosine matrix."""
    mids, reaches = [], []
    for arcs in (arcs_i, arcs_j):
        mid = arcs["a"] + arcs["b"]
        mid /= np.linalg.norm(mid, axis=1)[:, None]
        mids.append(mid)
        reaches.append(np.arccos(np.clip(np.einsum("ij,ij->i", arcs["a"], mid), -1.0, 1.0)))
    sep = np.arccos(np.clip(mids[0] @ mids[1].T, -1.0, 1.0))
    return np.nonzero(sep <= reaches[0][:, None] + reaches[1][None, :] + 1e-9)


def overlay_triple(case, rng):
    if case == "random-10-point":
        return [rng.normal(size=(10, 3)) for _ in range(3)]
    level = int(case.removeprefix("level-"))
    return [vf.ellipsoid_approx(random_spd(rng), level, rotation=random_rotation(rng)).vertices for _ in range(3)]


@pytest.mark.parametrize("case", ["level-0", "level-2", "level-3", "random-10-point"])
def test_sparse_arc_search_matches_dense(case, monkeypatch):
    vsets = overlay_triple(case, np.random.default_rng(21))
    sparse = _GaussMapOverlay(vsets)
    for i, j in itertools.combinations(range(3), 2):
        ii, jj = mixed._near_arc_pairs(sparse._arcs[i], sparse._arcs[j])
        ref_i, ref_j = dense_arc_pairs(sparse._arcs[i], sparse._arcs[j])
        assert np.array_equal(ii, ref_i) and np.array_equal(jj, ref_j)
    monkeypatch.setattr(mixed, "_near_arc_pairs", dense_arc_pairs)
    dense = _GaussMapOverlay(vsets)
    for (_, _, dirs, areas), (_, _, ref_dirs, ref_areas) in zip(sparse._crossings, dense._crossings):
        assert len(dirs) > 0
        assert np.array_equal(dirs, ref_dirs) and np.array_equal(areas, ref_areas)
    for lam in itertools.product((0, 1, 2), repeat=3):
        assert sparse.volume(lam) == dense.volume(lam)


def test_auto_engine_runs_the_overlay(monkeypatch):
    rng = np.random.default_rng(22)
    polys = [vf.ellipsoid_approx(random_spd(rng), 3, rotation=random_rotation(rng)) for _ in range(3)]
    expected = vf.polytope_mixed_volume(polys, engine="overlay")

    def no_hulls(*args):
        raise AssertionError("the auto engine fell back to convex hulls")

    monkeypatch.setattr(mixed, "minkowski_volume", no_hulls)
    assert vf.polytope_mixed_volume(polys) == expected


def test_routes_agree_on_ellipsoid_triples(grid20):
    rng = np.random.default_rng(7)
    triples = []
    for _ in range(3):
        mats = [random_spd(rng) for _ in range(3)]
        triples.append((mats, [vf.ellipsoid_approx(A, 3, rotation=random_rotation(rng)) for A in mats]))
    # axis-aligned approximations share their normal-fan symmetry: the overlay
    # rejects them, so "auto" falls back to hulls
    mats = [np.diag(d) for d in ([1.4, 1.0, 0.7], [0.8, 1.5, 1.1], [1.2, 0.9, 1.3])]
    aligned = [vf.ellipsoid_approx(A, 2) for A in mats]
    with pytest.raises(OverlayDegenerateError):
        vf.polytope_mixed_volume(aligned, engine="overlay")
    triples.append((mats, aligned))
    for mats, polys in triples:
        vq = vf.mixed_volume_quadrature([vf.make_ellipsoid(A) for A in mats], grid20)
        vp = vf.polytope_mixed_volume(polys)
        assert vp == pytest.approx(vq, rel=1e-3)


def box(sides):
    return vf.make_polytope(list(itertools.product(*[(0.0, s) for s in sides])))


def permanent(s):
    n = len(s)
    return sum(math.prod(s[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_polytope_mixed_volume_boxes(n):
    # V(box_1, ..., box_n) = perm(s) / n! for side lengths s[i][j] (body i, axis j)
    s = np.random.default_rng(10 + n).uniform(0.5, 2.0, size=(n, n))
    value = vf.polytope_mixed_volume([box(row) for row in s], engine="hull")
    assert value == pytest.approx(permanent(s) / math.factorial(n), rel=1e-12)


def random_polytope(rng):
    """10-14 points in convex position: a random linear image of sphere points."""
    points = rng.normal(size=(int(rng.integers(10, 15)), 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    return vf.make_polytope(points @ rng.normal(size=(3, 3)) + rng.normal(size=3))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_polytope_mixed_volume_properties(seed):
    rng = np.random.default_rng(seed)
    P, Q, R, S = (random_polytope(rng) for _ in range(4))
    value = vf.polytope_mixed_volume([P, Q, R], engine="hull")
    for order in itertools.permutations([P, Q, R]):
        assert vf.polytope_mixed_volume(order) == pytest.approx(value, rel=1e-9)
    PS = vf.make_polytope((P.vertices[:, None, :] + S.vertices[None, :, :]).reshape(-1, 3))
    assert vf.polytope_mixed_volume([PS, Q, R]) == pytest.approx(
        value + vf.polytope_mixed_volume([S, Q, R]), rel=1e-9
    )
    shifted = [vf.translate(B, rng.normal(size=3)) for B in (P, Q, R)]
    assert vf.polytope_mixed_volume(shifted) == pytest.approx(value, rel=1e-9)
    assert vf.polytope_mixed_volume([P, Q, R], engine="overlay") == pytest.approx(value, rel=1e-9)


def test_parallel_body_volume_cube():
    cube = unit_cube()
    for t in (0.0, 0.5, 1.0):
        expected = 1.0 + 6.0 * t + 3.0 * np.pi * t**2 + 4.0 * np.pi / 3.0 * t**3
        assert parallel_body_volume(cube, t) == pytest.approx(expected, rel=1e-12)


def test_steiner_cube():
    coeffs = vf.steiner_coefficients(unit_cube(), None)
    assert_allclose(coeffs, [1.0, 6.0, 3 * np.pi, 4 * np.pi / 3], rtol=1e-14)


def test_steiner_ball(grid20):
    coeffs = vf.steiner_coefficients(vf.make_ball(1.0), grid20)
    expected = [4 * np.pi / 3 * c for c in (1, 3, 3, 1)]
    assert_allclose(coeffs, expected, rtol=1e-8)


def test_steiner_ellipsoid_volume_term(grid30):
    rng = np.random.default_rng(8)
    A = random_spd(rng)
    coeffs = vf.steiner_coefficients(vf.make_ellipsoid(A), grid30)
    assert coeffs[0] == pytest.approx(4 * np.pi / 3 * np.sqrt(np.linalg.det(A)), rel=1e-6)
    assert coeffs[3] == pytest.approx(4 * np.pi / 3, rel=1e-10)


def test_steiner_matches_smooth_growth(grid30):
    rng = np.random.default_rng(9)
    K = random_perturbed_ball(rng, grid30)
    coeffs = vf.steiner_coefficients(K, grid30)
    B = vf.make_ball(1.0)
    for t in (0.25, 0.75):
        grown = vf.minkowski_support([K, B], [1.0, t])
        direct = vf.mixed_volume_quadrature([grown, grown, grown], grid30)
        poly = sum(c * t**j for j, c in enumerate(coeffs))
        assert direct == pytest.approx(poly, rel=1e-8)


def test_mixed_volume_quadrature_validates(grid20):
    B = vf.make_ball(1.0)
    with pytest.raises(ValueError):
        vf.mixed_volume_quadrature([B, B], grid20)
    with pytest.raises(vf.NotSmoothError):
        vf.mixed_volume_quadrature([B, B, unit_cube()], grid20)
