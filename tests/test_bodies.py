import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import valforge as vf
from conftest import random_spd, random_unit
from finite_differences import fd_hessians


def test_ellipsoid_support_values():
    ball = vf.make_ellipsoid(np.eye(3))
    rng = np.random.default_rng(0)
    X = random_unit(rng, size=20)
    assert_allclose(ball.support_values(X), 1.0, atol=1e-14)
    body = vf.make_ellipsoid(np.diag([4.0, 1.0, 1.0]))
    assert body.support.value([1.0, 0.0, 0.0]) == pytest.approx(2.0, abs=1e-14)


def test_ellipsoid_rejects_bad_matrices():
    with pytest.raises(ValueError):
        vf.make_ellipsoid(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        vf.make_ellipsoid(np.diag([1.0, -0.1, 1.0]))


def test_ellipsoid_hessian_closed_vs_fd_100_nodes():
    rng = np.random.default_rng(1)
    body = vf.make_ellipsoid(random_spd(rng))
    X = random_unit(rng, size=100)
    diff = body.support.hessians(X) - fd_hessians(body.support, X)
    assert np.max(np.abs(diff)) < 1e-6


def test_perturbed_ball_construction(grid20):
    plain = vf.make_perturbed_ball(1.0, {}, grid20)
    assert_allclose(plain.support_values(grid20.nodes[:5]), 1.0, atol=1e-14)
    small = vf.make_perturbed_ball(1.0, {(2, 0): 0.01}, grid20)
    assert vf.convexity_certificate(small, grid20) > 1e-6
    with pytest.raises(vf.ConvexityViolation) as err:
        vf.make_perturbed_ball(1.0, {(2, 0): 10.0}, grid20)
    assert err.value.eigenvalue < 1e-6


def test_non_finite_fields_are_refused(grid20):
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="harmonic coefficients must be finite"):
        vf.make_perturbed_ball(1.0, {(2, 0): nan}, grid20)
    # a NaN carrier given as a vector has NaN Hessian eigenvalues: not certified
    g = vf.combine_dictionary(3, {(2, 0): 0.01})
    with pytest.raises(vf.ConvexityViolation):
        vf.make_perturbed_ball(1.0, vf.HarmonicCombination(3, np.where(g.c != 0.0, nan, g.c)), grid20)
    for radius in (nan, inf):
        with pytest.raises(ValueError, match="positive and finite"):
            vf.make_ball(radius)
        with pytest.raises(ValueError, match="positive and finite"):
            vf.make_perturbed_ball(radius, {(2, 0): 0.01}, grid20)
    with pytest.raises(ValueError, match="must be finite"):
        vf.make_ellipsoid(np.diag([1.0, nan, 1.0]))
    with pytest.raises(ValueError, match="must be finite"):
        vf.make_polytope([[0.0, 0.0, 0.0], [1.0, 0.0, inf]])
    with pytest.raises(ValueError, match="must be finite"):
        vf.translate(vf.make_ball(1.0), [0.0, nan, 0.0])


def test_polytope_support_exact():
    cube = vf.make_polytope([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    assert cube.support.value([1.0, 0.0, 0.0]) == 1.0
    assert cube.support.value([-1.0, 0.0, 0.0]) == 0.0
    simplex = vf.make_polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    u = np.ones(3) / np.sqrt(3.0)
    assert simplex.support.value(u) == pytest.approx(1 / np.sqrt(3.0), abs=1e-15)


def test_polytope_flags_and_errors():
    segment = vf.make_polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert segment.lower_dimensional
    cube = vf.make_polytope([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    assert not cube.lower_dimensional
    with pytest.raises(ValueError):
        vf.make_polytope([])
    with pytest.raises(vf.NotSmoothError):
        cube.support_hessians(np.array([[0.0, 0.0, 1.0]]))


def test_minkowski_combination(grid20):
    B = vf.make_ball(1.0)
    double = vf.minkowski_support([B, B], [1.0, 1.0])
    assert_allclose(double.support_values(grid20.nodes[:4]), 2.0, atol=1e-14)
    cube = vf.make_polytope([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    rounded = vf.minkowski_support([cube, B], [1.0, 0.25])
    X = grid20.nodes[:10]
    assert_allclose(rounded.support_values(X), cube.support_values(X) + 0.25, atol=1e-14)
    with pytest.raises(ValueError):
        vf.minkowski_support([B, B], [1.0, -0.5])


def test_minkowski_hessians_additive(grid20):
    rng = np.random.default_rng(2)
    e1 = vf.make_ellipsoid(random_spd(rng))
    e2 = vf.make_ellipsoid(random_spd(rng))
    combo = vf.minkowski_support([e1, e2], [1.0, 1.0])
    X = grid20.nodes[:30]
    assert_allclose(
        combo.support_hessians(X),
        e1.support_hessians(X) + e2.support_hessians(X),
        atol=1e-10,
    )
    assert_allclose(
        combo.support_values(X), e1.support_values(X) + e2.support_values(X), atol=1e-12
    )


def test_translation_leaves_hessian_invariant(grid20):
    rng = np.random.default_rng(3)
    body = vf.make_ellipsoid(random_spd(rng))
    shifted = vf.translate(body, np.array([0.3, -0.7, 0.2]))
    X = grid20.nodes[:30]
    assert np.max(np.abs(shifted.support_hessians(X) - body.support_hessians(X))) < 1e-8
    v = np.array([0.3, -0.7, 0.2])
    assert_allclose(shifted.support_values(X), body.support_values(X) + X @ v, atol=1e-12)


def test_convexity_certificate_values(grid20):
    assert vf.convexity_certificate(vf.make_ball(1.0), grid20) == pytest.approx(1.0, abs=1e-10)
    ell = vf.make_ellipsoid(np.diag([4.0, 1.0, 1.0]))
    assert vf.convexity_certificate(ell, grid20) > 0
    degenerate = vf.make_ellipsoid(np.diag([1.0, 1.0, 1e-12]))
    assert 0 <= vf.convexity_certificate(degenerate, grid20) < 1e-5
    cube = vf.make_polytope([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    with pytest.raises(vf.NotSmoothError):
        vf.convexity_certificate(cube, grid20)


@pytest.mark.parametrize(
    "body_dict",
    [
        {"kind": "ball", "radius": 1.2345678901234567},
        {"kind": "ellipsoid", "matrix": [[1.1, 0.05, 0.0], [0.05, 0.9, 0.01], [0.0, 0.01, 1.3]]},
        {"kind": "polytope", "vertices": [[0.1, 0.2, 0.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        {"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"2,0": 0.012345678912345678}},
    ],
)
def test_body_json_roundtrip_bit_exact(body_dict, grid20):
    body = vf.body_from_dict(body_dict, grid=grid20)
    text = json.dumps(vf.body_to_dict(body), sort_keys=True)
    again = vf.body_to_dict(vf.body_from_dict(json.loads(text), grid=grid20))
    assert json.dumps(again, sort_keys=True) == text


def test_ball_approx_support_integral():
    from valforge.bodies import mean_support_integral

    approx = vf.ball_approx(2)
    # calibrated so the mean support-function deficit vanishes
    assert mean_support_integral(approx.vertices) == pytest.approx(4 * np.pi, rel=1e-12)


def test_mean_support_integral_matches_edge_loop():
    from scipy.spatial import ConvexHull

    from valforge.bodies import _icosphere, mean_support_integral

    def edge_loop(V):
        # sum over facets f and neighbours g > f of len_e * theta_e / 2
        hull = ConvexHull(V)
        normals = hull.equations[:, :3] / np.linalg.norm(hull.equations[:, :3], axis=1)[:, None]
        total = 0.0
        for f, simplex in enumerate(hull.simplices):
            for local, g in enumerate(hull.neighbors[f]):
                if g > f:
                    p, q = (hull.points[v] for li, v in enumerate(simplex) if li != local)
                    nf, ng = normals[f], normals[g]
                    theta = np.arctan2(np.linalg.norm(np.cross(nf, ng)), nf @ ng)
                    total += 0.5 * np.linalg.norm(q - p) * theta
        return total

    rng = np.random.default_rng(11)
    for V in (rng.normal(size=(30, 3)), _icosphere(2) @ random_spd(rng)):
        assert mean_support_integral(V) == pytest.approx(edge_loop(V), rel=1e-13)


def test_ellipsoid_approx_tracks_support(grid20):
    rng = np.random.default_rng(4)
    A = random_spd(rng)
    body = vf.make_ellipsoid(A)
    approx = vf.ellipsoid_approx(A, 3)
    X = grid20.nodes[:200]
    rel = np.abs(approx.support_values(X) - body.support_values(X)) / body.support_values(X)
    assert np.max(rel) < 5e-3
