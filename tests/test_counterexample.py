import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import beta

import valforge as vf
from valforge.counterexample import CounterexampleDensity, ZonalTestFunction, _polar_rule
from conftest import random_perturbed_ball, random_spd


def test_cutoff_psi_values():
    assert vf.cutoff_psi(0.0) == 1.0
    assert vf.cutoff_psi(0.9) == 0.0
    assert vf.cutoff_psi(-0.9) == 0.0
    mid = vf.cutoff_psi(0.5)
    assert 0.0 < mid < 1.0
    ts = np.linspace(1 / 3, 2 / 3, 50)
    vals = vf.cutoff_psi(ts)
    assert np.all(np.diff(vals) <= 1e-12)  # monotone decreasing on the transition


def test_density_properties():
    f = CounterexampleDensity(3)
    assert f(np.array([0.0]))[0] == 0.0
    assert f(np.array([0.7]))[0] == 0.0
    assert f(np.array([0.2]))[0] == pytest.approx(np.sqrt(0.2), abs=1e-12)
    ts = np.linspace(-1, 1, 201)
    assert np.all(np.isfinite(f(ts)))
    f5 = CounterexampleDensity(5)
    assert np.all(np.isfinite(f5(ts)))


def test_bump_shape_and_support():
    phi = vf.make_zonal_bump(0.05)
    assert phi.support == (0.025, 0.25)
    assert phi.plateau == (0.05, 0.2)
    ts = np.linspace(-0.5, 0.5, 1001)
    vals = phi.phi(ts)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(vals[(ts <= 0.025) | (ts >= 0.25)] == 0)
    plateau = (ts >= 0.05) & (ts <= 0.2)
    assert_allclose(vals[plateau], 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        vf.make_zonal_bump(1.0 / 12.0)
    with pytest.raises(ValueError):
        vf.make_zonal_bump(0.0)


def test_bump_derivatives_match_finite_differences():
    phi = vf.make_zonal_bump(0.06)
    ts = np.linspace(0.031, 0.29, 400)
    h = 1e-6
    fd1 = (phi.phi(ts + h) - phi.phi(ts - h)) / (2 * h)
    scale1 = max(1.0, np.max(np.abs(phi.dphi(ts))))
    assert np.max(np.abs(fd1 - phi.dphi(ts))) / scale1 < 1e-6
    # one Richardson level for the second derivative
    def fd2(h):
        return (phi.phi(ts + h) - 2 * phi.phi(ts) + phi.phi(ts - h)) / h**2

    rich = (4 * fd2(5e-6) - fd2(1e-5)) / 3
    scale2 = max(1.0, np.max(np.abs(phi.d2phi(ts))))
    assert np.max(np.abs(rich - phi.d2phi(ts))) / scale2 < 1e-6


def test_counterexample_valuation_zonal_reduction():
    grid = vf.build_grid(3, 400)
    B = vf.make_ball(1.0)
    value = vf.counterexample_valuation(B, 1, 3, grid)
    f = CounterexampleDensity(3)
    oracle = 2 * np.pi * quad(lambda t: float(f(np.array([t]))[0]), -1, 1, limit=200)[0]
    # the sqrt kink at the equator limits the grid rate; oracle is adaptive 1-D
    assert value == pytest.approx(oracle, rel=2e-3)


def test_counterexample_valuation_invariances(grid20):
    rng = np.random.default_rng(0)
    K = vf.make_ellipsoid(random_spd(rng))
    base = vf.counterexample_valuation(K, 1, 3, grid20)
    shifted = vf.translate(K, np.array([0.2, -0.4, 0.3]))
    assert vf.counterexample_valuation(shifted, 1, 3, grid20) == pytest.approx(base, rel=1e-7)
    for t in (0.5, 2.0):
        scaled = vf.minkowski_support([K], [t])
        for k in (1, 2):
            assert vf.counterexample_valuation(scaled, k, 3, grid20) == pytest.approx(
                t**k * vf.counterexample_valuation(K, k, 3, grid20), rel=1e-12
            )


def test_gw_zonal_zero_function():
    class ZeroBump(ZonalTestFunction):
        def _pieces(self, t, deriv):
            return np.zeros_like(np.asarray(t, dtype=float))

    zero = ZeroBump(eps=0.05, support=(0.025, 0.25), plateau=(0.05, 0.2))
    assert vf.gw_zonal(zero, 3) == 0.0


def test_gw_zonal_support_validation():
    bad = ZonalTestFunction(eps=0.05, support=(0.025, 0.5), plateau=(0.05, 0.2))
    with pytest.raises(ValueError):
        vf.gw_zonal(bad, 3)


@pytest.mark.parametrize("eps", [0.03, 0.045, 0.06, 0.07])
def test_gw_zonal_integration_by_parts(eps):
    phi = vf.make_zonal_bump(eps)
    a = vf.gw_zonal(phi, 3)
    b = vf.gw_zonal_by_parts(phi, 3)
    assert b == pytest.approx(a, rel=1e-7)
    a4 = vf.gw_zonal(phi, 4)
    b4 = vf.gw_zonal_by_parts(phi, 4)
    assert b4 == pytest.approx(a4, rel=1e-7)


@pytest.mark.parametrize("eps", [0.04, 0.055, 0.07])
def test_gw_zonal_matches_sphere_oracle(eps):
    phi = vf.make_zonal_bump(eps)
    for n in (3, 4):
        a = vf.gw_zonal(phi, n)
        c = vf.gw_sphere_oracle(phi, n)
        assert c == pytest.approx(a, rel=1e-7), n


@pytest.mark.parametrize("eps", [1e-3, 3e-4])
def test_sphere_oracle_refuses_unresolved_default_rule(eps):
    # the capped default rule gave rel. errors 0.25 (1e-3) and 17 (3e-4)
    phi = vf.make_zonal_bump(eps)
    with pytest.raises(ValueError, match="eps >= 0.00833333"):
        vf.gw_sphere_oracle(phi, 3)


def test_sphere_oracle_honours_explicit_polar_points():
    phi = vf.make_zonal_bump(1e-3)
    assert vf.gw_sphere_oracle(phi, 3, polar_points=500_000) == pytest.approx(vf.gw_zonal(phi, 3), rel=1e-7)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_polar_rule_weights_and_exactness(n):
    count = 40
    u, w = _polar_rule(n, count)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(vf.sphere_area(n) / vf.sphere_area(n - 1), rel=1e-14)
    # interpolatory: exact on u^{2j} (1-u^2)^{(n-3)/2} for every 2j <= count - 1
    for j in range(count // 2):
        assert np.dot(w, u ** (2 * j)) == pytest.approx(beta(j + 0.5, (n - 1) / 2), rel=1e-12)


def test_divergence_probe_bounds():
    p4 = vf.divergence_probe(1e-4)
    assert p4.value >= 100.0 and p4.passed
    p2 = vf.divergence_probe(1e-2)
    assert p2.value >= 10.0 and p2.passed


def test_divergence_sweep_slope():
    sweep = vf.divergence_sweep(np.geomspace(1e-2, 1e-5, 7))
    assert sweep["all_passed"]
    assert abs(sweep["slope"] + 0.5) <= 0.05
    # T sqrt(eps) stays in a bounded band above 1
    ratios = [p.value * np.sqrt(p.eps) for p in sweep["probes"]]
    assert min(ratios) >= 1.0
    assert max(ratios) < 3.0


def test_polynomiality_of_ball_growth(grid20):
    rng = np.random.default_rng(1)
    K = random_perturbed_ball(rng, grid20)
    B = vf.make_ball(1.0)
    ts = np.linspace(0.0, 0.5, 8)
    vals = []
    for t in ts:
        body = vf.minkowski_support([K, B], [1.0, t]) if t > 0 else K
        vals.append(vf.counterexample_valuation(body, 2, 3, grid20))
    coeffs = np.polynomial.polynomial.polyfit(ts, vals, 2)
    fitted = np.polynomial.polynomial.polyval(ts, coeffs)
    assert np.max(np.abs(fitted - vals)) <= 1e-8 * max(1.0, np.max(np.abs(vals)))


def test_derivative_reduction_ball(grid20):
    result = vf.derivative_reduction(vf.make_ball(1.0), 2, 3, grid20)
    assert result.relative_error < 1e-4
    assert result.fit_residual < 1e-8
    # for the unit ball mu_2((1+t)B) = (1+t)^2 mu_2(B) pins the derivative
    mu2 = vf.counterexample_valuation(vf.make_ball(1.0), 2, 3, grid20)
    assert result.derivative == pytest.approx(2.0 * mu2, rel=1e-10)


def test_derivative_reduction_bodies(grid20):
    rng = np.random.default_rng(2)
    for body in (vf.make_ellipsoid(random_spd(rng)), random_perturbed_ball(rng, grid20)):
        result = vf.derivative_reduction(body, 2, 3, grid20)
        assert result.relative_error < 1e-4
        assert result.fit_residual < 1e-8


def test_derivative_reduction_k1_identity(grid20):
    rng = np.random.default_rng(3)
    K = vf.make_ellipsoid(random_spd(rng))
    result = vf.derivative_reduction(K, 1, 3, grid20)
    mu1 = vf.counterexample_valuation(K, 1, 3, grid20)
    assert result.derivative == pytest.approx(mu1, rel=1e-10)
