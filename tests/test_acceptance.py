"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import math
import time

import numpy as np
import pytest

import valforge as vf
from valforge.family import _frame_matrices, sym_vec
from conftest import random_perturbed_ball, random_rotation, random_spd, random_unit


BUDGET_N4_K1_S = 9.0  # twice the ≈4.5 s measured on a 2-core machine


def _report(name, elapsed, detail):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_family_construction(grid20):
    start = time.perf_counter()
    family = vf.build_family(3)
    assert family.size == 7
    assert family.t == 7.0
    assert family.c == pytest.approx(1 / 3, abs=1e-15)
    assert grid20.degree == 20 and grid20.size >= 800
    min_sigma, _ = vf.spanning_certificate(family, grid20)
    assert min_sigma > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("1 family-construction", elapsed, f"N=7 t=7 c=1/3 min_sigma={min_sigma:.3e}")


def test_criterion_2_frame_identity(family3, frame3):
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        x = random_unit(rng)
        form = rng.normal(size=(2, 2))
        form = 0.5 * (form + form.T)
        psi = frame3.coefficients_at(x, form)
        S = _frame_matrices(family3, x[None])[0]
        worst = max(worst, float(np.max(np.abs(S @ psi - sym_vec(form)))))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    _report("2 frame-identity", elapsed, f"max reconstruction error {worst:.3e}")


def test_criterion_3_mixed_volume_oracles(grid20):
    start = time.perf_counter()
    B = vf.make_ball(1.0)
    v_ball = vf.mixed_volume_quadrature([B, B, B], grid20)
    assert v_ball == pytest.approx(4 * np.pi / 3, abs=1e-8)

    cube = vf.make_polytope([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    steiner = vf.steiner_coefficients(cube, None)
    expected = [1.0, 6.0, 3 * np.pi, 4 * np.pi / 3]
    for got, want in zip(steiner, expected):
        assert got == pytest.approx(want, abs=1e-3)

    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(10):
        mats = [random_spd(rng) for _ in range(3)]
        vq = vf.mixed_volume_quadrature([vf.make_ellipsoid(A) for A in mats], grid20)
        polys = [vf.ellipsoid_approx(A, 3, rotation=random_rotation(rng)) for A in mats]
        vp = vf.polytope_mixed_volume(polys)
        worst = max(worst, abs(vq - vp) / abs(vq))
    assert worst <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 15.0
    _report("3 mixed-volume-oracles", elapsed, f"triple-route worst rel err {worst:.3e}")


def _round_trip_kernels(grid, k):
    p_a = vf.make_perturbed_ball(1.0, {(2, 0): 0.05, (3, 1): 0.02}, grid)
    p_b = vf.make_perturbed_ball(1.0, {(1, 0): 0.1, (4, 3): 0.03}, grid)
    p_c = vf.make_perturbed_ball(1.0, {(2, 3): 0.06, (1, 2): 0.05}, grid)
    factors = 3 - k
    separable = [
        vf.separable_kernel(([p_a, p_b] if factors == 2 else [p_a])),
        vf.separable_kernel(([p_b, p_c] if factors == 2 else [p_b])),
        vf.separable_kernel(([p_c, p_a] if factors == 2 else [p_c])),
    ]
    if factors == 2:
        table = [
            vf.harmonic_table_kernel(
                3,
                [
                    (1.0, [(0, 0), (0, 0)]),
                    (0.25, [(2, 1), (1, 0)]),
                    (-0.15, [(3, 2), (2, 4)]),
                    (0.1, [(1, 1), (3, 0)]),
                    (0.05, [(4, 5), (0, 0)]),
                ],
            ),
            vf.harmonic_table_kernel(
                3,
                [
                    (0.9, [(0, 0), (0, 0)]),
                    (-0.2, [(2, 2), (2, 2)]),
                    (0.12, [(4, 0), (1, 1)]),
                    (0.08, [(1, 0), (4, 4)]),
                    (-0.05, [(3, 5), (3, 1)]),
                ],
            ),
        ]
    else:
        table = [
            vf.harmonic_table_kernel(
                3,
                [(1.0, [(0, 0)]), (0.3, [(2, 1)]), (-0.12, [(3, 4)]), (0.07, [(4, 2)]), (0.05, [(1, 2)])],
            ),
            vf.harmonic_table_kernel(
                3,
                [(0.8, [(0, 0)]), (-0.25, [(2, 0)]), (0.1, [(4, 8)]), (0.06, [(1, 1)]), (-0.04, [(3, 0)])],
            ),
        ]
    return separable + table, factors


def test_criterion_4_round_trip_synthesis(family3, frame3, grid20):
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    worst = 0.0
    for k in (1, 2):
        kernels, factors = _round_trip_kernels(grid20, k)
        bound = 2 * math.comb(6 + 3 - k - 1, 3 - k - 1)
        assert bound == (14 if k == 1 else 2)
        for fn in kernels:
            decomp = vf.decompose_kernel(fn, factors, 4)
            v = vf.KernelValuation(n=3, k=k, decomposition=decomp)
            comb = vf.synthesize(v, family3, frame3)
            assert comb.mixed_volume_count <= bound
            for _ in range(20):
                K = random_perturbed_ball(rng, grid20)
                a = vf.evaluate_kernel_valuation(v, K, grid20)
                b = vf.evaluate_combination(comb, K, grid20)
                rel = abs(a - b) / max(abs(a), 1e-12)
                worst = max(worst, rel)
                assert rel <= 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("4 round-trip-synthesis", elapsed, f"worst rel err {worst:.3e} over 200 evaluations")


def test_criterion_5_homogeneity_and_linearity(family3, frame3, grid20):
    start = time.perf_counter()
    rng = np.random.default_rng(50)
    p_a = vf.make_perturbed_ball(1.0, {(2, 0): 0.05, (3, 1): 0.02}, grid20)
    p_b = vf.make_perturbed_ball(1.0, {(1, 0): 0.1, (4, 3): 0.03}, grid20)
    F = vf.separable_kernel([p_a, p_b])
    G = vf.harmonic_table_kernel(3, [(0.7, [(0, 0), (0, 0)]), (0.2, [(2, 1), (2, 3)])])

    def FG(X, Y):
        return 1.5 * F(X, Y) - 0.75 * G(X, Y)

    combos = {}
    for name, fn in (("F", F), ("G", G), ("FG", FG)):
        v = vf.KernelValuation(n=3, k=1, decomposition=vf.decompose_kernel(fn, 2, 4))
        combos[name] = (v, vf.synthesize(v, family3, frame3))

    worst_h = 0.0
    v, comb = combos["F"]
    for _ in range(3):
        K = random_perturbed_ball(rng, grid20)
        base = vf.evaluate_combination(comb, K, grid20)
        for t in (0.5, 2.0):
            scaled = vf.minkowski_support([K], [t])
            rel = abs(vf.evaluate_combination(comb, scaled, grid20) - t * base) / abs(t * base)
            worst_h = max(worst_h, rel)
            assert rel <= 1e-6

    worst_l = 0.0
    for _ in range(3):
        K = random_perturbed_ball(rng, grid20)
        vals = {name: vf.evaluate_combination(comb, K, grid20) for name, (_, comb) in combos.items()}
        lin = abs(vals["FG"] - (1.5 * vals["F"] - 0.75 * vals["G"]))
        rel = lin / max(1.0, abs(vals["FG"]))
        worst_l = max(worst_l, rel)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - start
    _report(
        "5 homogeneity-linearity", elapsed, f"homogeneity {worst_h:.3e}, linearity {worst_l:.3e}"
    )


def test_criterion_6_counterexample_divergence():
    start = time.perf_counter()
    sweep = vf.divergence_sweep(np.geomspace(1e-2, 1e-5, 7))
    assert sweep["all_passed"]
    assert abs(sweep["slope"] + 0.5) <= 0.05
    worst_parts = 0.0
    worst_oracle = 0.0
    for eps in (0.03, 0.04, 0.05, 0.06, 0.07):
        phi = vf.make_zonal_bump(eps)
        a = vf.gw_zonal(phi, 3)
        b = vf.gw_zonal_by_parts(phi, 3)
        c = vf.gw_sphere_oracle(phi, 3)
        worst_parts = max(worst_parts, abs(a - b) / abs(a))
        worst_oracle = max(worst_oracle, abs(a - c) / abs(a))
    assert worst_parts <= 1e-7
    assert worst_oracle <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        "6 divergence",
        elapsed,
        f"slope {sweep['slope']:.4f}, by-parts {worst_parts:.2e}, oracle {worst_oracle:.2e}",
    )


def test_criterion_7_derivative_reduction(grid20):
    start = time.perf_counter()
    rng = np.random.default_rng(70)
    bodies = [
        vf.make_ball(1.0),
        vf.make_ellipsoid(random_spd(rng)),
        vf.make_ellipsoid(random_spd(rng)),
        random_perturbed_ball(rng, grid20),
        random_perturbed_ball(rng, grid20),
    ]
    worst_rel = 0.0
    worst_fit = 0.0
    for K in bodies:
        result = vf.derivative_reduction(K, 2, 3, grid20)
        worst_rel = max(worst_rel, result.relative_error)
        worst_fit = max(worst_fit, result.fit_residual)
    assert worst_rel <= 1e-4
    assert worst_fit <= 1e-8
    elapsed = time.perf_counter() - start
    _report(
        "7 derivative-reduction", elapsed, f"rel err {worst_rel:.3e}, fit residual {worst_fit:.3e}"
    )


def test_criterion_8_parity(family3, frame3, grid20):
    start = time.perf_counter()
    kernel = vf.harmonic_table_kernel(
        3, [(1.0, [(0, 0), (0, 0)]), (0.2, [(2, 1), (2, 4)]), (-0.1, [(4, 2), (0, 0)])]
    )
    v = vf.KernelValuation(
        n=3, k=1, decomposition=vf.decompose_kernel(kernel, 2, 4), parity="even"
    )
    comb = vf.synthesize(v, family3, frame3)
    worst = 0.0
    for term in comb.terms:
        for body in (term.l_plus, term.l_minus):
            vals = body.support_values(grid20.nodes)
            flipped = body.support_values(-grid20.nodes)
            worst = max(worst, float(np.max(np.abs(vals - flipped))))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    _report("8 parity", elapsed, f"max |h(x) - h(-x)| = {worst:.3e}")


def test_criterion_9_decomposition_fidelity(grid20):
    start = time.perf_counter()
    rng = np.random.default_rng(90)
    p_a = vf.make_perturbed_ball(1.0, {(2, 0): 0.05, (3, 1): 0.02}, grid20)
    p_b = vf.make_perturbed_ball(1.0, {(1, 0): 0.1, (4, 3): 0.03}, grid20)
    kernels = [
        vf.separable_kernel([p_a, p_b]),
        vf.harmonic_table_kernel(3, [(0.6, [(0, 0), (2, 2)]), (0.3, [(3, 1), (1, 0)])]),
    ]
    worst = 0.0
    for fn in kernels:
        decomp = vf.decompose_kernel(fn, 2, 4)
        X = random_unit(rng, size=1000)
        Y = random_unit(rng, size=1000)
        exact = fn(X, Y)
        from valforge.kernels import reconstruct_batch

        approx = reconstruct_batch(decomp, (X, Y))
        worst = max(worst, float(np.max(np.abs(exact - approx))))
        report = vf.norm_bound_report(decomp, (0, 0))
        sums = report["partial_sums"]
        assert np.all(np.diff(sums) >= -1e-15)
        assert report["tail_fraction"] < 1e-3
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    _report("9 decomposition-fidelity", elapsed, f"sup-norm residual {worst:.3e}")


def test_criterion_10_n4_round_trip_synthesis():
    # a separable kernel is expanded factor by factor; on the 2662-node
    # default quadrature grid its k = 2 product grid would hold 7.1e6 points
    start = time.perf_counter()
    grid = vf.build_grid(4, 16)
    family = vf.build_family(4)
    frame = vf.dual_frame(family, grid)
    p_a = vf.make_perturbed_ball(1.0, {(2, 0): 0.05, (3, 1): 0.02}, grid)
    p_b = vf.make_perturbed_ball(1.0, {(1, 0): 0.1, (4, 3): 0.03}, grid)
    rng = np.random.default_rng(100)
    bodies = [random_perturbed_ball(rng, grid) for _ in range(3)]
    worst = 0.0
    for k, factors in ((3, [p_a]), (2, [p_a, p_b])):
        decomp = vf.decompose_kernel(vf.separable_kernel(factors), 4 - k, 4, n=4)
        v = vf.KernelValuation(n=4, k=k, decomposition=decomp)
        comb = vf.synthesize(v, family, frame)
        assert comb.mixed_volume_count <= vf.mixed_volume_count_bound(4, k)
        for K in bodies:
            a = vf.evaluate_kernel_valuation(v, K, grid)
            b = vf.evaluate_combination(comb, K, grid)
            worst = max(worst, abs(a - b) / abs(a))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report("10 n=4 round-trip-synthesis", elapsed, f"k = 3, 2: worst rel err {worst:.3e} over 6 evaluations")


def test_criterion_10_n4_k1_round_trip_synthesis():
    # three factors: 66 alpha-terms, each carrier on the 285-entry degree-8 dictionary
    start = time.perf_counter()
    grid = vf.build_grid(4, 12)
    family = vf.build_family(4)
    frame = vf.dual_frame(family, grid)
    labels = ({(2, 0): 0.05, (3, 1): 0.02}, {(1, 0): 0.1, (4, 3): 0.03}, {(2, 3): 0.04, (1, 2): 0.05})
    factors = [vf.make_perturbed_ball(1.0, coeffs, grid) for coeffs in labels]
    decomp = vf.decompose_kernel(vf.separable_kernel(factors), 3, 4, n=4)
    v = vf.KernelValuation(n=4, k=1, decomposition=decomp)
    comb = vf.synthesize(v, family, frame)
    assert len(comb.terms) == vf.mixed_volume_count_bound(4, 1) // 2 == 66
    K = random_perturbed_ball(np.random.default_rng(101), grid)
    a = vf.evaluate_kernel_valuation(v, K, grid)
    b = vf.evaluate_combination(comb, K, grid)
    err = abs(a - b) / abs(a)
    assert err <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_N4_K1_S
    _report("10 n=4 k=1 round-trip-synthesis", elapsed, f"66 alpha-terms, rel err {err:.3e}")
