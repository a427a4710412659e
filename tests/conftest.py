import numpy as np
import pytest

import valforge as vf
from valforge.harmonics import harmonic_count


@pytest.fixture(scope="session")
def grid20():
    return vf.build_grid(3, 20)


@pytest.fixture(scope="session")
def grid30():
    return vf.build_grid(3, 30)


@pytest.fixture(scope="session")
def family3():
    return vf.build_family(3)


@pytest.fixture(scope="session")
def frame3(family3, grid20):
    return vf.dual_frame(family3, grid20)


def random_unit(rng, n=3, size=None):
    shape = (n,) if size is None else (size, n)
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def random_spd(rng, n=3, lo=0.6, hi=1.6):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def random_rotation(rng, n=3):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_perturbed_ball(rng, grid, max_degree=4, amplitude=0.05):
    while True:
        coeffs = {}
        for l in range(1, max_degree + 1):
            for j in range(harmonic_count(grid.n, l)):
                if rng.random() < 0.4:
                    coeffs[(l, j)] = amplitude * rng.normal() / (1 + l)
        try:
            return vf.make_perturbed_ball(1.0, coeffs, grid)
        except vf.ConvexityViolation:
            amplitude *= 0.7
