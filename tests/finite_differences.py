"""Finite-difference Hessians: the test oracle for closed-form ``hessians``."""

import numpy as np

# coarse step h of fd_hessians; the fine step is h / 2
_FD_STEP = 1e-3


def _extension_values(f, Y: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(Y, axis=1)
    return r * f.values(Y / r[:, None])


def fd_hessians(f, X: np.ndarray) -> np.ndarray:
    """Finite-difference Hessians of the 1-homogeneous extension of f.

    Central second differences at steps h = 1e-3 and h/2 combined by one
    Richardson level, (4 H(h/2) - H(h)) / 3.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, n = X.shape

    def at_step(h):
        H = np.empty((m, n, n))
        for i in range(n):
            for j in range(i, n):
                ei = np.zeros(n)
                ei[i] = h
                ej = np.zeros(n)
                ej[j] = h
                vpp = _extension_values(f, X + ei + ej)
                vpm = _extension_values(f, X + ei - ej)
                vmp = _extension_values(f, X - ei + ej)
                vmm = _extension_values(f, X - ei - ej)
                H[:, i, j] = (vpp - vpm - vmp + vmm) / (4.0 * h * h)
                H[:, j, i] = H[:, i, j]
        return H

    coarse = at_step(_FD_STEP)
    fine = at_step(_FD_STEP / 2.0)
    return (4.0 * fine - coarse) / 3.0
