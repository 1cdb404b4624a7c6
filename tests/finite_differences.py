"""Central differences: the independent numerical check of the closed-form
derivatives of msopt (oracle Jacobians and link gradients, projection
derivatives, objective gradients). The package itself never differentiates
numerically."""

import numpy as np

FD_STEP = 1e-5


def fd_gradient(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian; column i is d f / d x_i."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2 * h))
    return np.stack(cols, axis=-1)


def grad_check(obj, points, h: float = 1e-5) -> float:
    """Max over points of ||analytic - central-difference|| / (1 + ||analytic||)."""
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        g = obj.gradient(x)
        g_fd = fd_gradient(obj.value, x, h=h)
        worst = max(worst, float(np.linalg.norm(g - g_fd) / (1.0 + np.linalg.norm(g))))
    return worst
