"""Dense linear algebra and calculus utilities shared by all modules.

Matrices are plain float64 ndarrays in row-major order; matrix-valued
ambient points flatten row-major everywhere (one fixed convention avoids
silent transposition bugs between oracle and manifold code).
"""

import math

import numpy as np


def scaled_norm(v) -> float:
    """2-norm that neither underflows nor overflows.

    np.linalg.norm squares the entries, so it reads a vector of 1e-180
    entries as 0; math.hypot scales them first. For the short vectors of
    the optimizer loops it is also the cheaper call.
    """
    return math.hypot(*np.ravel(v).tolist())


def rk4_step(f, x: np.ndarray, u, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of dx/dt = f(x, u) with frozen input."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"rk4_step requires finite dt > 0, got dt = {dt!r}")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(x, u))
    k2 = np.asarray(f(x + 0.5 * dt * k1, u))
    k3 = np.asarray(f(x + 0.5 * dt * k2, u))
    k4 = np.asarray(f(x + dt * k3, u))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
