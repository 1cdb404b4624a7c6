"""Dense linear algebra and calculus utilities shared by all modules.

Matrices are plain float64 ndarrays in row-major order; matrix-valued
ambient points flatten row-major everywhere (one fixed convention avoids
silent transposition bugs between oracle and manifold code).
"""

import math
from dataclasses import dataclass

import numpy as np

from msopt.errors import MsoptError

FD_STEP = 1e-5


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


def _check_finite(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    return m


def svd(m: np.ndarray) -> SvdResult:
    """Singular value decomposition m = u @ diag(s) @ vt, s descending."""
    m = _check_finite(m, "svd input")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise MsoptError(
            f"SVD did not converge for a {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    return SvdResult(u=u, singular_values=s, vt=vt)


def scaled_norm(v) -> float:
    """2-norm that neither underflows nor overflows.

    np.linalg.norm squares the entries, so it reads a vector of 1e-180
    entries as 0; math.hypot scales them first. For the short vectors of
    the optimizer loops it is also the cheaper call.
    """
    return math.hypot(*np.ravel(v).tolist())


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


def rk4_step(f, x: np.ndarray, u, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of dx/dt = f(x, u) with frozen input."""
    if dt <= 0:
        raise ValueError("rk4_step requires dt > 0")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(x, u))
    k2 = np.asarray(f(x + 0.5 * dt * k1, u))
    k3 = np.asarray(f(x + 0.5 * dt * k2, u))
    k4 = np.asarray(f(x + dt * k3, u))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
