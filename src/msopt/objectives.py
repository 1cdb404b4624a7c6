"""Objective functions with analytic gradients and ground-truth oracles.

Every objective exposes value(x) and gradient(x) on flattened ambient points;
that pair is the whole contract, with no base class behind it. The tracking
objective's points are in the order of `control.TrajectoryLayout`. Every
analytic gradient is checked against central differences by the test suite
(tests/finite_differences.py); the package itself never differentiates
numerically. The Brockett eigenvalue pairing provides an independent global
optimum for the orthogonal-group experiments.
"""

from dataclasses import dataclass

import numpy as np

from msopt import rng as _rng
from msopt.control import TrajectoryLayout


def _check_finite(name, m):
    # the symmetry and definiteness tests below are False for NaN entries
    if not np.isfinite(m).all():
        raise ValueError(f"objective coefficient {name} has non-finite entries")


@dataclass(frozen=True)
class ZeroObjective:
    """f = 0; used by pure landing runs."""

    dim: int

    def value(self, x) -> float:
        return 0.0

    def gradient(self, x) -> np.ndarray:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class LinearObjective:
    """f(x) = a . x; unique sphere minimizer at -radius * a/||a||."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        _check_finite("a", a)
        if not a.any():
            raise ValueError("linear objective needs a != 0")
        object.__setattr__(self, "a", a)

    def value(self, x) -> float:
        return float(self.a @ np.asarray(x, dtype=float))

    def gradient(self, x) -> np.ndarray:
        return self.a.copy()


class BrockettObjective:
    """f(X) = tr(A X Q X^T) on n x n matrices, A symmetric and Q = diag(1..n)."""

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        n = a.shape[0]
        _check_finite("A", a)
        if np.abs(a - a.T).max() > 1e-12:
            raise ValueError(f"A must be symmetric {n}x{n}")
        self.a = a
        self.q = np.diag(np.arange(1.0, n + 1.0))
        self.n = n

    def _as_matrix(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.n * self.n:
            raise ValueError(f"point of size {x.size} does not reshape to {self.n}x{self.n}")
        return x.reshape(self.n, self.n)

    def value(self, x) -> float:
        X = self._as_matrix(x)
        return float(np.trace(self.a @ X @ self.q @ X.T))

    def gradient(self, x) -> np.ndarray:
        X = self._as_matrix(x)
        return (2.0 * self.a @ X @ self.q).reshape(-1)


def random_brockett(n: int, seed: int) -> BrockettObjective:
    """A = (G + G^T)/2 with standard-normal G, Q = diag(1..n)."""
    g = _rng.stream(seed, "brockett_a").standard_normal((n, n))
    return BrockettObjective(a=(g + g.T) / 2.0)


def brockett_optimum(obj: BrockettObjective) -> float:
    """Global minimum of the Brockett cost over the orthogonal group.

    Rearrangement pairing: eigenvalues of A sorted ascending against the
    diagonal n..1 of Q, whose distinct entries define the pairing uniquely.
    """
    alpha = np.sort(np.linalg.eigvalsh(obj.a))
    return float(alpha @ np.diag(obj.q)[::-1])


class TrackingObjective:
    """Finite-horizon tracking cost on points in the `TrajectoryLayout` order.

    The layout comes from the horizon and the sizes of R (inputs) and Q
    (outputs); a dataset's trajectories share it. The cost sums
    u_k^T R u_k + (y_k - r_k)^T Q (y_k - r_k) for k < N plus a terminal
    (y_N - r_N)^T Q (y_N - r_N) term. R must be positive definite; Q may be
    positive semidefinite (outputs can be excluded with zero rows).
    """

    def __init__(self, reference, q_weight, r_weight, horizon: int):
        reference = np.atleast_2d(np.asarray(reference, dtype=float))
        q = np.atleast_2d(np.asarray(q_weight, dtype=float))
        r = np.atleast_2d(np.asarray(r_weight, dtype=float))
        if reference.shape[0] != horizon + 1:
            raise ValueError(
                f"reference has {reference.shape[0]} rows, expected horizon+1 = {horizon + 1}"
            )
        for name, m in (("reference", reference), ("Q", q), ("R", r)):
            _check_finite(name, m)
        ny, nu = q.shape[0], r.shape[0]
        if q.shape != (ny, ny) or np.abs(q - q.T).max() > 1e-12:
            raise ValueError("Q must be symmetric")
        if r.shape != (nu, nu) or np.abs(r - r.T).max() > 1e-12:
            raise ValueError("R must be symmetric")
        if reference.shape[1] != ny:
            raise ValueError("reference width does not match Q")
        if np.linalg.eigvalsh(q).min() < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(r).min() <= 0.0:
            raise ValueError("R must be positive definite")
        self.reference = reference
        self.q = q
        self.r = r
        self.layout = TrajectoryLayout(int(horizon), nu, ny)

    def value(self, z) -> float:
        u, y = self.layout.split(z)
        dy = y - self.reference
        val = np.einsum("ki,ij,kj->", u, self.r, u)
        val += np.einsum("ki,ij,kj->", dy[:-1], self.q, dy[:-1])
        val += dy[-1] @ self.q @ dy[-1]
        return float(val)

    def gradient(self, z) -> np.ndarray:
        u, y = self.layout.split(z)
        return self.layout.join(2.0 * u @ self.r, 2.0 * (y - self.reference) @ self.q)


class AffineReparamObjective:
    """Objective pulled back through x = shift + scale * z (elementwise)."""

    def __init__(self, inner, shift, scale):
        self.inner = inner
        self.shift = np.asarray(shift, dtype=float)
        self.scale = np.asarray(scale, dtype=float)

    def value(self, z) -> float:
        return self.inner.value(self.shift + self.scale * np.asarray(z, dtype=float))

    def gradient(self, z) -> np.ndarray:
        return self.scale * self.inner.gradient(self.shift + self.scale * np.asarray(z, dtype=float))


# ---- reference trajectory generators ---------------------------------------

REFERENCE_KINDS = ("sinusoid", "arc", "figure_eight")


def make_reference(kind: str, horizon: int, dt: float, output_dim: int, *,
                   amplitude: float) -> np.ndarray:
    """Configurable references: sinusoid, circular arc, or figure-eight.

    Returns (horizon+1, output_dim); coordinates beyond the generated planar
    (or scalar) profile are zero-filled, matching zero-weighted outputs.
    """
    t = np.arange(horizon + 1) * dt
    span = max(horizon * dt, dt)
    if kind == "sinusoid":
        prof = amplitude * np.sin(2.0 * np.pi * t / span)[:, None]
    elif kind == "arc":
        # quarter turn of radius `amplitude`, starting at the origin
        ang = 0.5 * np.pi * t / span
        prof = amplitude * np.stack([np.sin(ang), 1.0 - np.cos(ang)], axis=1)
    elif kind == "figure_eight":
        ang = 2.0 * np.pi * t / span
        prof = amplitude * np.stack([np.sin(ang), 0.5 * np.sin(2.0 * ang)], axis=1)
    else:
        raise ValueError(f"unknown reference kind: {kind!r}")
    ref = np.zeros((horizon + 1, output_dim))
    w = min(output_dim, prof.shape[1])
    ref[:, :w] = prof[:, :w]
    return ref
