"""Exactly-known embedded manifolds: circle, sphere, orthogonal group.

These provide the ground-truth projection pi, Riemannian gradient, uniform
sampling and distance against which the score surrogates are validated.
Matrix manifolds flatten to ambient vectors row-major.

The derivative of pi is taken in closed form, never numerically. Both
projections are gradients of a potential (r ||x|| resp. the nuclear norm), so
their Jacobians are symmetric and a vector-Jacobian product is the forward
derivative:

  sphere  pi(x) = r x/||x||, with u = x/||x||:
          pi'(x) v = (r/||x||) (v - (u.v) u)
  O(n)    pi(X) = U V^T for X = U S V^T (the polar factor); with
          F = U^T E V and Omega_ij = (F_ij - F_ji)/(s_i + s_j),
          pi'(X)[E] = U Omega V^T
          (Higham, Functions of Matrices, 2008; Absil, Mahony and
          Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008)

`projection_vjp(x, v)` is that product. It also takes a stack of row
directions V, shape (k, d), and returns the rows pi'(x) v_i, so the Jacobian
is `projection_vjp(x, np.eye(d))`; on O(n) the stack, like `project`, comes
from one SVD of X.
"""

from dataclasses import dataclass

import numpy as np

from msopt import rng as _rng
from msopt.errors import MsoptError, ProjectionError

_DEGENERATE_TOL = 1e-12
_ON_MANIFOLD_TOL = 1e-9


@dataclass(frozen=True)
class _Manifold:
    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def riemannian_grad(self, p: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
        """Tangent-space projection of the Euclidean gradient at p."""
        raise NotImplementedError

    def dist_to_manifold(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.project(x)))

    def feasibility(self, x: np.ndarray) -> float:
        """Constraint residual reported in run records (see subclasses)."""
        return self.dist_to_manifold(x)

    def projection_vjp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """pi'(x)^T v = pi'(x) v, without building the Jacobian; for a stack
        of row directions, one row per direction."""
        raise NotImplementedError

    def _check_on_manifold(self, p: np.ndarray):
        res = self.feasibility(p)
        # NaN fails the comparison, so a non-finite point is off the manifold
        if not res <= _ON_MANIFOLD_TOL:
            raise ValueError(
                f"point is off the manifold (constraint residual {res:.3e})"
            )


@dataclass(frozen=True)
class Sphere(_Manifold):
    """Sphere of given radius in R^ambient_dim."""

    ambient_dim: int
    radius: float = 1.0

    def __post_init__(self):
        # a plain `radius <= 0` test lets NaN and inf through
        if not 0.0 < self.radius < np.inf or self.ambient_dim < 1:
            raise ValueError("sphere needs finite radius > 0 and ambient_dim >= 1, "
                             f"got radius = {self.radius!r}, ambient_dim = {self.ambient_dim!r}")

    @property
    def safe_tube_radius(self) -> float:
        return 0.5 * self.radius

    def _norm(self, x) -> float:
        # the arithmetic of np.linalg.norm on a 1-D float vector, without its dispatch
        n = np.sqrt(x @ x)
        if n < _DEGENERATE_TOL:
            raise ProjectionError(
                "projection undefined at the origin (outside tubular neighborhood)"
            )
        return n

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return (self.radius / self._norm(x)) * x

    def riemannian_grad(self, p, euclid_grad):
        p = np.asarray(p, dtype=float)
        v = np.asarray(euclid_grad, dtype=float)
        self._check_on_manifold(p)
        u = p / np.linalg.norm(p)
        return v - (v @ u) * u

    def projection_vjp(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        n = self._norm(x)
        u = x / n
        # u.v by one dot product per row, as for a lone direction
        return (self.radius / n) * (v - (u @ v[..., None]) * u)

    def sample_uniform(self, count: int, seed: int) -> np.ndarray:
        g = _rng.stream(seed, f"sphere{self.ambient_dim}").standard_normal(
            (count, self.ambient_dim)
        )
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return self.radius * g

    def unit_normal(self, p, seed: int = 0, index: int = 0) -> np.ndarray:
        """Outward unit normal; sign alternates with index for tube coverage."""
        u = np.asarray(p, dtype=float) / np.linalg.norm(p)
        return u if index % 2 == 0 else -u


def Circle(radius: float = 1.0) -> Sphere:
    """Circle of given radius in the plane (2-d sphere specialization)."""
    return Sphere(ambient_dim=2, radius=radius)


@dataclass(frozen=True)
class Orthogonal(_Manifold):
    """Orthogonal group O(n), embedded in R^(n*n) row-major."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("orthogonal group needs n >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.n * self.n

    @property
    def safe_tube_radius(self) -> float:
        return 0.4

    def _as_matrix(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x.reshape(self.n, self.n)

    def feasibility(self, x) -> float:
        """Gram residual ||X^T X - I||_F, the tube metric used in reports."""
        m = self._as_matrix(x)
        return float(np.linalg.norm(m.T @ m - np.eye(self.n)))

    def _svd(self, x):
        """SVD (u, s, vt) of X behind the projection and its derivatives, or
        None when X is not finite."""
        m = self._as_matrix(x)
        # as on the sphere, a non-finite input projects to NaN; LAPACK is not
        # asked, since its SVD can loop without end on inf entries
        if not np.isfinite(m).all():
            return None
        try:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise MsoptError(f"SVD did not converge for a {self.n}x{self.n} matrix") from exc
        if s.min() < _DEGENERATE_TOL:
            raise ProjectionError(
                "polar factor undefined: zero singular value "
                "(outside tubular neighborhood)"
            )
        return u, s, vt

    def project(self, x):
        svd = self._svd(x)
        if svd is None:
            return np.full(self.ambient_dim, np.nan)
        u, _, vt = svd
        return (u @ vt).reshape(-1)

    @staticmethod
    def _polar_derivative(u, s, vt, e):
        """pi'(X)[E] for a stack of directions e of shape (..., n, n)."""
        f = u.T @ e @ vt.T
        return u @ ((f - np.swapaxes(f, -1, -2)) / (s[:, None] + s[None, :])) @ vt

    def projection_vjp(self, x, v):
        v = np.asarray(v, dtype=float)
        svd = self._svd(x)
        if svd is None:
            return np.full(v.shape, np.nan)
        # a lone direction stays one (n, n) matrix: the stacked matmul of a
        # (1, n, n) stack is another code path
        e = v.reshape(v.shape[:-1] + (self.n, self.n))
        return self._polar_derivative(*svd, e).reshape(v.shape)

    def riemannian_grad(self, p, euclid_grad):
        self._check_on_manifold(p)
        X = self._as_matrix(p)
        V = self._as_matrix(euclid_grad)
        M = X.T @ V
        return (X @ (M - M.T) / 2.0).reshape(-1)

    def sample_uniform(self, count: int, seed: int) -> np.ndarray:
        # Q of the QR of a Gaussian matrix, with the signs of R's diagonal moved
        # into Q, is Haar distributed. One stacked QR per block of draws; the
        # blocks (about 8k entries) keep the QR's temporaries small, and the
        # stream is read in the same order as one draw at a time.
        gen = _rng.stream(seed, f"haar_o{self.n}")
        out = np.empty((count, self.n, self.n))
        block = max(1, 8192 // self.ambient_dim)
        for start in range(0, count, block):
            q, r = np.linalg.qr(gen.standard_normal((min(block, count - start), self.n, self.n)))
            d = np.sign(np.diagonal(r, axis1=1, axis2=2))
            d[d == 0] = 1.0
            np.multiply(q, d[:, None, :], out=out[start : start + len(q)])
        return out.reshape(count, self.ambient_dim)

    def unit_normal(self, p, seed: int = 0, index: int = 0) -> np.ndarray:
        """Random unit normal X*S (S symmetric) at an on-manifold point."""
        X = self._as_matrix(p)
        g = _rng.stream(seed, f"normal_o{self.n}/{index}").standard_normal(
            (self.n, self.n)
        )
        S = (g + g.T) / 2.0
        N = X @ S
        return (N / np.linalg.norm(N)).reshape(-1)

