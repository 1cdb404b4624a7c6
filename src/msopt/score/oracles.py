"""Score oracles: the manifold-operation surrogates and their exact forms.

Every oracle exposes one evaluation, `posterior(x)`, returning the state of
the noise posterior at x:

  .mean       Tweedie mean s(x) = x + sigma^2 grad log p_sigma(x); posterior
              mean of the clean point, approximate projection. Computed on
              construction.
  .vjp(v)     s'(x)^T v without materializing the Jacobian; for a stack V
              of row directions, shape (k, d), the rows V s'(x), each
              bitwise equal to the product with that row alone. The
              Jacobian is vjp(np.eye(d)).
  .link       the link value ell_sigma(x), or None when the oracle has none.

The last two are evaluated on request from the same state (for a mixture,
the same posterior weights; for the network, the layer outputs of the
forward pass that gave the mean, whose positive entries are the ReLU masks),
so a mean and a product at one x cost one weight computation or one network
forward. The network's products then run only the input end of backprop,
`ScoreMlp.input_backward`.

A mixture posterior costs one matrix-vector product over all N atoms for
the logits (p.x - ||p||^2/2) / sigma^2, with ||p||^2 cached by the oracle;
the mean and the products then run over the surviving atoms only, those
whose logit is within 746 of the largest (exp of anything lower is exactly
0.0 in float64, so a dropped atom adds exactly nothing). That window picks
the rows. Among K of them, a weight below K e^-700 is set to exactly 0.0,
so no weight is subnormal, nor after division by the normalizer (at most K):
exp would return a subnormal number below about e^-708, and subnormal
operands take exp, the normalization and the products off the processor's
fast path, several times slower on a dense posterior. Together such weights
are below the rounding of the normalizer, which is at least the top weight
1.0; they move the mean and the products by an absolute amount of order
N K e^-700 (times max ||p|| for the mean, max ||p - s(x)||^2 ||v|| / sigma^2
for a product). The logits carry a
rounding error of about eps (||p||^2 + ||p|| ||x||) / sigma^2 in absolute
terms, which is the relative error of each weight.

A product s'(x)^T v = sum_i w_i (p_i - m) (p_i - m).v / sigma^2, with m the
mean, is two matrix-vector products over the kept atoms and no centered
(N, d) copy of them: t_i = w_i (p_i.v - m.v), then P^T t - (sum_i t_i) m.
Each difference p_i.v - m.v cancels, so its absolute rounding is about
eps ||p|| ||v|| against a size of spread ||v||, where spread is the size of
p - m over the posterior: the product's relative error grows with
||p|| / spread (1e-13 at 1.4e4, on atoms far from the origin).

For the exact mixture oracle the Jacobian equals Cov(posterior)/sigma^2
(symmetric PSD), and the link value ell_sigma satisfies grad ell = mean and
hess ell = Jacobian. The link is stored up to an additive constant: the
sigma-dependent normalizers (log N and the log of the Gaussian constant) are
dropped since only x-derivatives are ever consumed. The smoothed squared
distance is recovered as d_sigma(x) = ||x||^2/2 - ell_sigma(x).
"""

import numpy as np

from msopt.manifolds import Sphere
from msopt.score.mlp import ScoreMlp


# exp(t) is exactly 0.0 in float64 for t < -745.14
_LOGIT_WINDOW = 746.0
# and subnormal for t < -708.4; of K kept weights, those below K exp(-700) are 0.0
_WEIGHT_FLOOR = -700.0


def _check_sigma(sigma):
    # a plain `sigma <= 0` test lets NaN and inf through
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"score oracle needs finite sigma > 0, got sigma = {sigma!r}")


class _MixturePosterior:
    """Softmax posterior over the atoms of a finite mixture at one point.

    `points` and `weights` are the atoms the posterior sums over and their
    weights. When fewer than half the atoms survive the logit window their
    rows are gathered, in their order; otherwise the full array is used as it
    is and the dropped atoms carry weight 0.0. Of K kept atoms, one whose
    logit is more than 700 - log K below the largest carries weight 0.0 as
    well, so no weight is subnormal, before or after the normalization
    (module docstring).
    """

    def __init__(self, points, half_sq, sigma, x):
        self.sigma = sigma
        logits = (points @ x - half_sq) / (sigma * sigma)
        m = logits.max()
        keep = logits > m - _LOGIT_WINDOW
        kept = np.count_nonzero(keep)
        # a non-finite largest logit keeps no atom; the full array then
        # carries the NaN through to the mean
        if 0 < 2 * kept < keep.size:
            # the rows of points[keep] in their order; compress gathers a
            # few rows without boolean indexing's overhead
            points, logits = points.compress(keep, axis=0), logits.compress(keep)
        # in place: on a dense posterior these are N-long arrays
        logits -= m
        # exp and, as z <= kept, w /= z run on normal numbers only; NaN * 0.0
        # keeps a NaN logit NaN
        floor = _WEIGHT_FLOOR + np.log(max(kept, 1))
        normal = logits > floor
        np.maximum(logits, floor, out=logits)
        w = np.exp(logits, out=logits)
        w *= normal
        z = w.sum()
        w /= z
        self.points = points
        self.weights = w
        self._lse = float(m + np.log(z))
        self.mean = w @ points

    @property
    def link(self) -> float:
        return self.sigma**2 * self._lse

    def vjp(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if not v.any():
            return np.zeros_like(v)
        # (p - m).v = p.v - m.v, so no centered (N, d) copy is formed; the
        # centering term is kept, as sum w p p^T v - m m^T v loses every digit
        # on a collapsed posterior. One matrix-vector product per direction,
        # also in a stack: a matrix-matrix product would sum in another order
        # than a lone row
        v = v[..., None]
        t = self.points @ v
        t -= (self.mean @ v)[..., None, :]
        t *= self.weights[:, None]
        out = self.points.T @ t
        out -= t.sum(axis=-2, keepdims=True) * self.mean[:, None]
        return out[..., 0] / self.sigma**2


class EmpiricalScoreOracle:
    """Exact Tweedie oracle for the equal-weight measure on a finite point set:
    a dataset, a uniform sample, or the nodes of `quadrature_nodes`."""

    def __init__(self, points, sigma: float):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            raise ValueError("empirical oracle needs a nonempty dataset")
        _check_sigma(sigma)
        self.points = points
        self.sigma = float(sigma)
        self._half_sq = 0.5 * np.einsum("nd,nd->n", points, points)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def posterior(self, x) -> _MixturePosterior:
        return _MixturePosterior(self.points, self._half_sq, self.sigma, np.asarray(x, dtype=float))


def quadrature_nodes(manifold, node_count: int) -> np.ndarray:
    """Equispaced nodes on a circle, the one manifold where this rule is spectrally
    accurate: with equal weights they are the trapezoid rule for its uniform
    measure on the periodic domain."""
    if not (isinstance(manifold, Sphere) and manifold.ambient_dim == 2):
        raise ValueError("quadrature oracle supports circles only")
    if node_count < 64:
        raise ValueError("quadrature oracle needs node_count >= 64")
    ang = 2.0 * np.pi * np.arange(node_count) / node_count
    return manifold.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


class _ExactPosterior:
    """sigma = 0 limit at one point: mean pi(x), products with pi'(x)."""

    def __init__(self, manifold, x):
        self.manifold = manifold
        self.x = x
        self.mean = manifold.project(x)

    @property
    def link(self) -> float:
        return 0.5 * float(self.x @ self.x) - 0.5 * float(np.linalg.norm(self.x - self.mean)) ** 2

    def vjp(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if not v.any():
            return np.zeros_like(v)
        return self.manifold.projection_vjp(self.x, v)


class ExactManifoldAdapter:
    """sigma = 0 oracle: mean = pi(x), derivative pi'(x), link from d(x)."""

    sigma = 0.0

    def __init__(self, manifold):
        self.manifold = manifold

    @property
    def ambient_dim(self) -> int:
        return self.manifold.ambient_dim

    def posterior(self, x) -> _ExactPosterior:
        return _ExactPosterior(self.manifold, np.asarray(x, dtype=float))


class _MlpPosterior:
    """Network Tweedie mean at one point from one cached forward pass; no link.

    The layer outputs of that pass are kept, so `vjp` runs only the input
    end of backprop over its ReLU masks.
    """

    link = None

    def __init__(self, mlp, sigma, x):
        self.mlp = mlp
        self.sigma = sigma
        self._acts = mlp.forward_cached(x[None, :], sigma)
        # s(x) = x + sigma^2 * score, with score = s_tilde / sigma
        self.mean = x + sigma**2 * (self._acts[-1][0] / sigma)

    def vjp(self, v) -> np.ndarray:
        # s'(x)^T v = v + sigma * (d s_tilde/dx)^T v; the sigma column is dropped
        v = np.asarray(v, dtype=float)
        # each direction is a (1, d) row of its own, also in a stack: rows of
        # one (k, d) matrix would sum in another order than a lone row
        back = self.mlp.input_backward(self._acts, v[..., None, :])[..., 0, :-1]
        return v + self.sigma * back


class MlpScoreOracle:
    """Trained network as oracle at a fixed sigma; no link value available."""

    def __init__(self, mlp: ScoreMlp, sigma: float):
        _check_sigma(sigma)
        self.mlp = mlp
        self.sigma = float(sigma)

    @property
    def ambient_dim(self) -> int:
        return self.mlp.ambient_dim

    def posterior(self, x) -> _MlpPosterior:
        return _MlpPosterior(self.mlp, self.sigma, np.asarray(x, dtype=float))
