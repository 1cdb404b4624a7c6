"""Denoising score matching training for the scaled-score network.

Variance-exploding scheme with sigma(t) = t: draw t ~ Unif[t_min, t_max],
x = x0 + t z, and regress the scaled score on -z. With the 1/sigma output
scaling the sigma^2-weighted conditional score matching loss reduces to a
plain least-squares residual ||s_tilde(x, t) + z||^2, so targets stay O(1)
at every noise level.
"""

import numpy as np

from msopt import rng as _rng
from msopt.errors import DivergenceError
from msopt.score.mlp import ScoreMlp

_DIVERGENCE_LIMIT = 1e6


def _check_noise_range(t_min, t_max):
    """The VE noise range of training and sampling: 0 < t_min < t_max < inf.
    NaN fails every comparison, so it is rejected."""
    if not 0.0 < t_min < t_max < np.inf:
        raise ValueError(f"t_min = {t_min!r}, t_max = {t_max!r} (need 0 < t_min < t_max < inf)")


class _Adam:
    def __init__(self, shapes, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)


def _cosine_lr(step, total, lr_hi, lr_lo):
    if total <= 1:
        return lr_hi
    frac = step / (total - 1)
    return lr_lo + 0.5 * (lr_hi - lr_lo) * (1.0 + np.cos(np.pi * frac))


def dsm_train(dataset, mlp: ScoreMlp, *, epochs, batch, t_max, t_min, lr_hi, lr_lo, seed):
    """Train in place with Adam + cosine schedule; returns (mlp, loss trace)."""
    _check_noise_range(t_min, t_max)
    bad = []
    if not epochs >= 0:
        bad.append(f"epochs = {epochs!r} (need >= 0)")
    if not batch >= 1:
        bad.append(f"batch = {batch!r} (need >= 1)")
    for name, lr in (("lr_hi", lr_hi), ("lr_lo", lr_lo)):
        if not 0.0 < lr < np.inf:
            bad.append(f"{name} = {lr!r} (need finite > 0)")
    if bad:
        raise ValueError("bad training parameters: " + ", ".join(bad))
    data = np.atleast_2d(np.asarray(dataset, dtype=float))
    if data.shape[0] == 0:
        raise ValueError("dsm_train needs a nonempty dataset")
    if data.shape[1] + 1 != mlp.widths[0]:
        raise ValueError(
            f"network input width {mlp.widths[0]} does not match "
            f"ambient dim {data.shape[1]} + 1"
        )
    gen = _rng.stream(seed, "dsm_train")
    params = [arr for layer in mlp.layers for arr in layer]
    opt = _Adam([p.shape for p in params])
    trace = np.empty(epochs)

    for step in range(epochs):
        idx = gen.integers(0, data.shape[0], batch)
        x0 = data[idx]
        t = gen.uniform(t_min, t_max, batch)
        z = gen.standard_normal(x0.shape)
        x = x0 + t[:, None] * z

        acts, pres = mlp.forward_cached(x, t)
        residual = acts[-1] + z
        loss = float(np.einsum("bd,bd->", residual, residual) / batch)
        trace[step] = loss
        if not np.isfinite(loss) or loss > _DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"dsm training diverged at step {step}: loss {loss:.3e} "
                f"(lr {_cosine_lr(step, epochs, lr_hi, lr_lo):.2e}, "
                f"batch {batch})"
            )
        grads_nested = mlp.backward(acts, pres, 2.0 * residual / batch)
        grads = [arr for pair in grads_nested for arr in pair]
        opt.step(params, grads, _cosine_lr(step, epochs, lr_hi, lr_lo))

    return mlp, trace
