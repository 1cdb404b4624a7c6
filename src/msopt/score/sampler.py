"""Euler-Maruyama sampler for the reverse variance-exploding SDE.

Forward noising dX = sqrt(2 t) dW has marginal p_sigma with sigma(t) = t;
its time reversal

    dXbar = 2 (T - t) grad log p_{sigma(T-t)}(Xbar) dt + sqrt(2 (T - t)) dW

started from Xbar ~ N(0, T^2 I) transports Gaussians back to the data, and
is integrated here on a uniform grid over [0, T - t_min].

Only the network forward is float32: each step runs the network's one
forward pass, `ScoreMlp.forward_cached`, on a float32 copy of the layers,
cast once per call, and casts its last output, the scaled score, to float64
once. The state, the Gaussian start, the noise draws, the drift scaling and
the Euler-Maruyama update stay float64. A network trained by `dsm_train`
holds float64 casts of float32 weights, so for it the cast is exact.
"""

import copy

import numpy as np

from msopt import rng as _rng
from msopt.score.dsm import _check_noise_range
from msopt.score.mlp import ScoreMlp


def ve_reverse_sample(mlp: ScoreMlp, *, count, steps, seed, t_max, t_min) -> np.ndarray:
    """Draw `count` approximate data samples; rows are ambient points
    (float64). `mlp` is left untouched."""
    _check_noise_range(t_min, t_max)
    if count < 1:
        raise ValueError(f"count = {count!r} (need >= 1)")
    if steps < 0:
        raise ValueError(f"steps = {steps!r} (need >= 0)")
    d = mlp.ambient_dim
    gen = _rng.stream(seed, "ve_reverse")
    x = t_max * gen.standard_normal((count, d))
    if steps == 0:
        return x
    work = copy.copy(mlp)
    work.layers = [(w.astype(np.float32), b.astype(np.float32)) for w, b in mlp.layers]
    dt = (t_max - t_min) / steps
    for i in range(steps):
        t = i * dt
        sigma = t_max - t
        score = work.forward_cached(x, sigma)[-1].astype(np.float64) / sigma
        noise = gen.standard_normal((count, d))
        x = x + dt * 2.0 * sigma * score + np.sqrt(2.0 * sigma * dt) * noise
    return x
