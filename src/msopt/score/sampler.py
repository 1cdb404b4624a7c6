"""Euler-Maruyama sampler for the reverse variance-exploding SDE.

Forward noising dX = sqrt(2 t) dW has marginal p_sigma with sigma(t) = t;
its time reversal

    dXbar = 2 (T - t) grad log p_{sigma(T-t)}(Xbar) dt + sqrt(2 (T - t)) dW

started from Xbar ~ N(0, T^2 I) transports Gaussians back to the data, and
is integrated here on a uniform grid over [0, T - t_min].
"""

import numpy as np

from msopt import rng as _rng
from msopt.score.dsm import _check_noise_range
from msopt.score.mlp import ScoreMlp


def ve_reverse_sample(mlp: ScoreMlp, *, count, steps, seed, t_max, t_min) -> np.ndarray:
    """Draw `count` approximate data samples; rows are ambient points."""
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
    dt = (t_max - t_min) / steps
    for i in range(steps):
        t = i * dt
        sigma = t_max - t
        score = mlp.forward_raw(x, sigma) / sigma
        noise = gen.standard_normal((count, d))
        x = x + dt * 2.0 * sigma * score + np.sqrt(2.0 * sigma * dt) * noise
    return x
