"""Denoising score matching training for the scaled-score network.

Variance-exploding scheme with sigma(t) = t: draw t ~ Unif[t_min, t_max],
x = x0 + t z, and regress the scaled score on -z. With the 1/sigma output
scaling the sigma^2-weighted conditional score matching loss reduces to a
plain least-squares residual ||s_tilde(x, t) + z||^2, so targets stay O(1)
at every noise level.
"""

import copy

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


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _adam_step(params, grads, m, v, scratch, step, lr):
    """One Adam step (step counts from 1) on flat float32 buffers, in place.

    The arithmetic is that of the per-array update
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p -= lr (m / c1) / (sqrt(v / c2) + eps), with c = 1 - b^step, in the same
    order; `scratch` is two buffers of the same size for its temporaries.
    """
    tmp, upd = scratch
    m *= _BETA1
    np.multiply(grads, 1.0 - _BETA1, out=tmp)
    m += tmp
    v *= _BETA2
    np.multiply(grads, 1.0 - _BETA2, out=tmp)
    tmp *= grads
    v += tmp
    np.divide(v, 1.0 - _BETA2**step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += _EPS
    np.divide(m, 1.0 - _BETA1**step, out=upd)
    upd *= lr
    upd /= tmp
    params -= upd


def _cosine_lr(step, total, lr_hi, lr_lo):
    if total <= 1:
        return lr_hi
    frac = step / (total - 1)
    return lr_lo + 0.5 * (lr_hi - lr_lo) * (1.0 + np.cos(np.pi * frac))


def dsm_train(dataset, mlp: ScoreMlp, *, epochs, batch, t_max, t_min, lr_hi, lr_lo, seed):
    """Train in place with Adam + cosine schedule; returns (mlp, loss trace).

    The arithmetic of every step is float32: training runs on a float32
    copy of the layers, and the float64 cast of the trained weights is
    written back into `mlp.layers`, in place, at the end. The batch rows,
    the times t and the noise z are drawn in float64 and cast once. A
    divergence raises DivergenceError and leaves `mlp` untrained.
    """
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
    trace = np.empty(epochs)
    if epochs == 0:
        return mlp, trace
    gen = _rng.stream(seed, "dsm_train")
    # float32 working copy: the weights, the gradients and the two Adam
    # moments are one flat buffer each, the working layers views of the first
    arrays = [arr for layer in mlp.layers for arr in layer]
    params = np.concatenate([arr.ravel() for arr in arrays]).astype(np.float32)
    views = np.split(params, np.cumsum([arr.size for arr in arrays])[:-1])
    views = [view.reshape(arr.shape) for view, arr in zip(views, arrays)]
    work = copy.copy(mlp)
    work.layers = list(zip(views[0::2], views[1::2]))
    grads, m, v = (np.zeros_like(params) for _ in range(3))
    scratch = (np.empty_like(params), np.empty_like(params))

    for step in range(epochs):
        # the draws stay float64, in the same order, each cast once
        idx = gen.integers(0, data.shape[0], batch)
        x0 = data[idx]
        t = gen.uniform(t_min, t_max, batch)
        z = gen.standard_normal(x0.shape)
        x = x0 + t[:, None] * z

        acts, pres = work.forward_cached(x, t)
        residual = acts[-1] + z.astype(np.float32)
        loss = float(np.einsum("bd,bd->", residual, residual) / batch)
        trace[step] = loss
        if not np.isfinite(loss) or loss > _DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"dsm training diverged at step {step}: loss {loss:.3e} "
                f"(lr {_cosine_lr(step, epochs, lr_hi, lr_lo):.2e}, "
                f"batch {batch})"
            )
        layer_grads = work.backward(acts, pres, 2.0 * residual / batch)
        np.concatenate([arr.ravel() for pair in layer_grads for arr in pair], out=grads)
        _adam_step(params, grads, m, v, scratch, step + 1,
                   float(_cosine_lr(step, epochs, lr_hi, lr_lo)))

    for arr, view in zip(arrays, views):
        arr[...] = view
    return mlp, trace
