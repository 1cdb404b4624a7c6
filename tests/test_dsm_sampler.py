import re

import numpy as np
import pytest

from msopt import rng as _rng
from msopt.errors import DivergenceError
from msopt.score.dsm import _adam_step, dsm_train
from msopt.score.mlp import load_score_mlp, make_score_mlp
from msopt.score.sampler import ve_reverse_sample


# the schema's noise range and learning-rate schedule
_SCHEDULE = dict(t_max=3.0, t_min=1e-4, lr_hi=1e-3, lr_lo=5e-5)


def _weights_copy(mlp):
    return [(w.copy(), b.copy()) for w, b in mlp.layers]


def test_zero_epochs_leaves_network_unchanged():
    mlp = make_score_mlp(2, hidden=(8,), seed=1)
    before = _weights_copy(mlp)
    out, trace = dsm_train(np.zeros((1, 2)), mlp, epochs=0, batch=128, seed=2, **_SCHEDULE)
    assert trace.size == 0
    for (w0, b0), (w1, b1) in zip(before, out.layers):
        assert np.array_equal(w0, w1)
        assert np.array_equal(b0, b1)


def test_training_is_deterministic_per_seed():
    data = np.array([[-1.0], [1.0]])
    runs = []
    for _ in range(2):
        mlp = make_score_mlp(1, hidden=(16, 16), seed=3)
        _, trace = dsm_train(data, mlp, epochs=50, batch=32, seed=4, **_SCHEDULE)
        runs.append((trace, _weights_copy(mlp)))
    assert np.array_equal(runs[0][0], runs[1][0])
    for (w0, b0), (w1, b1) in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(w0, w1)


def test_loss_decreases_on_two_atom_problem():
    # the conditional score-matching loss has an irreducible variance floor,
    # so assert a clear drop of the 100-epoch moving average, not a halving
    data = np.array([[-1.0], [1.0]])
    mlp = make_score_mlp(1, hidden=(32, 32), seed=5)
    _, trace = dsm_train(data, mlp, epochs=800, batch=128, seed=6, **_SCHEDULE)
    assert trace[-100:].mean() < 0.85 * trace[:100].mean()


def test_divergence_aborts_with_diagnostics():
    data = np.array([[0.0, 0.0]])
    mlp = make_score_mlp(2, hidden=(16,), seed=7)
    before = _weights_copy(mlp)
    with pytest.raises(DivergenceError, match="step"):
        dsm_train(data, mlp, epochs=2000, batch=32, t_max=3.0, t_min=1e-4, lr_hi=1e4, lr_lo=1e4,
                  seed=8)
    # training ran on a float32 copy: the caller's network is left untrained
    for (w0, b0), (w1, b1) in zip(before, mlp.layers):
        assert np.array_equal(w0, w1) and np.array_equal(b0, b1)


class _ReferenceAdam:
    """Per-array Adam, the formulas of the flat update written out."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
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


def test_flat_adam_matches_per_array_float32_adam_bitwise():
    rng = np.random.default_rng(21)
    shapes = [(7, 3), (7,), (2, 7), (2,)]
    params = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    flat = np.concatenate([p.ravel() for p in params])
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    scratch = (np.empty_like(flat), np.empty_like(flat))
    ref = _ReferenceAdam(params)
    for step in range(1, 21):
        grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        lr = float(rng.uniform(1e-4, 1e-2))
        ref.step(params, grads, lr)
        _adam_step(flat, np.concatenate([g.ravel() for g in grads]), m, v, scratch, step, lr)
        assert flat.dtype == np.float32
        assert np.array_equal(flat, np.concatenate([p.ravel() for p in params]))
    assert np.array_equal(m, np.concatenate([a.ravel() for a in ref.m]))
    assert np.array_equal(v, np.concatenate([a.ravel() for a in ref.v]))


def test_trained_network_stays_float64(tmp_path):
    mlp = make_score_mlp(2, hidden=(16, 16), seed=9)
    arrays = [arr for layer in mlp.layers for arr in layer]
    dsm_train(np.array([[1.0, 0.0], [0.0, 1.0]]), mlp, epochs=20, batch=16, seed=10, **_SCHEDULE)
    # written back in place into the caller's arrays, as float64 casts of
    # the float32 weights
    assert all(a is b for a, b in zip(arrays, (arr for layer in mlp.layers for arr in layer)))
    for arr in arrays:
        assert arr.dtype == np.float64
        assert np.array_equal(arr, arr.astype(np.float32).astype(np.float64))
    assert mlp.layers[-1][0].any()
    path = tmp_path / "model.msopt"
    mlp.save(path)
    # magic, layer count, a shape per layer, then 8 bytes per value
    assert path.stat().st_size == 6 + 4 + 8 * len(mlp.layers) + 8 * sum(a.size for a in arrays)
    loaded = load_score_mlp(path)
    for a, b in zip(arrays, (arr for layer in loaded.layers for arr in layer)):
        assert b.dtype == np.dtype("<f8") and np.array_equal(a, b)


def test_loss_trace_matches_float32_reference_loop_bitwise():
    # the draws are those of the float64 trainer, from the same stream in
    # the same order; only the network arithmetic is float32
    data = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    epochs, batch, seed = 3, 32, 12
    mlp = make_score_mlp(2, hidden=(16, 16), seed=11)
    layers = [(w.astype(np.float32), b.astype(np.float32)) for w, b in mlp.layers]
    _, trace = dsm_train(data, mlp, epochs=epochs, batch=batch, seed=seed, **_SCHEDULE)

    params = [arr for layer in layers for arr in layer]
    adam = _ReferenceAdam(params)
    gen = _rng.stream(seed, "dsm_train")
    lr_hi, lr_lo = _SCHEDULE["lr_hi"], _SCHEDULE["lr_lo"]
    for step in range(epochs):
        x0 = data[gen.integers(0, data.shape[0], batch)]
        t = gen.uniform(_SCHEDULE["t_min"], _SCHEDULE["t_max"], batch)
        z = gen.standard_normal(x0.shape)
        acts = [np.column_stack([x0 + t[:, None] * z, t]).astype(np.float32)]
        pres = []
        for i, (w, b) in enumerate(layers):
            pres.append(acts[-1] @ w.T + b)
            acts.append(np.maximum(pres[-1], 0.0) if i < len(layers) - 1 else pres[-1])
        residual = acts[-1] + z.astype(np.float32)
        assert trace[step] == float(np.einsum("bd,bd->", residual, residual) / batch)
        delta = 2.0 * residual / batch
        grads = []
        for i in range(len(layers) - 1, -1, -1):
            grads[:0] = [delta.T @ acts[i], delta.sum(axis=0)]
            if i > 0:
                delta = (delta @ layers[i][0]) * (pres[i - 1] > 0.0)
        lr = lr_lo + 0.5 * (lr_hi - lr_lo) * (1.0 + np.cos(np.pi * step / (epochs - 1)))
        adam.step(params, grads, float(lr))
    for (w, b), (w32, b32) in zip(mlp.layers, layers):
        assert np.array_equal(w, w32) and np.array_equal(b, b32)


def test_config_validation():
    mlp = make_score_mlp(2, hidden=(4,), seed=0)
    params = dict(epochs=10, batch=128, seed=0, **_SCHEDULE)
    with pytest.raises(ValueError):
        dsm_train(np.zeros((1, 2)), mlp, **{**params, "t_min": 0.0})
    with pytest.raises(ValueError):
        dsm_train(np.zeros((1, 2)), mlp, **{**params, "t_min": 2.0, "t_max": 1.0})
    with pytest.raises(ValueError):
        dsm_train(np.zeros((1, 3)), mlp, **{**params, "epochs": 1})


NAN = float("nan")


@pytest.mark.parametrize("bad, message", [
    ({"t_max": NAN}, "t_min = 0.0001, t_max = nan (need 0 < t_min < t_max < inf)"),
    ({"t_max": 1e-5}, "t_min = 0.0001, t_max = 1e-05 (need 0 < t_min < t_max < inf)"),
    ({"t_max": float("inf")}, "t_min = 0.0001, t_max = inf (need 0 < t_min < t_max < inf)"),
    ({"t_min": NAN}, "t_min = nan, t_max = 3.0 (need 0 < t_min < t_max < inf)"),
])
def test_noise_range_checked_by_trainer_and_sampler(bad, message):
    # a NaN or reversed range made an all-NaN sample and NaN weights
    mlp = make_score_mlp(2, hidden=(4,), seed=0)
    before = _weights_copy(mlp)
    noise = {"t_max": 3.0, "t_min": 1e-4, **bad}
    with pytest.raises(ValueError, match=re.escape(message)):
        dsm_train(np.zeros((1, 2)), mlp, epochs=1, batch=8, seed=0,
                  **{**_SCHEDULE, **noise})
    with pytest.raises(ValueError, match=re.escape(message)):
        ve_reverse_sample(mlp, count=4, steps=3, seed=0, **noise)
    for (w0, b0), (w1, b1) in zip(before, mlp.layers):
        assert np.array_equal(w0, w1) and np.array_equal(b0, b1)


@pytest.mark.parametrize("bad, message", [
    ({"lr_hi": NAN}, "lr_hi = nan (need finite > 0)"),
    ({"lr_lo": float("inf")}, "lr_lo = inf (need finite > 0)"),
    ({"lr_hi": 0.0}, "lr_hi = 0.0 (need finite > 0)"),
    ({"lr_lo": -1e-5}, "lr_lo = -1e-05 (need finite > 0)"),
    ({"epochs": -1}, "epochs = -1 (need >= 0)"),
    ({"batch": 0}, "batch = 0 (need >= 1)"),
])
def test_training_parameters_checked(bad, message):
    # a NaN learning rate saved a network of NaN weights and exited 0
    mlp = make_score_mlp(2, hidden=(4,), seed=0)
    params = dict(epochs=1, batch=8, seed=0, **_SCHEDULE)
    with pytest.raises(ValueError, match=re.escape(message)):
        dsm_train(np.zeros((1, 2)), mlp, **{**params, **bad})


def test_sampler_zero_steps_returns_gaussian_init():
    mlp = make_score_mlp(2, hidden=(4,), seed=1)
    out = ve_reverse_sample(mlp, count=2000, steps=0, seed=3, t_max=3.0, t_min=1e-4)
    assert out.shape == (2000, 2)
    assert abs(out.std() - 3.0) <= 0.1
    again = ve_reverse_sample(mlp, count=2000, steps=0, seed=3, t_max=3.0, t_min=1e-4)
    assert np.array_equal(out, again)
    # the float64 Gaussian start, bitwise
    start = 3.0 * _rng.stream(3, "ve_reverse").standard_normal((2000, 2))
    assert out.dtype == np.float64 and np.array_equal(out, start)


def test_sampler_deterministic_per_seed():
    mlp = make_score_mlp(1, hidden=(8,), seed=2)
    noise = dict(t_max=3.0, t_min=1e-4)
    a = ve_reverse_sample(mlp, count=50, steps=40, seed=11, **noise)
    b = ve_reverse_sample(mlp, count=50, steps=40, seed=11, **noise)
    c = ve_reverse_sample(mlp, count=50, steps=40, seed=12, **noise)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_recovers_circle_radius():
    # sampler sanity oracle: after training on circle data, sample norms
    # should concentrate near the radius
    from msopt.manifolds import Circle

    data = Circle().sample_uniform(256, seed=13)
    mlp = make_score_mlp(2, hidden=(128, 128, 128), seed=14)
    dsm_train(data, mlp, epochs=5000, batch=256, seed=15, **_SCHEDULE)
    samples = ve_reverse_sample(mlp, count=500, steps=500, seed=16, t_max=3.0, t_min=1e-4)
    norms = np.linalg.norm(samples, axis=1)
    assert abs(norms.mean() - 1.0) <= 0.1


@pytest.fixture(scope="module")
def bench_circle_mlp():
    """A network trained as in the benchmark's circle_dsm workload."""
    from msopt.manifolds import Circle

    data = Circle().sample_uniform(512, seed=17)
    mlp = make_score_mlp(2, hidden=(128, 128, 128), seed=18)
    dsm_train(data, mlp, epochs=600, batch=256, seed=19, t_max=3.0, t_min=1e-4, lr_hi=5e-3,
              lr_lo=1e-4)
    return mlp


def _reference_reverse_sample(mlp, dtype, *, count, steps, seed, t_max, t_min):
    """The reverse-SDE loop with the allocating network formula in `dtype`
    and everything else in float64."""
    layers = [(w.astype(dtype), b.astype(dtype)) for w, b in mlp.layers]
    gen = _rng.stream(seed, "ve_reverse")
    x = t_max * gen.standard_normal((count, mlp.ambient_dim))
    dt = (t_max - t_min) / steps
    for i in range(steps):
        sigma = t_max - i * dt
        h = np.column_stack([x, np.full(count, sigma)]).astype(dtype)
        for j, (w, b) in enumerate(layers):
            h = h @ w.T + b
            if j < len(layers) - 1:
                h = np.maximum(h, 0.0)
        noise = gen.standard_normal(x.shape)
        score = h.astype(np.float64) / sigma
        x = x + dt * 2.0 * sigma * score + np.sqrt(2.0 * sigma * dt) * noise
    return x


def test_sampler_float32_forward_leaves_network_float64(bench_circle_mlp):
    mlp = bench_circle_mlp
    before = _weights_copy(mlp)
    out = ve_reverse_sample(mlp, count=50, steps=20, seed=20, t_max=3.0, t_min=1e-4)
    assert out.dtype == np.float64
    for (w0, b0), (w1, b1) in zip(before, mlp.layers):
        assert w1.dtype == np.float64 and b1.dtype == np.float64
        assert np.array_equal(w0, w1) and np.array_equal(b0, b1)


def test_sampler_agrees_with_float64_forward(bench_circle_mlp):
    # the float32 forward moved no sample coordinate by more than 1e-6 on the
    # benchmark's workload seeds 0-9; the bound leaves a factor of 10
    args = dict(count=1000, steps=100, seed=21, t_max=3.0, t_min=1e-4)
    ref = _reference_reverse_sample(bench_circle_mlp, np.float64, **args)
    out = ve_reverse_sample(bench_circle_mlp, **args)
    assert np.max(np.abs(out - ref)) <= 1e-5


def test_sampler_matches_float32_reference_loop_bitwise(bench_circle_mlp):
    # the sampler's one network forward is the in-place form of the
    # allocating float32 formula, so every sample is bitwise the same
    args = dict(count=500, steps=100, seed=22, t_max=3.0, t_min=1e-4)
    ref = _reference_reverse_sample(bench_circle_mlp, np.float32, **args)
    out = ve_reverse_sample(bench_circle_mlp, **args)
    assert np.array_equal(out, ref)
    # the samples moved off the Gaussian start: the check is not of a no-op
    start = 3.0 * _rng.stream(22, "ve_reverse").standard_normal((500, 2))
    assert np.abs(out - start).max() > 1.0
