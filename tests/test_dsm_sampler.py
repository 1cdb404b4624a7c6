import re

import numpy as np
import pytest

from msopt.errors import DivergenceError
from msopt.score.dsm import dsm_train
from msopt.score.mlp import make_score_mlp
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
    with pytest.raises(DivergenceError, match="step"):
        dsm_train(data, mlp, epochs=2000, batch=32, t_max=3.0, t_min=1e-4, lr_hi=1e4, lr_lo=1e4,
                  seed=8)


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
