import math

import numpy as np
import pytest

from msopt.control import rk4_step
from msopt.optim import scaled_norm


def test_scaled_norm_without_under_or_overflow():
    v = np.random.default_rng(3).standard_normal(103)
    for scale in (1.0, 1e-180, 1e180):
        assert scaled_norm(scale * v) == pytest.approx(scale * np.linalg.norm(v), rel=1e-15)
    assert scaled_norm(np.zeros(3)) == 0.0
    assert np.isnan(scaled_norm(np.array([np.nan, 1.0])))


def test_rk4_trivial_and_constant_input():
    assert np.allclose(rk4_step(lambda x, u: 0.0 * x, np.array([4.0]), None, 0.3), [4.0])
    # exact for a constant derivative
    out = rk4_step(lambda x, u: np.array([u]), np.array([0.0]), 2.0, 0.5)
    assert np.allclose(out, [1.0])


def test_rk4_linear_matches_degree4_taylor():
    for lam in (-2.0, 0.0, 3.0):
        for dt in (0.1, 0.05):
            out = rk4_step(lambda x, u: lam * x, np.array([1.0]), None, dt)
            taylor = sum((lam * dt) ** k / math.factorial(k) for k in range(5))
            assert math.isclose(out[0], taylor, rel_tol=0, abs_tol=1e-15)


def test_rk4_decay_example():
    out = rk4_step(lambda x, u: -x, np.array([1.0]), None, 0.1)
    assert math.isclose(out[0], 0.9048375, rel_tol=0, abs_tol=1e-10)


def test_rk4_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        rk4_step(lambda x, u: x, np.array([1.0]), None, 0.0)
    # NaN and inf pass a plain `dt <= 0` test
    for dt in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match=f"rk4_step requires finite dt > 0, got dt = {dt!r}"):
            rk4_step(lambda x, u: x, np.array([1.0]), None, dt)
