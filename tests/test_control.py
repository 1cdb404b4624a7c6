import math
import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

from msopt import rng as _rng
from msopt.control import (
    SystemModel,
    TrajectoryDataset,
    TrajectoryLayout,
    backtest,
    generate_dataset,
    rk4_step,
    rollout,
)
from msopt.errors import DivergenceError
from msopt.objectives import TrackingObjective, make_reference


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


def test_unicycle_dynamics_examples():
    m = SystemModel("unicycle")
    assert np.allclose(m.continuous_dynamics([0.0, 0.0, 0.0], [1.0, 0.0]), [1.0, 0.0, 0.0])
    out = m.continuous_dynamics([0.0, 0.0, np.pi / 2], [2.0, 1.0])
    assert np.abs(out - np.array([0.0, 2.0, 1.0])).max() <= 1e-12


def test_pendulum_hanging_equilibrium():
    m = SystemModel("double_pendulum")
    out = m.continuous_dynamics([0.0, 0.0, 0.0, 0.0], [0.0])
    assert np.abs(out).max() == 0.0


def test_dimension_checks():
    m = SystemModel("unicycle")
    with pytest.raises(ValueError):
        m.continuous_dynamics([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        SystemModel("rocket")


@pytest.mark.parametrize("dt", [0.0, float("nan"), float("inf")])
def test_system_model_rejects_bad_dt(dt):
    # NaN and inf pass a plain `dt <= 0` test
    with pytest.raises(ValueError, match=re.escape(f"need finite dt > 0, got dt = {dt!r}")):
        SystemModel("unicycle", dt=dt)


def test_rollout_zero_inputs_stays_at_origin():
    m = SystemModel("unicycle")
    y, xs = rollout(m, np.zeros((8, 2)))
    assert np.abs(xs).max() == 0.0
    assert y.shape == (9, 3)


def test_rollout_straight_line_exact():
    m = SystemModel("unicycle")
    k = 12
    y, xs = rollout(m, np.tile([1.0, 0.0], (k, 1)))
    assert np.abs(xs[:, 0] - np.arange(k + 1) * m.dt).max() <= 1e-12
    assert np.abs(xs[:, 1:]).max() == 0.0


def test_pendulum_energy_conservation_without_damping():
    # independent physics oracle: total mechanical energy of the two point
    # masses must be preserved by the conservative dynamics under RK4
    m = SystemModel("double_pendulum", d1=0.0, d2=0.0)

    def energy(x):
        th1, w1, th2, w2 = x
        ke = (
            0.5 * (m.m1 + m.m2) * m.l1**2 * w1**2
            + 0.5 * m.m2 * m.l2**2 * w2**2
            + m.m2 * m.l1 * m.l2 * w1 * w2 * np.cos(th1 - th2)
        )
        pe = -(m.m1 + m.m2) * m.g * m.l1 * np.cos(th1) - m.m2 * m.g * m.l2 * np.cos(th2)
        return ke + pe

    x0 = np.array([0.3, 0.0, -0.15, 0.0])
    _, xs = rollout(m, np.zeros((100, 1)), x0=x0)
    e = np.array([energy(x) for x in xs])
    assert np.abs(e - e[0]).max() / abs(e[0]) <= 1e-5


def test_pendulum_small_angle_linearization():
    # analytic two-mode solution of the linearized system as oracle
    m = SystemModel("double_pendulum")
    M0 = np.array(
        [
            [(m.m1 + m.m2) * m.l1**2, m.m2 * m.l1 * m.l2],
            [m.m2 * m.l1 * m.l2, m.m2 * m.l2**2],
        ]
    )
    Gp = np.diag([(m.m1 + m.m2) * m.g * m.l1, m.m2 * m.g * m.l2])
    D = np.diag([m.d1, m.d2])
    Minv = np.linalg.inv(M0)
    A = np.zeros((4, 4))
    A[0, 1] = A[2, 3] = 1.0
    A[np.ix_([1, 3], [0, 2])] = -Minv @ Gp
    A[np.ix_([1, 3], [1, 3])] = -Minv @ D
    x0 = np.array([0.1, 0.0, -0.08, 0.0])
    _, xs = rollout(m, np.zeros((10, 1)), x0=x0)
    worst = max(
        abs(xs[k][0] - (expm(A * m.dt * k) @ x0)[0]) for k in range(11)
    )
    assert worst <= 1e-3


def test_generated_trajectories_resimulate_exactly():
    for kind in ("unicycle", "double_pendulum"):
        m = SystemModel(kind)
        ds = generate_dataset(m, count=20, horizon=15, seed=3)
        for row in ds.data:
            u, y_row = ds.layout.split(row)
            y, _ = rollout(m, u)
            assert np.abs(y - y_row).max() <= 1e-10


def test_generation_deterministic():
    m = SystemModel("unicycle")
    a = generate_dataset(m, count=5, horizon=10, seed=9)
    b = generate_dataset(m, count=5, horizon=10, seed=9)
    assert np.array_equal(a.data, b.data)


def _scalar_dynamics(m):
    """dx/dt on one 1-D state, entry by entry: the reference for the batched
    `SystemModel.continuous_dynamics`."""
    def unicycle(x, u):
        v, w = u
        return np.array([v * np.cos(x[2]), v * np.sin(x[2]), w])

    def pendulum(x, u):
        th1, w1, th2, w2 = x
        delta = th2 - th1
        m_off = m.m2 * m.l1 * m.l2 * np.cos(delta)
        M = np.array([[(m.m1 + m.m2) * m.l1**2, m_off], [m_off, m.m2 * m.l2**2]])
        s = m.m2 * m.l1 * m.l2 * np.sin(delta)
        C = np.array([-s * w2**2, s * w1**2])
        G = np.array([(m.m1 + m.m2) * m.g * m.l1 * np.sin(th1),
                      m.m2 * m.g * m.l2 * np.sin(th2)])
        damping = np.array([m.d1 * w1, m.d2 * w2])
        acc = np.linalg.solve(M, np.array([u[0], 0.0]) - C - G - damping)
        return np.array([w1, acc[0], w2, acc[1]])

    return unicycle if m.kind == "unicycle" else pendulum


def _reference_rollout(m, u_seq, x0=None):
    """One trajectory, one rk4_step per input on a 1-D state: (outputs, states)."""
    x = np.zeros(m.state_dim) if x0 is None else np.array(x0, dtype=float)
    f = _scalar_dynamics(m)
    states = [x]
    for u in u_seq:
        x = rk4_step(f, x, u, m.dt)
        states.append(x)
    states = np.array(states)
    outputs = states.copy() if m.kind == "unicycle" else states[:, [0, 2]]
    return outputs, states


def _reference_dataset(m, count, horizon, seed):
    layout = TrajectoryLayout(horizon, m.input_dim, m.output_dim)
    rows = []
    for i in range(count):
        u = m.sample_inputs(horizon, _rng.substream(seed, "trajectory", i))
        rows.append(layout.join(u, _reference_rollout(m, u)[0]))
    return np.array(rows)


@pytest.mark.parametrize("kind", ["unicycle", "double_pendulum"])
@pytest.mark.parametrize("count, horizon, seed", [
    (200, 20, 0), (200, 20, 1), (50, 30, 6), (50, 7, 12345), (1, 20, 3), (40, 1, 4), (1, 1, 5),
])
def test_batched_dataset_equals_scalar_reference_bitwise(kind, count, horizon, seed):
    m = SystemModel(kind)
    ds = generate_dataset(m, count=count, horizon=horizon, seed=seed)
    assert np.array_equal(ds.data, _reference_dataset(m, count, horizon, seed))


@pytest.mark.parametrize("kind", ["unicycle", "double_pendulum"])
def test_single_rollout_equals_scalar_reference_bitwise(kind):
    m = SystemModel(kind)
    u = m.sample_inputs(25, _rng.substream(21, "trajectory", 0))
    x0 = np.random.default_rng(22).uniform(-1.0, 1.0, m.state_dim)
    for start in (None, x0):
        y, xs = rollout(m, u, x0=start)
        y_ref, xs_ref = _reference_rollout(m, u, start)
        assert y.shape == (26, m.output_dim) and xs.shape == (26, m.state_dim)
        assert np.array_equal(y, y_ref) and np.array_equal(xs, xs_ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["unicycle", "double_pendulum"])
def test_batched_divergence_names_first_trajectory(monkeypatch, kind):
    # trajectory 3 gets an infinite input at index 4, so its state leaves the
    # finite range at step 5 while every other trajectory stays finite
    original = SystemModel.sample_inputs
    drawn = []

    def poisoned(self, horizon, gen):
        u = original(self, horizon, gen)
        if len(drawn) == 3:
            u[4] = np.inf
        drawn.append(u)
        return u

    monkeypatch.setattr(SystemModel, "sample_inputs", poisoned)
    with pytest.raises(DivergenceError,
                       match=r"^rollout produced non-finite state in trajectory 3 at step 5$"):
        generate_dataset(SystemModel(kind), count=8, horizon=10, seed=0)
    assert len(drawn) == 8
    # a single sequence names the step alone, as a lone rollout always has
    with pytest.raises(DivergenceError, match=r"^rollout produced non-finite state at step 5$"):
        rollout(SystemModel(kind), drawn[3])


def test_pendulum_inputs_uniform():
    m = SystemModel("double_pendulum")
    draws = np.concatenate(
        [m.sample_inputs(1000, _rng.substream(7, "trajectory", i)).ravel() for i in range(100)]
    )
    stat = kstest(draws, "uniform", args=(-5.0, 10.0)).statistic
    assert stat <= 0.02


def test_unicycle_input_moments():
    m = SystemModel("unicycle")
    draws = np.vstack(
        [m.sample_inputs(1000, _rng.substream(8, "trajectory", i)) for i in range(100)]
    )
    assert abs(draws[:, 1].var() - 25.0) <= 0.05 * 25.0
    assert 0.0 <= draws[:, 0].min() and draws[:, 0].max() <= 1.0


def test_backtest_gap():
    m = SystemModel("unicycle")
    ds = generate_dataset(m, count=3, horizon=8, seed=5)
    u, y = ds.layout.split(ds.data[1])
    y_true, gap = backtest(m, u, y)
    assert gap <= 1e-10
    perturbed = y.copy()
    perturbed[3, 1] += 0.1
    _, gap2 = backtest(m, u, perturbed)
    assert gap2 == pytest.approx(0.1, abs=1e-12)


def test_dataset_roundtrip(tmp_path):
    ds = generate_dataset(SystemModel("double_pendulum"), count=4, horizon=6, seed=11)
    ds.save(tmp_path / "ds")
    loaded = TrajectoryDataset.load(tmp_path / "ds")
    assert np.array_equal(loaded.data, ds.data)
    assert np.array_equal(loaded.norm_shift, ds.norm_shift)
    assert np.array_equal(loaded.norm_scale, ds.norm_scale)
    assert loaded.system.kind == "double_pendulum"
    assert loaded.horizon == 6


def test_dataset_load_rejects_inconsistent_files(tmp_path):
    ds = generate_dataset(SystemModel("unicycle"), count=4, horizon=6, seed=11)
    ds.save(tmp_path / "ds")
    data = tmp_path / "ds" / "data.csv"
    rows = data.read_text().splitlines()
    # unicycle: 2 inputs, 3 outputs; 6*2 + 7*3 = 33 columns
    cases = (
        (rows[:3], "3 rows, but meta.txt declares count = 4"),
        ([r.rsplit(",", 1)[0] for r in rows],
         r"32 columns, but horizon 6 of unicycle needs 6\*2 \+ 7\*3 = 33"),
    )
    for content, message in cases:
        data.write_text("\n".join(content) + "\n")
        with pytest.raises(ValueError, match=message):
            TrajectoryDataset.load(tmp_path / "ds")


def test_dataset_load_rejects_inconsistent_meta(tmp_path):
    ds = generate_dataset(SystemModel("unicycle"), count=4, horizon=6, seed=11)
    ds.save(tmp_path / "ds")
    meta = tmp_path / "ds" / "meta.txt"
    lines = meta.read_text().splitlines()
    cases = (
        ([l for l in lines if not l.startswith("seed")], "missing key\\(s\\) seed"),
        ([("norm_shift = 1,2" if l.startswith("norm_shift") else l) for l in lines],
         "norm_shift has 2 entries, but the rows of .*data.csv have 33"),
        ([l.rsplit(",", 1)[0] if l.startswith("norm_scale") else l for l in lines],
         "norm_scale has 32 entries"),
    )
    for content, message in cases:
        meta.write_text("\n".join(content) + "\n")
        with pytest.raises(ValueError, match=f"{meta}: {message}"):
            TrajectoryDataset.load(tmp_path / "ds")


def test_normalization_roundtrip():
    ds = generate_dataset(SystemModel("unicycle"), count=10, horizon=5, seed=13)
    flat = ds.data
    z = ds.normalize(flat)
    assert np.abs(z.mean(axis=0)).max() <= 1e-12
    assert np.allclose(ds.denormalize(z), flat, atol=1e-12)


def test_flattened_dim_matches_tracking_layout():
    m = SystemModel("unicycle")
    horizon = 7
    ds = generate_dataset(m, count=2, horizon=horizon, seed=15)
    ref = make_reference("arc", horizon, m.dt, m.output_dim, amplitude=1.0)
    obj = TrackingObjective(ref, np.diag([10.0, 10.0, 0.0]), 0.01 * np.eye(2), horizon)
    assert ds.layout == obj.layout
    assert ds.data.shape == (2, obj.layout.dim)
    u, y = obj.layout.split(ds.data[0])
    assert np.array_equal(y, rollout(m, u)[0])


def test_trajectory_layout_split_and_join():
    layout = TrajectoryLayout(horizon=4, input_dim=2, output_dim=3)
    assert layout.dim == 4 * 2 + 5 * 3
    z = np.random.default_rng(17).standard_normal(layout.dim)
    u, y = layout.split(z)
    assert u.shape == (4, 2) and y.shape == (5, 3)
    assert np.shares_memory(u, z) and np.shares_memory(y, z)
    assert np.array_equal(u[1], z[2:4]) and np.array_equal(y[0], z[8:11])
    assert np.array_equal(layout.join(*layout.split(z)), z)
    for bad in (z[:-1], np.append(z, 0.0), z.reshape(1, -1)):
        with pytest.raises(ValueError, match=re.escape("does not match layout 4*2 + 5*3 = 23")):
            layout.split(bad)
