"""Data-driven control stack: simulators, trajectory datasets, back-testing.

Discrete-time systems are RK4 discretizations of the continuous dynamics,
and every rollout starts at rest.
Datasets of input-output pairs sampled under persistently exciting inputs
form the training measure on the system-behavior manifold; each is one flat
row in the order of `TrajectoryLayout`, which the tracking objective shares.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from msopt import rng as _rng
from msopt.errors import DivergenceError, MsoptError
from msopt.textio import read_csv, read_key_values, write_csv, write_key_values


def rk4_step(f, x: np.ndarray, u, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of dx/dt = f(x, u) with frozen input."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"rk4_step requires finite dt > 0, got dt = {dt!r}")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(x, u))
    k2 = np.asarray(f(x + 0.5 * dt * k1, u))
    k3 = np.asarray(f(x + 0.5 * dt * k2, u))
    k4 = np.asarray(f(x + dt * k3, u))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


SYSTEM_KINDS = ("unicycle", "double_pendulum")


@dataclass(frozen=True)
class SystemModel:
    """Unicycle car or torque-driven double pendulum; the pendulum's masses,
    lengths, gravity and joint damping are fixed class constants."""

    kind: str
    dt: float = None
    # pendulum constants; unused by the unicycle
    m1 = 1.0
    l1 = 1.0
    g = 1.0
    m2 = 0.5
    l2 = 0.5
    d1 = 0.1
    d2 = 0.1

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind: {self.kind!r}")
        if self.dt is None:
            object.__setattr__(self, "dt", 0.05 if self.kind == "unicycle" else 0.1)
        # a plain `dt <= 0` test lets NaN and inf through
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"need finite dt > 0, got dt = {self.dt!r}")

    @property
    def state_dim(self) -> int:
        return 3 if self.kind == "unicycle" else 4

    @property
    def input_dim(self) -> int:
        return 2 if self.kind == "unicycle" else 1

    @property
    def output_dim(self) -> int:
        return 3 if self.kind == "unicycle" else 2

    def continuous_dynamics(self, x, u) -> np.ndarray:
        """dx/dt for states x (..., state_dim) under inputs u (..., input_dim)."""
        x = np.asarray(x, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if x.shape[-1] != self.state_dim or u.shape[-1] != self.input_dim:
            raise ValueError(
                f"dimension mismatch: state {x.shape[-1]}/{self.state_dim}, "
                f"input {u.shape[-1]}/{self.input_dim}"
            )
        if self.kind == "unicycle":
            v, w = u[..., 0], u[..., 1]
            return np.stack([v * np.cos(x[..., 2]), v * np.sin(x[..., 2]), w], axis=-1)
        th1, w1, th2, w2 = np.moveaxis(x, -1, 0)
        delta = th2 - th1
        m_off = self.m2 * self.l1 * self.l2 * np.cos(delta)
        M = np.empty(delta.shape + (2, 2))
        M[..., 0, 0] = (self.m1 + self.m2) * self.l1**2
        M[..., 0, 1] = M[..., 1, 0] = m_off
        M[..., 1, 1] = self.m2 * self.l2**2
        det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
        if np.any(np.abs(det) < 1e-12):
            raise MsoptError("singular pendulum mass matrix")
        s = self.m2 * self.l1 * self.l2 * np.sin(delta)
        g1 = (self.m1 + self.m2) * self.g * self.l1
        g2 = self.m2 * self.g * self.l2
        # torque - Coriolis - gravity - damping; the torque drives the first joint
        rhs = np.stack([u[..., 0] + s * w2**2 - g1 * np.sin(th1) - self.d1 * w1,
                        0.0 - s * w1**2 - g2 * np.sin(th2) - self.d2 * w2], axis=-1)
        acc = np.linalg.solve(M, rhs[..., None])[..., 0]
        return np.stack([w1, acc[..., 0], w2, acc[..., 1]], axis=-1)

    def output(self, x) -> np.ndarray:
        """Measured outputs (..., output_dim) of states x (..., state_dim)."""
        x = np.asarray(x, dtype=float)
        return x.copy() if self.kind == "unicycle" else x[..., [0, 2]]

    def sample_inputs(self, horizon: int, gen) -> np.ndarray:
        """Persistently exciting input law for dataset generation."""
        if self.kind == "unicycle":
            v = gen.uniform(0.0, 1.0, horizon)
            w = gen.normal(0.0, 5.0, horizon)
            return np.stack([v, w], axis=1)
        return gen.uniform(-5.0, 5.0, (horizon, 1))


def rollout(model: SystemModel, u_seq):
    """Simulate input sequences u_seq (..., N, nu) from rest (the zero state),
    all trajectories in one pass of RK4 steps; returns (outputs (..., N+1, ny),
    states (..., N+1, nx)). A non-finite state raises DivergenceError naming
    the step and, in a batch, the first trajectory (row-major over the batch
    axes) that left the finite range."""
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    if u_seq.shape[-1] != model.input_dim:
        raise ValueError(f"inputs have width {u_seq.shape[-1]}, expected {model.input_dim}")
    batch, horizon = u_seq.shape[:-2], u_seq.shape[-2]
    states = np.zeros(batch + (horizon + 1, model.state_dim))
    for k in range(horizon):
        states[..., k + 1, :] = rk4_step(model.continuous_dynamics, states[..., k, :],
                                         u_seq[..., k, :], model.dt)
        finite = np.isfinite(states[..., k + 1, :]).all(axis=-1)
        if not finite.all():
            which = f" in trajectory {np.flatnonzero(~finite)[0]}" if batch else ""
            raise DivergenceError(f"rollout produced non-finite state{which} at step {k + 1}")
    return model.output(states), states


def backtest(model: SystemModel, u_star, y_star):
    """Replay u_star on the true system; gap = ||y_star - y_true||_F."""
    y_star = np.atleast_2d(np.asarray(y_star, dtype=float))
    y_true, _ = rollout(model, u_star)
    if y_true.shape != y_star.shape:
        raise ValueError(f"claimed outputs {y_star.shape} vs simulated {y_true.shape}")
    return y_true, float(np.linalg.norm(y_star - y_true))


@dataclass(frozen=True)
class TrajectoryLayout:
    """The order of a flattened trajectory point: the inputs u_0..u_{N-1},
    then the outputs y_0..y_N, each block row-major."""

    horizon: int
    input_dim: int
    output_dim: int

    def __str__(self):
        return (f"{self.horizon}*{self.input_dim} + "
                f"{self.horizon + 1}*{self.output_dim} = {self.dim}")

    @property
    def dim(self) -> int:
        return self.horizon * self.input_dim + (self.horizon + 1) * self.output_dim

    def split(self, z):
        """One point -> views (u (N, nu), y (N+1, ny))."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValueError(f"point of shape {z.shape} does not match layout {self}")
        u, y = self.split_rows(z[None])
        return u[0], y[0]

    def split_rows(self, rows: np.ndarray):
        """Rows (count, dim) -> views (u (count, N, nu), y (count, N+1, ny))."""
        cut = self.horizon * self.input_dim
        return (rows[:, :cut].reshape(-1, self.horizon, self.input_dim),
                rows[:, cut:].reshape(-1, self.horizon + 1, self.output_dim))

    def join(self, u, y) -> np.ndarray:
        return np.concatenate([u.reshape(-1), y.reshape(-1)])


@dataclass
class TrajectoryDataset:
    """Input-output pairs on the behavior manifold, plus generation metadata.
    The normalization (column mean and std) is derived from the rows."""

    system: SystemModel
    horizon: int
    data: np.ndarray  # (count, layout.dim), one flattened trajectory per row
    seed: int
    norm_shift: np.ndarray = field(init=False)
    norm_scale: np.ndarray = field(init=False)

    def __post_init__(self):
        self.norm_shift = self.data.mean(axis=0)
        self.norm_scale = self.data.std(axis=0)
        self.norm_scale[self.norm_scale < 1e-12] = 1.0

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def layout(self) -> TrajectoryLayout:
        return TrajectoryLayout(self.horizon, self.system.input_dim, self.system.output_dim)

    def normalize(self, flat) -> np.ndarray:
        return (np.asarray(flat, dtype=float) - self.norm_shift) / self.norm_scale

    def denormalize(self, z) -> np.ndarray:
        return self.norm_shift + self.norm_scale * np.asarray(z, dtype=float)

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        write_key_values(os.path.join(directory, "meta.txt"), [
            ("system", self.system.kind),
            ("dt", self.system.dt),
            ("horizon", self.horizon),
            ("count", self.count),
            ("seed", self.seed),
            ("input_dim", self.system.input_dim),
            ("output_dim", self.system.output_dim),
            # for other readers: load derives the normalization from data.csv
            ("norm_shift", self.norm_shift),
            ("norm_scale", self.norm_scale),
        ])
        write_csv(os.path.join(directory, "data.csv"), None, self.data)

    @staticmethod
    def load(directory) -> "TrajectoryDataset":
        meta_path = os.path.join(directory, "meta.txt")
        meta = read_key_values(meta_path)
        missing = [k for k in ("system", "dt", "horizon", "count", "seed") if k not in meta]
        if missing:
            raise ValueError(f"{meta_path}: missing key(s) " + ", ".join(missing))

        def parse(key, convert):
            try:
                return convert(meta[key])
            except ValueError as exc:
                raise ValueError(f"{meta_path}: {key} = {meta[key]}: {exc}") from None

        # the kind is checked first, so a dt error names the dt key
        system = parse("system", SystemModel)
        system = parse("dt", lambda v: SystemModel(kind=system.kind, dt=float(v)))
        horizon, count, seed = (parse(key, int) for key in ("horizon", "count", "seed"))
        # written for other readers; checked against the system when present
        for key in ("input_dim", "output_dim"):
            if key in meta and parse(key, int) != getattr(system, key):
                raise ValueError(f"{meta_path}: {key} = {meta[key]}, but {system.kind} "
                                 f"has {key} = {getattr(system, key)}")
        data_path = os.path.join(directory, "data.csv")
        data = read_csv(data_path)
        layout = TrajectoryLayout(horizon, system.input_dim, system.output_dim)
        if data.shape[0] != count:
            raise ValueError(
                f"{data_path}: {data.shape[0]} rows, but meta.txt declares count = {count}"
            )
        if data.shape[1] != layout.dim:
            raise ValueError(
                f"{data_path}: {data.shape[1]} columns, but horizon {horizon} of "
                f"{system.kind} needs {layout}"
            )
        return TrajectoryDataset(system=system, horizon=horizon, data=data, seed=seed)


def generate_dataset(model: SystemModel, count: int, horizon: int, seed: int) -> TrajectoryDataset:
    """Sample rollouts under the model's excitation law, one input substream
    per trajectory, and simulate them as one batch; a rollout that leaves the
    finite range raises DivergenceError."""
    if count < 1 or horizon < 1:
        raise ValueError("need count >= 1 and horizon >= 1")
    layout = TrajectoryLayout(horizon, model.input_dim, model.output_dim)
    data = np.empty((count, layout.dim))
    u, y = layout.split_rows(data)
    for i in range(count):
        u[i] = model.sample_inputs(horizon, _rng.substream(seed, "trajectory", i))
    y[...] = rollout(model, u)[0]
    return TrajectoryDataset(system=model, horizon=horizon, data=data, seed=seed)
