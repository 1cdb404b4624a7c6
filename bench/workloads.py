"""The benchmark's workloads: msopt CLI invocations built from a workload seed.

Each workload is a closed loop with one client: its invocations run one
after another through `msopt.cli.run_cli` in a single process. Sizes follow
the acceptance shapes (N=4000 at d=25, N=2000 at d=103, 4096 nodes at d=2);
the seed only changes the random content, never a size or a budget.

Every optimize config sets `stop_grad_tol = 0`, so each run does exactly
`max_steps` iterations. The shipped Brockett and unicycle configs stop at
step 0: the posterior collapses onto the start atom and the surrogate
gradient is exactly zero. Timed as shipped they would never measure the
optimizer loop. The collapse itself stays in the workload and shows in the
posterior-property report.

The invariants were calibrated when the benchmark was written, on workload
seeds 0-9 (0-19 for the dense descent); each check states its margin.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Iteration budgets; the set-up measurement reruns each budgeted invocation
# with these keys set to 0.
BUDGET_KEYS = {
    "optimize": ("algorithm", "max_steps"),
    "train-score": ("algorithm", "epochs"),
    "sample": ("algorithm", "steps"),
}

_FIXED_WORK_NOTE = (
    "stop_grad_tol = 0: run exactly max_steps iterations. The shipped configs\n"
    "stop at step 0 through posterior collapse, which would leave the loop unmeasured."
)


def derive_seed(seed: int, label: str) -> int:
    """Stable 31-bit seed for one consumer of the workload seed."""
    digest = hashlib.blake2s(f"{seed}/{label}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def render_config(sections: dict, comment: str = "") -> str:
    lines = [f"# {line}" for line in comment.splitlines()]
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_render(value)}" for key, value in values.items()]
        lines.append("")
    return "\n".join(lines)


def _render(value):
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(_render(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class Invocation:
    """One `msopt <command>` call and the checks on its artifacts."""

    name: str
    command: str
    sections: dict
    extra_args: tuple = ()
    # invariants on the full-budget run: out_dir -> list of problems
    check: Callable[[str], list] | None = None
    # mixture-oracle runs: () -> (atoms, sigma) for the posterior-property report
    atoms: Callable[[], tuple] | None = None

    @property
    def budget(self):
        return BUDGET_KEYS.get(self.command)

    @property
    def steps(self) -> int:
        return self.sections[self.budget[0]][self.budget[1]] if self.budget else 0

    @property
    def record_every(self) -> int:
        return self.sections.get("algorithm", {}).get("record_every", 1)

    def config_text(self, zero: bool) -> str:
        sections = {s: dict(v) for s, v in self.sections.items()}
        if zero:
            sections[self.budget[0]][self.budget[1]] = 0
        comment = _FIXED_WORK_NOTE if self.command == "optimize" else ""
        return render_config(sections, comment)


@dataclass
class Workload:
    name: str
    invocations: list = field(default_factory=list)


# ---- readers shared by the invariants ---------------------------------------


def read_key_values(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            if key.strip():
                out[key.strip()] = value.strip()
    return out


def final_point(out_dir) -> np.ndarray:
    meta = read_key_values(os.path.join(out_dir, "run.meta.txt"))
    return np.array([float(v) for v in meta["final_point"].split(",")])


def _problem(ok, text):
    return [] if ok else [text]


# ---- o5_brockett ------------------------------------------------------------


def o5_brockett(seed: int, work_dir: str, smoke: bool = False) -> Workload:
    """Brockett cost on O(5) at the N=4000 Haar atoms, d=25 shape.

    DRGD with the empirical oracle at sigma=0.05 (collapsed posterior: ESS 1
    at the start atom), then DRGD with the exact sigma=0 adapter, whose
    Jacobian is 25 central differences (50 SVDs). The mixture kernel on a
    sparse posterior and SVD-bound projection do almost all the work; data
    generation and IO do almost none.
    """
    exp_seed = derive_seed(seed, "o5/experiment")
    a_seed = derive_seed(seed, "o5/brockett")
    samples = 200 if smoke else 4000
    manifold = {"kind": "orthogonal", "n": 5}
    objective = {"kind": "brockett", "a_seed": a_seed}

    def atoms():
        from msopt.manifolds import Orthogonal

        return Orthogonal(5).sample_uniform(samples, exp_seed), 0.05

    def exact_feasible(out_dir):
        x = final_point(out_dir).reshape(5, 5)
        gram = float(np.linalg.norm(x.T @ x - np.eye(5)))
        # polar-factor retraction: the Gram residual is rounding (~1e-15)
        return _problem(gram <= 1e-12, f"exact-adapter Gram residual {gram:.3e} > 1e-12")

    return Workload(
        name="o5_brockett",
        invocations=[
            Invocation(
                "drgd_empirical", "optimize",
                {
                    "experiment": {"kind": "optimize", "seed": exp_seed},
                    "oracle": {"kind": "empirical", "sample_count": samples, "sigma": 0.05},
                    "manifold": manifold,
                    "objective": objective,
                    "algorithm": {"kind": "drgd", "gamma": 1e-3,
                                  "max_steps": 10 if smoke else 500, "stop_grad_tol": 0.0},
                },
                atoms=atoms,
            ),
            Invocation(
                "drgd_exact", "optimize",
                {
                    "experiment": {"kind": "optimize", "seed": exp_seed},
                    "oracle": {"kind": "exact"},
                    "manifold": manifold,
                    "objective": objective,
                    "algorithm": {"kind": "drgd", "gamma": 1e-3,
                                  "max_steps": 10 if smoke else 250, "stop_grad_tol": 0.0},
                },
                check=exact_feasible,
            ),
        ],
    )


# ---- unicycle_tracking ------------------------------------------------------

_HORIZON = 20


def unicycle_tracking(seed: int, work_dir: str, smoke: bool = False) -> Workload:
    """2000 unicycle trajectories at horizon 20, then tracking DRGD at d=103.

    Only here do the control layer (RK4 rollouts, the repeated rollout of
    generate_dataset, the back-test) and the 17-digit CSV write/read do most
    of the work. It also runs the mixture kernel at the widest d, on a
    collapsed posterior with no manifold baseline.
    """
    data_seed = derive_seed(seed, "unicycle/data")
    data_dir = os.path.join(work_dir, "generate_data")

    def atoms():
        meta = read_key_values(os.path.join(data_dir, "meta.txt"))
        flat = np.loadtxt(os.path.join(data_dir, "data.csv"), delimiter=",", ndmin=2)
        shift = np.array([float(v) for v in meta["norm_shift"].split(",")])
        scale = np.array([float(v) for v in meta["norm_scale"].split(",")])
        return (flat - shift) / scale, 0.05

    def backtest(out_dir):
        summary = read_key_values(os.path.join(out_dir, "summary.txt"))
        point = np.loadtxt(os.path.join(out_dir, "optimized_point.csv"), delimiter=",")
        y_norm = float(np.linalg.norm(point[_HORIZON * 2:]))
        gap = float(summary["backtest_gap"])
        f_true = float(summary["backtest_true_objective"])
        best = float(summary["dataset_best_objective"])
        # the collapsed run ends on the dataset argmin, whose back-test reproduces
        # the atom to rounding: gap ~1e-17, objective equal to the dataset best
        return (
            _problem(gap <= 0.10 * y_norm, f"back-test gap {gap:.3e} > 10% of ||y*|| {y_norm:.3e}")
            + _problem(f_true <= best + 1e-9 * abs(best),
                       f"back-tested objective {f_true!r} above dataset best {best!r}")
        )

    return Workload(
        name="unicycle_tracking",
        invocations=[
            Invocation(
                "generate_data", "generate-data",
                {
                    "experiment": {"kind": "generate-data", "seed": data_seed},
                    "manifold": {"kind": "unicycle", "horizon": _HORIZON,
                                 "count": 40 if smoke else 2000},
                },
            ),
            Invocation(
                "drgd_tracking", "optimize",
                {
                    "experiment": {"kind": "optimize", "seed": data_seed},
                    "oracle": {"kind": "empirical", "dataset": data_dir, "sigma": 0.05},
                    "manifold": {"kind": "unicycle", "horizon": _HORIZON},
                    "objective": {"kind": "tracking", "reference": "arc", "amplitude": 0.5},
                    "algorithm": {"kind": "drgd", "gamma": 1e-3,
                                  "max_steps": 10 if smoke else 750, "stop_grad_tol": 0.0},
                },
                check=backtest,
                atoms=atoms,
            ),
        ],
    )


# ---- circle_dense -----------------------------------------------------------


def _unit_direction(seed: int, label: str, dim: int) -> np.ndarray:
    g = np.random.default_rng(derive_seed(seed, label)).standard_normal(dim)
    return g / np.linalg.norm(g)


def circle_dense(seed: int, work_dir: str, smoke: bool = False) -> Workload:
    """Four optimize/validate paths at d <= 3 with dense posteriors.

    DRGD over 1e5 empirical circle atoms at sigma=0.05 (about 80% of the
    weights nonzero, N x d temporaries beyond L2), DLF with the 4096-node
    quadrature oracle, DLF with the exact S^2 adapter (loop overhead only),
    and the shipped rate and landing validations. A kernel change that
    prunes zero weights or batches points helps on the collapsed workloads;
    here it must show as no change or as a loss.
    """
    exp_seed = derive_seed(seed, "dense/experiment")
    # |a| = 3 with gamma = 0.05 moves about 0.15 rad per step near the start
    a2 = 3.0 * _unit_direction(seed, "dense/a2", 2)
    a3 = _unit_direction(seed, "dense/a3", 3)
    samples = 2000 if smoke else 100_000
    # start 0.1 rad from the maximizer a/|a|, so the descent crosses the circle
    ang = math.atan2(a2[1], a2[0]) + 0.1
    x0 = (math.cos(ang), math.sin(ang))
    circle = {"kind": "circle"}

    def empirical_atoms():
        from msopt.manifolds import Circle

        return Circle().sample_uniform(samples, exp_seed), 0.05

    def quadrature_atoms():
        ang = 2.0 * np.pi * np.arange(4096) / 4096
        return np.stack([np.cos(ang), np.sin(ang)], axis=1), 0.1

    def lands_at_minimizer(out_dir):
        err = float(np.linalg.norm(final_point(out_dir) + a2 / np.linalg.norm(a2)))
        # the descent settles by step 80 on the oracle's bias floor: at most
        # 8.8e-3 from -a/|a| on seeds 0-19; the start is ~pi away
        return _problem(err <= 0.02, f"dense descent ends {err:.3e} from -a/|a| (> 0.02)")

    def landing_law(out_dir):
        with open(os.path.join(out_dir, "summary.txt")) as fh:
            dev = float(fh.read().split("max relative deviation:")[1].split()[0])
        return _problem(dev <= 0.05, f"landing max relative deviation {dev:.3e} > 0.05")

    return Workload(
        name="circle_dense",
        invocations=[
            Invocation(
                "drgd_empirical", "optimize",
                {
                    "experiment": {"kind": "optimize", "seed": exp_seed},
                    "oracle": {"kind": "empirical", "sample_count": samples, "sigma": 0.05},
                    "manifold": circle,
                    "objective": {"kind": "linear", "a": a2},
                    "algorithm": {"kind": "drgd", "gamma": 0.05,
                                  "max_steps": 10 if smoke else 100, "stop_grad_tol": 0.0,
                                  "record_every": 10, "x0": x0},
                },
                check=None if smoke else lands_at_minimizer,
                atoms=empirical_atoms,
            ),
            Invocation(
                "dlf_quadrature", "optimize",
                {
                    "experiment": {"kind": "optimize", "seed": exp_seed},
                    "oracle": {"kind": "quadrature", "node_count": 4096, "sigma": 0.1},
                    "manifold": circle,
                    "objective": {"kind": "linear", "a": a2},
                    "algorithm": {"kind": "dlf", "t_step": 1e-3, "eta": 10.0,
                                  "max_steps": 10 if smoke else 1500, "stop_grad_tol": 0.0,
                                  "record_every": 10},
                },
                atoms=quadrature_atoms,
            ),
            Invocation(
                "dlf_exact_sphere", "optimize",
                {
                    "experiment": {"kind": "optimize", "seed": exp_seed},
                    "oracle": {"kind": "exact"},
                    "manifold": {"kind": "sphere", "dim": 3},
                    "objective": {"kind": "linear", "a": a3},
                    "algorithm": {"kind": "dlf", "t_step": 1e-3, "eta": 10.0,
                                  "max_steps": 100 if smoke else 10000, "stop_grad_tol": 0.0,
                                  "record_every": 100},
                },
            ),
            # the keys of the shipped configs/rate_circle.cfg, seeded by the workload
            Invocation(
                "validate_rate", "validate",
                {
                    "experiment": {"kind": "validate", "seed": derive_seed(seed, "dense/rate")},
                    "oracle": {"kind": "quadrature", "node_count": 4096},
                    "manifold": circle,
                    "algorithm": {"check": "rate", "offsets": 0.3,
                                  "sigmas": (0.2, 0.1, 0.05, 0.025, 0.0125),
                                  "n_points": 10 if smoke else 100},
                },
            ),
            # the keys of the shipped configs/landing_sphere.cfg, seeded by the workload
            Invocation(
                "validate_landing", "validate",
                {
                    "experiment": {"kind": "validate", "seed": derive_seed(seed, "dense/landing")},
                    "manifold": {"kind": "sphere", "dim": 3},
                    "algorithm": {"check": "landing", "eta": 1.0, "x0_distance": 0.3,
                                  "t_end": 0.1 if smoke else 3.0, "euler_step": 1e-4,
                                  "record_every": 100, "max_rel_dev": 0.05},
                },
                extra_args=("--assert",),
                check=landing_law,
            ),
        ],
    )


# ---- circle_dsm -------------------------------------------------------------


def circle_dsm(seed: int, work_dir: str, smoke: bool = False) -> Workload:
    """generate-data, train-score, sample and optimize on the MLP path.

    The only workload where score.mlp, score.dsm and score.sampler work and
    the mixture kernel does nothing; without it those layers go unmeasured.
    """
    points = os.path.join(work_dir, "generate_data", "points.csv")
    model = os.path.join(work_dir, "train_score", "model.msopt")
    a = 1.2 * _unit_direction(seed, "dsm/a", 2)

    def finite_loss(out_dir):
        loss = np.loadtxt(os.path.join(out_dir, "loss_trace.csv"), delimiter=",",
                          skiprows=1, ndmin=2)[:, 1]
        return _problem(bool(np.all(np.isfinite(loss))), "non-finite DSM loss")

    def near_circle(out_dir):
        x = np.loadtxt(os.path.join(out_dir, "samples.csv"), delimiter=",", ndmin=2)
        share = float(np.mean(np.abs(np.linalg.norm(x, axis=1) - 1.0) <= 0.2))
        # >= 90% at calibration; the N(0, 9 I) start puts about 4% there
        return _problem(share >= 0.8, f"{share:.1%} of samples within 0.2 of the circle (< 80%)")

    return Workload(
        name="circle_dsm",
        invocations=[
            Invocation(
                "generate_data", "generate-data",
                {
                    "experiment": {"kind": "generate-data", "seed": derive_seed(seed, "dsm/data")},
                    "manifold": {"kind": "circle", "count": 512},
                },
            ),
            Invocation(
                "train_score", "train-score",
                {
                    "experiment": {"kind": "train-score", "seed": derive_seed(seed, "dsm/train")},
                    "oracle": {"dataset": points},
                    # lr_hi = 5e-3: 600 steps put >= 90% of 100-step samples within
                    # 0.2 of the circle; the default 1e-3 needs about 3000 steps
                    "algorithm": {"epochs": 20 if smoke else 600, "batch": 256,
                                  "hidden": (128, 128, 128), "lr_hi": 5e-3, "lr_lo": 1e-4},
                },
                check=finite_loss,
            ),
            Invocation(
                "sample", "sample",
                {
                    "experiment": {"kind": "sample", "seed": derive_seed(seed, "dsm/sample")},
                    "oracle": {"model": model},
                    "algorithm": {"count": 1000, "steps": 10 if smoke else 100},
                },
                check=None if smoke else near_circle,
            ),
            Invocation(
                "drgd_mlp", "optimize",
                {
                    "experiment": {"kind": "optimize", "seed": derive_seed(seed, "dsm/opt")},
                    "oracle": {"kind": "mlp", "model": model, "sigma": 0.1},
                    "manifold": {"kind": "circle"},
                    "objective": {"kind": "linear", "a": a},
                    "algorithm": {"kind": "drgd", "gamma": 0.05,
                                  "max_steps": 10 if smoke else 1000, "stop_grad_tol": 0.0,
                                  "record_every": 10},
                },
            ),
        ],
    )


WORKLOADS = {
    "o5_brockett": o5_brockett,
    "unicycle_tracking": unicycle_tracking,
    "circle_dense": circle_dense,
    "circle_dsm": circle_dsm,
}
