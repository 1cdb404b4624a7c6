"""Experiment drivers that turn the theory into measurable desk-scale checks.

rate_sweep        surrogate-vs-exact manifold operation errors across sigma,
                  with fitted log-log decay slopes
landing_check     the exact sigma = 0 landing flow against its closed-form
                  exponential decay law d(x(t)) = exp(-2 eta t) d(x(0))
feasibility_optimality_report
                  summary of a finished run: feasibility, Riemannian
                  gradient norms (or back-test gap), objective improvement
"""

from dataclasses import dataclass

import numpy as np

from msopt.control import TrajectoryDataset, backtest
from msopt.errors import MsoptError
from msopt.optim import RunRecord
from msopt.textio import key_values, write_csv

# relative rise of a sweep error between neighbouring sigmas still counted as decreasing
_MONOTONE_SLACK = 0.05


@dataclass
class RateSweepReport:
    sigmas: np.ndarray
    mean_errors: np.ndarray
    jacobian_errors: np.ndarray
    slope_mean: float
    slope_jacobian: float
    offsets: tuple
    n_points: int
    seed: int
    excluded: int

    def monotone_decreasing(self) -> bool:
        """Errors non-increasing as sigma shrinks, up to a relative slack of 5 %."""
        ok = True
        for series in (self.mean_errors, self.jacobian_errors):
            ok &= bool(np.all(series[1:] <= series[:-1] * (1.0 + _MONOTONE_SLACK)))
        return ok

    def save_csv(self, path):
        write_csv(path, "sigma,mean_error,jacobian_error",
                  np.column_stack([self.sigmas, self.mean_errors, self.jacobian_errors]))

    def summary_text(self) -> str:
        lines = [
            "rate sweep: sup errors of the Tweedie mean/Jacobian vs the exact",
            "projection and its Jacobian, over tube test points",
            f"offsets (fraction of safe tube radius): {list(self.offsets)}",
            f"test points: {self.n_points}  seed: {self.seed}  excluded: {self.excluded}",
        ]
        for s, em, ej in zip(self.sigmas, self.mean_errors, self.jacobian_errors):
            lines.append(f"  sigma {s:9.5g}: mean_err {em:.6e}  jac_err {ej:.6e}")
        lines.append(f"log-log slope (mean):     {self.slope_mean:.4f}")
        lines.append(f"log-log slope (jacobian): {self.slope_jacobian:.4f}")
        lines.append(f"monotone decreasing: {self.monotone_decreasing()}")
        if len(self.mean_errors) >= 2 and self.mean_errors[-1] > self.mean_errors[-2]:
            lines.append("note: smallest sigma shows resolution saturation")
        return "\n".join(lines) + "\n"


def rate_sweep(oracle_family, manifold, offsets, sigmas, n_points: int, seed: int) -> RateSweepReport:
    """Worst-case surrogate errors over tube points, one oracle per sigma.

    Test points sit at offset * safe_tube_radius along manifold normals of
    uniformly sampled base points; ground truth is the exact projection and
    its closed-form derivative. Both Jacobians are products with the
    identity, `posterior.vjp(eye)` and `manifold.projection_vjp(x, eye)`.
    """
    if n_points < 1:
        raise ValueError(f"rate_sweep needs n_points >= 1, got n_points = {n_points!r}")
    sigmas = np.asarray(sorted(sigmas, reverse=True), dtype=float)
    offsets = tuple(float(o) for o in offsets)
    if not np.all(np.isfinite(offsets)):
        # the NaN Jacobian of such a point fails the 2-norm's SVD
        raise ValueError(f"rate_sweep needs finite offsets, got offsets = "
                         f"{','.join(map(str, offsets))}")
    base = manifold.sample_uniform(n_points, seed)
    eye = np.eye(manifold.ambient_dim)
    tests, truths = [], []
    for i, p in enumerate(base):
        normal = manifold.unit_normal(p, seed=seed, index=i)
        for off in offsets:
            x = p + off * manifold.safe_tube_radius * normal
            tests.append(x)
            truths.append((manifold.project(x), manifold.projection_vjp(x, eye)))

    mean_errors, jac_errors = [], []
    excluded = 0
    for sigma in sigmas:
        oracle = oracle_family(float(sigma))
        worst_m, worst_j = 0.0, 0.0
        for x, (pi_x, dpi_x) in zip(tests, truths):
            try:
                post = oracle.posterior(x)
                jac = post.vjp(eye)
            except MsoptError:
                excluded += 1
                continue
            worst_m = max(worst_m, float(np.linalg.norm(post.mean - pi_x)))
            worst_j = max(worst_j, float(np.linalg.norm(jac - dpi_x, 2)))
        mean_errors.append(worst_m)
        jac_errors.append(worst_j)

    if sigmas.size >= 2:
        log_s = np.log(sigmas)
        # floor protects the fit when an oracle is exact (errors at rounding level)
        slope_m = float(np.polyfit(log_s, np.log(np.maximum(mean_errors, 1e-300)), 1)[0])
        slope_j = float(np.polyfit(log_s, np.log(np.maximum(jac_errors, 1e-300)), 1)[0])
    else:
        slope_m = slope_j = float("nan")
    return RateSweepReport(
        sigmas=sigmas,
        mean_errors=np.array(mean_errors),
        jacobian_errors=np.array(jac_errors),
        slope_mean=slope_m,
        slope_jacobian=slope_j,
        offsets=offsets,
        n_points=n_points,
        seed=seed,
        excluded=excluded,
    )


@dataclass
class LandingReport:
    times: np.ndarray
    measured: np.ndarray  # d(x(t)) = half squared manifold distance
    predicted: np.ndarray  # exp(-2 eta t) d(x(0))
    eta: float
    euler_step: float

    @property
    def max_rel_deviation(self) -> float:
        mask = self.predicted > 1e-300
        dev = np.abs(self.measured[mask] - self.predicted[mask]) / self.predicted[mask]
        return float(dev.max())

    def save_csv(self, path):
        write_csv(path, "time,measured,predicted",
                  np.column_stack([self.times, self.measured, self.predicted]))

    def summary_text(self) -> str:
        return (
            "landing check: half squared manifold distance vs exponential law\n"
            f"eta: {self.eta:.6g}  euler step: {self.euler_step:.6g}  "
            f"t_end: {self.times[-1]:.6g}\n"
            f"max relative deviation: {self.max_rel_deviation:.6e}\n"
        )


def landing_check(manifold, *, eta, x0, t_end, euler_step, record_every) -> LandingReport:
    """Integrate the zero-objective exact landing flow and compare with
    d(x(t)) = exp(-2 eta t) d(x(0))."""
    bad = []
    if not 0.0 <= eta < np.inf:
        bad.append(f"eta = {eta!r} (need finite >= 0)")
    if not 0.0 <= t_end < np.inf:
        bad.append(f"t_end = {t_end!r} (need finite >= 0)")
    if not 0.0 < euler_step < np.inf:
        bad.append(f"euler_step = {euler_step!r} (need finite > 0)")
    elif t_end < np.inf and not t_end / euler_step < np.inf:
        bad.append(f"t_end / euler_step = {t_end / euler_step!r} (need a finite step count)")
    if not record_every >= 1:
        bad.append(f"record_every = {record_every!r} (need >= 1)")
    if bad:
        raise ValueError("bad landing check parameters: " + ", ".join(bad))
    x = np.array(x0, dtype=float)
    dist0 = manifold.dist_to_manifold(x)
    # written so that a NaN distance (a non-finite x0) fails it too
    if not dist0 <= manifold.safe_tube_radius:
        raise ValueError(
            f"x0 at distance {dist0:.4g} is outside the safe tube "
            f"(radius {manifold.safe_tube_radius:.4g})"
        )
    if dist0 == 0.0:
        raise ValueError("x0 at distance 0 is on the manifold: the landing law "
                         "needs a start distance > 0")
    n_steps = int(round(t_end / euler_step))
    d0 = 0.5 * dist0**2
    times, measured = [0.0], [d0]
    for k in range(1, n_steps + 1):
        x = x + euler_step * eta * (manifold.project(x) - x)
        if k % record_every == 0 or k == n_steps:
            times.append(k * euler_step)
            measured.append(0.5 * manifold.dist_to_manifold(x) ** 2)
    times = np.array(times)
    return LandingReport(
        times=times,
        measured=np.array(measured),
        predicted=d0 * np.exp(-2.0 * eta * times),
        eta=eta,
        euler_step=euler_step,
    )


@dataclass
class RunSummary:
    final_objective: float
    final_feasibility: float = None
    final_riem_grad_norm: float = None
    avg_sq_riem_grad_norm: float = None
    backtest_gap: float = None
    backtest_true_objective: float = None
    dataset_best_objective: float = None
    objective_improvement: float = None

    def to_text(self) -> str:
        return "run summary\n" + key_values(
            (name, value) for name, value in self.__dict__.items() if value is not None)


def feasibility_optimality_report(record: RunRecord, dataset: TrajectoryDataset = None,
                                  objective=None) -> RunSummary:
    """Summarize a finished run against a manifold or a control system.

    When the run measured a manifold baseline (its metadata names a
    `feasibility_metric`), the record's own feasibility and Riemannian
    gradient columns are summarized; with a trajectory dataset the final
    point is de-normalized, back-tested through the true system, and
    re-costed.
    """
    if len(record) == 0:
        raise ValueError("empty run record")
    summary = RunSummary(final_objective=float(record.objective[-1]))
    best = record.metadata.get("dataset_best_objective")
    if best is not None:
        summary.dataset_best_objective = float(best)
        summary.objective_improvement = float(best) - summary.final_objective

    if "feasibility_metric" in record.metadata:
        summary.final_feasibility = float(record.feasibility[-1])
        g = record.riem_grad_norm
        finite = np.isfinite(g)
        summary.final_riem_grad_norm = float(g[-1])
        if finite.any():
            summary.avg_sq_riem_grad_norm = float(np.mean(g[finite] ** 2))

    if dataset is not None:
        layout = dataset.layout
        u_star, y_star = layout.split(dataset.denormalize(record.final_point))
        y_true, gap = backtest(dataset.system, u_star, y_star)
        summary.backtest_gap = gap
        if objective is not None:
            summary.backtest_true_objective = objective.value(layout.join(u_star, y_true))
    return summary
