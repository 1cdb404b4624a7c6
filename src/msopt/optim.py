"""Optimizers driven by score surrogates, with per-iteration instrumentation.

Two methods:

  dlf_run               Euler-discretized denoising landing flow
                        x <- x + t_step * (-s'(x)^T grad f(s(x)) + eta (s(x) - x));
                        with an oracle that carries the link value (mixture
                        or exact) the drift is the negative gradient of the
                        penalized objective f(s(x)) + eta * d_sigma(x)
  drgd_run              projected descent x <- s(x - gamma s'(x)^T grad f(x));
                        on the sigma = 0 oracle (s = pi, pi' the tangent
                        projector) it is projected Riemannian gradient descent

A parameter that a config key sets is keyword-only and has no default here;
`config.SCHEMA` holds the defaults. Each method checks its parameters on
entry with `_check_params`, then runs its step function under one private
driver, `_drive`, which owns the stop test, the recording, the runaway check
and the metadata every run shares (oracle, sigma, budget, termination). A
run's one result is its `RunRecord`: the recorded rows, the metadata and the
final iterate. A step returns the Tweedie mean s(x) to the driver, which
evaluates the surrogate objective f(s(x)) only for the rows it writes. Both
methods read the oracle only through `score.posterior(x)`: DLF makes one
call per iterate, DRGD two (at x, and at x - gamma s'(x)^T grad f(x) for
the retraction) and one at the final iterate, where the stop test still
needs the product.

Jacobian contractions are vector-Jacobian products: for exact oracles the
Jacobian is symmetric so this equals the forward product; for the network
oracle it is the input end of backprop over the forward pass that computed
the mean, so a DRGD step runs two network forwards and one input-only
backward.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from msopt.errors import ProjectionError
from msopt.textio import write_csv, write_key_values

_RUNAWAY_FACTOR = 1e9

CSV_HEADER = "step,objective,surrogate_objective,feasibility,riem_grad_norm,step_norm"


@dataclass
class RunRecord:
    """The result of a run: the recorded rows as one `(rows, 6)` float table
    in `CSV_HEADER` order, the run metadata and the final iterate; `save`
    writes the table as `run.csv` and renders the metadata values (strings,
    numbers, flags) and the final point through `textio`."""

    table: np.ndarray
    metadata: dict
    final_point: np.ndarray

    def __len__(self):
        return len(self.table)

    steps = property(lambda self: self.table[:, 0].astype(int))
    objective = property(lambda self: self.table[:, 1])
    surrogate_objective = property(lambda self: self.table[:, 2])
    feasibility = property(lambda self: self.table[:, 3])
    riem_grad_norm = property(lambda self: self.table[:, 4])
    step_norm = property(lambda self: self.table[:, 5])

    def save(self, csv_path, meta_path):
        write_csv(csv_path, CSV_HEADER, self.table)
        write_key_values(meta_path, [*sorted(self.metadata.items()),
                                     ("final_point", self.final_point)])


def scaled_norm(v) -> float:
    """2-norm that neither underflows nor overflows.

    np.linalg.norm squares the entries, so it reads a vector of 1e-180
    entries as 0; math.hypot scales them first. For the short vectors of
    the optimizer loops it is also the cheaper call.
    """
    return math.hypot(*np.ravel(v).tolist())


def _check_params(step_name: str, step: float, max_steps: int, stop_grad_tol: float,
                  record_every: int, eta: float = None):
    """The one parameter check of the two optimizers: a finite positive step
    size, a finite nonnegative landing gain (where there is one), a
    nonnegative step budget, a finite nonnegative stop tolerance and a
    recording interval of at least one step. NaN fails every comparison, so
    it is rejected (a NaN tolerance would turn the stop test off)."""
    bad = []
    if not 0 < step < math.inf:
        bad.append(f"{step_name} = {step!r} (need finite > 0)")
    if eta is not None and not 0 <= eta < math.inf:
        bad.append(f"eta = {eta!r} (need finite >= 0)")
    if not max_steps >= 0:
        bad.append(f"max_steps = {max_steps!r} (need >= 0)")
    if not 0 <= stop_grad_tol < math.inf:
        bad.append(f"stop_grad_tol = {stop_grad_tol!r} (need finite >= 0)")
    if not record_every >= 1:
        bad.append(f"record_every = {record_every!r} (need >= 1)")
    if bad:
        raise ValueError("bad optimizer parameters: " + ", ".join(bad))


class _Recorder:
    """Accumulates rows and the baseline-derived optimality metrics."""

    def __init__(self, objective, baseline):
        self.objective = objective
        self.baseline = baseline
        self.rows = []
        self.max_dist = 0.0
        self.start = time.perf_counter()

    def metrics(self, x):
        if self.baseline is None:
            return np.nan, np.nan
        try:
            p = self.baseline.project(x)
            feas = self.baseline.feasibility(x)
            g = scaled_norm(self.baseline.riemannian_grad(p, self.objective.gradient(p)))
            self.max_dist = max(self.max_dist, float(np.linalg.norm(x - p)))
        except ProjectionError:
            feas, g = np.nan, np.nan
        return feas, g

    def add(self, k, x, x_prev, mean):
        """Record iterate k; its surrogate objective is f(mean), with `mean`
        the Tweedie mean s(x), and its step norm the distance from `x_prev`."""
        feas, g = self.metrics(x)
        value = self.objective.value
        self.rows.append(
            (k, value(x), value(mean), feas, g, float(np.linalg.norm(x - x_prev)))
        )

    def finish(self, x_final, metadata):
        metadata = dict(metadata)
        metadata["wall_time_s"] = f"{time.perf_counter() - self.start:.3f}"
        if self.baseline is not None:
            tube = self.baseline.safe_tube_radius
            metadata["feasibility_metric"] = type(self.baseline).__name__.lower()
            metadata["max_manifold_distance"] = self.max_dist
            metadata["left_safe_tube"] = bool(self.max_dist > tube)
        return RunRecord(np.array(self.rows, dtype=float).reshape(-1, 6), metadata,
                         np.array(x_final, dtype=float))


def _drive(step, score, meta, objective, x0, max_steps, stop_tol, baseline, record_every):
    """The one iteration loop: stop test, recording, runaway check, metadata.

    `step(x)` returns (mean, stop vector, advance), where `mean` is the
    Tweedie mean s(x) and `advance()` computes the next iterate. The run
    stops on the budget, on a stop vector shorter than `stop_tol` (grad_tol;
    measured with `scaled_norm`, so a tiny tolerance is not met by
    underflow), or on a runaway iterate (diverged, which keeps the last
    finite iterate): one whose norm exceeds 1e9 (1 + ||x0||), compared
    squared, so that NaN fails the test and inf or an overflowing square
    exceeds the bound. The surrogate objective f(s(x)) and the step norm are
    evaluated only for the rows that are written, the row written on
    divergence included.
    """
    x = np.array(x0, dtype=float)
    bound_sq = (_RUNAWAY_FACTOR * (1.0 + np.linalg.norm(x))) ** 2
    rec = _Recorder(objective, baseline)
    meta.update(oracle=type(score).__name__, sigma=score.sigma, max_steps=max_steps,
                termination="budget")
    x_prev = x
    for k in range(max_steps + 1):
        mean, stop_vec, advance = step(x)
        stop = k == max_steps or scaled_norm(stop_vec) < stop_tol
        recorded = stop or k % record_every == 0
        if recorded:
            rec.add(k, x, x_prev, mean)
        if stop:
            if k < max_steps:
                meta["termination"] = "grad_tol"
            break
        x_next = advance()
        if not float(x_next @ x_next) <= bound_sq:
            if not recorded:
                rec.add(k, x, x_prev, mean)
            meta["termination"] = "diverged"
            meta["diverged_at_step"] = k + 1
            break
        x_prev, x = x, x_next
    return rec.finish(x, meta)


def dlf_run(score, objective, x0, *, t_step, eta, max_steps, stop_grad_tol, record_every,
            baseline=None):
    """Euler-discretized denoising landing flow; returns the RunRecord."""
    _check_params("t_step", t_step, max_steps, stop_grad_tol, record_every, eta)

    def step(x):
        post = score.posterior(x)
        mean = post.mean
        drift = -post.vjp(objective.gradient(mean)) + eta * (mean - x)
        return mean, drift, lambda: x + t_step * drift

    return _drive(step, score, {"algorithm": "dlf", "step_size": t_step, "eta": eta}, objective,
                  x0, max_steps, stop_grad_tol, baseline, record_every)


def drgd_run(score, objective, x0, *, gamma, max_steps, stop_grad_tol, record_every,
             baseline=None):
    """Denoising Riemannian gradient descent; returns the RunRecord."""
    _check_params("gamma", gamma, max_steps, stop_grad_tol, record_every)

    def step(x):
        post = score.posterior(x)
        vjp = post.vjp(objective.gradient(x))
        return post.mean, vjp, lambda: score.posterior(x - gamma * vjp).mean

    return _drive(step, score, {"algorithm": "drgd", "gamma": gamma}, objective, x0,
                  max_steps, stop_grad_tol, baseline, record_every)

