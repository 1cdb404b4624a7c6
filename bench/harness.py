"""Runs one workload for a fixed time and derives its metrics.

A workload run executes the workload's invocations at full budget, each
followed by a rerun with its iteration budget set to 0 when it has one. The
zero-budget reruns measure set-up: data, oracle build, x0 search and the
fixed report/write tail. Invocations without an iteration budget
(generate-data, validate) are set-up in full, so their full-run time counts
there too. Workload runs repeat until the time is spent; timings are medians
over them.

Every invocation is checked: its exit code, its artifacts byte for byte
against the first run with the same seed, `termination = budget` with the
expected number of `run.csv` rows, and the workload's invariants. An
invocation with any problem counts as failed.
"""

import hashlib
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import tracing
from workloads import Invocation, Workload, final_point, read_key_values

# Lines that carry a wall time, dropped before artifacts are compared.
_TIMED_LINE = b"wall_time_s"

# End-to-end throughputs that only some workloads have; the untraced runs
# report them, and the traced run lists them among the per-layer metrics.
LAYER_THROUGHPUTS = {"train_steps_per_s": "1/s", "sample_steps_per_s": "1/s",
                     "datagen_traj_per_s": "1/s", "validate_s": "s"}


@dataclass
class Call:
    inv: Invocation
    zero: bool
    out_dir: str
    config_path: str

    @property
    def key(self) -> str:
        return self.inv.name + (".zero" if self.zero else "")


@dataclass
class Outcome:
    """Bookkeeping of one benchmark run: attempts, problems, timings."""

    attempted: int = 0
    problems: dict = field(default_factory=dict)  # (rep, key) -> [text]
    reference: dict = field(default_factory=dict)  # key -> artifact digests
    reps: list = field(default_factory=list)  # {"traced", "times": {key: s}, "ids": {key: id}}

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, rep, key, texts):
        if texts:
            self.problems.setdefault((rep, key), []).extend(texts)


def plan(workload: Workload, work_dir: str):
    """Each invocation at full budget, then at zero budget; writes their configs.

    A zero-budget rerun follows its full run directly, so the two see the same
    host speed and their difference, the loop time, is steadier.
    """
    config_dir = os.path.join(work_dir, "configs")
    os.makedirs(config_dir, exist_ok=True)
    calls = []
    for inv in workload.invocations:
        for zero in (False, True) if inv.budget else (False,):
            key = inv.name + (".zero" if zero else "")
            call = Call(inv, zero, os.path.join(work_dir, key),
                        os.path.join(config_dir, key + ".cfg"))
            with open(call.config_path, "w") as fh:
                fh.write(inv.config_text(zero))
            calls.append(call)
    return calls


def invoke(call: Call):
    """Run one CLI invocation in-process; returns (seconds, exit code)."""
    import msopt.cli

    shutil.rmtree(call.out_dir, ignore_errors=True)
    argv = [call.inv.command, "--config", call.config_path, "--out", call.out_dir,
            *call.inv.extra_args]
    start = perf_counter()
    try:
        # looked up on the module at call time, so a traced run gets the wrapper
        code = msopt.cli.run_cli(argv)
    except Exception:  # an uncaught program error is a failed invocation
        traceback.print_exc(file=sys.stderr)
        code = "exception"
    return perf_counter() - start, code


def digest(out_dir) -> dict:
    """SHA-256 of each artifact without its timed lines, read line by line so
    the harness never holds a whole file (peak_rss_mb is the program's)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for line in fh:
                if not line.startswith(_TIMED_LINE):
                    h.update(line)
        out[name] = h.hexdigest()
    return out


def check(call: Call, code, outcome: Outcome) -> list:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems = []
    try:
        if call.inv.command == "optimize":
            meta = read_key_values(os.path.join(call.out_dir, "run.meta.txt"))
            if meta.get("termination") != "budget":
                problems.append(f"termination {meta.get('termination')!r}, expected 'budget'")
            steps = 0 if call.zero else call.inv.steps
            with open(os.path.join(call.out_dir, "run.csv")) as fh:
                rows = sum(1 for _ in fh) - 1
            want = steps // call.inv.record_every + 1
            if rows != want:
                problems.append(f"run.csv has {rows} rows, expected {want}")
        if not call.zero and call.inv.check is not None:
            problems += call.inv.check(call.out_dir)
        got = digest(call.out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return problems + [f"artifacts unreadable: {exc!r}"]
    ref = outcome.reference.setdefault(call.key, got)
    if got != ref:
        changed = sorted(n for n in set(got) | set(ref) if got.get(n) != ref.get(n))
        problems.append(f"artifacts differ from the first run with the same seed: {changed}")
    return problems


def run_rep(calls, outcome: Outcome, tracer=None, on_artifacts=None):
    """One workload run: every call once, timed, then checked outside the timing."""
    rep = len(outcome.reps)
    times, ids = {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for call in calls:
            if tracer is not None:
                tracer.invocation = ids[call.key] = len(ids)
            times[call.key], code = invoke(call)
            outcome.attempted += 1
            if on_artifacts is not None:
                on_artifacts(rep, call)
            outcome.fail(rep, call.key, check(call, code, outcome))
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome.reps.append({"traced": tracer is not None, "times": times, "ids": ids})
    return outcome.reps[-1]


def workload_times(calls, times) -> dict:
    """Per workload run: wall time, set-up time and the per-phase throughputs."""
    def total(command=None, zero=False):
        return sum(times[c.key] for c in calls
                   if c.zero == zero and command in (None, c.inv.command))

    full = [c for c in calls if not c.zero]
    out = {
        "wall_s": total(),
        "setup_s": total(zero=True) + sum(times[c.key] for c in full if not c.inv.budget),
    }
    for name, command in (("opt_steps_per_s", "optimize"), ("train_steps_per_s", "train-score"),
                          ("sample_steps_per_s", "sample")):
        steps = sum(c.inv.steps for c in full if c.inv.command == command)
        if steps:
            out[name] = steps / (total(command) - total(command, zero=True))
    trajectories = sum(c.inv.sections["manifold"]["count"] for c in full
                       if c.inv.command == "generate-data"
                       and c.inv.sections["manifold"]["kind"] == "unicycle")
    if trajectories:
        out["datagen_traj_per_s"] = trajectories / total("generate-data")
    if any(c.inv.command == "validate" for c in full):
        out["validate_s"] = total("validate")
    return out


def summarize(values):
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    values = [float(v) for v in values]
    p = tracing.tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail_percentile": p,
        "tail": float(np.percentile(values, p)) if p is not None else None,
        "values": values,
    }


def posterior_properties(calls) -> dict:
    """N, d, sigma, nonzero-weight share and Kish ESS at x0 and at the final point."""
    out = {}
    for call in calls:
        if call.zero or call.inv.atoms is None:
            continue
        zero_dir = os.path.join(os.path.dirname(call.out_dir), call.inv.name + ".zero")
        try:
            atoms, sigma = call.inv.atoms()
            points = {"x0": final_point(zero_dir), "final": final_point(call.out_dir)}
        except (OSError, ValueError, KeyError) as exc:
            out[call.inv.name] = {"unreadable": repr(exc)}
            continue
        row = {"N": int(atoms.shape[0]), "d": int(atoms.shape[1]), "sigma": sigma}
        for where, x in points.items():
            diff = atoms - x
            logits = -np.einsum("nd,nd->n", diff, diff) / (2.0 * sigma * sigma)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            row[f"nonzero_share_{where}"] = float(np.count_nonzero(w)) / w.size
            row[f"ess_{where}"] = float(1.0 / np.sum(w * w))
        out[call.inv.name] = row
    return out


def observations(calls) -> dict:
    """Known-red behaviour, recorded and never gated."""
    out = {}
    for call in calls:
        if call.zero:
            continue
        summary = os.path.join(call.out_dir, "summary.txt")
        try:
            if call.inv.command == "optimize":
                row = {k: v for k, v in read_key_values(summary).items() if k != "run summary"}
                run = np.loadtxt(os.path.join(call.out_dir, "run.csv"), delimiter=",",
                                 skiprows=1, ndmin=2)
                row["max_step_norm"] = float(run[:, 5].max())
                out[call.inv.name] = row
            elif call.inv.sections.get("algorithm", {}).get("check") == "rate":
                with open(summary) as fh:
                    out[call.inv.name] = {
                        line.split(":")[0].strip(): line.split(":")[1].strip()
                        for line in fh if line.startswith("log-log slope")
                    }
        except (OSError, ValueError, IndexError) as exc:
            out[call.inv.name] = {"unreadable": repr(exc)}
    return out


def run_workload(workload: Workload, work_dir: str, seconds: float, trace: bool,
                 on_artifacts=None) -> dict:
    calls = plan(workload, work_dir)
    outcome = Outcome()
    tracer = tracing.Tracer() if trace else None
    traced_metrics, kept_spans = [], None
    started = perf_counter()
    rounds = 0
    while True:
        run_rep(calls, outcome, on_artifacts=on_artifacts)
        if tracer is not None:
            rep = run_rep(calls, outcome, tracer, on_artifacts=on_artifacts)
            spans = tracer.arrays()
            tracer.reset()
            traced_metrics.append(_trace_metrics(tracer.names, spans, calls, rep, outcome))
            if kept_spans is None:
                kept_spans = (spans, {v: k for k, v in rep["ids"].items()})
        rounds += 1
        elapsed = perf_counter() - started
        if len(outcome.reps) >= 2 and elapsed + elapsed / rounds > seconds:
            break
    if tracer is not None:
        _check_exact_counts(traced_metrics, outcome, calls[-1].key)

    untraced = [r["times"] for r in outcome.reps if not r["traced"]]
    per_rep = [workload_times(calls, t) for t in untraced]
    result = {
        "workload": workload.name,
        "measured_s": perf_counter() - started,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_fraction": outcome.failed / outcome.attempted,
        "problems": {f"run{r}/{k}": v for (r, k), v in sorted(outcome.problems.items())},
        "end_to_end": {name: summarize([r[name] for r in per_rep]) for name in per_rep[0]},
        "invocation_s": {c.key: summarize([t[c.key] for t in untraced]) for c in calls},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "posterior": posterior_properties(calls),
        "observations": observations(calls),
    }
    if tracer is not None:
        result["per_layer"] = _per_layer(traced_metrics, outcome, calls, result["end_to_end"])
        spans, names = kept_spans
        result["spans_file"] = os.path.join(work_dir, "spans.npz")
        tracer.save(result["spans_file"], spans, names)
    return result


# Per-layer counts that are exact: every traced run must give the same value.
EXACT_COUNTS = ("oracles.mixture.calls_per_step", "manifolds.project_calls_per_step",
                "control.rollout_calls", "objectives.value_calls", "linalg.fd_jacobian_calls")


def _check_exact_counts(traced_metrics, outcome, key):
    """A traced run whose exact counts differ from the first traced run fails;
    the problem is booked on its last invocation, `key`."""
    traced = [i for i, r in enumerate(outcome.reps) if r["traced"]]
    first = traced_metrics[0]
    for rep, metrics in zip(traced[1:], traced_metrics[1:]):
        outcome.fail(rep, key, [f"trace: {name} {metrics[name][0]!r}, first traced run "
                                    f"{first[name][0]!r}" for name in EXACT_COUNTS
                                    if metrics[name][0] != first[name][0]])


def _per_layer(traced_metrics, outcome, calls, end_to_end) -> dict:
    """Medians over the traced runs, the tracing overhead, and the throughputs
    of single layers from the untraced runs (0 where the workload lacks them)."""
    layers = {}
    for name, (_, unit, detail) in traced_metrics[0].items():
        values = [m[name][0] for m in traced_metrics]
        layers[name] = {"value": statistics.median(values), "unit": unit, "detail": detail,
                        "values": values}
    # each traced run against the untraced run just before it, so that both
    # see the same host speed; the host's speed drifts over minutes
    walls = [workload_times(calls, r["times"])["wall_s"] for r in outcome.reps]
    overheads = [walls[i] - walls[i - 1] for i, r in enumerate(outcome.reps) if r["traced"]]
    layers["tracing.overhead_s"] = {"value": statistics.median(overheads), "unit": "s",
                                    "detail": f"traced minus untraced wall, n={len(overheads)}",
                                    "values": overheads}
    for name, unit in LAYER_THROUGHPUTS.items():
        row = end_to_end.get(name)
        layers[name] = {"value": row["median"] if row else 0.0, "unit": unit,
                        "detail": f"untraced, n={row['n']}" if row else "not in this workload",
                        "values": row["values"] if row else []}
    return layers


def _trace_metrics(names, spans, calls, rep, outcome):
    table = tracing.SpanTable(names, spans)
    rep_index = len(outcome.reps) - 1
    by_id = {v: k for k, v in rep["ids"].items()}
    for inv_id, text in table.invocation_consistency():
        outcome.fail(rep_index, by_id.get(inv_id, str(inv_id)), [f"trace: {text}"])
    full_ids = [rep["ids"][c.key] for c in calls if not c.zero]
    steps = {"optimize": 0, "optimize_mixture": 0, "train-score": 0, "sample": 0}
    for c in calls:
        if c.zero or not c.inv.budget:
            continue
        steps[c.inv.command] += c.inv.steps
        if c.inv.command == "optimize" and c.inv.sections["oracle"]["kind"] in ("empirical",
                                                                                "quadrature"):
            steps["optimize_mixture"] += c.inv.steps
    return tracing.layer_metrics(table, full_ids, steps)
