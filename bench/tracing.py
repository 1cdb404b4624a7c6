"""Span tracing of msopt from outside the package, and the per-layer metrics.

`Tracer.install` wraps every public function and every public method of the
classes defined in the loaded `msopt` modules, and rebinds each module-level
name that refers to a wrapped function (so `msopt.cli.drgd_run`, the name the
CLI calls, is traced as well as `msopt.optim.drgd_run`). Private helpers are
not wrapped; their time counts as self time of the public caller.

A span is (name, start, end, parent, invocation). Spans stay in memory in
flat arrays and are written out once, at the end of the run. A layer is the
msopt module a function is defined in; a span's self time is its duration
minus the durations of its child spans.
"""

import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

ORACLE_GROUPS = {
    "mixture": ("_MixtureOracle", "EmpiricalScoreOracle", "QuadratureScoreOracle"),
    "exact": ("ExactManifoldAdapter",),
    "mlp": ("MlpScoreOracle",),
}
OPTIMIZERS = ("drgd_run", "dlf_run", "landing_descent_run", "riemannian_gd_baseline")


class Tracer:
    def __init__(self):
        self.names = []
        self._codes = {}
        self._patches = []
        self.invocation = -1
        self._stack = [-1]
        self.reset()

    def reset(self):
        self.code = array("i")
        self.parent = array("i")
        self.inv = array("i")
        self.start = array("d")
        self.end = array("d")
        del self._stack[1:]

    def _wrap(self, fn, wrapped):
        if fn in wrapped:
            return wrapped[fn]
        name = f"{fn.__module__.removeprefix('msopt.')}:{fn.__qualname__}"
        code_id = self._codes.setdefault(name, len(self.names))
        if code_id == len(self.names):
            self.names.append(name)
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(tracer.code)
            tracer.code.append(code_id)
            tracer.parent.append(stack[-1])
            tracer.inv.append(tracer.invocation)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        wrapped[fn] = traced
        return traced

    def install(self):
        wrapped = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "msopt" or n.startswith("msopt."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") and not inspect.isclass(value):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("msopt"):
                    self._patch(module, attr, self._wrap(value, wrapped))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, wrapped)

    def _wrap_class(self, cls, wrapped):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(member.__func__, wrapped)))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(member.__func__, wrapped)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, wrapped))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "code": np.frombuffer(self.code, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "invocation": np.frombuffer(self.inv, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path, spans: dict, invocations: dict):
        """Write one traced workload run: span arrays plus name and invocation tables."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **spans,
                 invocation_names=np.array([invocations[k] for k in sorted(invocations)]),
                 invocation_ids=np.array(sorted(invocations), dtype=np.int32))


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


class SpanTable:
    """Self times and selections over the spans of one traced workload run."""

    def __init__(self, names, spans):
        self.names = names
        self.code = spans["code"]
        self.parent = spans["parent"]
        self.inv = spans["invocation"]
        self.start, self.end = spans["start"], spans["end"]
        self.dur = self.end - self.start
        n = self.code.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child
        parts = [name.split(":", 1) for name in names]
        self.layer_of = np.array([layer for layer, _ in parts], dtype=object)
        quals = [qual.rpartition(".") for _, qual in parts]
        self.cls_of = np.array([cls for cls, _, _ in quals], dtype=object)
        self.fn_of = np.array([fn for _, _, fn in quals], dtype=object)

    def mask(self, layer=None, fns=None, classes=None):
        """Spans of functions in `layer`, named in `fns`, on a class in `classes`."""
        ok = np.ones(len(self.names), dtype=bool)
        if layer is not None:
            ok &= self.layer_of == layer
        if fns is not None:
            ok &= np.isin(self.fn_of, fns)
        if classes is not None:
            ok &= np.isin(self.cls_of, classes)
        return ok[self.code]

    def descendants_of(self, roots):
        """Spans that are roots or have a root among their ancestors."""
        under = roots.copy()
        sentinel = np.append(under, False)
        while True:
            nxt = under | sentinel[self.parent]
            if np.array_equal(nxt, under):
                return under
            under = nxt
            sentinel = np.append(under, False)

    def outermost(self, sel):
        """Selected spans whose parent is not selected."""
        return sel & ~np.append(sel, False)[self.parent]

    def invocation_consistency(self):
        """Invocations whose spans do not form one run_cli tree: more than one
        root, a span never closed, or a span not inside its parent's interval
        (which would make self times meaningless); [(invocation, text)]."""
        roots = {}
        for r in np.flatnonzero(self.parent < 0):
            roots.setdefault(int(self.inv[r]), []).append(str(self.names[self.code[r]]))
        problems = [(k, f"spans outside a single run_cli root: {names}")
                    for k, names in roots.items() if names != ["cli:run_cli"]]
        p = np.where(self.parent >= 0, self.parent, np.arange(self.code.size))
        bad = (self.end < self.start) | (self.start < self.start[p]) | (self.end > self.end[p])
        for i in np.flatnonzero(bad):
            problems.append((int(self.inv[i]), f"span {self.names[self.code[i]]} "
                                               f"[{self.start[i]!r}, {self.end[i]!r}] "
                                               f"not closed inside its parent"))
        return problems


def per_call(values_s):
    """(p50 us, tail us, tail percentile, n) of per-call durations."""
    n = int(values_s.size)
    if n == 0:
        return 0.0, 0.0, None, 0
    us = values_s * 1e6
    p = tail_percentile(n)
    tail = float(np.percentile(us, p)) if p is not None else float(us.max())
    return float(np.median(us)), tail, p, n


def layer_metrics(table: SpanTable, full_ids, steps: dict):
    """Per-layer metrics of one traced workload run.

    `full_ids` are the invocation ids of the full-budget sequence (the zero-
    budget reruns are traced too but excluded here); `steps` gives the total
    iterations per kind: "optimize", "optimize_mixture", "train-score", "sample".
    Returns {name: (value, unit, detail)}.
    """
    t = table
    full = np.isin(t.inv, list(full_ids))
    in_loop = t.descendants_of(t.mask("optim", OPTIMIZERS) & full)
    out = {}

    def ratio(num, den):
        return float(num) / den if den else 0.0

    def calls(prefix, sel):
        p50, tail, p, n = per_call(t.dur[sel & full])
        out[f"{prefix}_us.p50"] = (p50, "us", f"n={n}")
        out[f"{prefix}_us.tail"] = (tail, "us", f"p{p} n={n}" if p else f"max n={n}")

    mixture = t.mask("score.oracles", classes=ORACLE_GROUPS["mixture"])
    for fn in ("mean", "mean_and_vjp", "mean_vjp", "eval"):
        calls(f"oracles.mixture.{fn}", mixture & t.mask(fns=[fn]))
    out["oracles.mixture.self_s"] = (float(t.self_time[mixture & full].sum()), "s", "")
    outer_mix = t.outermost(mixture) & in_loop
    out["oracles.mixture.calls_per_step"] = (
        ratio(outer_mix.sum(), steps["optimize_mixture"]), "calls/step",
        f"{int(outer_mix.sum())} outermost calls / {steps['optimize_mixture']} steps")
    for group, fns in (("exact", ("mean", "mean_and_vjp")), ("mlp", ("mean", "mean_vjp"))):
        sel = t.mask("score.oracles", classes=ORACLE_GROUPS[group])
        for fn in fns:
            calls(f"oracles.{group}.{fn}", sel & t.mask(fns=[fn]))

    project = t.mask("manifolds", ["project"]) & in_loop
    out["manifolds.project_calls_per_step"] = (
        ratio(project.sum(), steps["optimize"]), "calls/step",
        f"{int(project.sum())} calls / {steps['optimize']} steps")
    for fn in ("project", "projection_jacobian", "riemannian_grad", "feasibility"):
        calls(f"manifolds.{fn}", t.mask("manifolds", [fn]))
    sample = t.outermost(t.mask("manifolds", ["sample_uniform"])) & full
    out["manifolds.sample_uniform_s"] = (float(t.dur[sample].sum()), "s", f"n={int(sample.sum())}")

    for fn in ("value", "gradient"):
        calls(f"objectives.{fn}", t.mask("objectives", [fn]))
    value = t.mask("objectives", ["value"]) & full
    out["objectives.value_calls"] = (int(value.sum()), "count", "")

    optim_loop = t.mask("optim") & in_loop
    out["optim.loop_self_us_per_step"] = (
        ratio(t.self_time[optim_loop].sum() * 1e6, steps["optimize"]), "us", "")
    save = t.mask("optim", ["save"], ["RunRecord"]) & full
    out["optim.record_save_s"] = (float(t.dur[save].sum()), "s", f"n={int(save.sum())}")

    rollout = t.mask("control", ["rollout"]) & full
    out["control.rollout_calls"] = (int(rollout.sum()), "count", "")
    calls("control.rollout", t.mask("control", ["rollout"]))
    for metric, fns, classes in (
        ("generate_dataset", ["generate_dataset"], None),
        ("dataset_save", ["save"], ["TrajectoryDataset"]),
        ("dataset_load", ["load"], ["TrajectoryDataset"]),
        ("backtest", ["backtest"], None),
    ):
        sel = t.outermost(t.mask("control", fns, classes)) & full
        out[f"control.{metric}_s"] = (float(t.dur[sel].sum()), "s", f"n={int(sel.sum())}")

    for fn in ("forward_cached", "backward", "forward_raw", "input_vjp_raw"):
        calls(f"mlp.{fn}", t.mask("score.mlp", [fn]))
    dsm = t.mask("score.dsm") & full
    out["dsm.self_us_per_step"] = (
        ratio(t.self_time[dsm].sum() * 1e6, steps["train-score"]), "us", "")
    sampler = t.mask("score.sampler") & full
    out["sampler.self_us_per_step"] = (
        ratio(t.self_time[sampler].sum() * 1e6, steps["sample"]), "us", "")

    for metric, fn in (("rate_sweep", "rate_sweep"), ("landing_check", "landing_check"),
                       ("report", "feasibility_optimality_report")):
        sel = t.mask("validation", [fn]) & full
        out[f"validation.{metric}_s"] = (float(t.dur[sel].sum()), "s", f"n={int(sel.sum())}")
    fd = t.mask("linalg", ["fd_jacobian"]) & full
    out["linalg.fd_jacobian_calls"] = (int(fd.sum()), "count", "")

    n_inv = len(full_ids)
    cli = t.mask("cli") & full
    out["cli.self_s"] = (ratio(t.self_time[cli].sum(), n_inv), "s", f"per invocation, n={n_inv}")
    load = t.mask("config", ["load_config"]) & full
    out["config.load_s"] = (ratio(t.dur[load].sum(), n_inv), "s", f"per invocation, n={n_inv}")
    return out
