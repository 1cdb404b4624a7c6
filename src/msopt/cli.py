"""Command-line front end: one experiment per invocation, artifacts to disk.

Subcommands: generate-data, train-score, optimize, validate, sample. Each
takes --config (flat key=value file, see `--help` for the keys per
subcommand) plus optional --seed/--out overrides. Exit codes: 0 success,
1 numerical abort or violated --assert thresholds, 2 usage/config errors.

A subcommand is a generator in three steps. It reads its keys and builds its
run up to its first `yield`, where `run_cli` rejects a set key that was
never read; it runs up to its second `yield`, where `run_cli` creates the
output directory; then it writes its artifacts and yields (artifacts,
aborted). A config error or a numerical failure thus writes nothing.
"""

import argparse
import os
import sys
import time
from functools import partial

import numpy as np

import msopt
from msopt import rng as _rng
from msopt.config import KINDS, ConfigError, ExperimentConfig, describe_keys, load_config
from msopt.control import SYSTEM_KINDS, SystemModel, TrajectoryDataset, generate_dataset
from msopt.errors import MsoptError
from msopt.manifolds import Circle, Orthogonal, Sphere
from msopt.objectives import (
    REFERENCE_KINDS,
    AffineReparamObjective,
    LinearObjective,
    TrackingObjective,
    ZeroObjective,
    make_reference,
    random_brockett,
)
from msopt.optim import dlf_run, drgd_run
from msopt.score.dsm import dsm_train
from msopt.score.mlp import load_score_mlp, make_score_mlp
from msopt.score.oracles import (
    EmpiricalScoreOracle,
    ExactManifoldAdapter,
    MlpScoreOracle,
    quadrature_nodes,
)
from msopt.score.sampler import ve_reverse_sample
from msopt.textio import read_csv, write_csv, write_key_values
from msopt.validation import feasibility_optimality_report, landing_check, rate_sweep


def _write_manifest(out_dir, cfg: ExperimentConfig, started, artifacts):
    with open(os.path.join(out_dir, "config_echo.cfg"), "w") as fh:
        fh.write(cfg.echo())
    write_key_values(os.path.join(out_dir, "manifest.txt"), [
        ("msopt_version", msopt.__version__),
        ("numpy_version", np.__version__),
        ("python_version", sys.version.split()[0]),
        ("experiment_kind", cfg.kind),
        ("seed", cfg.seed),
        ("wall_time_s", f"{time.perf_counter() - started:.3f}"),
        ("config_echo", "config_echo.cfg"),
        *(("artifact", name) for name in artifacts),
    ])


def _build_manifold(cfg: ExperimentConfig):
    """The [manifold], from the keys of its kind alone."""
    kind = cfg.get("manifold", "kind")
    if kind == "circle":
        return Circle(radius=cfg.get("manifold", "radius"))
    if kind == "sphere":
        return Sphere(ambient_dim=cfg.get("manifold", "dim"), radius=cfg.get("manifold", "radius"))
    if kind == "orthogonal":
        return Orthogonal(n=cfg.get("manifold", "n"))
    raise ConfigError(f"unknown manifold kind {kind!r}")


def _oracle_family(cfg: ExperimentConfig, manifold, atoms=None):
    """sigma -> oracle of the configured [oracle] kind.

    The points file is read, the sample drawn or the network loaded once,
    here; every sigma reuses them. `atoms` (the normalized trajectories of a
    tracking run) take the place of the points file and the sample. The
    quadrature nodes of a circle are the atoms of the same empirical oracle.
    The oracle's dimension must be the manifold's, or else that of `atoms`.
    """
    kind = cfg.get("oracle", "kind")
    want = manifold.ambient_dim if manifold is not None else None if atoms is None else atoms.shape[1]
    if kind in ("exact", "quadrature") and manifold is None:
        raise ConfigError(f"{kind} oracle needs a circle, sphere or orthogonal [manifold]")
    if kind == "exact":
        exact = ExactManifoldAdapter(manifold)
        return lambda sigma: exact
    if kind == "quadrature":
        kind, atoms = "empirical", quadrature_nodes(manifold, cfg.get("oracle", "node_count"))
    if kind == "empirical":
        if atoms is None:
            if cfg.has("oracle", "dataset"):
                atoms = read_csv(cfg.get("oracle", "dataset"))
            elif manifold is not None:
                atoms = manifold.sample_uniform(cfg.get("oracle", "sample_count"), seed=cfg.seed)
            else:
                raise ConfigError("empirical oracle needs [oracle] dataset or a [manifold]")
        dim, family = atoms.shape[1], lambda sigma: EmpiricalScoreOracle(atoms, sigma)
    elif kind == "mlp":
        mlp = load_score_mlp(cfg.get("oracle", "model"))
        dim, family = mlp.ambient_dim, lambda sigma: MlpScoreOracle(mlp, sigma)
    else:
        raise ConfigError(f"unknown oracle kind {kind!r}")
    if want is not None and dim != want:
        raise ConfigError(f"oracle dimension {dim} does not match the "
                          f"{'dataset' if manifold is None else 'manifold'}'s {want}")
    return family


def _tracking_weights(cfg: ExperimentConfig, system: SystemModel):
    if cfg.has("objective", "q_weight"):
        q = np.diag(cfg.get("objective", "q_weight"))
    elif system.kind == "unicycle":
        q = np.diag([10.0, 10.0, 0.0])
    else:
        q = np.diag([10.0, 10.0])
    if cfg.has("objective", "r_weight"):
        r = np.diag(cfg.get("objective", "r_weight"))
    else:
        r = 0.01 * np.eye(system.input_dim)
    return q, r


def _load_tracking(cfg: ExperimentConfig):
    """The trajectory dataset of a tracking run and its tracking objective.

    [manifold] kind, horizon and dt describe the dataset here; when set they
    must match it.
    """
    path = cfg.get("oracle", "dataset")
    if not os.path.isdir(path):
        raise ConfigError("tracking runs need [oracle] dataset = <trajectory directory>")
    if cfg.get("objective", "kind") != "tracking":
        raise ConfigError("a trajectory dataset needs [objective] kind = tracking")
    dataset = TrajectoryDataset.load(path)
    system = dataset.system
    for key, value in (("kind", system.kind), ("horizon", dataset.horizon), ("dt", system.dt)):
        if cfg.has("manifold", key) and cfg.get("manifold", key) != value:
            raise ConfigError(
                f"[manifold] {key} = {cfg.get('manifold', key)} does not match "
                f"the dataset in {path} ({key} = {value})"
            )
    q, r = _tracking_weights(cfg, system)
    ref_spec = cfg.get("objective", "reference")
    if ref_spec in REFERENCE_KINDS:
        ref = make_reference(
            ref_spec, dataset.horizon, system.dt, system.output_dim,
            amplitude=cfg.get("objective", "amplitude"),
        )
    elif os.path.isfile(ref_spec):
        ref = read_csv(ref_spec)
    else:
        raise ConfigError(f"[objective] reference = {ref_spec} is neither one of "
                          f"{', '.join(REFERENCE_KINDS)} nor an existing CSV file")
    tracking = TrackingObjective(ref, q, r, dataset.horizon)
    if tracking.layout != dataset.layout:
        raise ConfigError(
            f"objective layout {tracking.layout} ([objective] r_weight sets the inputs, "
            f"q_weight the outputs) does not match the dataset's {dataset.layout}"
        )
    return dataset, tracking


def _manifold_objective(cfg: ExperimentConfig, manifold, ambient_dim):
    obj_kind = cfg.get("objective", "kind")
    if obj_kind == "linear":
        a = cfg.get("objective", "a")
        if len(a) != ambient_dim:
            raise ConfigError(f"[objective] a has {len(a)} entries, but the oracle's "
                              f"dimension is {ambient_dim}")
        return LinearObjective(np.array(a))
    if obj_kind == "brockett":
        if manifold is None or not hasattr(manifold, "n"):
            raise ConfigError("brockett objective needs an orthogonal [manifold]")
        return random_brockett(manifold.n, seed=cfg.get("objective", "a_seed"))
    if obj_kind == "zero":
        return ZeroObjective(ambient_dim)
    raise ConfigError(f"unknown objective kind {obj_kind!r}")


def _algorithm_params(cfg: ExperimentConfig, *keys):
    """[algorithm] values by key; a run function's parameter is named after
    the key that sets it, and its default is the schema's."""
    return {key: cfg.get("algorithm", key) for key in keys}


def _algorithm(cfg, oracle, objective, x0, baseline):
    """The configured optimizer with its [algorithm] keys bound, not yet run."""
    algo = cfg.get("algorithm", "kind")
    loop = ("max_steps", "stop_grad_tol", "record_every")
    if algo == "dlf":
        return partial(dlf_run, oracle, objective, x0, baseline=baseline,
                       **_algorithm_params(cfg, "t_step", "eta", *loop))
    if algo == "drgd":
        return partial(drgd_run, oracle, objective, x0, baseline=baseline,
                       **_algorithm_params(cfg, "gamma", *loop))
    raise ConfigError(f"unknown algorithm kind {algo!r}")


def _cmd_generate_data(cfg: ExperimentConfig, out_dir: str):
    kind = cfg.get("manifold", "kind")
    count = cfg.get("manifold", "count")
    if count < 1:
        raise ConfigError(f"[manifold] count = {count}: need count >= 1")
    if kind in SYSTEM_KINDS:
        dt = cfg.get("manifold", "dt") if cfg.has("manifold", "dt") else None
        system = SystemModel(kind=kind, dt=dt)
        horizon = cfg.get("manifold", "horizon")
        yield
        dataset = generate_dataset(system, count, horizon, cfg.seed)
        yield
        dataset.save(out_dir)
        yield ["meta.txt", "data.csv"], False
        return
    manifold = _build_manifold(cfg)
    yield
    points = manifold.sample_uniform(count, cfg.seed)
    yield
    write_csv(os.path.join(out_dir, "points.csv"), None, points)
    yield ["points.csv"], False


def _cmd_train_score(cfg: ExperimentConfig, out_dir: str):
    path = cfg.get("oracle", "dataset")
    if os.path.isdir(path):
        ds = TrajectoryDataset.load(path)
        data = ds.normalize(ds.data)
    else:
        data = read_csv(path)
    mlp = make_score_mlp(data.shape[1], hidden=cfg.get("algorithm", "hidden"), seed=cfg.seed)
    params = _algorithm_params(cfg, "epochs", "batch", "t_max", "t_min", "lr_hi", "lr_lo")
    yield
    mlp, trace = dsm_train(data, mlp, seed=cfg.seed, **params)
    yield
    mlp.save(os.path.join(out_dir, "model.msopt"))
    write_csv(os.path.join(out_dir, "loss_trace.csv"), "epoch,loss",
              np.column_stack([np.arange(len(trace)), trace]))
    yield ["model.msopt", "loss_trace.csv"], False


def _resolve_x0(cfg, dim, manifold, atoms, atom_values, data_atoms):
    """Start point and, when it is the best of `atoms`, its objective value.

    `atom_values()` gives the objective at the atoms; data atoms (not
    quadrature nodes) are the auto start. An explicit start must be `dim`
    finite floats.
    """
    spec = cfg.get("algorithm", "x0")
    if spec == "auto":
        spec = "dataset_argmin" if data_atoms else "sample"
    if spec == "dataset_argmin":
        if atoms is None:
            raise ConfigError("x0 = dataset_argmin needs an empirical or quadrature oracle "
                              "or a trajectory dataset")
        vals = np.asarray(atom_values())
        best = int(np.argmin(vals))
        return atoms[best].copy(), float(vals[best])
    if spec == "sample":
        if manifold is None:
            raise ConfigError("x0 = sample needs a circle, sphere or orthogonal [manifold]")
        return manifold.sample_uniform(1, _rng.stream(cfg.seed, "x0").integers(2**31))[0], None
    try:
        x0 = np.array([float(v) for v in spec.split(",")])
    except ValueError:
        x0 = None
    if x0 is None or x0.size != dim or not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 = {spec} is not auto, dataset_argmin, sample or "
                          f"{dim} finite comma-separated floats (the oracle's dimension)")
    return x0, None


def _cmd_optimize(cfg: ExperimentConfig, out_dir: str):
    # the exact oracle has no noise scale
    sigma = None if cfg.get("oracle", "kind") == "exact" else cfg.get("oracle", "sigma")
    manifold_kind = cfg.get("manifold", "kind") if cfg.has("manifold", "kind") else None
    if cfg.get("objective", "kind") == "tracking" or manifold_kind in SYSTEM_KINDS:
        # a trajectory dataset: optimize in its normalized coordinates
        dataset, tracking = _load_tracking(cfg)
        manifold, atoms = None, dataset.normalize(dataset.data)
        oracle = _oracle_family(cfg, None, atoms)(sigma)
        objective = AffineReparamObjective(tracking, dataset.norm_shift, dataset.norm_scale)
        atom_values = lambda: [tracking.value(p) for p in dataset.data]
    else:
        dataset = tracking = None
        manifold = None if manifold_kind is None else _build_manifold(cfg)
        oracle = _oracle_family(cfg, manifold)(sigma)
        objective = _manifold_objective(cfg, manifold, oracle.ambient_dim)
        atoms = getattr(oracle, "points", None)
        atom_values = lambda: [objective.value(p) for p in atoms]
    x0, best = _resolve_x0(cfg, oracle.ambient_dim, manifold, atoms, atom_values,
                           dataset is not None or cfg.get("oracle", "kind") == "empirical")
    algorithm = _algorithm(cfg, oracle, objective, x0, manifold)
    yield
    record = algorithm()
    record.metadata["seed"] = cfg.seed
    if dataset is not None:
        record.metadata["space"] = "normalized"
    if best is not None:
        record.metadata["dataset_best_objective"] = best
    summary = feasibility_optimality_report(record, dataset=dataset, objective=tracking)
    yield
    record.save(os.path.join(out_dir, "run.csv"), os.path.join(out_dir, "run.meta.txt"))
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary.to_text())
    artifacts = ["run.csv", "run.meta.txt", "summary.txt"]
    if dataset is not None:
        write_csv(os.path.join(out_dir, "optimized_point.csv"), None,
                  dataset.denormalize(record.final_point)[None, :])
        artifacts.append("optimized_point.csv")
    yield artifacts, record.metadata.get("termination") == "diverged"


def _cmd_validate(cfg: ExperimentConfig, out_dir: str, do_assert: bool):
    check = cfg.get("algorithm", "check")
    if check not in ("rate", "landing"):
        raise ConfigError(f"unknown validate check {check!r}")
    manifold = _build_manifold(cfg)
    # each check's thresholds are checked before it runs: a NaN one would
    # pass every comparison below
    violations = []
    if check == "rate":
        lo, hi = cfg.get("algorithm", "slope_min"), cfg.get("algorithm", "slope_max")
        if not -np.inf < lo <= hi < np.inf:
            raise ConfigError(f"[algorithm] slope_min = {lo!r} and slope_max = {hi!r} "
                              "must be finite with slope_min <= slope_max")
        sigmas = cfg.get("algorithm", "sigmas")
        if len(set(sigmas)) < 2:
            raise ConfigError(f"[algorithm] sigmas = {','.join(map(str, sigmas))} "
                              "needs at least two distinct values to fit a slope")
        family = _oracle_family(cfg, manifold)
        offsets, n_points = cfg.get("algorithm", "offsets"), cfg.get("algorithm", "n_points")
        yield
        report = rate_sweep(family, manifold, offsets, sigmas, n_points, cfg.seed)
        for name, slope in (("mean", report.slope_mean), ("jacobian", report.slope_jacobian)):
            if not (lo <= slope <= hi):
                violations.append(f"{name} slope {slope:.3f} outside [{lo}, {hi}]")
        if not report.monotone_decreasing():
            violations.append("errors not monotone decreasing in sigma")
    else:
        budget = cfg.get("algorithm", "max_rel_dev")
        if not np.isfinite(budget):
            raise ConfigError(f"[algorithm] max_rel_dev = {budget!r} must be finite")
        base = manifold.sample_uniform(1, cfg.seed)[0]
        x0 = base + cfg.get("algorithm", "x0_distance") * manifold.unit_normal(base, seed=cfg.seed)
        params = _algorithm_params(cfg, "eta", "t_end", "euler_step", "record_every")
        yield
        report = landing_check(manifold, x0=x0, **params)
        if report.max_rel_deviation > budget:
            violations.append(
                f"max relative deviation {report.max_rel_deviation:.4g} > {budget}"
            )
    yield
    report.save_csv(os.path.join(out_dir, f"{check}_report.csv"))
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(report.summary_text())

    for v in violations:
        print(f"assertion violated: {v}", file=sys.stderr)
    yield [f"{check}_report.csv", "summary.txt"], bool(violations) and do_assert


def _cmd_sample(cfg: ExperimentConfig, out_dir: str):
    mlp = load_score_mlp(cfg.get("oracle", "model"))
    params = _algorithm_params(cfg, "count", "steps", "t_max", "t_min")
    yield
    samples = ve_reverse_sample(mlp, seed=cfg.seed, **params)
    yield
    write_csv(os.path.join(out_dir, "samples.csv"), None, samples)
    yield ["samples.csv"], False


def _reject_unread_keys(cfg: ExperimentConfig):
    """A set key the built run never read does nothing: name each, and the
    run's kinds. [experiment] and [output] are read by `run_cli` itself."""
    unread = [f"[{s}] {k}" for s, k in cfg.values
              if (s, k) not in cfg.reads and s not in ("experiment", "output")]
    if unread:
        raise ConfigError(f"{', '.join(unread)} set but not read by this run "
                          f"({cfg.describe_run()})")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msopt",
        description="Riemannian optimization over sampled data manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(
            kind,
            help=f"run a {kind} experiment",
            epilog="config keys (a key without a default is required by the run that reads it; a "
                   "run exits 2 and writes nothing if its config lacks such a key or sets a key "
                   "that the run does not read; every run reads [experiment] and [output] dir):\n"
                   + describe_keys(kind),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, help="override [experiment] seed")
        p.add_argument("--out", help="override [output] dir")
        if kind == "validate":
            p.add_argument(
                "--assert", dest="do_assert", action="store_true",
                help="exit 1 when validation thresholds are violated",
            )
    return parser


def run_cli(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                f"config declares kind {cfg.kind!r} but subcommand is {args.command!r}"
            )
        if args.seed is not None:
            cfg.values[("experiment", "seed")] = args.seed
        out_dir = args.out or cfg.get("output", "dir")
        cfg.values[("output", "dir")] = out_dir
        if cfg.kind == "generate-data":
            steps = _cmd_generate_data(cfg, out_dir)
        elif cfg.kind == "train-score":
            steps = _cmd_train_score(cfg, out_dir)
        elif cfg.kind == "optimize":
            steps = _cmd_optimize(cfg, out_dir)
        elif cfg.kind == "validate":
            steps = _cmd_validate(cfg, out_dir, args.do_assert)
        else:
            steps = _cmd_sample(cfg, out_dir)
        next(steps)
        _reject_unread_keys(cfg)
        next(steps)
        os.makedirs(out_dir, exist_ok=True)
        artifacts, aborted = next(steps)
        _write_manifest(out_dir, cfg, started, artifacts)
        if aborted:
            print("run finished with violations or a numerical abort", file=sys.stderr)
            return 1
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        # contract violations from component constructors and missing or
        # unreadable input files (the message names the path) are config mistakes
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MsoptError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
