import os
import re
import subprocess
import sys

import numpy as np
import pytest

from msopt.cli import run_cli
from msopt.config import ConfigError, describe_keys, load_config, parse_config_text
from msopt.control import SystemModel
from msopt.objectives import LinearObjective

OPTIMIZE_CFG = """\
[experiment]
kind = optimize
seed = 7

[oracle]
kind = exact

[manifold]
kind = sphere
dim = 3

[objective]
kind = linear
a = 1.0,2.0,-0.5

[algorithm]
kind = drgd
gamma = 0.05
max_steps = 400
stop_grad_tol = 1e-10

[output]
dir = out
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_and_echo_roundtrip(tmp_path):
    cfg = load_config(_write(tmp_path, OPTIMIZE_CFG))
    assert cfg.kind == "optimize"
    assert cfg.seed == 7
    assert cfg.get("algorithm", "gamma") == 0.05
    again = parse_config_text(cfg.echo())
    assert again == cfg


def test_defaults_applied():
    cfg = parse_config_text(OPTIMIZE_CFG)
    assert cfg.get("algorithm", "record_every") == 1
    assert cfg.get("oracle", "sigma") == 0.05
    # published hyperparameter defaults
    assert cfg.get("algorithm", "eta") == 3e3
    assert cfg.get("algorithm", "t_step") == 1e-4
    assert cfg.get("algorithm", "gamma") == 0.05  # set explicitly above


def test_shipped_configs_parse():
    import glob

    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))
    assert len(paths) >= 4
    for path in paths:
        cfg = load_config(path)
        assert cfg.kind in ("optimize", "validate", "generate-data")
    drgd = load_config([p for p in paths if "brockett" in p][0])
    assert drgd.get("algorithm", "gamma") == 1e-3


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"(?s)2: unknown key"):
        parse_config_text("[experiment]\nflavor = vanilla\n")


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ConfigError, match=r"4: duplicate key 'seed'.*line 3"):
        parse_config_text("[experiment]\nkind = optimize\nseed = 1\nseed = 2\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside any"):
        parse_config_text("kind = optimize\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="3: bad value for 'seed'"):
        parse_config_text("[experiment]\nkind = optimize\nseed = banana\n")


def test_key_not_used_by_kind_rejected(tmp_path, capsys):
    # the key parses (optimize reads it), but a sample run never reads it
    from msopt.score.mlp import make_score_mlp

    model = tmp_path / "m.msopt"
    make_score_mlp(2, hidden=(4,), seed=0).save(model)
    path = _write(tmp_path, f"[experiment]\nkind = sample\n\n[oracle]\nmodel = {model}\n\n"
                            "[algorithm]\ngamma = 0.1\n")
    out = tmp_path / "o"
    assert run_cli(["sample", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: [algorithm] gamma set but not read by "
                                       "this run ([experiment] kind = sample)\n")
    assert not out.exists()


def test_describe_keys_covers_subcommand_surface():
    text = describe_keys("optimize")
    for key in ("gamma", "t_step", "eta", "max_steps", "x0"):
        assert key in text
    assert "check" not in text  # validate-only key


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert run_cli(["optimize", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_2(capsys):
    assert run_cli(["explode"]) == 2


def test_cli_kind_mismatch_exits_2(tmp_path, capsys):
    path = _write(tmp_path, OPTIMIZE_CFG)
    assert run_cli(["sample", "--config", path]) == 2


def test_cli_component_contract_violation_exits_2(tmp_path, capsys):
    # quadrature oracle on a non-circle manifold is a config mistake
    cfg = OPTIMIZE_CFG.replace("kind = exact", "kind = quadrature")
    path = _write(tmp_path, cfg)
    assert run_cli(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_help_lists_config_keys(capsys):
    assert run_cli(["optimize", "--help"]) == 0
    out = capsys.readouterr().out
    assert "gamma" in out and "max_steps" in out
    # defaults print as a config line writes them, not in 17 digits
    assert "sigma <float> (default 0.05)" in out
    assert run_cli(["validate", "--help"]) == 0
    assert "sigmas <floats> (default 0.2,0.1,0.05,0.025,0.0125)" in capsys.readouterr().out
    assert ("config keys (a key without a default is required by the run that reads it; a run "
            "exits 2 and writes nothing if its config lacks such a key or sets a key that the run "
            "does not read; every run reads [experiment] and [output] dir):") in out


def test_cli_optimize_writes_artifacts_and_is_reproducible(tmp_path):
    path = _write(tmp_path, OPTIMIZE_CFG)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert run_cli(["optimize", "--config", path, "--out", out_a]) == 0
    assert run_cli(["optimize", "--config", path, "--out", out_b]) == 0
    for name in ("run.csv", "run.meta.txt", "summary.txt", "manifest.txt", "config_echo.cfg"):
        assert os.path.exists(os.path.join(out_a, name))
    with open(os.path.join(out_a, "run.csv"), "rb") as fa, open(
        os.path.join(out_b, "run.csv"), "rb"
    ) as fb:
        assert fa.read() == fb.read()


def test_cli_config_echo_reloads_identically(tmp_path):
    path = _write(tmp_path, OPTIMIZE_CFG)
    out = str(tmp_path / "echo_run")
    assert run_cli(["optimize", "--config", path, "--out", out]) == 0
    original = load_config(path)
    original.values[("output", "dir")] = out
    echoed = load_config(os.path.join(out, "config_echo.cfg"))
    assert echoed == original


def test_cli_seed_override_changes_stream(tmp_path):
    cfg = OPTIMIZE_CFG.replace("kind = drgd", "kind = drgd").replace(
        "[oracle]\nkind = exact", "[oracle]\nkind = empirical\nsample_count = 50\nsigma = 0.4"
    )
    path = _write(tmp_path, cfg)
    out_a, out_b = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert run_cli(["optimize", "--config", path, "--out", out_a, "--seed", "1"]) == 0
    assert run_cli(["optimize", "--config", path, "--out", out_b, "--seed", "2"]) == 0
    a = np.loadtxt(os.path.join(out_a, "run.csv"), delimiter=",", skiprows=1)
    b = np.loadtxt(os.path.join(out_b, "run.csv"), delimiter=",", skiprows=1)
    assert not np.array_equal(a, b)


def test_cli_validate_assert_exit_codes(tmp_path):
    rate_cfg = """\
[experiment]
kind = validate
seed = 3

[oracle]
kind = quadrature
node_count = 1024

[manifold]
kind = circle

[algorithm]
check = rate
n_points = 10
{band}

[output]
dir = out
"""
    # uniform-circle errors decay quadratically: the default band [1.9, 2.1]
    # must pass, a band that excludes 2 must fail
    path_pass = _write(tmp_path, rate_cfg.format(band=""), "pass.cfg")
    assert run_cli(["validate", "--config", path_pass, "--out", str(tmp_path / "v1"),
                    "--assert"]) == 0
    path_fail = _write(tmp_path, rate_cfg.format(band="slope_min = 0.7\nslope_max = 1.4"),
                       "fail.cfg")
    assert run_cli(["validate", "--config", path_fail, "--out", str(tmp_path / "v2"),
                    "--assert"]) == 1
    # without --assert the violation is reported but the exit code stays 0
    assert run_cli(["validate", "--config", path_fail, "--out", str(tmp_path / "v3")]) == 0


def test_cli_validate_landing(tmp_path):
    cfg = """\
[experiment]
kind = validate
seed = 5

[manifold]
kind = sphere
dim = 3

[algorithm]
check = landing
eta = 1.0
x0_distance = 0.3
t_end = 2.0
euler_step = 1e-3
record_every = 10

[output]
dir = out
"""
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "landing")
    assert run_cli(["validate", "--config", path, "--out", out, "--assert"]) == 0
    assert os.path.exists(os.path.join(out, "landing_report.csv"))


@pytest.mark.parametrize("every", [0, -4])
def test_cli_validate_landing_record_every_checked(tmp_path, capsys, every):
    # record_every = 0 ended in a ZeroDivisionError traceback
    shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "landing_sphere.cfg")
    with open(shipped) as fh:
        cfg = fh.read()
    assert "record_every = 100\n" in cfg
    path = _write(tmp_path, cfg.replace("record_every = 100\n", f"record_every = {every}\n"))
    out = tmp_path / "o"
    assert run_cli(["validate", "--config", path, "--out", str(out)]) == 2
    assert f"record_every = {every} (need >= 1)" in capsys.readouterr().err
    assert not (out / "landing_report.csv").exists()


@pytest.mark.parametrize("kind, algorithm, message, artifact", [
    ("sample", "t_max = nan", "t_min = 0.0001, t_max = nan (need 0 < t_min < t_max < inf)",
     "samples.csv"),
    ("sample", "t_max = 0.5\nt_min = 1.0",
     "t_min = 1.0, t_max = 0.5 (need 0 < t_min < t_max < inf)", "samples.csv"),
    ("train-score", "epochs = 1\nlr_hi = nan", "lr_hi = nan (need finite > 0)", "model.msopt"),
], ids=["sample_t_max_nan", "sample_t_max_below_t_min", "train_lr_hi_nan"])
def test_cli_noise_range_and_learning_rate_checked(tmp_path, capsys, kind, algorithm, message,
                                                    artifact):
    # each wrote NaN output (all-NaN samples, a network of NaN weights) and exited 0
    from msopt.score.mlp import make_score_mlp

    model, points = tmp_path / "m.msopt", tmp_path / "points.csv"
    make_score_mlp(2, hidden=(4,), seed=0).save(model)
    points.write_text("1.0,0.0\n0.0,1.0\n")
    source = f"model = {model}" if kind == "sample" else f"dataset = {points}"
    path = _write(tmp_path, f"[experiment]\nkind = {kind}\n\n[oracle]\n{source}\n\n"
                            f"[algorithm]\n{algorithm}\n")
    out = tmp_path / "o"
    assert run_cli([kind, "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / artifact).exists()


def test_config_set_parameters_have_no_default_outside_the_schema():
    # a parameter named like a config key takes its default from the schema
    # alone; the run functions take such parameters by keyword
    import inspect

    from msopt.config import SCHEMA
    from msopt.optim import dlf_run, drgd_run
    from msopt.score.dsm import dsm_train
    from msopt.score.mlp import make_score_mlp
    from msopt.score.sampler import ve_reverse_sample
    from msopt.validation import landing_check

    keys = {key for section in SCHEMA.values() for key in section}
    problem_inputs = ("x0", "dataset", "kind")  # positional, like the oracle and the objective
    checked = 0
    for fn in (dlf_run, drgd_run, dsm_train, ve_reverse_sample, make_score_mlp, landing_check):
        for name, param in inspect.signature(fn).parameters.items():
            if name not in keys:
                continue
            checked += 1
            where = f"{fn.__name__}({name}={param.default!r})"
            assert param.default is inspect.Parameter.empty, where
            if name not in problem_inputs:
                assert param.kind is inspect.Parameter.KEYWORD_ONLY, where
    assert checked == 31


def test_cli_generate_and_train_and_sample(tmp_path, capsys):
    gen_cfg = """\
[experiment]
kind = generate-data
seed = 3

[manifold]
kind = circle
count = 64

[output]
dir = out
"""
    gen_path = _write(tmp_path, gen_cfg, "gen.cfg")
    data_dir = str(tmp_path / "data")
    assert run_cli(["generate-data", "--config", gen_path, "--out", data_dir]) == 0
    points = os.path.join(data_dir, "points.csv")
    assert np.loadtxt(points, delimiter=",").shape == (64, 2)

    train_cfg = f"""\
[experiment]
kind = train-score
seed = 4

[oracle]
dataset = {points}

[algorithm]
epochs = 60
batch = 32
hidden = 16,16

[output]
dir = out
"""
    train_path = _write(tmp_path, train_cfg, "train.cfg")
    model_dir = str(tmp_path / "model")
    assert run_cli(["train-score", "--config", train_path, "--out", model_dir]) == 0
    model = os.path.join(model_dir, "model.msopt")
    assert os.path.exists(model)

    sample_cfg = f"""\
[experiment]
kind = sample
seed = 5

[oracle]
model = {model}

[algorithm]
count = 16
steps = 20

[output]
dir = out
"""
    sample_path = _write(tmp_path, sample_cfg, "sample.cfg")
    sample_dir = str(tmp_path / "samples")
    assert run_cli(["sample", "--config", sample_path, "--out", sample_dir]) == 0
    assert np.loadtxt(os.path.join(sample_dir, "samples.csv"), delimiter=",").shape == (16, 2)

    # a model file cut short is a usage error naming the file, not a traceback
    with open(model, "rb") as fh:
        head = fh.read(200)
    with open(model, "wb") as fh:
        fh.write(head)
    capsys.readouterr()
    assert run_cli(["sample", "--config", sample_path, "--out", sample_dir]) == 2
    err = capsys.readouterr().err
    assert model in err and "truncated layer 0 weights" in err


def test_cli_trajectory_dataset_generation(tmp_path):
    cfg = """\
[experiment]
kind = generate-data
seed = 6

[manifold]
kind = unicycle
horizon = 6
count = 12

[output]
dir = out
"""
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "traj")
    assert run_cli(["generate-data", "--config", path, "--out", out]) == 0
    from msopt.control import TrajectoryDataset

    ds = TrajectoryDataset.load(out)
    assert ds.count == 12
    assert ds.horizon == 6


def _tracking_cfg(data_dir, oracle="kind = empirical", manifold="kind = unicycle\nhorizon = 6"):
    return f"""\
[experiment]
kind = optimize
seed = 6

[oracle]
dataset = {data_dir}
{oracle}

[manifold]
{manifold}

[objective]
kind = tracking
reference = arc
amplitude = 0.3

[algorithm]
kind = drgd
gamma = 1e-3
max_steps = 5

[output]
dir = out
"""


@pytest.fixture(scope="module")
def unicycle_data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("traj"))
    path = tmp_path_factory.getbasetemp() / "gen.cfg"
    path.write_text("[experiment]\nkind = generate-data\nseed = 6\n\n"
                    "[manifold]\nkind = unicycle\nhorizon = 6\ncount = 30\n")
    assert run_cli(["generate-data", "--config", str(path), "--out", out]) == 0
    return out


@pytest.mark.parametrize("manifold, message", [
    ("kind = double_pendulum",
     r"\[manifold\] kind = double_pendulum does not match .*kind = unicycle"),
    ("kind = unicycle\nhorizon = 99", r"\[manifold\] horizon = 99 does not match .*horizon = 6"),
    ("kind = unicycle\nhorizon = 6\ndt = 0.7", r"\[manifold\] dt = 0.7 does not match .*dt = 0.05"),
], ids=["kind", "horizon", "dt"])
def test_cli_tracking_manifold_keys_must_match_dataset(tmp_path, capsys, unicycle_data,
                                                       manifold, message):
    path = _write(tmp_path, _tracking_cfg(unicycle_data, manifold=manifold))
    assert run_cli(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("objective, reference_columns, tracking", [
    ("r_weight = 0.01", None, "6*1 + 7*3 = 27"),
    ("q_weight = 10,10", 2, "6*2 + 7*2 = 26"),
], ids=["r_weight", "q_weight"])
def test_cli_tracking_layout_must_match_dataset(tmp_path, capsys, unicycle_data, objective,
                                                reference_columns, tracking):
    # the sizes of R and Q set the objective's input and output blocks
    cfg = _tracking_cfg(unicycle_data).replace("amplitude = 0.3", f"amplitude = 0.3\n{objective}")
    if reference_columns is not None:
        reference = tmp_path / "ref.csv"
        np.savetxt(reference, np.zeros((7, reference_columns)), delimiter=",")
        cfg = cfg.replace("reference = arc", f"reference = {reference}")
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"objective layout {tracking}" in err
    assert "does not match the dataset's 6*2 + 7*3 = 33" in err
    assert not (out / "run.csv").exists()


@pytest.mark.parametrize("kind", ["exact", "quadrature"])
def test_cli_tracking_rejects_manifold_oracles(tmp_path, capsys, unicycle_data, kind):
    path = _write(tmp_path, _tracking_cfg(unicycle_data, oracle=f"kind = {kind}"))
    assert run_cli(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{kind} oracle needs a circle, sphere or orthogonal [manifold]" in err


def test_cli_tracking_honours_x0(tmp_path, capsys, unicycle_data):
    path = _write(tmp_path, _tracking_cfg(unicycle_data).replace("max_steps = 5",
                                                                  "max_steps = 5\nx0 = sample"))
    assert run_cli(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "x0 = sample needs a circle, sphere or orthogonal [manifold]" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["sample_model", "tracking_reference"])
def test_cli_missing_input_file_exits_2(tmp_path, capsys, unicycle_data, case):
    gone = str(tmp_path / "gone.csv")
    command, text = {
        "sample_model": ("sample", f"[experiment]\nkind = sample\n\n[oracle]\nmodel = {gone}\n"),
        "tracking_reference": ("optimize", _tracking_cfg(unicycle_data).replace(
            "reference = arc", f"reference = {gone}")),
    }[case]
    path = _write(tmp_path, text)
    assert run_cli([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert gone in err and "Traceback" not in err


def _circle_points_run(points):
    """A 5-step circle run on an empirical oracle over the points file."""
    return (OPTIMIZE_CFG.replace("[oracle]\nkind = exact",
                                 f"[oracle]\nkind = empirical\ndataset = {points}\nsigma = 0.3")
            .replace("kind = sphere\ndim = 3", "kind = circle")
            .replace("a = 1.0,2.0,-0.5", "a = 1.0,2.0")
            .replace("max_steps = 400", "max_steps = 5\nx0 = 1,0"))


@pytest.mark.parametrize("case", ["points", "reference", "train_input", "trajectory_data"])
def test_cli_non_finite_input_csv_exits_2(tmp_path, capsys, unicycle_data, case):
    # one nan in an input file: a points file with an explicit x0 ran to
    # `termination = diverged` (exit 1) and wrote its artifacts, a training
    # input failed as "dsm training diverged at step 0" and trajectory data as
    # "rollout produced non-finite state" (exit 1)
    import shutil

    points = tmp_path / "points.csv"
    points.write_text("1,0\n0,1\nnan,0\n-1,0\n")
    reference = tmp_path / "ref.csv"
    reference.write_text("0,0,0\n0.1,0,0\n\n0.2,inf,0\n")
    trajectories = tmp_path / "traj"
    shutil.copytree(unicycle_data, trajectories)
    rows = (trajectories / "data.csv").read_text().splitlines(keepends=True)
    rows[1] = "nan" + rows[1][rows[1].index(","):]
    (trajectories / "data.csv").write_text("".join(rows))
    command, text, bad, line = {
        "points": ("optimize", _circle_points_run(points), points, 3),
        "reference": ("optimize", _tracking_cfg(unicycle_data).replace(
            "reference = arc", f"reference = {reference}"), reference, 4),
        "train_input": ("train-score", f"[experiment]\nkind = train-score\n\n"
                                       f"[oracle]\ndataset = {points}\n", points, 3),
        "trajectory_data": ("optimize", _tracking_cfg(trajectories),
                            trajectories / "data.csv", 2),
    }[case]
    out = tmp_path / "o"
    assert run_cli([command, "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert f"config error: {bad} line {line}: non-finite entry" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["points", "trajectory_data"])
@pytest.mark.parametrize("defect, numpy_text", [
    ("ragged", "the number of columns changed"),
    ("non_numeric", "could not convert string 'abc' to float64"),
], ids=["ragged", "non_numeric"])
def test_cli_malformed_input_csv_exits_2(tmp_path, capsys, unicycle_data, case, defect,
                                         numpy_text):
    # numpy's parse error reached the user without the path of the file
    import shutil

    if case == "points":
        bad = tmp_path / "points.csv"
        bad.write_text("1,0\n" + {"ragged": "0,1,2\n", "non_numeric": "0,abc\n"}[defect] + "-1,0\n")
        text = _circle_points_run(bad)
    else:
        shutil.copytree(unicycle_data, tmp_path / "traj")
        bad = tmp_path / "traj" / "data.csv"
        rows = bad.read_text().splitlines(keepends=True)
        rows[1] = {"ragged": "0," + rows[1],
                   "non_numeric": "abc" + rows[1][rows[1].index(","):]}[defect]
        bad.write_text("".join(rows))
        text = _tracking_cfg(tmp_path / "traj")
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {bad}: " in err and numpy_text in err and "Traceback" not in err
    assert not out.exists()


def test_cli_reference_kind_is_matched_exactly(tmp_path, capsys, unicycle_data):
    # `Arc` was taken as a CSV path by the CLI and exited 2 with "Arc not found."
    cfg = _tracking_cfg(unicycle_data).replace("reference = arc", "reference = Arc")
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: [objective] reference = Arc is neither one of sinusoid, arc, figure_eight "
        "nor an existing CSV file\n")
    assert not out.exists()


@pytest.mark.parametrize("key, stale, actual", [("input_dim", 4, 2), ("output_dim", 7, 3)])
def test_cli_dataset_meta_dim_mismatch_exits_2(tmp_path, capsys, unicycle_data, key, stale,
                                               actual):
    # a stale or edited dimension in meta.txt must not pass silently
    import shutil

    shutil.copytree(unicycle_data, tmp_path / "traj")
    meta = tmp_path / "traj" / "meta.txt"
    text = meta.read_text()
    assert f"{key} = {actual}\n" in text
    meta.write_text(text.replace(f"{key} = {actual}\n", f"{key} = {stale}\n"))
    out = tmp_path / "o"
    cfg = _write(tmp_path, _tracking_cfg(tmp_path / "traj"))
    assert run_cli(["optimize", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {meta}: {key} = {stale}, but unicycle has {key} = {actual}\n")
    assert not out.exists()
    # without the key the dimensions come from the system alone
    meta.write_text(text.replace(f"{key} = {actual}\n", ""))
    assert run_cli(["optimize", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize("algorithm, message", [
    ("check = report", "unknown validate check 'report'"),
    ("check = rate\nrun_csv = run.csv", "unknown key 'run_csv' in [algorithm]"),
    ("check = rate\nrun_meta = run.meta.txt", "unknown key 'run_meta' in [algorithm]"),
], ids=["check_report", "run_csv", "run_meta"])
def test_validate_has_no_report_check(tmp_path, capsys, algorithm, message):
    # optimize writes the run summary itself, beside the run.csv it summarizes
    path = _write(tmp_path, f"[experiment]\nkind = validate\n\n[manifold]\nkind = circle\n\n"
                            f"[algorithm]\n{algorithm}\n")
    out = tmp_path / "o"
    assert run_cli(["validate", "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("command, oracle, message", [
    ("optimize", "empirical", "oracle dimension 3 does not match the manifold's 2"),
    ("optimize", "mlp", "oracle dimension 3 does not match the manifold's 2"),
    ("validate", "empirical", "oracle dimension 3 does not match the manifold's 2"),
    ("optimize", "exact", "[objective] a has 3 entries, but the oracle's dimension is 2"),
], ids=["optimize-empirical", "optimize-mlp", "validate-empirical", "optimize-exact"])
def test_cli_oracle_dimension_checked_against_manifold(tmp_path, capsys, command, oracle,
                                                       message):
    # 3-D points or a 3-D network on a circle: the run reported circle
    # feasibility for 3-D iterates and exited 0; a 3-D linear objective on
    # the circle's exact oracle ended in numpy's matmul shape error
    from msopt.score.mlp import make_score_mlp

    gen = _write(tmp_path, "[experiment]\nkind = generate-data\n\n"
                           "[manifold]\nkind = sphere\ndim = 3\ncount = 40\n", "gen.cfg")
    assert run_cli(["generate-data", "--config", gen, "--out", str(tmp_path / "d")]) == 0
    model = tmp_path / "m.msopt"
    make_score_mlp(3, hidden=(4,), seed=0).save(model)
    source = {"empirical": f"dataset = {tmp_path / 'd' / 'points.csv'}",
              "mlp": f"model = {model}", "exact": ""}[oracle]
    if command == "optimize":
        body = ("[objective]\nkind = linear\na = 1,0,0\n\n"
                "[algorithm]\nkind = drgd\nmax_steps = 5\n")
    else:
        body = "[algorithm]\ncheck = rate\nn_points = 4\n"
    path = _write(tmp_path, f"[experiment]\nkind = {command}\n\n[oracle]\nkind = {oracle}\n"
                            f"{source}\n\n[manifold]\nkind = circle\n\n{body}")
    out = tmp_path / "o"
    assert run_cli([command, "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("oracle, x0", [
    ("exact", "nan,1"), ("quadrature", "nan,1"), ("exact", "1,inf"),
    ("exact", "1,0,0"), ("quadrature", "1,0,0"), ("exact", "1"), ("exact", "one,zero"),
])
def test_cli_explicit_x0_checked(tmp_path, capsys, oracle, x0):
    # nan,1 ran to a numerical abort (exit 1) and wrote run.csv; 1,0,0 ended
    # in numpy's matmul shape error
    cfg = OPTIMIZE_CFG.replace("kind = exact", f"kind = {oracle}").replace(
        "kind = sphere\ndim = 3", "kind = circle").replace("a = 1.0,2.0,-0.5", "a = 1.0,2.0")
    path = _write(tmp_path, cfg.replace("max_steps = 400", f"max_steps = 5\nx0 = {x0}"))
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", path, "--out", str(out)]) == 2
    assert (f"x0 = {x0} is not auto, dataset_argmin, sample or 2 finite comma-separated floats"
            in capsys.readouterr().err)
    assert not (out / "run.csv").exists()


def test_cli_explicit_x0_accepted(tmp_path):
    cfg = OPTIMIZE_CFG.replace("max_steps = 400", "max_steps = 0\nx0 = 0.6, 0, 0.8")
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert np.array_equal(np.loadtxt(out / "run.csv", delimiter=",", skiprows=1)[1],
                          LinearObjective(np.array([1.0, 2.0, -0.5])).value([0.6, 0.0, 0.8]))


def test_python_m_msopt_cli_runs_the_cli(tmp_path):
    # without the __main__ guard this ran nothing and exited 0
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "msopt.cli", "validate", "--config", str(tmp_path / "nope.cfg"),
         "--assert"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "cannot read config" in proc.stderr


def test_cli_x0_dataset_argmin_needs_atoms(tmp_path, capsys):
    cfg = OPTIMIZE_CFG.replace("max_steps = 400", "max_steps = 5\nx0 = dataset_argmin")
    path = _write(tmp_path, cfg)
    assert run_cli(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "x0 = dataset_argmin needs" in capsys.readouterr().err


def test_cli_empirical_oracle_samples_default_count(tmp_path):
    # neither [oracle] dataset nor sample_count: the schema default of 10000 atoms
    base = OPTIMIZE_CFG.replace("max_steps = 400", "max_steps = 3").replace(
        "[oracle]\nkind = exact", "[oracle]\nkind = empirical\nsigma = 0.3{count}")
    runs = []
    for name, count in (("default", ""), ("explicit", "\nsample_count = 10000")):
        out = tmp_path / name
        path = _write(tmp_path, base.format(count=count), f"{name}.cfg")
        assert run_cli(["optimize", "--config", path, "--out", str(out)]) == 0
        runs.append((out / "run.csv").read_bytes())
    assert runs[0] == runs[1]


def test_cli_auto_x0_is_a_sample_on_quadrature_nodes(tmp_path):
    # the nodes of the quadrature rule are not data: x0 = auto starts from a
    # sample there, and from the best data atom of an empirical oracle
    base = OPTIMIZE_CFG.replace("max_steps = 400", "max_steps = 3").replace(
        "kind = sphere\ndim = 3", "kind = circle").replace("a = 1.0,2.0,-0.5", "a = 1.0,2.0")
    for kind, best in (("quadrature", False), ("empirical", True)):
        out = tmp_path / kind
        cfg = base.replace("[oracle]\nkind = exact", f"[oracle]\nkind = {kind}\nsigma = 0.1")
        assert run_cli(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        assert ("dataset_best_objective" in (out / "run.meta.txt").read_text()) == best


def test_cli_orthogonal_overflowing_step_diverges(tmp_path, capsys):
    # the retraction of an overflowed iterate is NaN, which ends the run as
    # diverged (exit 1), as on the sphere
    cfg = (OPTIMIZE_CFG.replace("kind = sphere\ndim = 3", "kind = orthogonal\nn = 3")
           .replace("kind = linear\na = 1.0,2.0,-0.5", "kind = brockett")
           .replace("gamma = 0.05", "gamma = 1e308"))
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 1
    assert "termination = diverged" in (out / "run.meta.txt").read_text()


@pytest.mark.parametrize("algorithm, message", [
    ("kind = dlf\nt_step = -0.5", r"t_step = -0.5 \(need finite > 0\)"),
    ("kind = drgd\nmax_steps = -1", r"max_steps = -1 \(need >= 0\)"),
    ("kind = drgd\ngamma = inf\nmax_steps = 400", r"gamma = inf \(need finite > 0\)"),
    ("kind = dlf\nt_step = inf\neta = 1.0\nmax_steps = 400", r"t_step = inf \(need finite > 0\)"),
    ("kind = dlf\nt_step = 0.01\neta = inf\nmax_steps = 400",
     r"eta = inf \(need finite >= 0\)"),
    ("kind = drgd\ngamma = 0.05\nmax_steps = 400\nstop_grad_tol = nan",
     r"stop_grad_tol = nan \(need finite >= 0\)"),
    ("kind = drgd\ngamma = 0.05\nmax_steps = 400\nstop_grad_tol = inf",
     r"stop_grad_tol = inf \(need finite >= 0\)"),
    ("kind = drgd\ngamma = 0.05\nmax_steps = 400\nrecord_every = 0",
     r"record_every = 0 \(need >= 1\)"),
    ("kind = dlf\nt_step = 0.01\neta = 1.0\nmax_steps = 400\nrecord_every = -4",
     r"record_every = -4 \(need >= 1\)"),
], ids=["dlf_t_step", "drgd_max_steps", "drgd_gamma_inf", "dlf_t_step_inf",
        "dlf_eta_inf", "drgd_stop_grad_tol_nan", "drgd_stop_grad_tol_inf",
        "drgd_record_every_zero", "dlf_record_every_negative"])
def test_cli_optimizer_parameters_checked(tmp_path, capsys, algorithm, message):
    # a NaN stop_grad_tol would turn the stop test off and run the whole budget,
    # a record_every below 1 recorded every step
    cfg = OPTIMIZE_CFG.replace("kind = drgd\ngamma = 0.05\nmax_steps = 400", algorithm)
    if "stop_grad_tol = " in algorithm:
        cfg = cfg.replace("stop_grad_tol = 1e-10\n", "")
    path = _write(tmp_path, cfg)
    assert run_cli(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_cli_non_finite_sigma_exits_2(tmp_path, capsys, sigma):
    # the shipped Brockett run with a non-finite sigma: NaN ended as diverged
    # (exit 1) and inf as grad_tol at step 0 (exit 0, a wrong result)
    shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "brockett_drgd.cfg")
    with open(shipped) as fh:
        cfg = fh.read()
    assert "sigma = 0.05\n" in cfg
    path = _write(tmp_path, cfg.replace("sigma = 0.05\n", f"sigma = {sigma}\n"))
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", path, "--out", str(out)]) == 2
    assert f"score oracle needs finite sigma > 0, got sigma = {sigma}" in capsys.readouterr().err
    assert not (out / "run.csv").exists()


def test_validate_rejects_oracle_sigma(tmp_path, capsys):
    # the rate check sweeps [algorithm] sigmas; a fixed oracle sigma would be ignored
    path = _write(tmp_path, "[experiment]\nkind = validate\n\n[oracle]\nkind = quadrature\n"
                            "sigma = 0.1\n\n"
                            "[manifold]\nkind = circle\n\n[algorithm]\ncheck = rate\n")
    out = tmp_path / "o"
    assert run_cli(["validate", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: [oracle] sigma set but not read by this run ([experiment] kind = validate, "
        "[algorithm] check = rate, [manifold] kind = circle, [oracle] kind = quadrature)\n")
    assert not out.exists()


RATE_CFG = """\
[experiment]
kind = validate
seed = 3

[oracle]
{oracle}

[manifold]
kind = circle

[algorithm]
check = rate
n_points = 4
sigmas = 0.4,0.2,0.1

[output]
dir = out
"""


def test_cli_rate_check_builds_oracle_atoms_once(tmp_path, monkeypatch):
    from msopt import cli
    from msopt.manifolds import Sphere
    from msopt.score.mlp import make_score_mlp

    calls = []
    for owner, name in ((Sphere, "sample_uniform"), (cli, "load_score_mlp")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    model = str(tmp_path / "m.msopt")
    make_score_mlp(2, hidden=(8,), seed=1).save(model)
    for oracle, expected in (
        ("kind = empirical\nsample_count = 500", ["sample_uniform"] * 2),
        (f"kind = mlp\nmodel = {model}", ["sample_uniform", "load_score_mlp"]),
    ):
        calls.clear()
        path = _write(tmp_path, RATE_CFG.format(oracle=oracle))
        assert run_cli(["validate", "--config", path, "--out", str(tmp_path / "r")]) == 0
        # one draw of test points by the sweep, one build of the oracle's atoms or network
        assert sorted(calls) == sorted(expected)


def test_shipped_configs_read_every_key(tmp_path, monkeypatch):
    # a run that leaves a set key unread exits 2 before it starts
    import shutil

    shutil.copytree(os.path.join(os.path.dirname(__file__), "..", "configs"), tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    # the tracking config reads the dataset the data config writes
    for command, name in (("generate-data", "unicycle_data"), ("optimize", "unicycle_tracking"),
                          ("optimize", "brockett_drgd"), ("validate", "rate_circle"),
                          ("validate", "landing_sphere")):
        assert run_cli([command, "--config", f"configs/{name}.cfg"]) == 0, name


def test_tracking_with_trained_score(tmp_path, monkeypatch):
    # generate-data -> train-score on the trajectory directory -> optimize with kind = mlp
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "[experiment]\nkind = generate-data\nseed = 6\n\n"
                     "[manifold]\nkind = unicycle\nhorizon = 6\ncount = 60\n\n"
                     "[output]\ndir = traj\n", "gen.cfg")
    _write(tmp_path, "[experiment]\nkind = train-score\nseed = 4\n\n[oracle]\ndataset = traj\n\n"
                     "[algorithm]\nepochs = 30\nbatch = 32\nhidden = 16,16\n\n"
                     "[output]\ndir = model\n", "train.cfg")
    _write(tmp_path, _tracking_cfg("traj", oracle="kind = mlp\nmodel = model/model.msopt\n"
                                                  "sigma = 0.1").replace("dir = out", "dir = run"),
           "opt.cfg")
    for command, name in (("generate-data", "gen"), ("train-score", "train"), ("optimize", "opt")):
        assert run_cli([command, "--config", f"{name}.cfg"]) == 0, name
    meta = (tmp_path / "run" / "run.meta.txt").read_text()
    assert "oracle = MlpScoreOracle" in meta and "sigma = 0.10000000000000001" in meta
    assert "backtest_gap" in (tmp_path / "run" / "summary.txt").read_text()
    assert (tmp_path / "run" / "optimized_point.csv").exists()


def _shipped_config(name):
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", name)) as fh:
        return fh.read()


@pytest.mark.parametrize("config, old, new, message", [
    ("landing_sphere.cfg", "max_rel_dev = 0.05\n", "max_rel_dev = nan\n",
     "[algorithm] max_rel_dev = nan must be finite"),
    ("landing_sphere.cfg", "max_rel_dev = 0.05\n", "max_rel_dev = inf\n",
     "[algorithm] max_rel_dev = inf must be finite"),
    ("landing_sphere.cfg", "x0_distance = 0.3\n", "x0_distance = nan\n",
     "x0 at distance nan is outside the safe tube"),
    ("rate_circle.cfg", "n_points = 100\n", "n_points = 100\nslope_min = nan\n",
     "[algorithm] slope_min = nan and slope_max = 2.1 must be finite with slope_min <= slope_max"),
    ("rate_circle.cfg", "n_points = 100\n", "n_points = 100\nslope_max = inf\n",
     "[algorithm] slope_min = 1.9 and slope_max = inf must be finite"),
    ("rate_circle.cfg", "n_points = 100\n", "n_points = 100\nslope_min = -inf\n",
     "[algorithm] slope_min = -inf and slope_max = 2.1 must be finite"),
    ("rate_circle.cfg", "n_points = 100\n", "n_points = 100\nslope_min = 2.5\n",
     "[algorithm] slope_min = 2.5 and slope_max = 2.1 must be finite with slope_min <= slope_max"),
    ("landing_sphere.cfg", "x0_distance = 0.3\n", "x0_distance = 0\n",
     "x0 at distance 0 is on the manifold"),
    ("rate_circle.cfg", "sigmas = 0.2,0.1,0.05,0.025,0.0125\n", "sigmas = 0.1\n",
     "[algorithm] sigmas = 0.1 needs at least two distinct values"),
    ("rate_circle.cfg", "sigmas = 0.2,0.1,0.05,0.025,0.0125\n", "sigmas = 0.1,0.1\n",
     "[algorithm] sigmas = 0.1,0.1 needs at least two distinct values"),
    ("rate_circle.cfg", "n_points = 100\n", "n_points = 0\n",
     "rate_sweep needs n_points >= 1, got n_points = 0"),
    ("rate_circle.cfg", "offsets = 0.3\n", "offsets = nan\n",
     "rate_sweep needs finite offsets, got offsets = nan"),
    ("rate_circle.cfg", "offsets = 0.3\n", "offsets = 0.3,inf\n",
     "rate_sweep needs finite offsets, got offsets = 0.3,inf"),
    ("rate_circle.cfg", "sigmas = 0.2,0.1,0.05,0.025,0.0125\n", "sigmas = 0.1,0\n",
     "score oracle needs finite sigma > 0, got sigma = 0.0\n"),
    ("rate_circle.cfg", "sigmas = 0.2,0.1,0.05,0.025,0.0125\n", "sigmas = 0.1,nan\n",
     "score oracle needs finite sigma > 0, got sigma = nan\n"),
    ("rate_circle.cfg", "sigmas = 0.2,0.1,0.05,0.025,0.0125\n", "sigmas = 0.1,-0.05\n",
     "score oracle needs finite sigma > 0, got sigma = -0.05\n"),
], ids=["max_rel_dev_nan", "max_rel_dev_inf", "x0_distance_nan", "slope_min_nan", "slope_max_inf",
        "slope_min_minus_inf", "slope_min_above_slope_max", "x0_distance_zero", "one_sigma",
        "repeated_sigma", "no_points", "nan_offset", "inf_offset", "zero_sigma", "nan_sigma",
        "negative_sigma"])
def test_cli_validate_parameters_checked(tmp_path, capsys, config, old, new, message):
    # `deviation > nan` is False, so a NaN budget passed every landing check
    # under --assert with exit 0; a NaN start distance passed the tube guard
    # and ended in numpy's "zero-size array to reduction operation maximum",
    # as did a start on the manifold; one sigma crashed the rate summary, a
    # repeated one fitted a slope to noise and no test points gave slopes of 0;
    # a non-finite offset failed as "SVD did not converge";
    # a swept sigma the oracle rejects was printed as `np.float64(0.0)`
    cfg = _shipped_config(config)
    assert old in cfg
    path = _write(tmp_path, cfg.replace(old, new))
    out = tmp_path / "o"
    assert run_cli(["validate", "--config", path, "--out", str(out), "--assert"]) == 2
    err = capsys.readouterr().err
    assert message in err and "np.float64" not in err
    assert not out.exists()


@pytest.mark.parametrize("cfg", [
    _shipped_config("unicycle_data.cfg"),
    "[experiment]\nkind = generate-data\n\n[manifold]\nkind = circle\ncount = 2000\n",
], ids=["unicycle", "circle"])
@pytest.mark.parametrize("count", [0, -3])
def test_cli_generate_data_needs_a_point(tmp_path, capsys, cfg, count):
    # on a manifold, count = 0 wrote an empty points.csv with exit 0 and
    # count = -3 ended in numpy's "negative dimensions are not allowed"
    path = _write(tmp_path, cfg.replace("count = 2000\n", f"count = {count}\n"))
    out = tmp_path / "o"
    assert run_cli(["generate-data", "--config", path, "--out", str(out)]) == 2
    assert f"[manifold] count = {count}: need count >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_generate_data_divergence_exits_1(tmp_path, capsys, monkeypatch):
    # trajectory 3 of the batch gets an infinite input: the run is a numerical
    # failure that names the trajectory, and no partial dataset is written
    original = SystemModel.sample_inputs
    drawn = []

    def poisoned(self, horizon, gen):
        u = original(self, horizon, gen)
        if len(drawn) == 3:
            u[:] = np.inf
        drawn.append(u)
        return u

    monkeypatch.setattr(SystemModel, "sample_inputs", poisoned)
    path = _write(tmp_path, _shipped_config("unicycle_data.cfg"))
    out = tmp_path / "o"
    assert run_cli(["generate-data", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: rollout produced non-finite state in trajectory 3 at step 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, message", [
    ("generate-data", _shipped_config("unicycle_data.cfg").replace("horizon = 20\n",
                                                                   "horizon = 20\ndt = nan\n"),
     "need finite dt > 0, got dt = nan"),
    ("generate-data", _shipped_config("unicycle_data.cfg").replace("horizon = 20\n",
                                                                   "horizon = 20\ndt = inf\n"),
     "need finite dt > 0, got dt = inf"),
    ("optimize", OPTIMIZE_CFG.replace("dim = 3\n", "dim = 3\nradius = nan\n"),
     "sphere needs finite radius > 0 and ambient_dim >= 1, got radius = nan"),
    ("optimize", OPTIMIZE_CFG.replace("dim = 3\n", "dim = 3\nradius = inf\n"),
     "sphere needs finite radius > 0 and ambient_dim >= 1, got radius = inf"),
], ids=["dt_nan", "dt_inf", "radius_nan", "radius_inf"])
def test_cli_non_finite_manifold_parameter_exits_2(tmp_path, capsys, command, cfg, message):
    # each passed a plain `<= 0` test: a NaN dt failed the rollout at step 1
    # and a NaN radius wrote an all-NaN run.csv, both with exit 1
    assert "= nan\n" in cfg or "= inf\n" in cfg
    path = _write(tmp_path, cfg)
    out = tmp_path / "o"
    assert run_cli([command, "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case, message", [
    ("linear_a_nan", "objective coefficient a has non-finite entries"),
    ("q_weight_nan", "objective coefficient Q has non-finite entries"),
    ("q_weight_inf", "objective coefficient Q has non-finite entries"),
    ("amplitude_nan", "objective coefficient reference has non-finite entries"),
], ids=["linear_a_nan", "q_weight_nan", "q_weight_inf", "amplitude_nan"])
def test_cli_non_finite_objective_coefficient_exits_2(tmp_path, capsys, unicycle_data, case,
                                                     message):
    # the symmetry and definiteness tests are False for NaN: each of these ran
    # to the end, wrote an all-NaN run and exited 1
    circle = OPTIMIZE_CFG.replace("kind = sphere\ndim = 3", "kind = circle")
    tracking = _tracking_cfg(unicycle_data)
    cfg = {
        "linear_a_nan": circle.replace("a = 1.0,2.0,-0.5", "a = nan,1"),
        "q_weight_nan": tracking.replace("amplitude = 0.3", "amplitude = 0.3\nq_weight = nan,1,1"),
        "q_weight_inf": tracking.replace("amplitude = 0.3", "amplitude = 0.3\nq_weight = inf,1,1"),
        "amplitude_nan": tracking.replace("amplitude = 0.3", "amplitude = nan"),
    }[case]
    assert "nan" in cfg or "inf" in cfg
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_OPTIMIZE_KINDS = ("[algorithm] kind = drgd, [manifold] kind = {}, [objective] kind = linear, "
                   "[oracle] kind = exact")


@pytest.mark.parametrize("edits, unread, kinds", [
    ((("kind = exact\n", "kind = exact\nsample_count = 7\n"),
      ("dim = 3\n", "dim = 3\nhorizon = 99\n"),
      ("a = 1.0,2.0,-0.5\n", "a = 1.0,2.0,-0.5\nreference = figure_eight\n"),
      ("gamma = 0.05\n", "gamma = 0.05\nt_step = 5\n")),
     "[oracle] sample_count, [manifold] horizon, [objective] reference, [algorithm] t_step",
     _OPTIMIZE_KINDS.format("sphere")),
    ((("kind = exact\n", "kind = exact\nsigma = 0.1\n"),), "[oracle] sigma",
     _OPTIMIZE_KINDS.format("sphere")),
    ((("kind = sphere\ndim = 3\n", "kind = circle\nn = 4\n"), ("a = 1.0,2.0,-0.5", "a = 1.0,2.0")),
     "[manifold] n", _OPTIMIZE_KINDS.format("circle")),
], ids=["four_keys", "exact_sigma", "circle_n"])
def test_cli_unread_key_exits_2_before_the_run(tmp_path, capsys, edits, unread, kinds):
    # each of these ran to the end, ignored the keys named and exited 0
    cfg = OPTIMIZE_CFG
    for old, new in edits:
        assert old in cfg
        cfg = cfg.replace(old, new)
    out = tmp_path / "o"
    assert run_cli(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: {unread} set but not read by this run "
                                       f"([experiment] kind = optimize, {kinds})\n")
    assert not out.exists()


def _optimize_cfg(oracle="kind = exact", manifold="kind = circle",
                  objective="kind = linear\na = 1,0", algorithm="kind = drgd\nmax_steps = 5"):
    return (f"[experiment]\nkind = optimize\n\n[oracle]\n{oracle}\n\n[manifold]\n{manifold}\n\n"
            f"[objective]\n{objective}\n\n[algorithm]\n{algorithm}\n")


@pytest.mark.parametrize("command, cfg, code, message", [
    ("optimize", _optimize_cfg(oracle="kind = empirical", manifold=""), 2,
     "empirical oracle needs [oracle] dataset or a [manifold]"),
    ("optimize", _optimize_cfg(oracle="kind = magic"), 2, "unknown oracle kind 'magic'"),
    ("optimize", _optimize_cfg(oracle="kind = empirical\ndataset = {points}", manifold="",
                               objective="kind = tracking"), 2,
     "tracking runs need [oracle] dataset = <trajectory directory>"),
    ("optimize", _optimize_cfg(oracle="kind = empirical\ndataset = {unicycle}",
                               manifold="kind = unicycle", objective="kind = linear\na = 1"), 2,
     "a trajectory dataset needs [objective] kind = tracking"),
    ("optimize", _optimize_cfg(objective="kind = brockett"), 2,
     "brockett objective needs an orthogonal [manifold]"),
    ("optimize", _optimize_cfg(objective="kind = magic"), 2, "unknown objective kind 'magic'"),
    ("optimize", _optimize_cfg(algorithm="kind = riemannian_gd"), 2,
     "unknown algorithm kind 'riemannian_gd'"),
    ("optimize", _optimize_cfg(algorithm="kind = magic"), 2, "unknown algorithm kind 'magic'"),
    ("optimize", _optimize_cfg(manifold="kind = torus"), 2, "unknown manifold kind 'torus'"),
    ("validate", "[experiment]\nkind = validate\n\n[algorithm]\ncheck = rate\n", 2,
     "[manifold] kind is required by this run ([experiment] kind = validate, "
     "[algorithm] check = rate)\n"),
    ("optimize", "[experiment]\nkind optimize\n", 2,
     "exp.cfg:2: expected 'key = value', got 'kind optimize'"),
    ("optimize", "[experiment]\nseed = 1\n", 2,
     "exp.cfg: missing required key 'kind' in [experiment]"),
    ("optimize", "[experiment]\nkind = explode\n", 2,
     "exp.cfg: unknown experiment kind 'explode'"),
    ("optimize", _optimize_cfg(objective="kind = zero"), 0, ""),
    ("optimize", _optimize_cfg(oracle="kind = empirical\ndataset = {pendulum}\nsigma = 0.5",
                               manifold="kind = double_pendulum",
                               objective="kind = tracking\nreference = arc\namplitude = 0.3"), 0, ""),
    ("validate", "[experiment]\nkind = validate\n\n[manifold]\nkind = sphere\n\n[algorithm]\n"
                 "check = landing\neta = 1.0\nt_end = 0.1\neuler_step = 1e-3\nmax_rel_dev = 1e-9\n",
     1, "assertion violated: max relative deviation "),
], ids=["empirical_no_atoms", "unknown_oracle", "tracking_no_dataset",
        "dataset_not_tracking", "brockett_on_circle", "unknown_objective",
        "riemannian_gd_unknown_kind", "unknown_algorithm", "unknown_manifold",
        "validate_no_manifold", "line_without_equals", "no_experiment_kind",
        "unknown_experiment_kind", "zero_objective", "double_pendulum_default_q",
        "landing_violation"])
def test_cli_branch_table(tmp_path, capsys, unicycle_data, command, cfg, code, message):
    # config and parse errors exit 2 with their message, a zero objective and a
    # double-pendulum tracking run on the default Q exit 0, and a violated
    # landing budget exits 1 under --assert
    points, pendulum = tmp_path / "points.csv", tmp_path / "pendulum"
    points.write_text("1,0\n0,1\n")
    if "{pendulum}" in cfg:
        gen = _write(tmp_path, "[experiment]\nkind = generate-data\n\n[manifold]\n"
                               "kind = double_pendulum\nhorizon = 5\ncount = 20\n", "gen.cfg")
        assert run_cli(["generate-data", "--config", gen, "--out", str(pendulum)]) == 0
    path = _write(tmp_path, cfg.format(unicycle=unicycle_data, points=points, pendulum=pendulum))
    argv = [command, "--config", path, "--out", str(tmp_path / "o")]
    assert run_cli(argv + ["--assert"] if command == "validate" else argv) == code
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith({1: "assertion violated: ", 2: "config error: "}[code]) if code else not err
    if code == 2:
        assert not (tmp_path / "o").exists()


_OPTIMIZE_KINDS_READ = "[manifold] kind = circle, [objective] kind = linear, [oracle] kind = {}"


@pytest.mark.parametrize("command, cfg, missing, run", [
    ("generate-data", "[manifold]\nkind = circle", "[manifold] count", "[manifold] kind = circle"),
    ("generate-data", "[manifold]\ncount = 5", "[manifold] kind", ""),
    ("train-score", "[algorithm]\nepochs = 1", "[oracle] dataset", ""),
    ("train-score", "[oracle]\ndataset = {points}", "[algorithm] epochs", ""),
    ("validate", "[manifold]\nkind = circle", "[algorithm] check", ""),
    ("validate", "[manifold]\nkind = circle\n\n[algorithm]\ncheck = rate", "[oracle] kind",
     "[algorithm] check = rate, [manifold] kind = circle"),
    ("sample", "", "[oracle] model", ""),
    ("optimize", "", "[oracle] kind", ""),
    ("optimize", "[oracle]\nkind = exact", "[objective] kind", "[oracle] kind = exact"),
    ("optimize", _optimize_cfg(algorithm=""), "[algorithm] kind",
     _OPTIMIZE_KINDS_READ.format("exact")),
    ("optimize", _optimize_cfg(objective="kind = linear"), "[objective] a",
     _OPTIMIZE_KINDS_READ.format("exact")),
    ("optimize", _optimize_cfg(oracle="kind = mlp"), "[oracle] model",
     _OPTIMIZE_KINDS_READ.format("mlp")),
], ids=["generate_no_count", "generate_no_manifold", "train_no_dataset", "train_no_epochs",
        "validate_no_check", "rate_no_oracle", "sample_no_model", "optimize_no_oracle_kind",
        "optimize_no_objective_kind", "optimize_no_algorithm_kind", "linear_no_a",
        "mlp_no_model"])
def test_cli_required_key_exits_2_and_writes_nothing(tmp_path, capsys, command, cfg, missing,
                                                     run):
    # a key without a default is required by the run that reads it: the run
    # names the key and the kinds it has read, and creates no output directory
    points = tmp_path / "points.csv"
    points.write_text("1,0\n0,1\n")
    if not cfg.startswith("[experiment]"):
        cfg = f"[experiment]\nkind = {command}\n\n" + cfg.format(points=points)
    out = tmp_path / "o"
    assert run_cli([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    kinds = f"[experiment] kind = {command}" + (f", {run}" if run else "")
    assert capsys.readouterr().err == f"config error: {missing} is required by this run ({kinds})\n"
    assert not out.exists()


def _help_keys(kind):
    """The (section, key) pairs that `--help` lists for a subcommand."""
    keys, section = set(), None
    for line in describe_keys(kind).splitlines():
        if line.startswith("["):
            section = line[1:-1]
        else:
            keys.add((section, line.split()[0]))
    return keys


def test_help_lists_exactly_the_keys_each_subcommand_reads(tmp_path, monkeypatch):
    # `Key.kinds` only generates --help: it must name, per subcommand, the keys
    # that some run of that subcommand reads. The runs below take every branch
    # of each subcommand; the union of their reads is the subcommand's surface.
    import shutil

    from msopt import cli
    from msopt.score.mlp import make_score_mlp

    shutil.copytree(os.path.join(os.path.dirname(__file__), "..", "configs"), tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    loaded = []
    monkeypatch.setattr(cli, "load_config", lambda path: loaded.append(load_config(path))
                        or loaded[-1])
    (tmp_path / "points.csv").write_text("1,0\n0,1\n")
    make_score_mlp(2, hidden=(4,), seed=0).save(tmp_path / "m.msopt")
    runs = [(command, f"configs/{name}.cfg") for command, name in (
        ("generate-data", "unicycle_data"), ("optimize", "unicycle_tracking"),
        ("optimize", "brockett_drgd"), ("validate", "rate_circle"),
        ("validate", "landing_sphere"))]
    texts = [
        ("generate-data", "[manifold]\nkind = double_pendulum\nhorizon = 5\ncount = 20\n\n"
                          "[output]\ndir = pendulum"),
        ("generate-data", "[manifold]\nkind = sphere\ndim = 2\nradius = 2\ncount = 3"),
        ("generate-data", "[manifold]\nkind = orthogonal\nn = 2\ncount = 3"),
        ("train-score", "[oracle]\ndataset = points.csv\n\n[algorithm]\nepochs = 1\nbatch = 2\n"
                        "hidden = 4\nt_max = 1\nt_min = 0.01\nlr_hi = 1e-3\nlr_lo = 1e-4"),
        ("sample", "[oracle]\nmodel = m.msopt\n\n[algorithm]\ncount = 2\nsteps = 2\n"
                   "t_max = 1\nt_min = 0.01"),
        ("validate", RATE_CFG.format(oracle="kind = exact").replace("kind = circle",
                                                                    "kind = orthogonal\nn = 2")),
        ("validate", RATE_CFG.format(oracle="kind = empirical\nsample_count = 50")),
        ("validate", RATE_CFG.format(oracle="kind = mlp\nmodel = m.msopt")),
        ("optimize", _optimize_cfg(objective="kind = zero")),
        ("optimize", _optimize_cfg(oracle="kind = empirical\ndataset = pendulum\nsigma = 0.5",
                                   manifold="kind = double_pendulum",
                                   objective="kind = tracking\nreference = arc\namplitude = 0.3")),
        ("optimize", _optimize_cfg(oracle="kind = quadrature\nnode_count = 64",
                                   algorithm="kind = dlf\nmax_steps = 5\nt_step = 1e-3\neta = 1\n"
                                             "stop_grad_tol = 0\nrecord_every = 2\nx0 = 1,0")),
        ("optimize", _optimize_cfg(oracle="kind = mlp\nmodel = m.msopt",
                                   manifold="kind = sphere\ndim = 2",
                                   algorithm="kind = drgd\nmax_steps = 2\ngamma = 0.1")),
    ]
    for i, (command, text) in enumerate(texts):
        if not text.startswith("[experiment]"):
            text = f"[experiment]\nkind = {command}\n\n" + text
        runs.append((command, _write(tmp_path, text, f"run{i}.cfg")))
    for command, path in runs:
        assert run_cli([command, "--config", path]) == 0, path
    for kind in cli.KINDS:
        # run_cli checks [experiment] kind itself, when it parses the config
        reads = {("experiment", "kind")}.union(*(c.reads for c in loaded if c.kind == kind))
        assert reads == _help_keys(kind), kind
