import os

import numpy as np
import pytest

from msopt.cli import run_cli
from msopt.config import ConfigError, describe_keys, load_config, parse_config_text

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


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match=r"\[oracle\] kind.*\[objective\] kind.*\[algorithm\] kind"):
        parse_config_text("[experiment]\nkind = optimize\n")


def test_key_not_used_by_kind_rejected():
    text = "[experiment]\nkind = sample\n\n[oracle]\nmodel = m.bin\n\n[algorithm]\ngamma = 0.1\n"
    with pytest.raises(ConfigError, match="not used by"):
        parse_config_text(text)


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
