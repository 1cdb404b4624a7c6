"""End-to-end pipeline: train a score network, optimize with it, sample.

Desk-scale versions of the full workflow on the circle, where the dataset
density resolves the noise scale and the trained oracle is accurate. The
landing gain is kept moderate: with a trained score of mean error eps the
flow stalls once the gradient signal is below eta * eps, so the gain must
be sized to the oracle quality.
"""

import os

import numpy as np
import pytest

from msopt.cli import run_cli
from msopt.manifolds import Circle
from msopt.objectives import LinearObjective
from msopt.optim import dlf_run, drgd_run
from msopt.score.dsm import dsm_train
from msopt.score.mlp import make_score_mlp
from msopt.score.oracles import MlpScoreOracle


@pytest.fixture(scope="module")
def circle_mlp():
    data = Circle().sample_uniform(512, seed=21)
    mlp = make_score_mlp(2, hidden=(128, 128, 128), seed=22)
    dsm_train(data, mlp, epochs=6000, batch=256, t_max=3.0, t_min=1e-4, lr_hi=1e-3, lr_lo=5e-5,
              seed=23)
    return mlp


def test_trained_score_drgd_optimizes_on_circle(circle_mlp):
    circ = Circle()
    a = np.array([1.0, 0.7])
    target = -a / np.linalg.norm(a)
    oracle = MlpScoreOracle(circle_mlp, sigma=0.1)
    x0 = np.array([np.cos(0.5), np.sin(0.5)])
    record = drgd_run(oracle, LinearObjective(a), x0, gamma=0.05, max_steps=400,
                      stop_grad_tol=1e-8, record_every=20, baseline=circ)
    xf = record.final_point
    assert np.linalg.norm(xf - target) <= 0.25
    assert circ.feasibility(xf) <= 0.02
    assert record.objective[-1] < record.objective[0] - 1.0


def test_trained_score_dlf_optimizes_on_circle(circle_mlp):
    circ = Circle()
    a = np.array([1.0, 0.7])
    target = -a / np.linalg.norm(a)
    oracle = MlpScoreOracle(circle_mlp, sigma=0.1)
    x0 = np.array([np.cos(0.5), np.sin(0.5)])
    record = dlf_run(oracle, LinearObjective(a), x0, t_step=5e-3, eta=5.0, max_steps=4000,
                     stop_grad_tol=1e-8, record_every=200, baseline=circ)
    xf = record.final_point
    assert np.linalg.norm(xf - target) <= 0.15
    assert circ.feasibility(xf) <= 0.08


def test_cli_pipeline_generate_train_optimize_sample(tmp_path):
    data_dir = str(tmp_path / "data")
    model_dir = str(tmp_path / "model")
    run_dir = str(tmp_path / "run")
    sample_dir = str(tmp_path / "samples")

    gen = tmp_path / "gen.cfg"
    gen.write_text(
        "[experiment]\nkind = generate-data\nseed = 3\n\n"
        "[manifold]\nkind = circle\ncount = 256\n\n[output]\ndir = out\n"
    )
    assert run_cli(["generate-data", "--config", str(gen), "--out", data_dir]) == 0

    train = tmp_path / "train.cfg"
    train.write_text(
        "[experiment]\nkind = train-score\nseed = 4\n\n"
        f"[oracle]\ndataset = {data_dir}/points.csv\n\n"
        "[algorithm]\nepochs = 400\nbatch = 128\nhidden = 64,64\n\n"
        "[output]\ndir = out\n"
    )
    assert run_cli(["train-score", "--config", str(train), "--out", model_dir]) == 0

    opt = tmp_path / "opt.cfg"
    opt.write_text(
        "[experiment]\nkind = optimize\nseed = 5\n\n"
        f"[oracle]\nkind = mlp\nmodel = {model_dir}/model.msopt\nsigma = 0.1\n\n"
        "[manifold]\nkind = circle\n\n"
        "[objective]\nkind = linear\na = 1.0,0.7\n\n"
        "[algorithm]\nkind = drgd\ngamma = 0.05\nmax_steps = 100\nx0 = 0.878,0.479\n\n"
        "[output]\ndir = out\n"
    )
    assert run_cli(["optimize", "--config", str(opt), "--out", run_dir]) == 0
    assert os.path.exists(os.path.join(run_dir, "run.csv"))
    with open(os.path.join(run_dir, "summary.txt")) as fh:
        assert "final_objective" in fh.read()

    sample = tmp_path / "sample.cfg"
    sample.write_text(
        "[experiment]\nkind = sample\nseed = 6\n\n"
        f"[oracle]\nmodel = {model_dir}/model.msopt\n\n"
        "[algorithm]\ncount = 32\nsteps = 50\n\n[output]\ndir = out\n"
    )
    assert run_cli(["sample", "--config", str(sample), "--out", sample_dir]) == 0
    samples = np.loadtxt(os.path.join(sample_dir, "samples.csv"), delimiter=",")
    assert samples.shape == (32, 2)


def test_cli_tracking_pipeline(tmp_path):
    data_dir = str(tmp_path / "traj")
    run_dir = str(tmp_path / "run")
    gen = tmp_path / "gen.cfg"
    gen.write_text(
        "[experiment]\nkind = generate-data\nseed = 6\n\n"
        "[manifold]\nkind = unicycle\nhorizon = 6\ncount = 60\n\n[output]\ndir = out\n"
    )
    assert run_cli(["generate-data", "--config", str(gen), "--out", data_dir]) == 0

    opt = tmp_path / "opt.cfg"
    opt.write_text(
        "[experiment]\nkind = optimize\nseed = 6\n\n"
        f"[oracle]\nkind = empirical\ndataset = {data_dir}\nsigma = 0.05\n\n"
        "[manifold]\nkind = unicycle\nhorizon = 6\n\n"
        "[objective]\nkind = tracking\nreference = arc\namplitude = 0.3\n\n"
        "[algorithm]\nkind = drgd\ngamma = 1e-3\nmax_steps = 50\n\n"
        "[output]\ndir = out\n"
    )
    assert run_cli(["optimize", "--config", str(opt), "--out", run_dir]) == 0
    with open(os.path.join(run_dir, "summary.txt")) as fh:
        text = fh.read()
    assert "backtest_gap" in text
    assert "dataset_best_objective" in text
    assert os.path.exists(os.path.join(run_dir, "optimized_point.csv"))
