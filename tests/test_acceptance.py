"""Acceptance suite: one test per exit criterion, at its pinned tolerance.

Every test prints a single verdict line with the measured quantities (run
pytest with -s to stream them). Criteria 05 and 08 are known-red at desk
scale: the empirical posterior at the start atom is a point mass, so the
descent stops at step 0. Their failure messages carry the measured collapse
and the README's known limitations section explains the mechanism. Nothing
here is loosened to force a pass.
"""

import os
import time

import numpy as np
import pytest
from scipy.special import ive

from msopt.cli import run_cli
from msopt.control import SystemModel, generate_dataset, backtest
from msopt.manifolds import Circle, Orthogonal, Sphere
from msopt.objectives import (
    AffineReparamObjective,
    LinearObjective,
    TrackingObjective,
    brockett_optimum,
    make_reference,
    random_brockett,
)
from msopt.optim import drgd_run, scaled_norm
from msopt.score.dsm import dsm_train
from msopt.score.mlp import make_score_mlp
from msopt.score.oracles import (
    EmpiricalScoreOracle,
    ExactManifoldAdapter,
    MlpScoreOracle,
    quadrature_nodes,
)
from msopt.score.sampler import ve_reverse_sample
from msopt.validation import landing_check, rate_sweep

from finite_differences import fd_gradient, fd_jacobian, grad_check


def _verdict(num, name, ok, detail, elapsed, limit):
    line = (
        f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail} "
        f"[{elapsed:.1f}s / limit {limit:.0f}s]"
    )
    print(line)
    assert elapsed <= limit, f"criterion {num:02d} runtime {elapsed:.1f}s over limit {limit}s"
    assert ok, line


def _collapse_detail(points, i0, sigma):
    """Collapse of the empirical posterior evaluated at atom i0 itself: the
    nearest-neighbour distance, the largest competing logit -d^2/(2 sigma^2)
    (the atom's own logit is 0), the top posterior weight and the weight left
    to all other atoms together."""
    diff = points - points[i0]
    competing = np.delete(-np.einsum("nd,nd->n", diff, diff) / (2.0 * sigma * sigma), i0)
    nearest = float(np.sqrt(-2.0 * sigma * sigma * competing.max()))
    others = float(np.exp(competing).sum())
    return (
        f"start atom's nearest neighbour {nearest:.3f} ({nearest / sigma:.0f} sigma), "
        f"largest competing logit {competing.max():.0f}, "
        f"top posterior weight {1.0 / (1.0 + others):.17g} "
        f"(all other atoms {others / (1.0 + others):.1e})"
    )


def _von_mises_errors(circle, offset, sigma):
    """Closed-form worst-case Tweedie mean and Jacobian errors on the circle.

    Tube points alternate between radii R -+ offset * safe_tube_radius; at
    radius r the posterior angle is von Mises with kappa = rR/sigma^2. With
    A_k = I_k/I_0(kappa):
      mean error         R (1 - A_1)
      Jacobian, radial   R^2 ((1 + A_2)/2 - A_1^2) / sigma^2  (variance / sigma^2)
      Jacobian, tangent  (R/r) (1 - A_1)  (variance / sigma^2 against the
                                           projection's R/r)
    The spectral-norm error is the larger of the two Jacobian terms.
    """
    big_r = circle.radius
    radii = big_r + np.array([-1.0, 1.0]) * offset * circle.safe_tube_radius
    kappa = radii * big_r / sigma**2
    a1 = ive(1, kappa) / ive(0, kappa)
    a2 = ive(2, kappa) / ive(0, kappa)
    mean_err = big_r * (1.0 - a1)
    radial = big_r**2 * ((1.0 + a2) / 2.0 - a1**2) / sigma**2
    tangent = (big_r / radii) * (1.0 - a1)
    return float(mean_err.max()), float(np.maximum(radial, tangent).max())


@pytest.fixture(scope="session")
def two_point_mlp():
    started = time.perf_counter()
    mlp = make_score_mlp(1, hidden=(128, 128, 128), seed=3)
    dsm_train(np.array([[-1.0], [1.0]]), mlp, epochs=10000, batch=256, t_max=3.0, t_min=1e-4,
              lr_hi=1e-3, lr_lo=5e-5, seed=4)
    return mlp, time.perf_counter() - started


def test_criterion_01_exact_oracle_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_grad, worst_jac = 0.0, 0.0

    emp = EmpiricalScoreOracle(Circle().sample_uniform(40, seed=1), sigma=0.5)
    quad = EmpiricalScoreOracle(quadrature_nodes(Circle(), 512), sigma=0.3)
    for oracle in (emp, quad):
        for _ in range(100):
            x = rng.uniform(-1.6, 1.6, 2)
            post = oracle.posterior(x)
            g = fd_gradient(lambda p: oracle.posterior(p).link, x)
            worst_grad = max(worst_grad, float(np.linalg.norm(g - post.mean)))
            jac_fd = fd_jacobian(lambda p: oracle.posterior(p).mean, x)
            worst_jac = max(worst_jac, float(np.linalg.norm(jac_fd - post.vjp(np.eye(2)))))
    ok = worst_grad <= 1e-5 and worst_jac <= 1e-4
    _verdict(
        1, "link-gradient and mean-Jacobian identities", ok,
        f"max grad residual {worst_grad:.2e} (<=1e-5), "
        f"max jacobian residual {worst_jac:.2e} (<=1e-4)",
        time.perf_counter() - started, 10,
    )


def test_criterion_02_score_error_decay_rate():
    started = time.perf_counter()
    circ = Circle()
    report = rate_sweep(
        lambda s: EmpiricalScoreOracle(quadrature_nodes(circ, 4096), s), circ,
        offsets=[0.3], sigmas=[0.2, 0.1, 0.05, 0.025, 0.0125], n_points=100, seed=2,
    )
    closed = np.array([_von_mises_errors(circ, 0.3, s) for s in report.sigmas])
    dev_mean = float(np.max(np.abs(report.mean_errors / closed[:, 0] - 1.0)))
    # the exact Jacobian is closed form; the ~1e-8 left at the smallest sigma is
    # the cancellation in (1 + A_2)/2 - A_1^2 above, about 2 kappa^2 eps
    dev_jac = float(np.max(np.abs(report.jacobian_errors / closed[:, 1] - 1.0)))
    in_band = 1.9 <= report.slope_mean <= 2.1 and 1.9 <= report.slope_jacobian <= 2.1
    ok = (
        dev_mean <= 1e-9 and dev_jac <= 1e-6 and in_band
        and report.monotone_decreasing() and report.excluded == 0
    )
    _verdict(
        2, "uniform-circle error decay matches the von Mises closed form", ok,
        f"max relative deviation from closed form: mean {dev_mean:.1e} (<=1e-9), "
        f"jacobian {dev_jac:.1e} (<=1e-6); slopes mean {report.slope_mean:.4f}, "
        f"jacobian {report.slope_jacobian:.4f} (in [1.9, 2.1]); "
        f"monotone {report.monotone_decreasing()}, excluded {report.excluded}",
        time.perf_counter() - started, 60,
    )


def test_criterion_03_exact_landing_law():
    started = time.perf_counter()
    sph = Sphere(3)
    base = sph.sample_uniform(1, seed=3)[0]
    report = landing_check(sph, eta=1.0, x0=base * 1.3, t_end=3.0, euler_step=1e-4,
                           record_every=1)
    ok = report.max_rel_deviation <= 0.05
    _verdict(
        3, "exponential landing decay on the sphere", ok,
        f"max relative deviation {report.max_rel_deviation:.2e} (<=0.05)",
        time.perf_counter() - started, 30,
    )


def test_criterion_04_riemannian_gd_baseline_exactness():
    started = time.perf_counter()
    # projected Riemannian GD is DRGD on the sigma = 0 oracle: s = pi, and
    # pi'(x) on the manifold is the tangent projector
    sph = Sphere(3)
    a = np.array([1.0, 2.0, -0.5])
    x0 = sph.sample_uniform(1, seed=4)[0]
    xf = drgd_run(ExactManifoldAdapter(sph), LinearObjective(a), x0, gamma=0.1, max_steps=5000,
                  stop_grad_tol=1e-12, record_every=1).final_point
    sphere_err = float(np.linalg.norm(xf + a / np.linalg.norm(a)))

    on = Orthogonal(5)
    obj = random_brockett(5, seed=11)
    x0 = on.sample_uniform(1, seed=5)[0]
    xb = drgd_run(ExactManifoldAdapter(on), obj, x0, gamma=1e-2, max_steps=20000,
                  stop_grad_tol=1e-10, record_every=1).final_point
    gap = float(obj.value(xb) - brockett_optimum(obj))
    ok = sphere_err <= 1e-6 and abs(gap) <= 1e-6
    _verdict(
        4, "exact Riemannian GD baseline", ok,
        f"sphere minimizer error {sphere_err:.2e} (<=1e-6), Brockett gap {gap:.2e} (<=1e-6)",
        time.perf_counter() - started, 30,
    )


def test_criterion_05_drgd_brockett_with_empirical_score():
    started = time.perf_counter()
    on = Orthogonal(5)
    obj = random_brockett(5, seed=11)
    data = on.sample_uniform(4000, seed=202)
    vals = np.array([obj.value(p) for p in data])
    i0 = int(np.argmin(vals))
    best = float(vals[i0])
    optimum = brockett_optimum(obj)

    oracle = EmpiricalScoreOracle(data, sigma=0.05)
    record = drgd_run(oracle, obj, data[i0], gamma=1e-3, max_steps=5000,
                      stop_grad_tol=1e-8, record_every=1, baseline=on)
    xf = record.final_point
    final = float(obj.value(xf))
    surrogate_grad = scaled_norm(oracle.posterior(data[i0]).vjp(obj.gradient(data[i0])))
    feas = on.feasibility(xf)
    improvement = best - final
    gap_closed = improvement / (best - optimum)
    ok = final < best and gap_closed >= 0.10 and feas <= 0.15
    _verdict(
        5, "Brockett descent with the empirical oracle", ok,
        f"dataset best {best:.4f}, final {final:.4f}, improvement {improvement:.2e} "
        f"(need >0 and >=10% of gap {best - optimum:.3f}), feasibility {feas:.2e} (<=0.15); "
        f"termination {record.metadata['termination']} after "
        f"{record.steps[-1]} steps; {_collapse_detail(data, i0, 0.05)}, "
        f"surrogate gradient {surrogate_grad:.1e} at the start, "
        f"true Riemannian gradient norm {record.riem_grad_norm[-1]:.3f} at the end",
        time.perf_counter() - started, 300,
    )


def test_criterion_06a_dsm_single_gaussian():
    started = time.perf_counter()
    mlp = make_score_mlp(2, hidden=(128, 128, 128), seed=1)
    dsm_train(np.zeros((1, 2)), mlp, epochs=6000, batch=256, t_max=3.0, t_min=1e-4,
              lr_hi=1e-3, lr_lo=5e-5, seed=2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for sigma in (0.3, 0.5, 0.7, 1.0):
        for _ in range(100):
            z = rng.standard_normal(2)
            z *= rng.uniform(0.5, 2.0) / np.linalg.norm(z)
            x = sigma * z
            score = mlp.forward_cached(x[None, :], sigma)[-1][0] / sigma
            rel = np.linalg.norm(score + x / sigma**2) / np.linalg.norm(x / sigma**2)
            worst = max(worst, float(rel))
    ok = worst <= 0.10
    _verdict(
        6, "trained score vs Gaussian closed form", ok,
        f"max relative score error {worst:.3f} (<=0.10) over sigma in [0.3, 1]",
        time.perf_counter() - started, 300,
    )


def test_criterion_06b_dsm_two_point_tweedie_mean(two_point_mlp):
    mlp, train_seconds = two_point_mlp
    started = time.perf_counter()
    oracle = EmpiricalScoreOracle(np.array([[-1.0], [1.0]]), sigma=0.5)
    net = MlpScoreOracle(mlp, sigma=0.5)
    grid = np.linspace(-2.0, 2.0, 41)
    worst = max(
        float(abs(net.posterior(np.array([x])).mean[0] - oracle.posterior(np.array([x])).mean[0]))
        for x in grid
    )
    ok = worst <= 0.05
    _verdict(
        6, "trained Tweedie mean vs exact two-point oracle", ok,
        f"max mean error {worst:.4f} (<=0.05) on the grid at sigma=0.5",
        time.perf_counter() - started + train_seconds, 300,
    )


def test_criterion_07_ve_reverse_sampler(two_point_mlp):
    started = time.perf_counter()
    samples = ve_reverse_sample(two_point_mlp[0], count=1000, steps=800, seed=9,
                                t_max=3.0, t_min=1e-4).ravel()
    near = np.minimum(np.abs(samples - 1.0), np.abs(samples + 1.0))
    frac = float((near <= 0.15).mean())
    ok = frac >= 0.90
    _verdict(
        7, "reverse-SDE samples concentrate on the data", ok,
        f"{frac:.1%} of 1000 samples within 0.15 of an atom (>=90%)",
        time.perf_counter() - started, 60,
    )


def test_criterion_08_tracking_desk_scale():
    started = time.perf_counter()
    system = SystemModel("unicycle")
    horizon = 20
    dataset = generate_dataset(system, count=2000, horizon=horizon, seed=6)
    ref = make_reference("arc", horizon, system.dt, system.output_dim, amplitude=0.5)
    tracking = TrackingObjective(ref, np.diag([10.0, 10.0, 0.0]), 0.01 * np.eye(2), horizon)

    flat = dataset.data
    vals = np.array([tracking.value(p) for p in flat])
    i0 = int(np.argmin(vals))
    best = float(vals[i0])

    normalized = dataset.normalize(flat)
    oracle = EmpiricalScoreOracle(normalized, sigma=0.05)
    objective = AffineReparamObjective(tracking, dataset.norm_shift, dataset.norm_scale)
    record = drgd_run(oracle, objective, normalized[i0], gamma=1e-3, max_steps=2000,
                      stop_grad_tol=1e-8, record_every=1)
    zf = record.final_point

    surrogate_grad = scaled_norm(
        oracle.posterior(normalized[i0]).vjp(objective.gradient(normalized[i0]))
    )

    u_star, y_star = dataset.layout.split(dataset.denormalize(zf))
    y_true, gap = backtest(system, u_star, y_star)
    f_true = tracking.value(dataset.layout.join(u_star, y_true))
    rel_gap = gap / max(float(np.linalg.norm(y_star)), 1e-30)
    ok = f_true <= 0.7 * best and rel_gap <= 0.10
    _verdict(
        8, "unicycle tracking improvement and back-test", ok,
        f"back-tested objective {f_true:.4f} (need <= 0.7 x dataset best {best:.4f} "
        f"= {0.7 * best:.4f}), back-test gap {gap:.2e} ({rel_gap:.1%} of ||y*||, <=10%); "
        f"termination {record.metadata['termination']} after {record.steps[-1]} steps; "
        f"normalized coordinates: {_collapse_detail(normalized, i0, 0.05)}, "
        f"surrogate gradient {surrogate_grad:.1e} at the start",
        time.perf_counter() - started, 600,
    )


def test_criterion_09_gradient_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    brockett = random_brockett(4, seed=9)
    tracking = TrackingObjective(
        rng.standard_normal((6, 2)), np.diag([10.0, 10.0]), np.diag([0.01, 0.5]), horizon=5
    )
    linear = LinearObjective(np.array([0.4, -1.0, 2.0]))
    worst_b = grad_check(brockett, rng.standard_normal((50, 16)))
    worst_t = grad_check(tracking, rng.standard_normal((50, tracking.layout.dim)))
    worst_l = grad_check(linear, rng.standard_normal((50, 3)))
    ok = worst_b <= 1e-6 and worst_t <= 1e-6 and worst_l <= 1e-10
    _verdict(
        9, "analytic gradients vs central differences", ok,
        f"brockett {worst_b:.2e}, tracking {worst_t:.2e} (<=1e-6), linear {worst_l:.2e}",
        time.perf_counter() - started, 10,
    )


def test_criterion_10_reproducible_artifacts(tmp_path):
    started = time.perf_counter()
    optimize_cfg = tmp_path / "opt.cfg"
    optimize_cfg.write_text(
        "[experiment]\nkind = optimize\nseed = 7\n\n"
        "[oracle]\nkind = empirical\nsample_count = 200\nsigma = 0.4\n\n"
        "[manifold]\nkind = orthogonal\nn = 3\n\n"
        "[objective]\nkind = brockett\na_seed = 5\n\n"
        "[algorithm]\nkind = drgd\ngamma = 1e-3\nmax_steps = 150\nstop_grad_tol = 0\n\n"
        "[output]\ndir = out\n"
    )
    rate_cfg = tmp_path / "rate.cfg"
    rate_cfg.write_text(
        "[experiment]\nkind = validate\nseed = 3\n\n"
        "[oracle]\nkind = quadrature\nnode_count = 1024\n\n"
        "[manifold]\nkind = circle\n\n"
        "[algorithm]\ncheck = rate\nn_points = 20\n\n"
        "[output]\ndir = out\n"
    )
    identical = True
    compared = 0
    for name, subcommand, cfg in (
        ("opt", "optimize", optimize_cfg),
        ("rate", "validate", rate_cfg),
    ):
        dirs = [str(tmp_path / f"{name}_{i}") for i in (0, 1)]
        for d in dirs:
            assert run_cli([subcommand, "--config", str(cfg), "--out", d]) == 0
        for fname in sorted(os.listdir(dirs[0])):
            if not fname.endswith(".csv"):
                continue
            compared += 1
            with open(os.path.join(dirs[0], fname), "rb") as fa, open(
                os.path.join(dirs[1], fname), "rb"
            ) as fb:
                if fa.read() != fb.read():
                    identical = False
    ok = identical and compared >= 2
    _verdict(
        10, "byte-identical CSV artifacts on re-run", ok,
        f"{compared} CSV artifacts compared across repeated runs, identical: {identical}",
        time.perf_counter() - started, 120,
    )
