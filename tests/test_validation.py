import re

import numpy as np
import pytest
from scipy.special import ive

from msopt.manifolds import Circle, Sphere
from msopt.objectives import LinearObjective
from msopt.optim import RunRecord, drgd_run
from msopt.score.oracles import EmpiricalScoreOracle, ExactManifoldAdapter, quadrature_nodes
from msopt.textio import read_key_values
from msopt.validation import feasibility_optimality_report, landing_check, rate_sweep

SIGMAS = (0.2, 0.1, 0.05, 0.025, 0.0125)


def test_rate_sweep_exact_adapter_is_flat_zero():
    circ = Circle()
    report = rate_sweep(lambda s: ExactManifoldAdapter(circ), circ,
                        offsets=[0.3], sigmas=SIGMAS, n_points=10, seed=1)
    assert report.mean_errors.max() <= 1e-9
    assert report.jacobian_errors.max() <= 1e-9


def test_rate_sweep_quadrature_matches_von_mises_decay():
    # uniform circle: the worst-case Tweedie mean error at fixed tube offset
    # has the closed form 1 - I1/I0(R / sigma^2), which decays like sigma^2;
    # the fitted log-log slope is therefore 2, not 1
    circ = Circle()
    report = rate_sweep(lambda s: EmpiricalScoreOracle(quadrature_nodes(circ, 4096), s), circ,
                        offsets=[0.3], sigmas=SIGMAS, n_points=40, seed=2)
    # test points alternate inside/outside at distance 0.15; worst case is inside
    for sigma, err in zip(report.sigmas, report.mean_errors):
        kappa = 0.85 / sigma**2
        closed_form = 1.0 - ive(1, kappa) / ive(0, kappa)
        assert err == pytest.approx(closed_form, rel=1e-6)
    assert 1.9 <= report.slope_mean <= 2.1
    assert 1.9 <= report.slope_jacobian <= 2.1
    assert report.monotone_decreasing()
    assert report.excluded == 0


def test_rate_sweep_empirical_tracks_quadrature():
    circ = Circle()
    emp_points = circ.sample_uniform(100_000, seed=3)
    rep_emp = rate_sweep(lambda s: EmpiricalScoreOracle(emp_points, s), circ,
                         offsets=[0.3], sigmas=[0.05], n_points=20, seed=4)
    rep_quad = rate_sweep(lambda s: EmpiricalScoreOracle(quadrature_nodes(circ, 8192), s), circ,
                          offsets=[0.3], sigmas=[0.05], n_points=20, seed=4)
    # Monte Carlo noise floor at this sample size, measured via the
    # self-normalized importance-sampling standard error (~sqrt(sigma/N))
    gap = abs(rep_emp.mean_errors[0] - rep_quad.mean_errors[0])
    assert gap <= 3.0 * np.sqrt(0.05 / 100_000) * 3.0


def test_rate_sweep_one_sigma_summary():
    # one sigma fits no slope and has no smaller sigma to saturate against
    circ = Circle()
    report = rate_sweep(lambda s: ExactManifoldAdapter(circ), circ, offsets=[0.3],
                        sigmas=[0.05], n_points=3, seed=1)
    text = report.summary_text()
    assert "log-log slope (mean):     nan" in text and "saturation" not in text


def test_rate_sweep_csv_and_summary(tmp_path):
    circ = Circle()
    report = rate_sweep(lambda s: EmpiricalScoreOracle(quadrature_nodes(circ, 1024), s), circ,
                        offsets=[0.3], sigmas=[0.2, 0.1], n_points=5, seed=5)
    path = tmp_path / "rate.csv"
    report.save_csv(path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], report.sigmas)
    assert "slope" in report.summary_text()


def test_landing_check_zero_gain_keeps_distance():
    sph = Sphere(3)
    report = landing_check(sph, eta=0.0, x0=np.array([1.3, 0.0, 0.0]),
                           t_end=0.5, euler_step=1e-3, record_every=1)
    assert np.abs(report.measured - report.measured[0]).max() <= 1e-10


def test_landing_check_matches_exponential_law():
    sph = Sphere(3)
    report = landing_check(sph, eta=1.0, x0=np.array([1.3, 0.0, 0.0]),
                           t_end=3.0, euler_step=1e-4, record_every=100)
    assert report.max_rel_deviation <= 0.05


def test_landing_check_doubling_eta_halves_efold_time():
    sph = Sphere(3)
    x0 = np.array([0.7, 0.0, 0.0])

    def time_to_efold(eta):
        rep = landing_check(sph, eta=eta, x0=x0, t_end=4.0 / eta, euler_step=1e-4 / eta,
                            record_every=1)
        target = rep.measured[0] / np.e
        k = int(np.argmax(rep.measured <= target))
        t0, t1 = rep.times[k - 1], rep.times[k]
        m0, m1 = rep.measured[k - 1], rep.measured[k]
        return t0 + (t1 - t0) * (m0 - target) / (m0 - m1)

    ratio = time_to_efold(1.0) / time_to_efold(2.0)
    assert abs(ratio - 2.0) <= 0.04


def test_landing_check_rejects_outside_tube():
    with pytest.raises(ValueError):
        landing_check(Sphere(3), eta=1.0, x0=np.array([2.0, 0.0, 0.0]),
                      t_end=1.0, euler_step=1e-3, record_every=1)
    # the distance of a non-finite start is NaN, which passed `dist0 > radius`
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="x0 at distance nan is outside the safe tube"):
            landing_check(Sphere(3), eta=1.0, x0=np.array([1.2, bad, 0.0]),
                          t_end=1.0, euler_step=1e-3, record_every=1)


@pytest.mark.parametrize("bad, message", [
    ({"record_every": 0}, "record_every = 0 (need >= 1)"),
    ({"record_every": -4}, "record_every = -4 (need >= 1)"),
    ({"euler_step": 0.0}, "euler_step = 0.0 (need finite > 0)"),
    ({"t_end": float("inf")}, "t_end = inf (need finite >= 0)"),
    ({"eta": float("nan")}, "eta = nan (need finite >= 0)"),
    ({"euler_step": 1e-320}, "t_end / euler_step = inf (need a finite step count)"),
])
def test_landing_check_parameters_checked(bad, message):
    # a zero interval or step divided by zero, an infinite end time or a
    # subnormal step overflowed the step count; each is a ValueError that
    # names the parameter
    params = dict(eta=1.0, x0=np.array([1.3, 0.0, 0.0]), t_end=0.5, euler_step=1e-3,
                  record_every=1)
    with pytest.raises(ValueError, match=re.escape(message)):
        landing_check(Sphere(3), **{**params, **bad})


def test_landing_measured_curve_monotone():
    sph = Sphere(4)
    report = landing_check(sph, eta=2.0, x0=sph.sample_uniform(1, seed=6)[0] * 1.25,
                           t_end=1.0, euler_step=1e-4, record_every=10)
    assert np.all(np.diff(report.measured) <= 0.0)


def test_report_exact_sphere_run():
    sph = Sphere(3)
    obj = LinearObjective(np.array([1.0, 2.0, -0.5]))
    record = drgd_run(ExactManifoldAdapter(sph), obj, sph.sample_uniform(1, seed=7)[0],
                      gamma=0.1, max_steps=3000, stop_grad_tol=1e-8, record_every=1,
                      baseline=sph)
    summary = feasibility_optimality_report(record)
    assert summary.final_feasibility <= 1e-9
    assert summary.final_riem_grad_norm <= 1e-6


def test_report_constant_objective_zero_improvement():
    sph = Sphere(2)
    oracle = ExactManifoldAdapter(sph)
    from msopt.objectives import ZeroObjective

    record = drgd_run(oracle, ZeroObjective(2), sph.sample_uniform(1, seed=8)[0], gamma=0.1,
                      max_steps=20, stop_grad_tol=0.0, record_every=1, baseline=sph)
    record.metadata["dataset_best_objective"] = "0"
    summary = feasibility_optimality_report(record)
    assert summary.objective_improvement == 0.0


def test_report_summarizes_feasibility_only_for_a_measured_baseline():
    # the record says whether the run measured a baseline; the report reads it there
    sph = Sphere(3)
    obj = LinearObjective(np.array([1.0, 2.0, -0.5]))
    x0 = sph.sample_uniform(1, seed=7)[0]
    texts = []
    for baseline in (sph, None):
        record = drgd_run(ExactManifoldAdapter(sph), obj, x0, gamma=0.1, max_steps=20,
                          stop_grad_tol=0.0, record_every=1, baseline=baseline)
        texts.append(feasibility_optimality_report(record).to_text())
    with_baseline, without = texts
    for key in ("final_feasibility = ", "final_riem_grad_norm = "):
        assert key in with_baseline and key not in without


def test_report_reproducible_from_saved_record(tmp_path):
    sph = Sphere(3)
    obj = LinearObjective(np.array([0.3, -1.0, 0.2]))
    record = drgd_run(ExactManifoldAdapter(sph), obj, sph.sample_uniform(1, seed=9)[0],
                      gamma=0.1, max_steps=200, stop_grad_tol=1e-8, record_every=1,
                      baseline=sph)
    record.save(tmp_path / "r.csv", tmp_path / "r.meta.txt")
    table = np.loadtxt(tmp_path / "r.csv", delimiter=",", skiprows=1, ndmin=2)
    meta = read_key_values(tmp_path / "r.meta.txt")
    final_point = np.array([float(v) for v in meta.pop("final_point").split(",")])
    loaded = RunRecord(table, meta, final_point)
    a = feasibility_optimality_report(record)
    b = feasibility_optimality_report(loaded)
    assert a == b


def test_report_rejects_empty_record():
    empty = RunRecord(np.zeros((0, 6)), {}, np.zeros(3))
    with pytest.raises(ValueError):
        feasibility_optimality_report(empty)
