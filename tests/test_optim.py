import re
from types import SimpleNamespace

import numpy as np
import pytest

from msopt.manifolds import Circle, Orthogonal, Sphere
from msopt.objectives import LinearObjective, ZeroObjective, random_brockett, brockett_optimum
from msopt.optim import CSV_HEADER, dlf_run, drgd_run, riemannian_gd_baseline, scaled_norm
from msopt.score.oracles import EmpiricalScoreOracle, ExactManifoldAdapter
from msopt.textio import read_key_values


def _sphere_linear():
    sph = Sphere(3)
    a = np.array([1.0, 2.0, -0.5])
    return sph, LinearObjective(a), -a / np.linalg.norm(a)


def test_dlf_zero_gain_constant_objective_is_fixed_point():
    sph, _, _ = _sphere_linear()
    x0 = sph.sample_uniform(1, seed=1)[0]
    record = dlf_run(ExactManifoldAdapter(sph), ZeroObjective(3), x0, t_step=1e-3, eta=0.0,
                     max_steps=50, stop_grad_tol=0.0, record_every=1, baseline=sph)
    xf = record.final_point
    assert np.allclose(xf, x0, atol=1e-14)


def test_dlf_sphere_linear_converges():
    sph, obj, target = _sphere_linear()
    x0 = np.array([1.2, 0.1, 0.1])
    record = dlf_run(ExactManifoldAdapter(sph), obj, x0, t_step=1e-3, eta=300.0,
                     max_steps=40000, stop_grad_tol=1e-9, record_every=500, baseline=sph)
    xf = record.final_point
    assert np.linalg.norm(xf - target) <= 1e-6
    assert record.riem_grad_norm[-1] <= 1e-6


def test_dlf_exponential_distance_decay():
    # with f = 0 the tube distance follows d(t) = exp(-2 eta t) d(0)
    sph = Sphere(3)
    eta = 1.0
    x0 = np.array([1.3, 0.0, 0.0])
    step = 1e-5 / eta
    steps = int(10.0 / eta / step)
    record = dlf_run(ExactManifoldAdapter(sph), ZeroObjective(3), x0, t_step=step, eta=eta,
                     max_steps=steps, stop_grad_tol=0.0, record_every=10000, baseline=sph)
    d0 = 0.5 * 0.3**2
    times = record.steps * step
    measured = 0.5 * record.feasibility**2
    predicted = d0 * np.exp(-2.0 * eta * times)
    rel = np.abs(measured - predicted) / predicted
    assert rel.max() <= 0.05


def test_dlf_tangent_and_landing_terms_orthogonal():
    for manifold in (Sphere(3), Orthogonal(3)):
        adapter = ExactManifoldAdapter(manifold)
        obj = LinearObjective(np.arange(1.0, manifold.ambient_dim + 1.0))
        base = manifold.sample_uniform(5, seed=3)
        for i, p in enumerate(base):
            x = p + 0.2 * manifold.safe_tube_radius * manifold.unit_normal(p, seed=5, index=i)
            post = adapter.posterior(x)
            tangent_term = post.vjp(np.eye(x.size)).T @ obj.gradient(post.mean)
            landing_term = post.mean - x
            assert abs(tangent_term @ landing_term) <= 1e-8


def test_dlf_pure_penalty_decreases_distance():
    # with f = 0 the DLF step descends eta * d_sigma(x) alone
    circ = Circle()
    oracle = EmpiricalScoreOracle(circ.sample_uniform(256, seed=9), sigma=0.1)
    record = dlf_run(oracle, ZeroObjective(2), np.array([1.45, 0.1]), t_step=0.05,
                     eta=1.0, max_steps=200, stop_grad_tol=0.0, record_every=1,
                     baseline=circ)
    feas = record.feasibility
    drops = np.diff(feas)
    floor = 0.02  # oracle bias floor at sigma = 0.1
    assert feas[-1] <= floor or np.all(drops <= 1e-12)
    assert feas[-1] < 0.1 * feas[0]


def test_dlf_divergent_step_aborts():
    circ = Circle()
    adapter = ExactManifoldAdapter(circ)
    eta = 1.0
    record = dlf_run(adapter, ZeroObjective(2), np.array([1.3, 0.0]), t_step=10.0 / eta,
                     eta=eta, max_steps=100, stop_grad_tol=0.0, record_every=1,
                     baseline=circ)
    assert record.metadata["termination"] == "diverged"
    assert int(record.metadata["diverged_at_step"]) <= 100


class _JumpOracle:
    """Mean x + 1 in every coordinate while x[0] < 3, then `jump`. With
    f = 0, t_step = 1 and eta = 1, DLF steps x <- mean: 0, 1, 2, 3, jump."""

    sigma = 0.0

    def __init__(self, jump):
        self.jump = np.asarray(jump, dtype=float)

    def posterior(self, x):
        mean = x + 1.0 if x[0] < 3.0 else self.jump
        return SimpleNamespace(mean=mean, link=None, vjp=np.zeros_like)


@pytest.mark.parametrize("every", [1, 3, 7])
@pytest.mark.parametrize("jump", [[np.nan, 0.0], [np.inf, 0.0], [-np.inf, 1.0], [1e200, 1e200],
                                  [1e12, 0.0]],
                         ids=["nan", "inf", "minus_inf", "square_overflows", "beyond_bound"])
def test_runaway_iterate_diverges_after_last_finite_step(jump, every):
    # the bound is 1e9 (1 + ||x0||) = 1e9; the run keeps x_3 = (3, 3) and
    # records it once, with the step norm ||x_3 - x_2|| = sqrt(2)
    with np.errstate(invalid="ignore", over="ignore"):
        record = dlf_run(_JumpOracle(jump), ZeroObjective(2), np.zeros(2), t_step=1.0,
                         eta=1.0, max_steps=20, stop_grad_tol=0.0, record_every=every)
        xf = record.final_point
    assert record.metadata["termination"] == "diverged"
    assert record.metadata["diverged_at_step"] == 4
    assert np.array_equal(xf, [3.0, 3.0])
    assert list(record.steps) == sorted({0, 3} | set(range(0, 4, every)))
    last = [record.objective[-1], record.surrogate_objective[-1], record.step_norm[-1]]
    assert last == [0.0, 0.0, np.sqrt(2.0)]
    assert np.isnan(record.feasibility[-1]) and np.isnan(record.riem_grad_norm[-1])


def test_iterate_within_runaway_bound_runs_on():
    record = dlf_run(_JumpOracle([5e8, 0.0]), ZeroObjective(2), np.zeros(2), t_step=1.0,
                     eta=1.0, max_steps=20, stop_grad_tol=0.0, record_every=1)
    xf = record.final_point
    assert record.metadata["termination"] == "budget"
    assert np.array_equal(xf, [5e8, 0.0])


@pytest.mark.parametrize("algorithm", ["dlf", "drgd"])
def test_sparse_recording_rows_equal_every_step_rows(tmp_path, algorithm):
    # a recorded step's norm is taken from the kept previous iterate, so a
    # run.csv row does not depend on which other steps are recorded
    loop = dict(max_steps=60, stop_grad_tol=0.0)
    if algorithm == "dlf":
        sph, obj, _ = _sphere_linear()
        runs = [dlf_run(ExactManifoldAdapter(sph), obj, np.array([1.2, 0.1, 0.1]), t_step=1e-2,
                        eta=5.0, record_every=e, baseline=sph, **loop) for e in (7, 1)]
    else:
        circ = Circle()
        oracle = EmpiricalScoreOracle(circ.sample_uniform(256, seed=5), sigma=0.2)
        obj = LinearObjective(np.array([0.7, -0.2]))
        runs = [drgd_run(oracle, obj, np.array([1.1, 0.4]), gamma=1e-2, record_every=e,
                         baseline=circ, **loop) for e in (7, 1)]
    sparse, full = runs
    assert list(sparse.steps) == list(range(0, 60, 7)) + [60]
    lines = {}
    for name, record in (("sparse", sparse), ("full", full)):
        record.save(tmp_path / f"{name}.csv", tmp_path / f"{name}.meta.txt")
        lines[name] = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
    assert lines["sparse"] == [lines["full"][k] for k in sparse.steps]
    for column in ("objective", "surrogate_objective", "feasibility", "riem_grad_norm",
                   "step_norm"):
        assert np.array_equal(getattr(sparse, column), getattr(full, column)[sparse.steps])
    assert np.all(full.step_norm[1:] > 0.0)


def test_drgd_constant_objective_retracts_then_fixes():
    sph = Sphere(3)
    x0 = np.array([1.4, 0.2, -0.3])
    record = drgd_run(ExactManifoldAdapter(sph), ZeroObjective(3), x0, gamma=0.5,
                      max_steps=5, stop_grad_tol=0.0, record_every=1, baseline=sph)
    xf = record.final_point
    assert np.allclose(xf, sph.project(x0), atol=1e-14)
    assert np.abs(record.feasibility[1:]).max() <= 1e-12


def test_drgd_sphere_linear_converges_monotonically():
    sph, obj, target = _sphere_linear()
    x0 = sph.sample_uniform(1, seed=11)[0]
    record = drgd_run(ExactManifoldAdapter(sph), obj, x0, gamma=0.05, max_steps=3000,
                      stop_grad_tol=1e-12, record_every=1, baseline=sph)
    xf = record.final_point
    assert np.linalg.norm(xf - target) <= 1e-8
    assert np.all(np.diff(record.objective[1:]) <= 1e-12)


def test_drgd_exact_adapter_keeps_iterates_on_manifold():
    on = Orthogonal(3)
    obj = random_brockett(3, seed=2)
    x0 = on.sample_uniform(1, seed=3)[0]
    record = drgd_run(ExactManifoldAdapter(on), obj, x0, gamma=5e-3, max_steps=300,
                      stop_grad_tol=0.0, record_every=1, baseline=on)
    assert np.nanmax(record.feasibility[1:]) <= 1e-9


def test_drgd_empirical_oracle_fixed_at_isolated_atom():
    # when sigma is far below the atom spacing the posterior at a data point
    # is numerically a point mass: the update is a bitwise fixed point
    on = Orthogonal(5)
    data = on.sample_uniform(500, seed=5)
    oracle = EmpiricalScoreOracle(data, sigma=0.05)
    obj = random_brockett(5, seed=5)
    x0 = data[7]
    record = drgd_run(oracle, obj, x0, gamma=1e-3, max_steps=50, stop_grad_tol=1e-8,
                      record_every=1, baseline=on)
    xf = record.final_point
    assert np.array_equal(xf, x0)
    assert record.metadata["termination"] == "grad_tol"


def test_drgd_empirical_oracle_optimizes_in_dense_regime():
    # when the sample spacing resolves sigma (here: 1e5 atoms on a circle,
    # spacing ~6e-5 << sigma) the mixture oracle behaves like the population
    # score and the descent genuinely optimizes, starting from the worst atom
    circ = Circle()
    data = circ.sample_uniform(100_000, seed=41)
    a = np.array([1.0, 0.7])
    obj = LinearObjective(a)
    worst_atom = data[int(np.argmax(data @ a))]
    oracle = EmpiricalScoreOracle(data, sigma=0.05)
    xf = drgd_run(oracle, obj, worst_atom, gamma=0.05, max_steps=800, stop_grad_tol=1e-8,
                  record_every=100, baseline=circ).final_point
    target = -a / np.linalg.norm(a)
    assert np.linalg.norm(xf - target) <= 0.01
    assert circ.feasibility(xf) <= 0.005


def test_drgd_retraction_confines_iterates_to_oracle_error_floor():
    # the Tweedie retraction is biased by O(sigma^2), so feasibility is not
    # pointwise monotone under retraction once inside that floor; what holds
    # is tube confinement: every post-retraction iterate stays within the
    # oracle's worst-case projection error, and retraction still improves
    # feasibility whenever the raw step sits clearly above the floor
    circ = Circle()
    oracle = EmpiricalScoreOracle(circ.sample_uniform(128, seed=13), sigma=0.3)
    eps = max(
        np.linalg.norm(oracle.posterior(p * r).mean - circ.project(p * r))
        for p in circ.sample_uniform(50, seed=14)
        for r in (0.85, 1.0, 1.3)
    )
    obj = LinearObjective(np.array([1.0, 0.5]))
    x = np.array([1.2, -0.3])
    gamma = 0.05
    for _ in range(40):
        v = obj.gradient(x)
        vjp = oracle.posterior(x).vjp(v)
        y = x - gamma * vjp
        x_next = oracle.posterior(y).mean
        assert circ.feasibility(x_next) <= eps + 1e-12
        if circ.feasibility(y) > 2.0 * eps:
            assert circ.feasibility(x_next) <= circ.feasibility(y)
        x = x_next


def test_riemannian_gd_sphere_and_brockett():
    sph, obj, target = _sphere_linear()
    x0 = sph.sample_uniform(1, seed=17)[0]
    xf = riemannian_gd_baseline(sph, obj, x0, gamma=0.1, max_steps=3000, stop_grad_tol=1e-12,
                                record_every=1).final_point
    assert np.linalg.norm(xf - target) <= 1e-6

    on = Orthogonal(5)
    bobj = random_brockett(5, seed=11)
    x0 = on.sample_uniform(1, seed=19)[0]
    record = riemannian_gd_baseline(on, bobj, x0, gamma=1e-2, max_steps=20000,
                                    stop_grad_tol=1e-10, record_every=100)
    xf = record.final_point
    assert abs(bobj.value(xf) - brockett_optimum(bobj)) <= 1e-6
    assert np.nanmax(record.feasibility) <= 1e-10


def test_riemannian_gd_critical_point_is_fixed():
    sph = Sphere(3)
    obj = LinearObjective(np.array([0.0, 0.0, 1.0]))
    x0 = np.array([0.0, 0.0, -1.0])  # the minimizer: zero Riemannian gradient
    record = riemannian_gd_baseline(sph, obj, x0, gamma=0.1, max_steps=100,
                                    stop_grad_tol=1e-8, record_every=1)
    xf = record.final_point
    assert np.array_equal(xf, x0)
    assert record.metadata["termination"] == "grad_tol"


def test_scaled_norm_without_under_or_overflow():
    v = np.random.default_rng(3).standard_normal(103)
    for scale in (1.0, 1e-180, 1e180):
        assert scaled_norm(scale * v) == pytest.approx(scale * np.linalg.norm(v), rel=1e-15)
    assert scaled_norm(np.zeros(3)) == 0.0
    assert np.isnan(scaled_norm(np.array([np.nan, 1.0])))


def test_stop_test_does_not_underflow():
    # a gradient of ~1e-180 entries is far above a 1e-200 tolerance, but a
    # norm that squares the entries reads it as 0 and stops at step 0
    sph = Sphere(3)
    obj = LinearObjective(np.array([1e-180, 2e-180, -5e-181]))
    x0 = sph.sample_uniform(1, seed=11)[0]
    for tol, termination in ((1e-200, "budget"), (1e-179, "grad_tol")):
        record = riemannian_gd_baseline(sph, obj, x0, gamma=0.1, max_steps=3,
                                        stop_grad_tol=tol, record_every=1)
        assert record.metadata["termination"] == termination


@pytest.mark.parametrize("scale", [1e-180, 1e-162, 1e160])
def test_recorded_gradient_norm_does_not_underflow(scale):
    # a norm that squares the entries records a ~1e-180 true Riemannian
    # gradient as 0, a ~1e-162 one 3 % short and a ~1e160 one as inf; the
    # run makes no step, which a 1e160 gradient would throw off the sphere
    sph = Sphere(3)
    obj = LinearObjective(np.array([1.0, 2.0, -0.5]) * scale)
    x0 = sph.sample_uniform(1, seed=11)[0]
    record = riemannian_gd_baseline(sph, obj, x0, gamma=0.1, max_steps=0,
                                    stop_grad_tol=1e-8, record_every=1)
    assert len(record) == 1
    p = sph.project(x0)
    expected = scaled_norm(sph.riemannian_grad(p, obj.gradient(p)))
    assert expected > 0.1 * scale
    assert np.allclose(record.riem_grad_norm, expected, rtol=1e-14, atol=0.0)


def test_riemannian_gd_rejects_off_manifold_start():
    # a NaN distance to the projection fails `<= 1e-9`; a plain `> 1e-9`
    # test let a NaN start run and end as diverged
    for manifold, x0 in ((Sphere(3), [2.0, 0.0, 0.0]), (Sphere(3), [np.nan, 0.0, 0.0]),
                         (Sphere(3), [np.inf, 0.0, 0.0]), (Orthogonal(2), [np.nan, 0.0, 0.0, 1.0])):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="on-manifold start"):
            riemannian_gd_baseline(manifold, ZeroObjective(manifold.ambient_dim), np.array(x0),
                                   gamma=0.1, max_steps=10, stop_grad_tol=1e-8, record_every=1)


@pytest.mark.parametrize("bad, message", [
    ({"step": 0.0}, "STEP = 0.0 (need finite > 0)"),
    ({"step": -0.5}, "STEP = -0.5 (need finite > 0)"),
    ({"step": float("nan")}, "STEP = nan (need finite > 0)"),
    ({"max_steps": -1}, "max_steps = -1 (need >= 0)"),
    ({"eta": -1.0}, "eta = -1.0 (need finite >= 0)"),
    ({"step": float("inf")}, "STEP = inf (need finite > 0)"),
    ({"eta": float("inf")}, "eta = inf (need finite >= 0)"),
    ({"eta": float("nan")}, "eta = nan (need finite >= 0)"),
    ({"tol": float("nan")}, "stop_grad_tol = nan (need finite >= 0)"),
    ({"tol": float("inf")}, "stop_grad_tol = inf (need finite >= 0)"),
    ({"tol": -1e-8}, "stop_grad_tol = -1e-08 (need finite >= 0)"),
    ({"every": 0}, "record_every = 0 (need >= 1)"),
    ({"every": -4}, "record_every = -4 (need >= 1)"),
], ids=["zero_step", "negative_step", "nan_step", "negative_max_steps", "negative_eta",
        "inf_step", "inf_eta", "nan_eta", "nan_stop_grad_tol", "inf_stop_grad_tol",
        "negative_stop_grad_tol", "zero_record_every", "negative_record_every"])
def test_optimizers_share_one_parameter_check(bad, message):
    # a negative step would run an ascent, a negative budget an empty record,
    # an infinite step a non-finite iterate, a NaN or negative tolerance a run
    # whose stop test never fires, a recording interval below 1 a record of
    # every step; all three optimizers reject them before the first step
    sph, obj, _ = _sphere_linear()
    x0 = sph.sample_uniform(1, seed=2)[0]
    adapter = ExactManifoldAdapter(sph)
    p = {"step": 1e-3, "max_steps": 10, "eta": 1.0, "tol": 1e-8, "every": 1, **bad}
    loop = dict(max_steps=p["max_steps"], stop_grad_tol=p["tol"], record_every=p["every"])
    runs = [("t_step", lambda: dlf_run(adapter, obj, x0, t_step=p["step"], eta=p["eta"],
                                       baseline=sph, **loop))]
    if "eta" not in bad:
        runs += [
            ("gamma", lambda: drgd_run(adapter, obj, x0, gamma=p["step"], baseline=sph, **loop)),
            ("gamma", lambda: riemannian_gd_baseline(sph, obj, x0, gamma=p["step"], **loop)),
        ]
    for step_name, run in runs:
        with pytest.raises(ValueError, match=re.escape(message.replace("STEP", step_name))):
            run()


def test_running_average_sq_grad_norm_nonincreasing_for_tol_runs():
    sph, obj, _ = _sphere_linear()
    x0 = sph.sample_uniform(1, seed=23)[0]
    record = riemannian_gd_baseline(sph, obj, x0, gamma=0.1, max_steps=5000,
                                    stop_grad_tol=1e-10, record_every=1)
    assert record.metadata["termination"] == "grad_tol"
    # gradient norms can rise before the decay sets in, so the Cesaro average
    # is non-increasing only past its peak; the tail must dominate
    g2 = record.riem_grad_norm**2
    running = np.cumsum(g2) / np.arange(1, g2.size + 1)
    peak = int(np.argmax(running))
    assert np.all(np.diff(running[peak:]) <= 1e-15)
    assert running[-1] < running.max()
    assert g2[-1] <= 1e-18  # tol-terminated: the tail itself has decayed


def test_bitwise_reproducibility():
    on = Orthogonal(3)
    data = on.sample_uniform(200, seed=29)
    oracle = EmpiricalScoreOracle(data, sigma=0.5)
    obj = random_brockett(3, seed=31)
    params = dict(gamma=1e-3, max_steps=100, stop_grad_tol=0.0, record_every=1, baseline=on)
    rec_a = drgd_run(oracle, obj, data[0], **params)
    xa = rec_a.final_point
    rec_b = drgd_run(oracle, obj, data[0], **params)
    xb = rec_b.final_point
    assert np.array_equal(xa, xb)
    for field in ("objective", "surrogate_objective", "feasibility", "riem_grad_norm", "step_norm"):
        assert np.array_equal(getattr(rec_a, field), getattr(rec_b, field))


def test_run_record_roundtrip(tmp_path):
    sph, obj, _ = _sphere_linear()
    x0 = sph.sample_uniform(1, seed=37)[0]
    record = riemannian_gd_baseline(sph, obj, x0, gamma=0.1, max_steps=50,
                                    stop_grad_tol=1e-8, record_every=1)
    csv_path = tmp_path / "run.csv"
    meta_path = tmp_path / "run.meta.txt"
    record.save(csv_path, meta_path)
    assert csv_path.read_text().splitlines()[0] == CSV_HEADER
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(table[:, 0], record.steps)
    assert np.array_equal(table[:, 1], record.objective)
    meta = read_key_values(meta_path)
    final_point = np.array([float(v) for v in meta["final_point"].split(",")])
    assert np.array_equal(final_point, record.final_point)
    assert meta["algorithm"] == "riemannian_gd"


def test_dlf_flags_runs_leaving_safe_tube():
    sph = Sphere(3)
    record = dlf_run(ExactManifoldAdapter(sph), ZeroObjective(3), np.array([2.5, 0.0, 0.0]),
                     t_step=1e-3, eta=1.0, max_steps=5, stop_grad_tol=0.0, record_every=1,
                     baseline=sph)
    assert record.metadata["left_safe_tube"] is True


class _CountingOracle:
    """Forwards to an oracle and counts its posterior evaluations."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.oracle, name)

    def posterior(self, x):
        self.calls += 1
        return self.oracle.posterior(x)


def test_posterior_calls_per_step():
    # DLF: one posterior per iterate, the final one included, and none more
    # for the baseline metrics of a recorded run; DRGD: one at x and one for
    # the retraction, plus the final iterate, whose product the stop test
    # still needs
    circ = Circle()
    obj = LinearObjective(np.array([0.7, -0.2]))
    x0 = np.array([1.1, 0.4])
    steps = 7
    counted = _CountingOracle(EmpiricalScoreOracle(circ.sample_uniform(64, seed=7), sigma=0.3))
    loop = dict(max_steps=steps, stop_grad_tol=0.0, record_every=1)
    dlf_run(counted, obj, x0, t_step=2e-3, eta=5.0, **loop)
    assert counted.calls == steps + 1
    counted.calls = 0
    dlf_run(counted, obj, x0, t_step=2e-3, eta=5.0, baseline=circ, **loop)
    assert counted.calls == steps + 1
    counted.calls = 0
    drgd_run(counted, obj, x0, gamma=1e-3, **loop)
    assert counted.calls == 2 * steps + 1
