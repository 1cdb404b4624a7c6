import numpy as np
import pytest

from msopt.manifolds import Orthogonal
from msopt.objectives import (
    AffineReparamObjective,
    BrockettObjective,
    LinearObjective,
    TrackingObjective,
    brockett_optimum,
    make_reference,
    random_brockett,
)
from msopt.optim import drgd_run
from msopt.score.oracles import ExactManifoldAdapter

from finite_differences import grad_check


def test_brockett_value_grad_at_identity():
    obj = random_brockett(4, seed=3)
    x = np.eye(4).reshape(-1)
    assert obj.value(x) == pytest.approx(np.trace(obj.a @ obj.q))
    assert np.allclose(obj.gradient(x), (2.0 * obj.a @ obj.q).reshape(-1))


def test_brockett_zero_matrix():
    obj = BrockettObjective(np.zeros((3, 3)))
    assert np.array_equal(obj.q, np.diag([1.0, 2.0, 3.0]))
    x = Orthogonal(3).sample_uniform(1, seed=1)[0]
    assert obj.value(x) == 0.0
    assert np.abs(obj.gradient(x)).max() == 0.0


def test_brockett_gradient_finite_differences():
    obj = random_brockett(4, seed=5)
    pts = np.random.default_rng(2).standard_normal((10, 16))
    assert grad_check(obj, pts) <= 1e-6


def test_brockett_dimension_mismatch():
    with pytest.raises(ValueError):
        random_brockett(3, seed=0).value(np.zeros(5))


def test_brockett_sign_flip_invariance():
    obj = random_brockett(4, seed=7)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = Orthogonal(4).sample_uniform(1, seed=int(rng.integers(1 << 30)))[0]
        d = np.diag(rng.choice([-1.0, 1.0], size=4))
        flipped = (x.reshape(4, 4) @ d).reshape(-1)
        assert obj.value(flipped) == pytest.approx(obj.value(x), rel=1e-12)


def test_brockett_optimum_closed_cases():
    # Q = diag(1, 2): A = diag(1, 2) pairs 1 with 2 and 2 with 1
    assert brockett_optimum(BrockettObjective(np.diag([1.0, 2.0]))) == 4.0
    assert brockett_optimum(BrockettObjective(np.zeros((3, 3)))) == 0.0


def test_brockett_optimum_vs_bruteforce():
    # Monte Carlo + local polishing oracle on O(3)
    obj = random_brockett(3, seed=11)
    opt = brockett_optimum(obj)
    on = Orthogonal(3)
    samples = on.sample_uniform(100_000, seed=13).reshape(-1, 3, 3)
    vals = np.einsum("ij,njk,kl,nil->n", obj.a, samples, obj.q, samples)
    best_idx = np.argsort(vals)[:5]
    polished = np.inf
    for i in best_idx:
        xf = drgd_run(ExactManifoldAdapter(on), obj, samples[i].reshape(-1), gamma=5e-3,
                      max_steps=4000, stop_grad_tol=1e-12, record_every=1).final_point
        polished = min(polished, obj.value(xf))
    assert abs(polished - opt) <= 1e-3
    assert vals.min() >= opt - 1e-9


def test_brockett_optimum_lower_bounds_haar_samples():
    obj = random_brockett(4, seed=17)
    opt = brockett_optimum(obj)
    samples = Orthogonal(4).sample_uniform(10_000, seed=19).reshape(-1, 4, 4)
    vals = np.einsum("ij,njk,kl,nil->n", obj.a, samples, obj.q, samples)
    assert (vals - opt).min() >= -1e-9


def _small_tracking():
    ref = np.array([[0.0], [1.0]])
    return TrackingObjective(ref, q_weight=[[1.0]], r_weight=[[1.0]], horizon=1)


def test_tracking_perfect_is_zero():
    obj = _small_tracking()
    z = np.array([0.0, 0.0, 1.0])  # u0 = 0, y = r
    assert obj.value(z) == 0.0
    assert np.abs(obj.gradient(z)).max() == 0.0


def test_tracking_scalar_case():
    # u0 = 2, y0 = r0, y1 = r1 + 3: cost 4 + 9 = 13
    obj = _small_tracking()
    z = np.array([2.0, 0.0, 4.0])
    assert obj.value(z) == pytest.approx(13.0)


def test_tracking_gradient_finite_differences():
    rng = np.random.default_rng(4)
    ref = rng.standard_normal((6, 2))
    obj = TrackingObjective(ref, q_weight=np.diag([10.0, 0.0]), r_weight=np.diag([0.01, 0.5]),
                            horizon=5)
    pts = rng.standard_normal((10, obj.layout.dim))
    assert grad_check(obj, pts) <= 1e-6


def test_tracking_nonnegative_quadratic():
    rng = np.random.default_rng(5)
    ref = rng.standard_normal((4, 2))
    obj = TrackingObjective(ref, q_weight=np.eye(2), r_weight=np.eye(1), horizon=3)
    for _ in range(50):
        assert obj.value(rng.standard_normal(obj.layout.dim)) >= 0.0
    perfect = np.concatenate([np.zeros(3), ref.reshape(-1)])
    assert obj.value(perfect) == 0.0


def test_tracking_layout_mismatch():
    with pytest.raises(ValueError):
        _small_tracking().value(np.zeros(5))
    with pytest.raises(ValueError):
        TrackingObjective(np.zeros((3, 1)), [[1.0]], [[1.0]], horizon=1)


def test_tracking_requires_pd_r_psd_q():
    ref = np.zeros((2, 1))
    with pytest.raises(ValueError):
        TrackingObjective(ref, [[-1.0]], [[1.0]], horizon=1)
    with pytest.raises(ValueError):
        TrackingObjective(ref, [[1.0]], [[0.0]], horizon=1)


@pytest.mark.parametrize("build, name", [
    (lambda bad: LinearObjective(np.array([bad, 1.0])), "a"),
    (lambda bad: BrockettObjective(np.array([[bad, 0.0], [0.0, 1.0]])), "A"),
    (lambda bad: TrackingObjective(np.array([[0.0], [bad]]), [[1.0]], [[1.0]], horizon=1),
     "reference"),
    (lambda bad: TrackingObjective(np.zeros((2, 1)), [[bad]], [[1.0]], horizon=1), "Q"),
    (lambda bad: TrackingObjective(np.zeros((2, 1)), [[1.0]], [[bad]], horizon=1), "R"),
], ids=["linear_a", "brockett_a", "tracking_reference", "tracking_q", "tracking_r"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_objectives_reject_non_finite_coefficients(build, name, bad):
    # the symmetry and definiteness tests are False for NaN, so a NaN
    # coefficient built an objective whose every value was NaN
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=f"objective coefficient {name} has non-finite entries"):
        build(bad)


def test_linear_objective_constant_gradient():
    obj = LinearObjective(np.array([1.0, -2.0]))
    pts = np.random.default_rng(6).standard_normal((5, 2))
    assert grad_check(obj, pts) <= 1e-10
    with pytest.raises(ValueError):
        LinearObjective(np.zeros(3))


def test_affine_reparam_chain_rule():
    inner = random_brockett(3, seed=23)
    shift = np.full(9, 0.3)
    scale = np.linspace(0.5, 2.0, 9)
    obj = AffineReparamObjective(inner, shift, scale)
    pts = np.random.default_rng(7).standard_normal((5, 9))
    assert grad_check(obj, pts) <= 1e-6


def test_make_reference_shapes_and_kinds():
    for kind in ("sinusoid", "arc", "figure_eight"):
        ref = make_reference(kind, horizon=10, dt=0.1, output_dim=3, amplitude=1.0)
        assert ref.shape == (11, 3)
        assert np.abs(ref[:, 2]).max() == 0.0
    # kinds are matched as spelt: "ARC" was lower-cased to "arc"
    for kind in ("spiral", "ARC"):
        with pytest.raises(ValueError, match=f"unknown reference kind: '{kind}'"):
            make_reference(kind, 5, 0.1, 2, amplitude=1.0)


def test_make_reference_rejects_misspelt_keyword():
    # an unknown keyword used to be ignored, drawing the reference at amplitude 1
    with pytest.raises(TypeError, match="amplitde"):
        make_reference("arc", 4, 0.5, 2, amplitde=2.0)
    with pytest.raises(TypeError, match="amplitude"):
        make_reference("arc", 4, 0.5, 2)

