import re

import numpy as np
import pytest

from msopt.manifolds import Circle
from msopt.objectives import LinearObjective
from msopt.optim import drgd_run
from msopt.score.dsm import dsm_train
from msopt.score.mlp import ScoreMlp, load_score_mlp, make_score_mlp
from msopt.score.oracles import MlpScoreOracle

from finite_differences import fd_jacobian


def test_zero_network_is_identity_oracle():
    mlp = make_score_mlp(3, hidden=(8,), seed=0)
    for w, b in mlp.layers:
        w[:] = 0.0
        b[:] = 0.0
    x = np.array([0.4, -1.0, 2.0])
    post = MlpScoreOracle(mlp, sigma=0.5).posterior(x)
    assert np.allclose(post.mean, x)
    assert np.allclose(post.vjp(np.eye(3)), np.eye(3))
    assert post.link is None


def test_fresh_network_output_layer_zero_initialized():
    mlp = make_score_mlp(2, hidden=(16, 16), seed=3)
    assert np.abs(mlp.layers[-1][0]).max() == 0.0
    x = np.array([0.7, -0.3])
    assert np.allclose(MlpScoreOracle(mlp, 0.3).posterior(x).mean, x)


def test_linear_network_affine_jacobian():
    # no hidden layer: raw output W @ (x, sigma) + b, so the Tweedie Jacobian
    # is exactly I + sigma * W_x under the 1/sigma output scaling
    w = np.array([[0.5, -1.0, 0.2], [2.0, 0.3, -0.7]])
    mlp = ScoreMlp([(w, np.array([0.1, -0.2]))])
    sigma = 0.4
    jac = MlpScoreOracle(mlp, sigma).posterior(np.array([1.0, 2.0])).vjp(np.eye(2))
    assert np.allclose(jac, np.eye(2) + sigma * w[:, :2], atol=1e-15)


def test_input_jacobian_matches_finite_differences():
    mlp = make_score_mlp(3, hidden=(16, 16), seed=7)
    # give the zero output layer random weights so the Jacobian is nontrivial
    rng = np.random.default_rng(11)
    mlp.layers[-1][0][:] = rng.standard_normal(mlp.layers[-1][0].shape) * 0.3
    sigma = 0.6
    oracle = MlpScoreOracle(mlp, sigma)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, 3)
        jac = oracle.posterior(x).vjp(np.eye(3))
        jac_fd = fd_jacobian(lambda p: oracle.posterior(p).mean, x)
        worst = max(worst, np.linalg.norm(jac - jac_fd, 2))
    assert worst <= 1e-4


def test_vjp_matches_jacobian_transpose():
    mlp = make_score_mlp(4, hidden=(12, 12), seed=5)
    rng = np.random.default_rng(6)
    mlp.layers[-1][0][:] = rng.standard_normal(mlp.layers[-1][0].shape) * 0.5
    oracle = MlpScoreOracle(mlp, 0.7)
    x, v = rng.standard_normal(4), rng.standard_normal(4)
    post = oracle.posterior(x)
    assert np.allclose(post.vjp(v), post.vjp(np.eye(4)).T @ v, atol=1e-12)


def test_relu_tie_takes_zero_derivative():
    # one hidden unit exactly at pre-activation 0: mask must be 0 there
    w1 = np.array([[1.0, 0.0]])  # input (x, sigma); pre = x
    w2 = np.array([[2.0]])
    mlp = ScoreMlp([(w1, np.zeros(1)), (w2, np.zeros(1))])
    oracle = MlpScoreOracle(mlp, 0.5)
    for x, raw in ((0.0, 0.0), (0.1, 2.0)):
        acts = mlp.forward_cached(np.array([[x]]), 0.5)
        jac = mlp.input_backward(acts, np.eye(1))[:, :-1]
        assert jac[0, 0] == raw
        # Tweedie Jacobian 1 + sigma * raw through the posterior
        assert oracle.posterior(np.array([x])).vjp(np.eye(1))[0, 0] == 1.0 + 0.5 * raw


def _allocating_forward(mlp, x, sigma):
    """The allocating formula, layer by layer, in the layers' dtype: the layer
    outputs (input first) and the pre-activations."""
    acts = [np.column_stack([x, np.broadcast_to(sigma, len(x))]).astype(mlp.layers[0][0].dtype)]
    pres = []
    for i, (w, b) in enumerate(mlp.layers):
        pres.append(acts[-1] @ w.T + b)
        acts.append(np.maximum(pres[-1], 0.0) if i < len(mlp.layers) - 1 else pres[-1])
    return acts, pres


def _full_backward(mlp, acts, pres, dout):
    """Backprop through every layer: parameter gradients and input gradient,
    masked by the pre-activations."""
    grads = [None] * len(mlp.layers)
    delta = np.asarray(dout, dtype=float)
    for i in range(len(mlp.layers) - 1, -1, -1):
        w, _ = mlp.layers[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        delta = delta @ w
        if i > 0:
            delta = delta * (pres[i - 1] > 0.0)
    return grads, delta


def _random_net(seed, hidden=(16, 16, 16), d=2):
    mlp = make_score_mlp(d, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed)
    for w, b in mlp.layers:
        w += rng.standard_normal(w.shape) * 0.3
        b += rng.standard_normal(b.shape) * 0.3
    return mlp


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_forward_cached_matches_allocating_formula_bitwise(dtype):
    mlp = _random_net(6, hidden=(128, 128, 128))
    mlp.layers = [(w.astype(dtype), b.astype(dtype)) for w, b in mlp.layers]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1000, 2))
    sigma = rng.uniform(0.01, 3.0, 1000)
    acts = mlp.forward_cached(x, sigma)
    ref, _ = _allocating_forward(mlp, x, sigma)
    assert len(acts) == len(mlp.layers) + 1
    for out, want in zip(acts, ref):
        assert out.dtype == dtype and np.array_equal(out, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_relu_output_mask_equals_pre_activation_mask(dtype):
    # backward and input_backward mask with output > 0; it must be pre > 0
    # at a tie at exactly 0, at -0.0 and at NaN. The BLAS sums of the affine
    # map start from +0.0 and do not yield -0.0, so that case is checked on
    # the in-place ReLU that forward_cached applies
    pre = np.array([1.5, 0.0, -0.0, np.nan, -2.0], dtype)
    out = pre.copy()
    np.maximum(out, 0.0, out=out)
    assert np.array_equal(out > 0.0, pre > 0.0)
    # through the network: the first hidden unit of the first layer sits at
    # exactly 0 on every finite row, and row 2 is NaN
    mlp = _random_net(4)
    mlp.layers[0][0][0] = 0.0
    mlp.layers[0][1][0] = 0.0
    mlp.layers = [(w.astype(dtype), b.astype(dtype)) for w, b in mlp.layers]
    x = np.random.default_rng(5).standard_normal((4, 2))
    x[2] = np.nan
    acts = mlp.forward_cached(x, 0.5)
    _, pres = _allocating_forward(mlp, x, 0.5)
    finite = np.arange(4) != 2
    assert (pres[0][finite, 0] == 0.0).all() and np.isnan(pres[-2][2]).all()
    for out, pre in zip(acts[1:-1], pres[:-1]):
        assert np.array_equal(out > 0.0, pre > 0.0)


def test_posterior_runs_one_network_forward():
    assert [n for n in vars(ScoreMlp) if n.startswith("forward")] == ["forward_cached"]
    mlp = _random_net(1)
    calls = []
    method = mlp.forward_cached
    mlp.forward_cached = lambda *a: calls.append(a) or method(*a)
    post = MlpScoreOracle(mlp, 0.3).posterior(np.array([0.4, -0.2]))
    assert len(calls) == 1
    post.vjp(np.array([1.0, 2.0]))
    post.vjp(np.eye(2))
    post.vjp(np.array([-0.5, 0.0]))
    assert len(calls) == 1


def test_input_backward_matches_full_backward_bitwise():
    mlp = _random_net(2)
    # a unit of the first and of the second hidden layer sits exactly at
    # pre-activation 0 for every input: a ReLU tie, derivative 0
    for layer in mlp.layers[:2]:
        layer[0][0] = 0.0
        layer[1][0] = 0.0
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 2))
    sigma = rng.uniform(0.1, 1.0, 5)
    acts = mlp.forward_cached(x, sigma)
    ref_acts, pres = _allocating_forward(mlp, x, sigma)
    assert (pres[0][:, 0] == 0.0).all() and (pres[1][:, 0] == 0.0).all()
    dout = rng.standard_normal((5, 2))
    grads_ref, dinp_ref = _full_backward(mlp, ref_acts, pres, dout)
    assert np.array_equal(mlp.input_backward(acts, dout), dinp_ref)
    for (gw, gb), (rw, rb) in zip(mlp.backward(acts, dout), grads_ref):
        assert np.array_equal(gw, rw) and np.array_equal(gb, rb)
    # one point, as the posterior runs it: a vjp, and the Jacobian rows
    # against the reference on two copies of the point
    acts = mlp.forward_cached(x[:1], 0.4)
    v = dout[:1]
    assert np.array_equal(mlp.input_backward(acts, v),
                          _full_backward(mlp, *_allocating_forward(mlp, x[:1], 0.4), v)[1])
    eye = np.eye(2)
    assert np.array_equal(mlp.input_backward(acts, eye),
                          _full_backward(mlp, *_allocating_forward(mlp, x[[0, 0]], 0.4), eye)[1])


def test_mlp_drgd_matches_reference_loop_bitwise():
    # the reference keeps the formulas of a separate forward for the mean and
    # a forward plus full backward for the product
    # a briefly trained network pulls toward the circle, so the run is bounded
    mlp = make_score_mlp(2, hidden=(32, 32, 32), seed=4)
    dsm_train(Circle().sample_uniform(200, seed=5), mlp, epochs=300, batch=64, t_max=3.0,
              t_min=1e-4, lr_hi=1e-3, lr_lo=5e-5, seed=6)
    sigma, gamma, steps = 0.2, 0.01, 200
    obj = LinearObjective(np.array([1.0, -0.5]))
    x0 = np.array([0.9, 0.3])

    def mean(x):
        return x + sigma**2 * (_allocating_forward(mlp, x[None, :], sigma)[0][-1][0] / sigma)

    def vjp(x, v):
        acts, pres = _allocating_forward(mlp, x[None, :], sigma)
        return v + sigma * _full_backward(mlp, acts, pres, v[None, :])[1][0, :-1]

    x, step_norm = x0.copy(), 0.0
    rows = []
    for k in range(steps + 1):
        rows.append((k, obj.value(x), obj.value(mean(x)), step_norm))
        if k == steps:
            break
        x_next = mean(x - gamma * vjp(x, obj.gradient(x)))
        step_norm = float(np.linalg.norm(x_next - x))
        x = x_next
    ref = np.array(rows)

    record = drgd_run(MlpScoreOracle(mlp, sigma), obj, x0, gamma=gamma, max_steps=steps,
                      stop_grad_tol=0.0, record_every=1)
    xf = record.final_point
    assert record.metadata["termination"] == "budget"
    assert np.array_equal(record.steps, ref[:, 0])
    assert np.array_equal(record.objective, ref[:, 1])
    assert np.array_equal(record.surrogate_objective, ref[:, 2])
    assert np.array_equal(record.step_norm, ref[:, 3])
    assert np.array_equal(xf, x) and np.array_equal(record.final_point, x)
    # the iterates moved: the check is not of a fixed point
    assert np.linalg.norm(x - x0) > 0.1


def test_save_load_roundtrip(tmp_path):
    mlp = make_score_mlp(3, hidden=(10, 7), seed=9)
    rng = np.random.default_rng(2)
    for w, b in mlp.layers:
        w += rng.standard_normal(w.shape) * 0.1
        b += rng.standard_normal(b.shape) * 0.1
    path = tmp_path / "model.msopt"
    mlp.save(path)
    loaded = load_score_mlp(path)
    assert loaded.widths == mlp.widths
    for (w0, b0), (w1, b1) in zip(mlp.layers, loaded.layers):
        assert np.array_equal(w0, w1)
        assert np.array_equal(b0, b1)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_score_mlp(path)


def test_load_rejects_wrong_size(tmp_path):
    path = tmp_path / "model.msopt"
    make_score_mlp(3, hidden=(10, 7), seed=9).save(path)
    data = path.read_bytes()
    # magic 6 + count 4, then per layer 8 + 8 rows cols + 8 rows bytes:
    # layer 0 (10x4) 408, layer 1 (7x10) 624, layer 2 (3x7) 200
    assert len(data) == 1242
    cases = (
        (data[:8], "truncated header: expected 4 bytes, 2 available"),
        (data[:526], "truncated layer 1 weights: expected 560 bytes, 100 available"),
        (data[:1240], "truncated layer 2 biases: expected 24 bytes, 22 available"),
        (data + b"\0" * 5, r"5 trailing bytes after layer 2 \(expected 1242 bytes in all, 1247"),
    )
    for i, (content, message) in enumerate(cases):
        bad = tmp_path / f"bad{i}.msopt"
        bad.write_bytes(content)
        with pytest.raises(ValueError, match=message) as err:
            load_score_mlp(bad)
        assert str(bad) in str(err.value)


def test_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        ScoreMlp([(np.zeros((3, 2)), np.zeros(2))])
    with pytest.raises(ValueError):
        ScoreMlp([(np.zeros((3, 2)), np.zeros(3)), (np.zeros((2, 4)), np.zeros(2))])
    # the input is (x, sigma): a first layer of any other width failed in matmul
    with pytest.raises(ValueError, match=re.escape("input width 3 is not the output width "
                                                   "3 + 1 (the (x, sigma) input)")):
        ScoreMlp([(np.zeros((5, 3)), np.zeros(5)), (np.zeros((3, 5)), np.zeros(3))])
    with pytest.raises(ValueError, match="at least one layer"):
        ScoreMlp([])
    # a loaded file names its path with the widths
    mlp = make_score_mlp(3, hidden=(5,), seed=0)
    mlp.layers[0] = (np.zeros((5, 3)), np.zeros(5))
    path = tmp_path / "model.msopt"
    mlp.save(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: input width 3 is not")):
        load_score_mlp(path)
    # a zero width built a network whose output is its last bias alone
    for ambient_dim, hidden in ((2, (8, 0)), (0, (8,))):
        with pytest.raises(ValueError, match=r"need widths >= 1"):
            make_score_mlp(ambient_dim, hidden=hidden, seed=0)
