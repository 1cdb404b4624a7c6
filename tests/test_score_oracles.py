import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ive

from msopt.manifolds import Circle, Orthogonal, Sphere
from msopt.score.mlp import make_score_mlp
from msopt.score.oracles import (
    EmpiricalScoreOracle,
    ExactManifoldAdapter,
    MlpScoreOracle,
    quadrature_nodes,
)

from finite_differences import fd_gradient, fd_jacobian


def link_grad_consistency(oracle, x, h: float = 1e-5) -> float:
    """|| fd-gradient of the link - Tweedie mean ||; zero for exact oracles."""
    x = np.asarray(x, dtype=float)
    g = fd_gradient(lambda p: oracle.posterior(p).link, x, h=h)
    return float(np.linalg.norm(g - oracle.posterior(x).mean))


def test_single_point_posterior():
    y = np.array([0.4, -1.2])
    oracle = EmpiricalScoreOracle(y[None, :], sigma=0.7)
    for x in ([0.0, 0.0], [3.0, 5.0]):
        post = oracle.posterior(np.array(x))
        assert np.allclose(post.mean, y)
        assert np.abs(post.vjp(np.eye(2))).max() <= 1e-12


def test_two_atom_symmetry_and_closed_form():
    oracle = EmpiricalScoreOracle(np.array([[-1.0], [1.0]]), sigma=0.8)
    assert abs(oracle.posterior(np.array([0.0])).mean[0]) <= 1e-15
    oracle01 = EmpiricalScoreOracle(np.array([[0.0], [1.0]]), sigma=1.0)
    expected = 1.0 / (1.0 + np.exp(-0.5))
    assert oracle01.posterior(np.array([1.0])).mean[0] == pytest.approx(expected, abs=1e-12)


def test_invalid_construction():
    with pytest.raises(ValueError):
        EmpiricalScoreOracle(np.zeros((0, 2)), sigma=0.5)
    # NaN and inf pass a plain `sigma <= 0` test
    constructors = (
        lambda s: EmpiricalScoreOracle(np.zeros((3, 2)), sigma=s),
        lambda s: EmpiricalScoreOracle(quadrature_nodes(Circle(), 64), sigma=s),
        lambda s: MlpScoreOracle(make_score_mlp(2, hidden=(4,), seed=0), sigma=s),
    )
    for build in constructors:
        for sigma in (0.0, -0.1, float("nan"), float("inf")):
            message = f"score oracle needs finite sigma > 0, got sigma = {sigma!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                build(sigma)


def test_link_gradient_recovers_mean():
    rng = np.random.default_rng(0)
    dataset = Circle().sample_uniform(25, seed=8)
    oracle = EmpiricalScoreOracle(dataset, sigma=0.5)
    worst = max(
        link_grad_consistency(oracle, rng.uniform(-2, 2, 2)) for _ in range(100)
    )
    assert worst <= 1e-5
    single = EmpiricalScoreOracle(np.array([[0.3, 0.4]]), sigma=0.6)
    assert link_grad_consistency(single, np.array([1.0, -1.0])) <= 1e-7


def test_mean_jacobian_consistency():
    rng = np.random.default_rng(1)
    oracle = EmpiricalScoreOracle(rng.standard_normal((30, 3)), sigma=0.6)
    for _ in range(25):
        x = rng.uniform(-1.5, 1.5, 3)
        jac_fd = fd_jacobian(lambda p: oracle.posterior(p).mean, x)
        assert np.abs(jac_fd - oracle.posterior(x).vjp(np.eye(3))).max() <= 1e-4


def test_jacobian_symmetric_psd():
    rng = np.random.default_rng(2)
    oracle = EmpiricalScoreOracle(rng.standard_normal((40, 4)), sigma=0.9)
    for _ in range(20):
        jac = oracle.posterior(rng.uniform(-2, 2, 4)).vjp(np.eye(4))
        assert np.abs(jac - jac.T).max() <= 1e-12
        assert np.linalg.eigvalsh(jac).min() >= -1e-9


def test_jacobian_eigenvalues_near_manifold_in_unit_range():
    # Cov/sigma^2 approaches the tangent projector at small sigma, so for the
    # exact uniform-measure oracle all eigenvalues sit in [0, 1] at points on
    # (or outside) the circle. Inside the tube the projection Jacobian itself
    # has norm 1/R > 1, and empirical oracles add O(N_window^-1/2) noise, so
    # the unit range is specific to this regime.
    oracle = EmpiricalScoreOracle(quadrature_nodes(Circle(), 8192), sigma=0.02)
    rng = np.random.default_rng(4)
    for i in range(30):
        th = rng.uniform(0, 2 * np.pi)
        r = 1.0 + 0.005 * (i % 3)
        x = r * np.array([np.cos(th), np.sin(th)])
        eig = np.linalg.eigvalsh(oracle.posterior(x).vjp(np.eye(2)))
        assert eig.min() >= -1e-9
        assert eig.max() <= 1.0 + 1e-9


def test_translation_equivariance():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((15, 3))
    c = np.array([2.0, -1.0, 0.5])
    x = rng.standard_normal(3)
    a = EmpiricalScoreOracle(data, sigma=0.7).posterior(x)
    b = EmpiricalScoreOracle(data + c, sigma=0.7).posterior(x + c)
    assert np.allclose(b.mean, a.mean + c, atol=1e-12)
    assert np.allclose(b.vjp(np.eye(3)), a.vjp(np.eye(3)), atol=1e-12)


def test_mean_and_vjp_matches_jacobian():
    rng = np.random.default_rng(6)
    emp = EmpiricalScoreOracle(rng.standard_normal((25, 3)), sigma=0.5)
    x, v = rng.standard_normal(3), rng.standard_normal(3)
    # the exact adapter at a tube point of O(3): the closed-form polar derivative
    on = Orthogonal(3)
    p = on.sample_uniform(1, seed=6)[0]
    x_on = p + 0.2 * on.safe_tube_radius * on.unit_normal(p, seed=6)
    cases = ((emp, x, v), (ExactManifoldAdapter(on), x_on, rng.standard_normal(9)))
    for oracle, x, v in cases:
        post = oracle.posterior(x)
        assert np.allclose(post.vjp(v), post.vjp(np.eye(v.size)).T @ v, atol=1e-12)
        assert not post.vjp(np.zeros_like(v)).any()


def _stack_case(name):
    """(oracle, x) for one posterior kind of the stacked-product test."""
    on5 = Orthogonal(5)
    atoms = on5.sample_uniform(4000, seed=0)
    if name in ("mixture-dense", "mixture-collapsed"):
        # the bench shape: N=4000 Haar atoms at d=25, a tube point of atom 0
        sigma = 0.5 if name == "mixture-dense" else 0.05
        x = atoms[0] + 0.2 * on5.unit_normal(atoms[0], seed=1)
        return EmpiricalScoreOracle(atoms, sigma), x
    if name == "mixture-gathered":
        circle = Circle().sample_uniform(2000, seed=3)
        return EmpiricalScoreOracle(circle, 0.02), np.array([1.05, 0.48])
    if name == "exact-s2":
        return ExactManifoldAdapter(Sphere(3)), np.array([1.3, -0.2, 0.4])
    if name == "exact-o5":
        return ExactManifoldAdapter(on5), atoms[0] + 0.1 * on5.unit_normal(atoms[0], seed=2)
    mlp = make_score_mlp(3, hidden=(32, 32, 32), seed=4)
    rng = np.random.default_rng(4)
    for w, b in mlp.layers:
        w += rng.standard_normal(w.shape) * 0.3
    return MlpScoreOracle(mlp, 0.3), np.array([0.4, -0.2, 0.9])


@pytest.mark.parametrize("name", ["mixture-dense", "mixture-collapsed", "mixture-gathered",
                                  "exact-s2", "exact-o5", "mlp"])
def test_vjp_stack_rows_equal_single_products(name):
    # a stack of directions runs one product per row in the same arithmetic as
    # a lone direction, so the Jacobian vjp(eye) is bitwise the rows vjp(e_i)
    oracle, x = _stack_case(name)
    post = oracle.posterior(x)
    d = oracle.ambient_dim
    if name == "mixture-dense":
        assert post.weights.size == 4000
    if name == "mixture-collapsed":
        assert post.weights.max() == 1.0
    if name == "mixture-gathered":
        assert 1 < post.weights.size < 1000
    rng = np.random.default_rng(12)
    for stack in (rng.standard_normal((7, d)), np.eye(d), rng.standard_normal((1, d))):
        rows = post.vjp(stack)
        assert rows.shape == stack.shape
        for i, v in enumerate(stack):
            assert np.array_equal(rows[i], post.vjp(v))


def _difference_posterior(points, sigma, x):
    """Reference mixture posterior from the differences p - x over all atoms:
    weights, mean, Jacobian Cov/sigma^2 and link ||x||^2/2 + sigma^2 lse."""
    diff = points - x
    logits = -np.einsum("nd,nd->n", diff, diff) / (2.0 * sigma**2)
    m = logits.max()
    w = np.exp(logits - m)
    z = w.sum()
    w /= z
    mean = w @ points
    centered = points - mean
    jac = (w[:, None] * centered).T @ centered / sigma**2
    return w, mean, jac, 0.5 * float(x @ x) + sigma**2 * float(m + np.log(z))


def _rel_err(a, b):
    # the floor admits a subnormal reference where the kernel has exactly 0
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _kept_rows(points, sigma, x):
    """The atoms a posterior at x sums over: a boolean mask of those within
    746 of the largest logit when they are fewer than half, else every row."""
    logits = (points @ x - 0.5 * np.einsum("nd,nd->n", points, points)) / (sigma * sigma)
    keep = logits > logits.max() - 746.0
    return keep if 0 < 2 * np.count_nonzero(keep) < keep.size else slice(None)


def test_mixture_kernel_matches_difference_formula():
    on5 = Orthogonal(5).sample_uniform(4000, seed=0)
    circle = Circle().sample_uniform(2000, seed=3)
    th = 0.4
    off = 1.15 * np.array([np.cos(th), np.sin(th)])
    # (atoms, sigma, x, atoms the kernel keeps): collapsed, partial underflow
    # with and without the gather, dense
    cases = (
        (on5, 0.05, 3.0 * on5[0], "one"),
        (circle, 0.05, off, "all"),
        (circle, 0.02, off, "gathered"),
        (circle, 0.5, off, "all"),
    )
    rng = np.random.default_rng(9)
    for points, sigma, x, kept in cases:
        post = EmpiricalScoreOracle(points, sigma).posterior(x)
        w_ref, mean_ref, jac_ref, link_ref = _difference_posterior(points, sigma, x)
        n = post.weights.size
        assert {"one": n == 1, "all": n == len(points), "gathered": 1 < n < len(points) / 2}[kept]
        if sigma == 0.05 and kept == "all":
            assert 0 < np.count_nonzero(w_ref) < len(points)
        rows = _kept_rows(points, sigma, x)
        weights = np.zeros(len(points))
        weights[rows] = post.weights
        assert np.array_equal(post.points, points[rows])
        assert np.allclose(weights, w_ref, rtol=1e-10, atol=1e-300)
        assert _rel_err(post.mean, mean_ref) <= 1e-12
        assert abs(post.link - link_ref) <= 1e-12 * abs(link_ref)
        assert _rel_err(post.vjp(np.eye(x.size)), jac_ref) <= 1e-10
        v = rng.standard_normal(x.size)
        assert _rel_err(post.vjp(v), jac_ref @ v) <= 1e-10


def _boolean_index_posterior(points, sigma, x):
    """The mixture kernel's arithmetic with the gather written as boolean
    indexing: a stand-in posterior with its points, weights and mean."""
    logits = (points @ x - 0.5 * np.einsum("nd,nd->n", points, points)) / (sigma * sigma)
    m = logits.max()
    keep = logits > m - 746.0
    kept = np.count_nonzero(keep)
    if 0 < 2 * kept < keep.size:
        points, logits = points[keep], logits[keep]
    logits = logits - m
    floor = -700.0 + np.log(max(kept, 1))
    w = np.exp(np.maximum(logits, floor)) * (logits > floor)
    w /= w.sum()
    return SimpleNamespace(points=points, weights=w, mean=w @ points, sigma=sigma)


@pytest.mark.parametrize("sigma, collapsed", [(0.05, True), (2.0, False)],
                         ids=["collapsed", "dense"])
def test_mixture_gather_matches_boolean_index_bitwise(sigma, collapsed):
    # O(5) as 25-vectors, N = 4000: at sigma 0.05 a few atoms survive the
    # logit window and their rows are gathered; at sigma 2 every atom does
    points = Orthogonal(5).sample_uniform(4000, seed=17)
    x = points[0] + 0.05 * np.random.default_rng(18).standard_normal(25)
    post = EmpiricalScoreOracle(points, sigma).posterior(x)
    ref = _boolean_index_posterior(points, sigma, x)
    assert (post.points.shape[0] < len(points)) == collapsed
    assert (post.weights.size < 10) if collapsed else (post.weights.size == len(points))
    assert np.array_equal(post.points, ref.points)
    assert np.array_equal(post.weights, ref.weights)
    assert np.array_equal(post.mean, ref.mean)
    eye = np.eye(25)
    assert np.array_equal(post.vjp(eye), type(post).vjp(ref, eye))


def test_mixture_product_accuracy_off_the_origin():
    # a product forms p.v - m.v instead of (p - m).v, so it cancels: the
    # terms are of size ||p|| ||v|| and their difference of size spread ||v||.
    # Atoms far from the origin with a small spread, all of them of nearly
    # equal weight, make ||p||/spread large (1.4e4 here) and leave no term
    # that does not cancel: the worst case of the shipped and tested shapes
    rng = np.random.default_rng(4)
    points = np.array([100.0, 100.0]) + 0.01 * rng.standard_normal((5000, 2))
    sigma = 0.05
    post = EmpiricalScoreOracle(points, sigma).posterior(np.array([100.0, 100.0]))
    assert post.weights.size == 5000 and post.weights.max() < 1e-3
    # centered reference in long double from the same weights
    w = post.weights.astype(np.longdouble)
    centered = post.points.astype(np.longdouble) - w @ post.points.astype(np.longdouble)
    jac_ref = (w[:, None] * centered).T @ centered / np.longdouble(sigma) ** 2
    v = rng.standard_normal(2)
    assert _rel_err(post.vjp(v), jac_ref @ v.astype(np.longdouble)) <= 1e-10
    assert _rel_err(post.vjp(np.eye(2)), jac_ref) <= 1e-10


def _unfloored_posterior(points, sigma, x):
    """The mixture kernel's arithmetic without the e^-700 weight floor: the
    same logits, 746 window and gather, then exp of every kept logit. Returns
    (rows, shifted kept logits, weights, mean, link, vjp(eye))."""
    logits = (points @ x - 0.5 * np.einsum("nd,nd->n", points, points)) / (sigma * sigma)
    m = logits.max()
    keep = logits > m - 746.0
    rows = slice(None)
    if 0 < 2 * np.count_nonzero(keep) < keep.size:
        rows = keep
        points, logits = points[keep], logits[keep]
    shifted = logits - m
    w = np.exp(shifted)
    z = w.sum()
    w /= z
    mean = w @ points
    eye = np.eye(x.size)[..., None]
    t = points @ eye - (mean @ eye)[..., None, :]
    t *= w[:, None]
    jac = (points.T @ t - t.sum(axis=-2, keepdims=True) * mean[:, None])[..., 0] / sigma**2
    return rows, shifted, w, mean, sigma**2 * float(m + np.log(z)), jac


@pytest.mark.parametrize("count, sigma, gathered", [(100000, 0.05, False), (2000, 0.02, True)],
                         ids=["dense", "gathered"])
def test_mixture_weights_below_floor_are_zero_and_change_nothing(count, sigma, gathered):
    # of K kept weights, those under K e^-700 are set to 0.0 so that no exp
    # returns a subnormal; against exp of every kept logit, no result moves by a bit
    points = Circle().sample_uniform(count, seed=3)
    x = 1.15 * np.array([np.cos(0.4), np.sin(0.4)])
    post = EmpiricalScoreOracle(points, sigma).posterior(x)
    rows, shifted, w_ref, mean_ref, link_ref, jac_ref = _unfloored_posterior(points, sigma, x)
    band = (shifted > -746.0) & (shifted <= -700.0)
    assert np.count_nonzero(band) > 0
    assert w_ref[band].min() < np.finfo(float).tiny
    assert isinstance(rows, np.ndarray) == gathered
    assert np.array_equal(post.points, points[rows])
    kept = post.weights[post.weights != 0.0]
    assert kept.min() >= np.finfo(float).tiny
    assert not post.weights[shifted <= -700.0].any()
    assert np.array_equal(post.mean, mean_ref)
    assert post.link == link_ref
    assert np.array_equal(post.vjp(np.eye(2)), jac_ref)


def test_mixture_normalized_weights_are_never_subnormal():
    # 5000 atoms at logit 0 put the normalizer above e^-700 / tiny (about
    # 4.5e3), so an atom at logit -699.9, above a floor of -700, normalized to
    # a subnormal 2.2e-308; the floor is -700 + log(kept count) instead
    tiny = np.finfo(float).tiny
    logits = np.array([0.0] * 5000 + [-699.9, -690.0])
    points = np.sqrt(-2.0 * logits)[:, None]  # at x = 0 and sigma = 1, logit = -p^2/2
    post = EmpiricalScoreOracle(points, 1.0).posterior(np.zeros(1))
    assert post.weights.size == len(points) and post.weights.sum() == pytest.approx(1.0)
    assert 1.0 / post.weights[0] > 4.5e3
    assert np.all((post.weights == 0.0) | (post.weights >= tiny))
    assert post.weights[-2] == 0.0 and post.weights[-1] >= tiny


def test_mixture_kernel_propagates_non_finite_points():
    oracle = EmpiricalScoreOracle(Circle().sample_uniform(64, seed=1), 0.1)
    with np.errstate(invalid="ignore"):
        for bad in (np.nan, np.inf):
            assert np.isnan(oracle.posterior(np.array([bad, 0.0])).mean).all()


# ---- quadrature oracle ------------------------------------------------------


def test_quadrature_rejects_bad_inputs():
    with pytest.raises(ValueError, match="quadrature oracle supports circles only"):
        quadrature_nodes(Sphere(3), 256)
    with pytest.raises(ValueError, match="quadrature oracle needs node_count >= 64"):
        quadrature_nodes(Circle(), 32)


def test_quadrature_mean_approaches_projection():
    oracle = EmpiricalScoreOracle(quadrature_nodes(Circle(), 4096), sigma=0.05)
    mean = oracle.posterior(np.array([2.0, 0.0])).mean
    assert np.linalg.norm(mean - np.array([1.0, 0.0])) <= 2e-3


def test_quadrature_center_symmetry():
    oracle = EmpiricalScoreOracle(quadrature_nodes(Circle(), 1024), sigma=0.3)
    assert np.abs(oracle.posterior(np.array([0.0, 0.0])).mean).max() <= 1e-12


def test_quadrature_jacobian_near_tangent_projector():
    oracle = EmpiricalScoreOracle(quadrature_nodes(Circle(), 4096), sigma=0.05)
    x = np.array([np.cos(0.7), np.sin(0.7)])
    projector = np.eye(2) - np.outer(x, x)
    jac = oracle.posterior(x).vjp(np.eye(2))
    assert np.linalg.norm(jac - projector, 2) <= 5e-2


def test_quadrature_matches_von_mises_closed_form():
    # posterior over the angle is von Mises with kappa = R / sigma^2:
    # mean = (I1/I0)(kappa) along the radial direction
    for sigma, R in ((0.2, 1.15), (0.05, 1.15), (0.05, 0.85), (0.1, 1.3)):
        oracle = EmpiricalScoreOracle(quadrature_nodes(Circle(), 8192), sigma=sigma)
        x = np.array([R, 0.0])
        kappa = R / sigma**2
        a_ratio = ive(1, kappa) / ive(0, kappa)
        mean = oracle.posterior(x).mean
        assert abs(mean[1]) <= 1e-12
        assert mean[0] == pytest.approx(a_ratio, abs=1e-10)


def test_empirical_vs_quadrature_monte_carlo():
    circ = Circle()
    quad = EmpiricalScoreOracle(quadrature_nodes(circ, 8192), 0.05)
    emp = EmpiricalScoreOracle(circ.sample_uniform(100_000, seed=31), 0.05)
    rng = np.random.default_rng(5)
    for i in range(20):
        th = rng.uniform(0, 2 * np.pi)
        x = (1 + 0.15 * (1 if i % 2 else -1)) * np.array([np.cos(th), np.sin(th)])
        post = emp.posterior(x)
        w = post.weights
        centered = post.points - post.mean
        se = np.sqrt((w**2 * np.einsum("nd,nd->n", centered, centered)).sum())
        gap = np.linalg.norm(post.mean - quad.posterior(x).mean)
        assert gap <= 3.0 * se


# ---- exact adapter ----------------------------------------------------------


def test_exact_adapter_realizes_projection_operators():
    sph = Sphere(3)
    adapter = ExactManifoldAdapter(sph)
    x = np.array([1.3, -0.2, 0.4])
    post = adapter.posterior(x)
    assert np.allclose(post.mean, sph.project(x))
    assert np.abs(post.vjp(np.eye(3)) - sph.projection_vjp(x, np.eye(3))).max() <= 1e-12
    # link derivative identity carries over to sigma = 0
    assert link_grad_consistency(adapter, x) <= 1e-6
    # d_sigma = ||x||^2/2 - link equals the half squared distance
    d_sigma = 0.5 * float(x @ x) - post.link
    assert d_sigma == pytest.approx(0.5 * sph.dist_to_manifold(x) ** 2)


def _count_calls(manifold, name):
    """Wrap one method of a (frozen) manifold instance; returns the counter."""
    calls = []
    method = getattr(manifold, name)

    def counted(*args):
        calls.append(1)
        return method(*args)

    object.__setattr__(manifold, name, counted)
    return calls


@pytest.mark.parametrize("manifold", [Sphere(3), Orthogonal(5)])
def test_exact_adapter_products_build_no_jacobian(manifold):
    p = manifold.sample_uniform(1, seed=9)[0]
    x = p + 0.1 * manifold.unit_normal(p, seed=9)
    v = np.random.default_rng(9).standard_normal(manifold.ambient_dim)
    products = _count_calls(manifold, "projection_vjp")
    post = ExactManifoldAdapter(manifold).posterior(x)
    vjp = post.vjp(v)
    assert len(products) == 1
    # the Jacobian is one product with a stack of directions
    jac = post.vjp(np.eye(manifold.ambient_dim))
    assert len(products) == 2
    assert np.abs(vjp - jac.T @ v).max() <= 1e-13


@pytest.mark.parametrize("manifold", [Sphere(3), Orthogonal(5)])
def test_exact_adapter_link_reuses_the_mean(manifold):
    # the link takes the distance from the mean already projected: one
    # projection per posterior, and the bits of the distance-based formula
    p = manifold.sample_uniform(1, seed=10)[0]
    x = p + 0.1 * manifold.unit_normal(p, seed=10)
    expected = 0.5 * float(x @ x) - 0.5 * manifold.dist_to_manifold(x) ** 2
    projections = _count_calls(manifold, "project")
    link = ExactManifoldAdapter(manifold).posterior(x).link
    assert len(projections) == 1
    assert np.array_equal(link, expected)


def test_exact_adapter_has_zero_errors_at_any_sigma():
    circ = Circle()
    adapter = ExactManifoldAdapter(circ)
    x = np.array([1.2, 0.3])
    assert np.linalg.norm(adapter.posterior(x).mean - circ.project(x)) == 0.0
