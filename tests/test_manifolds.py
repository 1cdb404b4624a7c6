import re

import numpy as np
import pytest

from msopt import rng as _rng
from msopt.errors import ProjectionError
from msopt.manifolds import Circle, Orthogonal, Sphere

from finite_differences import fd_jacobian


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _reflection(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]])


@pytest.mark.parametrize("ambient_dim, radius", [
    (3, 0.0), (3, -1.0), (3, float("nan")), (3, float("inf")), (0, 1.0),
], ids=["0.0", "-1.0", "nan", "inf", "dim_0"])
def test_sphere_rejects_bad_radius(ambient_dim, radius):
    # NaN and inf pass a plain `radius <= 0` test; the message names both
    # arguments, as a good radius with ambient_dim 0 is rejected too
    with pytest.raises(ValueError, match=re.escape(
            "sphere needs finite radius > 0 and ambient_dim >= 1, "
            f"got radius = {radius!r}, ambient_dim = {ambient_dim!r}")):
        Sphere(ambient_dim, radius=radius)


def test_sphere_radial_projection():
    sph = Sphere(3)
    assert np.allclose(sph.project([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_orthogonal_projection_positive_diagonal():
    on = Orthogonal(2)
    assert np.allclose(on.project(np.diag([2.0, 0.5]).reshape(-1)), np.eye(2).reshape(-1))


def test_orthogonal_projection_vs_bruteforce():
    # independent oracle: scan both O(2) components for the Frobenius-closest matrix
    on = Orthogonal(2)
    m = np.array([[0.0, 2.0], [-0.5, 0.0]])
    best, best_val = None, np.inf
    for theta in np.linspace(0.0, 2.0 * np.pi, 200001):
        for q in (_rotation(theta), _reflection(theta)):
            val = np.linalg.norm(m - q)
            if val < best_val:
                best, best_val = q, val
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.abs(best - expected).max() <= 1e-4
    assert np.allclose(on.project(m.reshape(-1)), expected.reshape(-1), atol=1e-12)


def _projection_and_derivatives(manifold, x):
    """pi(x), pi'(x) (the product with the identity) and pi'(x)^T v for a
    fixed v, each as a callable."""
    v = np.linspace(-1.0, 1.0, manifold.ambient_dim)
    eye = np.eye(manifold.ambient_dim)
    return (lambda: manifold.project(x), lambda: manifold.projection_vjp(x, eye),
            lambda: manifold.projection_vjp(x, v))


def test_projection_degenerate_points_rejected():
    # the projection and both derivatives share one check
    for manifold, x in (
        (Sphere(2), np.zeros(2)),
        (Orthogonal(2), np.diag([1.0, 0.0]).reshape(-1)),
        (Orthogonal(3), np.diag([1.0, 1e-13, 1.0]).reshape(-1)),
    ):
        for call in _projection_and_derivatives(manifold, x):
            with pytest.raises(ProjectionError):
                call()


def test_projection_of_non_finite_points_is_nan(monkeypatch):
    # no error: the optimizer's runaway check reads the NaN as divergence.
    # On the sphere a coordinate that is 0 times the inf scale stays 0; on
    # O(3) LAPACK's SVD of the inf input can loop without end, so it is never
    # asked, neither by the projection nor by its derivatives.
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD asked for a non-finite matrix")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for manifold in (Sphere(3), Orthogonal(3)):
        for bad in (np.nan, np.inf):
            x = manifold.sample_uniform(1, seed=4)[0]
            x[:2] = bad
            for call in _projection_and_derivatives(manifold, x):
                assert np.isnan(call()).any()


def test_sphere_norm_is_bitwise_the_linalg_norm():
    # the projection and its product take ||x|| as sqrt(x @ x), the arithmetic
    # of np.linalg.norm on a 1-D float vector, so both are bitwise unchanged;
    # below the degenerate tolerance 1e-12 both raise
    sph = Sphere(3, 2.0)
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((1000, 3)) * 10.0 ** rng.uniform(-150, 150, (1000, 1))
    vs = rng.standard_normal((1000, 3))
    degenerate = 0
    for x, v in zip(xs, vs):
        n = np.linalg.norm(x)
        if n < 1e-12:
            degenerate += 1
            for call in (lambda: sph.project(x), lambda: sph.projection_vjp(x, v)):
                with pytest.raises(ProjectionError, match="origin"):
                    call()
            continue
        u = x / n
        assert np.array_equal(sph.project(x), (2.0 / n) * x)
        assert np.array_equal(sph.projection_vjp(x, v), (2.0 / n) * (v - (u @ v[..., None]) * u))
    assert 0 < degenerate < 1000
    with pytest.raises(ProjectionError, match="origin"):
        sph.project(np.zeros(3))


def test_sphere_tangent_project_examples():
    circ = Circle()
    assert np.allclose(circ.riemannian_grad([1.0, 0.0], [0.0, 3.0]), [0.0, 3.0])
    assert np.allclose(circ.riemannian_grad([1.0, 0.0], [5.0, 0.0]), [0.0, 0.0])


def test_orthogonal_tangent_project_is_skew_part():
    on = Orthogonal(2)
    v = np.array([[1.0, 1.0], [-1.0, 1.0]]).reshape(-1)
    out = on.riemannian_grad(np.eye(2).reshape(-1), v)
    assert np.allclose(out, np.array([[0.0, 1.0], [-1.0, 0.0]]).reshape(-1))


def test_tangent_project_rejects_off_manifold_point():
    # a NaN residual fails `<= tol`; a plain `res > tol` test passed it through
    for manifold, p in ((Sphere(3), [2.0, 0.0, 0.0]), (Sphere(3), [np.nan, 0.0, 0.0]),
                        (Sphere(3), [np.inf, 0.0, 0.0]), (Orthogonal(2), [np.nan, 0.0, 0.0, 1.0])):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="off the manifold"):
            manifold.riemannian_grad(np.array(p), np.ones(manifold.ambient_dim))


@pytest.mark.parametrize("manifold", [Circle(1.5), Sphere(4, radius=2.0), Orthogonal(3)])
def test_riemannian_grad_equals_projection_vjp_on_the_manifold(manifold):
    # pi'(p) is the tangent projector at p on the manifold: the recorder's
    # closed-form riemannian_grad must stay equal to the polar/radial product
    rng = np.random.default_rng(5)
    for p in manifold.sample_uniform(20, seed=9):
        g = rng.standard_normal(manifold.ambient_dim) * rng.uniform(0.1, 10.0)
        gap = np.abs(manifold.riemannian_grad(p, g) - manifold.projection_vjp(p, g)).max()
        assert gap <= 1e-13 * np.linalg.norm(g)


def test_riemannian_grad():
    sph = Sphere(2)
    assert np.allclose(sph.riemannian_grad([0.0, 1.0], [0.0, 0.0]), [0.0, 0.0])
    assert np.allclose(sph.riemannian_grad([0.0, 1.0], [2.0, 7.0]), [2.0, 0.0])
    on = Orthogonal(3)
    g = np.arange(9.0).reshape(3, 3)
    sym = ((g + g.T) / 2).reshape(-1)
    assert np.abs(on.riemannian_grad(np.eye(3).reshape(-1), sym)).max() <= 1e-12


@pytest.mark.parametrize("manifold", [Circle(1.5), Sphere(4), Orthogonal(3)])
def test_projection_idempotent_and_orthogonal(manifold):
    rng = np.random.default_rng(7)
    base = manifold.sample_uniform(500, seed=11)
    for i, p in enumerate(base):
        x = p + manifold.safe_tube_radius * rng.uniform(0.05, 0.9) * manifold.unit_normal(p, seed=3, index=i)
        pi_x = manifold.project(x)
        assert np.linalg.norm(manifold.project(pi_x) - pi_x) <= 1e-10
        if i < 50:
            # residual x - pi(x) is orthogonal to every tangent basis direction
            residual = x - pi_x
            d = manifold.ambient_dim
            for j in range(d):
                e = np.zeros(d)
                e[j] = 1.0
                t = manifold.riemannian_grad(pi_x, e)
                assert abs(residual @ t) <= 1e-9


@pytest.mark.parametrize("manifold", [Circle(), Sphere(3, radius=2.0), Orthogonal(2)])
def test_tangent_projector_matrix_idempotent_selfadjoint(manifold):
    p = manifold.sample_uniform(1, seed=5)[0]
    d = manifold.ambient_dim
    proj = np.column_stack([manifold.riemannian_grad(p, e) for e in np.eye(d)])
    assert np.abs(proj - proj.T).max() <= 1e-10
    assert np.abs(proj @ proj - proj).max() <= 1e-10


def test_sphere_projection_jacobian_identity():
    # fd Jacobian of the projection equals (I - u u^T) r / ||x||
    sph = Sphere(3, radius=1.3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(3)
        x *= rng.uniform(0.8, 2.0) / np.linalg.norm(x)
        u = x / np.linalg.norm(x)
        expected = (sph.radius / np.linalg.norm(x)) * (np.eye(3) - np.outer(u, u))
        assert np.abs(fd_jacobian(sph.project, x) - expected).max() <= 1e-6
        assert np.abs(sph.projection_vjp(x, np.eye(3)) - expected).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_orthogonal_projection_derivatives_closed_form(n):
    # the polar derivative U Omega V^T against central differences of pi at
    # points 0.1 off O(n); pi is the gradient of the nuclear norm, so its
    # Jacobian is symmetric and the product is the forward derivative
    on = Orthogonal(n)
    rng = np.random.default_rng(n)
    for i, p in enumerate(on.sample_uniform(5, seed=13)):
        x = p + 0.1 * on.unit_normal(p, seed=13, index=i)
        jac_fd = fd_jacobian(on.project, x)
        jac = on.projection_vjp(x, np.eye(n * n))
        assert np.abs(jac - jac_fd).max() <= 1e-7
        assert np.abs(jac - jac.T).max() <= 1e-14
        for v in rng.standard_normal((3, n * n)):
            vjp = on.projection_vjp(x, v)
            assert np.abs(vjp - jac_fd.T @ v).max() <= 1e-7
            assert np.abs(jac.T @ v - vjp).max() <= 1e-13


@pytest.mark.parametrize("sph", [Circle(0.7), Sphere(3, radius=1.3)])
def test_sphere_projection_vjp_matches_jacobian(sph):
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(sph.ambient_dim)
        x *= rng.uniform(0.8, 2.0) / np.linalg.norm(x)
        v = rng.standard_normal(sph.ambient_dim)
        jac = sph.projection_vjp(x, np.eye(sph.ambient_dim))
        assert np.abs(sph.projection_vjp(x, v) - jac.T @ v).max() <= 1e-15


def test_circle_samples_on_constraint():
    circ = Circle(radius=0.7)
    pts = circ.sample_uniform(1000, seed=2)
    assert np.abs(np.linalg.norm(pts, axis=1) - 0.7).max() <= 1e-12


def test_sphere_sample_mean_zero():
    pts = Sphere(3).sample_uniform(100_000, seed=4)
    assert np.abs(pts.mean(axis=0)).max() <= 0.02


def test_haar_trace_moments():
    on = Orthogonal(3)
    pts = on.sample_uniform(100_000, seed=9)
    traces = pts.reshape(-1, 3, 3).trace(axis1=1, axis2=2)
    assert abs(traces.mean()) <= 0.02
    assert abs(traces.var() - 1.0) <= 0.05


def test_haar_sampler_against_scipy():
    # independent Haar oracle for the trace moments
    from scipy.stats import ortho_group

    ref = ortho_group.rvs(3, size=20000, random_state=123).trace(axis1=1, axis2=2)
    ours = (
        Orthogonal(3).sample_uniform(20000, seed=17).reshape(-1, 3, 3).trace(axis1=1, axis2=2)
    )
    assert abs(ours.mean() - ref.mean()) <= 0.03
    assert abs(ours.var() - ref.var()) <= 0.05


def test_haar_samples_are_orthogonal():
    on = Orthogonal(4)
    for x in on.sample_uniform(50, seed=21):
        assert on.feasibility(x) <= 1e-12


def test_haar_batched_draw_matches_per_sample_qr():
    # the stacked QR must reproduce, byte for byte, one QR per draw from the
    # same stream with the signs of R's diagonal moved into Q
    for n, count, seed in ((5, 4000, 0), (5, 4000, 7), (5, 4000, 123), (2, 3, 1), (4, 0, 1)):
        gen = _rng.stream(seed, f"haar_o{n}")
        expected = np.empty((count, n * n))
        for i in range(count):
            q, r = np.linalg.qr(gen.standard_normal((n, n)))
            d = np.sign(np.diag(r))
            d[d == 0] = 1.0
            expected[i] = (q * d).reshape(-1)
        assert Orthogonal(n).sample_uniform(count, seed).tobytes() == expected.tobytes()


def test_dist_to_manifold():
    sph = Circle()
    assert sph.dist_to_manifold([3.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
    assert sph.dist_to_manifold(sph.sample_uniform(1, seed=1)[0]) <= 1e-12
    on = Orthogonal(2)
    assert on.dist_to_manifold(np.diag([2.0, 0.5]).reshape(-1)) == pytest.approx(
        np.sqrt(1.0 + 0.25), abs=1e-12
    )


def test_sampling_deterministic_per_seed():
    a = Orthogonal(3).sample_uniform(10, seed=42)
    b = Orthogonal(3).sample_uniform(10, seed=42)
    assert np.array_equal(a, b)

