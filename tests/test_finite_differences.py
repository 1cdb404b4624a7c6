import numpy as np

from finite_differences import fd_jacobian


def test_fd_jacobian_identity_and_constant():
    x = np.array([0.3, -0.7, 1.1])
    assert np.allclose(fd_jacobian(lambda p: p, x), np.eye(3), atol=1e-10)
    assert np.allclose(fd_jacobian(lambda p: np.array([2.0, 5.0]), x), 0.0)


def test_fd_jacobian_analytic():
    f = lambda p: np.array([p[0] ** 2, p[1]])
    jac = fd_jacobian(f, np.array([1.0, 1.0]))
    assert np.abs(jac - np.array([[2.0, 0.0], [0.0, 1.0]])).max() <= 1e-8
