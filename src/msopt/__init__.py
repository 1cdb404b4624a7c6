"""Riemannian optimization over data manifolds known only through samples.

The manifold operations classical Riemannian methods need (closest-point
projection, tangent-space projection, retraction) are replaced by derivatives
of a smoothed log-density: the Tweedie mean acts as projection/retraction and
its Jacobian as the tangent projector. Exact mixture oracles, a trainable
denoising-score network, two optimizers built on these surrogates (a landing
flow and a projected gradient descent), and validation harnesses that measure
how well the surrogates track the true manifold operations.
"""

__version__ = "0.1.0"
