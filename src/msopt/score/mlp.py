"""Plain fully-connected ReLU network for the noise-conditional score.

The network takes (x, sigma) concatenated and returns the *scaled* score
s_tilde; the score itself is s_tilde / sigma, which keeps regression targets
O(1) across noise levels. All forward/backward math is hand-rolled numpy on
the fixed topology. Training, sampling and the oracle run one forward pass,
`forward_cached`, which keeps each layer's output; a hidden output is
positive exactly where its pre-activation is, so the outputs are the ReLU
masks too. Training needs parameter gradients (`backward`), the optimizers
need exact input Jacobians or vector-Jacobian products (`input_backward`),
both with the ReLU subgradient that takes derivative 0 at a tie at 0.
"""

import struct

import numpy as np

from msopt import rng as _rng

_MAGIC = b"MSOPT1"


def _net_input(x, sigma, dtype):
    """Network input rows (x, sigma) of the given dtype for a batch (B, d);
    sigma is one value or one per row."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = np.empty((x.shape[0], x.shape[1] + 1), dtype)
    a[:, :-1] = x
    a[:, -1] = sigma
    return a


class ScoreMlp:
    """Weights/biases per layer; W has shape (out, in), input is (x..., sigma)."""

    def __init__(self, layers):
        self.layers = [(np.array(w, dtype=float), np.array(b, dtype=float)) for w, b in layers]
        for (w, b) in self.layers:
            if w.shape[0] != b.shape[0]:
                raise ValueError("layer weight/bias shapes disagree")
        for (w0, _), (w1, _) in zip(self.layers, self.layers[1:]):
            if w1.shape[1] != w0.shape[0]:
                raise ValueError("consecutive layer widths disagree")
        if not self.layers:
            raise ValueError("a score network needs at least one layer")
        if self.widths[0] != self.ambient_dim + 1:
            raise ValueError(f"input width {self.widths[0]} is not the output width "
                             f"{self.ambient_dim} + 1 (the (x, sigma) input)")

    @property
    def ambient_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def widths(self):
        return [self.layers[0][0].shape[1]] + [w.shape[0] for w, _ in self.layers]

    # ---- forward / backward -------------------------------------------------

    def forward_cached(self, x, sigma):
        """Every layer's output for a batch (B, d) with one sigma or one per
        row, in the layers' dtype: the (x, sigma) input first, the scaled
        score s_tilde last, the hidden outputs (the ReLU masks) between."""
        h = _net_input(x, sigma, self.layers[0][0].dtype)
        acts = [h]
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            # in place: bitwise h @ w.T + b and its ReLU, one array per layer
            h = h @ w.T
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        return acts

    def backward(self, acts, dout):
        """Parameter gradients of a cached forward pass, for training.

        The loop stops at the first layer's parameters: training has no use
        for the input gradient, which is `input_backward`'s job. The
        arithmetic is in the layers' dtype.
        """
        grads = [None] * len(self.layers)
        delta = np.asarray(dout, dtype=self.layers[0][0].dtype)
        for i in range(len(self.layers) - 1, -1, -1):
            grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
            if i > 0:
                delta = delta @ self.layers[i][0]
                delta *= acts[i] > 0.0
        return grads

    def input_backward(self, acts, dout):
        """Rows dout^T d(s_tilde)/d(x, sigma) of a cached forward pass.

        The same masked chain as `backward` (ReLU masks acts > 0) with no
        parameter gradients; the last column is the sigma input's. dout may
        carry leading stack axes, shape (..., rows, d).
        """
        delta = np.asarray(dout, dtype=float)
        for i in range(len(self.layers) - 1, 0, -1):
            delta = delta @ self.layers[i][0]
            delta = delta * (acts[i] > 0.0)
        return delta @ self.layers[0][0]

    # ---- persistence --------------------------------------------------------

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(self.layers)))
            for w, b in self.layers:
                fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
                fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_score_mlp(path) -> ScoreMlp:
    """Read a network written by `ScoreMlp.save`.

    A file whose size does not match its header (cut short, or with bytes
    after the last layer) raises ValueError naming the file, the part that
    does not fit and the byte counts.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a score-network file (bad magic {data[:len(_MAGIC)]!r})")
    pos = len(_MAGIC)

    def take(size, what):
        nonlocal pos
        if len(data) - pos < size:
            raise ValueError(
                f"{path}: truncated {what}: expected {size} bytes, {len(data) - pos} available"
            )
        pos += size
        return data[pos - size : pos]

    (n_layers,) = struct.unpack("<I", take(4, "header"))
    layers = []
    for i in range(n_layers):
        rows, cols = struct.unpack("<II", take(8, f"layer {i} shape"))
        w = np.frombuffer(take(8 * rows * cols, f"layer {i} weights"), dtype="<f8")
        b = np.frombuffer(take(8 * rows, f"layer {i} biases"), dtype="<f8")
        layers.append((w.reshape(rows, cols).copy(), b.copy()))
    if pos != len(data):
        raise ValueError(
            f"{path}: {len(data) - pos} trailing bytes after layer {n_layers - 1} "
            f"(expected {pos} bytes in all, {len(data)} available)"
        )
    try:
        return ScoreMlp(layers)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def make_score_mlp(ambient_dim: int, *, hidden, seed) -> ScoreMlp:
    """He-initialized hidden layers, zero-initialized output layer."""
    if not (ambient_dim >= 1 and all(h >= 1 for h in hidden)):
        raise ValueError(f"ambient_dim = {ambient_dim!r}, hidden = {tuple(hidden)!r} "
                         f"(need widths >= 1)")
    gen = _rng.stream(seed, "mlp_init")
    widths = [ambient_dim + 1, *hidden, ambient_dim]
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        if i == len(widths) - 2:
            w = np.zeros((fan_out, fan_in))
        else:
            w = gen.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in)
        layers.append((w, np.zeros(fan_out)))
    return ScoreMlp(layers)
