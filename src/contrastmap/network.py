"""Feed-forward network core: init, forward, triplet cosine loss, analytic
gradients, adaptive-moment optimizer, and JSON model serialization.

Everything is double precision and pure numpy. A net's parameters live in
one contiguous float64 vector, ``MlpParams.flat``; the per-layer weights and
biases are views into it. A gradient is a vector with the same layout, so the
optimizer is a few vector operations. Gradients are derived by hand and
checked against central finite differences in the test suite.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

COSINE_EPS = 1e-12
MODEL_FORMAT_VERSION = 1

ACTIVATIONS = ("tanh", "relu")

# Adaptive moment estimation constants (Kingma & Ba, ICLR 2015).
ADAM_DECAY1 = 0.9
ADAM_DECAY2 = 0.999
ADAM_EPSILON = 1e-8


class DivergenceError(RuntimeError):
    """Raised when a non-finite loss or gradient appears during training."""


class MlpParams:
    """Weights of a fully-connected net with a linear output layer.

    ``flat`` holds every weight matrix, then every bias vector, in layer
    order. ``weights[i]`` (shape (fan_out, fan_in)) and ``biases[i]`` are
    views into it, built once, so a write through them is a write to
    ``flat``. The constructor wraps a contiguous float64 ``flat`` without
    copying it; with ``flat=None`` it allocates zeros. The hidden activation
    applies to every layer except the last.
    """

    def __init__(self, layer_dims: list[int], flat: np.ndarray | None = None,
                 hidden_activation: str = "tanh"):
        if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
            raise ValueError("layer_dims must be >= 2 positive integers")
        if hidden_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {hidden_activation!r}")
        self.layer_dims = list(layer_dims)
        self.hidden_activation = hidden_activation
        shapes = ([(o, i) for i, o in zip(layer_dims[:-1], layer_dims[1:])]
                  + [(o,) for o in layer_dims[1:]])
        size = sum(math.prod(s) for s in shapes)
        self.flat = np.zeros(size) if flat is None else np.ascontiguousarray(flat, np.float64)
        if self.flat.shape != (size,):
            raise ValueError(f"parameter vector has shape {self.flat.shape}, "
                             f"layer_dims {self.layer_dims} need ({size},)")
        views, pos = [], 0
        for shape in shapes:
            n = math.prod(shape)
            views.append(self.flat[pos:pos + n].reshape(shape))
            pos += n
        n_layers = len(layer_dims) - 1
        self.weights = tuple(views[:n_layers])
        self.biases = tuple(views[n_layers:])

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "MlpParams":
        return MlpParams(self.layer_dims, self.flat.copy(), self.hidden_activation)


@dataclass
class TripletBatch:
    """Aligned (anchor, synonym, antonym) vector rows, all (n, m)."""

    anchors: np.ndarray
    synonyms: np.ndarray
    antonyms: np.ndarray

    def __post_init__(self) -> None:
        a, s, t = self.anchors, self.synonyms, self.antonyms
        if not (a.shape == s.shape == t.shape) or a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("triplet batch arrays must be aligned (n, m) with n >= 1")

    def __len__(self) -> int:
        return self.anchors.shape[0]


def init_params(layer_dims: list[int], hidden_activation: str = "tanh",
                seed: int = 0) -> MlpParams:
    """Glorot-uniform weights and zero biases, deterministic per seed, for a
    contrasting map or a pair head; the output dimension must be strictly
    below the input dimension."""
    params = MlpParams(layer_dims, None, hidden_activation)
    if params.output_dim >= params.input_dim:
        raise ValueError("not a contraction")
    rng = np.random.default_rng(seed)
    for W in params.weights:
        fan_out, fan_in = W.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    return params


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - a * a
    return (z > 0.0).astype(np.float64)


def _forward_cached(params: MlpParams, X: np.ndarray):
    """Batched forward pass; returns (output, per-layer cache)."""
    a = X
    cache = []
    last = len(params.weights) - 1
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W.T + b
        out = z if i == last else _activate(z, params.hidden_activation)
        cache.append((a, z, out))
        a = out
    return a, cache


def _backward(params: MlpParams, cache, dout: np.ndarray):
    """Backprop ``dout`` (n, k) through the cached forward pass.

    Returns (grad, dZ0): ``grad`` is a new vector in the layout of
    ``params.flat`` and dZ0 the gradient wrt the first layer's pre-activation.
    The input gradient is ``dZ0 @ params.weights[0]``; a map branch never
    needs it, so it is left to the caller that does.
    """
    grad = MlpParams(params.layer_dims, np.empty_like(params.flat),
                     params.hidden_activation)
    last = len(params.weights) - 1
    delta = dout
    for i in range(last, -1, -1):
        a_in, z, a_out = cache[i]
        if i != last:
            delta = (delta @ params.weights[i + 1]) * _activate_grad(
                z, a_out, params.hidden_activation)
        grad.weights[i][...] = delta.T @ a_in
        grad.biases[i][...] = delta.sum(axis=0)
    return grad.flat, delta


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Apply the map to one m-vector or a batch of (n, m) rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != params.input_dim:
        raise ValueError(f"input dimension {X.shape[1]} != {params.input_dim}")
    out, _ = _forward_cached(params, X)
    return out[0] if single else out


def _row_cosines(U: np.ndarray, V: np.ndarray):
    """Row-wise cosines with an epsilon-guarded denominator, plus gradients.

    Returns (cos, dcos/dU, dcos/dV). The guard keeps gradients finite near
    zero outputs; it biases the value by O(eps) only.
    """
    nu = np.linalg.norm(U, axis=1)
    nv = np.linalg.norm(V, axis=1)
    denom = nu * nv + COSINE_EPS
    s = np.sum(U * V, axis=1)
    c = s / denom
    # d/dU [s / (|u||v| + eps)] = V/denom - s*|v|/(denom^2 * |u|) * U
    coef_u = (s * nv / (denom * denom * (nu + COSINE_EPS)))[:, None]
    coef_v = (s * nu / (denom * denom * (nv + COSINE_EPS)))[:, None]
    dU = V / denom[:, None] - coef_u * U
    dV = U / denom[:, None] - coef_v * V
    return c, dU, dV


def triplet_loss(params: MlpParams, batch: TripletBatch) -> float:
    """Mean over triplets of (1 - cos(f(w), f(s))) + (1 + cos(f(w), f(a)))."""
    # [0]: no branch's forward cache outlives its own pass
    Zw = _forward_cached(params, batch.anchors)[0]
    Zs = _forward_cached(params, batch.synonyms)[0]
    Za = _forward_cached(params, batch.antonyms)[0]
    cs, _, _ = _row_cosines(Zw, Zs)
    ca, _, _ = _row_cosines(Zw, Za)
    return float(np.mean((1.0 - cs) + (1.0 + ca)))


def triplet_backward(params: MlpParams, batch: TripletBatch) -> tuple[float, np.ndarray]:
    """Loss and exact analytic gradient of :func:`triplet_loss`.

    All three branches share weights, so the three branch gradients
    add into one vector in the layout of ``params.flat``.
    """
    n = len(batch)
    Zw, cw = _forward_cached(params, batch.anchors)
    Zs, cs_cache = _forward_cached(params, batch.synonyms)
    Za, ca_cache = _forward_cached(params, batch.antonyms)
    cs, dcs_dw, dcs_ds = _row_cosines(Zw, Zs)
    ca, dca_dw, dca_da = _row_cosines(Zw, Za)
    loss = float(np.mean((1.0 - cs) + (1.0 + ca)))
    dZw = (dca_dw - dcs_dw) / n
    dZs = -dcs_ds / n
    dZa = dca_da / n
    grad = _backward(params, cw, dZw)[0]
    grad += _backward(params, cs_cache, dZs)[0]
    grad += _backward(params, ca_cache, dZa)[0]
    return loss, grad


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def pair_head_logits(head: MlpParams, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Batched logits for row-aligned (n, k) inputs."""
    X = np.concatenate([U, V], axis=1)
    out, _ = _forward_cached(head, X)
    return out[:, 0]


def pair_head_loss_backward(head: MlpParams, U: np.ndarray, V: np.ndarray,
                            labels: np.ndarray):
    """Mean binary cross-entropy through the head, with gradients.

    Returns (loss, head gradient vector, dU, dV); dU/dV are the gradients
    wrt the transformed embeddings, for end-to-end training of the map.
    """
    n = U.shape[0]
    X = np.concatenate([U, V], axis=1)
    out, cache = _forward_cached(head, X)
    z = out[:, 0]
    y = np.asarray(labels, dtype=np.float64)
    # stable BCE with logits: softplus(z) - y*z
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    dz = (_sigmoid(z) - y) / n
    grads, dZ0 = _backward(head, cache, dz[:, None])
    dX = dZ0 @ head.weights[0]
    k = U.shape[1]
    return loss, grads, dX[:, :k], dX[:, k:]


@dataclass
class OptimizerState:
    """Adaptive moment estimation state: two moment vectors laid out like
    ``MlpParams.flat``."""

    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float = 1e-3


def init_optimizer(params: MlpParams, learning_rate: float = 1e-3) -> OptimizerState:
    return OptimizerState(0, np.zeros_like(params.flat), np.zeros_like(params.flat),
                          learning_rate)


def optimizer_step(params: MlpParams, grad: np.ndarray,
                   state: OptimizerState) -> tuple[MlpParams, OptimizerState]:
    """One bias-corrected adaptive-moment update; returns new values."""
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("diverged")
    t = state.step_count + 1
    m = ADAM_DECAY1 * state.first_moment + (1.0 - ADAM_DECAY1) * grad
    v = ADAM_DECAY2 * state.second_moment + (1.0 - ADAM_DECAY2) * grad * grad
    m_hat = m / (1.0 - ADAM_DECAY1 ** t)
    v_hat = v / (1.0 - ADAM_DECAY2 ** t)
    flat = params.flat - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return (MlpParams(params.layer_dims, flat, params.hidden_activation),
            OptimizerState(t, m, v, state.learning_rate))


# --- serialization -----------------------------------------------------------

def params_to_dict(params: MlpParams) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": list(params.layer_dims),
        "hidden_activation": params.hidden_activation,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def params_from_dict(doc: dict) -> MlpParams:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {doc.get('format_version')!r}")
    dims = [int(d) for d in doc["layer_dims"]]
    weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
    if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
        raise ValueError("layer count mismatch")
    params = MlpParams(dims, None, doc["hidden_activation"])
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        if weights[i].shape != W.shape or biases[i].shape != b.shape:
            raise ValueError(f"bad shape at layer {i}")
        if not np.all(np.isfinite(weights[i])) or not np.all(np.isfinite(biases[i])):
            raise ValueError(f"non-finite values at layer {i}")
        W[...] = weights[i]
        b[...] = biases[i]
    return params


def save_params(params: MlpParams, stream: IO[str]) -> None:
    json.dump(params_to_dict(params), stream, sort_keys=True)
    stream.write("\n")


def load_params(stream: IO[str]) -> MlpParams:
    return params_from_dict(json.load(stream))
