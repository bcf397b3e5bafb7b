"""Feed-forward network core: init, forward, triplet cosine loss, analytic
gradients, adaptive-moment optimizer, and JSON model serialization.

Everything is double precision and pure numpy; gradients are derived by
hand and checked against central finite differences in the test suite.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import IO

import numpy as np

COSINE_EPS = 1e-12
MODEL_FORMAT_VERSION = 1

ACTIVATIONS = ("tanh", "relu")


class DivergenceError(RuntimeError):
    """Raised when a non-finite loss or gradient appears during training."""


@dataclass
class MlpParams:
    """Weights of a fully-connected net with a linear output layer.

    ``weights[i]`` has shape (fan_out, fan_in); the hidden activation applies
    to every layer except the last.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "tanh"

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "MlpParams":
        return MlpParams(list(self.layer_dims),
                         [w.copy() for w in self.weights],
                         [b.copy() for b in self.biases],
                         self.hidden_activation)


@dataclass
class Gradients:
    """MlpParams-shaped gradient container."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def scaled(self, c: float) -> "Gradients":
        return Gradients([c * w for w in self.weights], [c * b for b in self.biases])

    def add_(self, other: "Gradients") -> "Gradients":
        for a, b in zip(self.weights, other.weights):
            a += b
        for a, b in zip(self.biases, other.biases):
            a += b
        return self

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.weights + self.biases)


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
    """Glorot-uniform weights, zero biases, deterministic per seed.

    The map must contract: the output dimension must be strictly below the
    input dimension.
    """
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError("layer_dims must be >= 2 positive integers")
    if layer_dims[-1] >= layer_dims[0]:
        raise ValueError("not a contraction")
    if hidden_activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {hidden_activation!r}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(list(layer_dims), weights, biases, hidden_activation)


def init_head_params(layer_dims: list[int], hidden_activation: str = "tanh",
                     seed: int = 0) -> MlpParams:
    """Like :func:`init_params` but without the contraction requirement.

    Used for the pair-classification head, whose output is a single logit.
    """
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError("layer_dims must be >= 2 positive integers")
    if layer_dims[-1] != 1:
        raise ValueError("classification head must output one logit")
    if hidden_activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {hidden_activation!r}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(list(layer_dims), weights, biases, hidden_activation)


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

    Returns (Gradients, dX) where dX is the gradient wrt the input rows.
    """
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    last = len(params.weights) - 1
    delta = dout
    for i in range(last, -1, -1):
        a_in, z, a_out = cache[i]
        if i != last:
            delta = delta * _activate_grad(z, a_out, params.hidden_activation)
        grads_w[i] = delta.T @ a_in
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ params.weights[i]
    return Gradients(grads_w, grads_b), delta


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
    Zw, _ = _forward_cached(params, batch.anchors)
    Zs, _ = _forward_cached(params, batch.synonyms)
    Za, _ = _forward_cached(params, batch.antonyms)
    cs, _, _ = _row_cosines(Zw, Zs)
    ca, _, _ = _row_cosines(Zw, Za)
    return float(np.mean((1.0 - cs) + (1.0 + ca)))


def triplet_backward(params: MlpParams, batch: TripletBatch) -> tuple[float, Gradients]:
    """Loss and exact analytic gradient of :func:`triplet_loss`.

    All three branches share weights, so the three branch gradients
    accumulate into one parameter-shaped gradient.
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
    grads, _ = _backward(params, cw, dZw)
    gs, _ = _backward(params, cs_cache, dZs)
    ga, _ = _backward(params, ca_cache, dZa)
    grads.add_(gs).add_(ga)
    return loss, grads


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def pair_head_forward(head: MlpParams, u: np.ndarray, v: np.ndarray) -> float:
    """Probability that (u, v) is a synonym pair, from the classifier head."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be equal-length vectors")
    x = np.concatenate([u, v])
    if x.shape[0] != head.input_dim:
        raise ValueError(f"head expects input dim {head.input_dim}, got {x.shape[0]}")
    logit = forward(head, x)[0]
    return float(_sigmoid(np.array([logit]))[0])


def pair_head_logits(head: MlpParams, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Batched logits for row-aligned (n, k) inputs."""
    X = np.concatenate([U, V], axis=1)
    out, _ = _forward_cached(head, X)
    return out[:, 0]


def pair_head_loss_backward(head: MlpParams, U: np.ndarray, V: np.ndarray,
                            labels: np.ndarray):
    """Mean binary cross-entropy through the head, with gradients.

    Returns (loss, head Gradients, dU, dV); dU/dV are the gradients wrt
    the transformed embeddings, for end-to-end training of the map.
    """
    n = U.shape[0]
    X = np.concatenate([U, V], axis=1)
    out, cache = _forward_cached(head, X)
    z = out[:, 0]
    y = np.asarray(labels, dtype=np.float64)
    # stable BCE with logits: softplus(z) - y*z
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    dz = (_sigmoid(z) - y) / n
    grads, dX = _backward(head, cache, dz[:, None])
    k = U.shape[1]
    return loss, grads, dX[:, :k], dX[:, k:]


@dataclass
class OptimizerState:
    """Adaptive moment estimation state (one slot per parameter array)."""

    step_count: int
    first_moment: Gradients
    second_moment: Gradients
    learning_rate: float = 1e-3
    decay1: float = 0.9
    decay2: float = 0.999
    epsilon: float = 1e-8


def init_optimizer(params: MlpParams, learning_rate: float = 1e-3,
                   decay1: float = 0.9, decay2: float = 0.999,
                   epsilon: float = 1e-8) -> OptimizerState:
    zeros = lambda arrs: [np.zeros_like(a) for a in arrs]
    return OptimizerState(
        step_count=0,
        first_moment=Gradients(zeros(params.weights), zeros(params.biases)),
        second_moment=Gradients(zeros(params.weights), zeros(params.biases)),
        learning_rate=learning_rate, decay1=decay1, decay2=decay2,
        epsilon=epsilon)


def optimizer_step(params: MlpParams, grads: Gradients,
                   state: OptimizerState) -> tuple[MlpParams, OptimizerState]:
    """One bias-corrected adaptive-moment update; returns new values."""
    if not grads.is_finite():
        raise DivergenceError("diverged")
    t = state.step_count + 1
    b1, b2 = state.decay1, state.decay2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new_params = params.copy()
    new_m = Gradients([m.copy() for m in state.first_moment.weights],
                      [m.copy() for m in state.first_moment.biases])
    new_v = Gradients([v.copy() for v in state.second_moment.weights],
                      [v.copy() for v in state.second_moment.biases])
    for target, g, m, v in (
            (new_params.weights, grads.weights, new_m.weights, new_v.weights),
            (new_params.biases, grads.biases, new_m.biases, new_v.biases)):
        for i in range(len(target)):
            m[i] *= b1
            m[i] += (1.0 - b1) * g[i]
            v[i] *= b2
            v[i] += (1.0 - b2) * g[i] * g[i]
            m_hat = m[i] / c1
            v_hat = v[i] / c2
            target[i] = target[i] - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    new_state = replace(state, step_count=t, first_moment=new_m, second_moment=new_v)
    return new_params, new_state


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
    act = doc["hidden_activation"]
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}")
    weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
    if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
        raise ValueError("layer count mismatch")
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        if weights[i].shape != (fan_out, fan_in) or biases[i].shape != (fan_out,):
            raise ValueError(f"bad shape at layer {i}")
        if not np.all(np.isfinite(weights[i])) or not np.all(np.isfinite(biases[i])):
            raise ValueError(f"non-finite values at layer {i}")
    return MlpParams(dims, weights, biases, act)


def save_params(params: MlpParams, stream: IO[str]) -> None:
    json.dump(params_to_dict(params), stream, sort_keys=True)
    stream.write("\n")


def load_params(stream: IO[str]) -> MlpParams:
    return params_from_dict(json.load(stream))


# --- flatten helpers (finite-difference checks, tests) -----------------------

def flatten_params(params: MlpParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def unflatten_like(params: MlpParams, flat: np.ndarray) -> MlpParams:
    out = params.copy()
    pos = 0
    for arrs in (out.weights, out.biases):
        for i, a in enumerate(arrs):
            arrs[i] = flat[pos:pos + a.size].reshape(a.shape).copy()
            pos += a.size
    return out


def flatten_grads(grads: Gradients) -> np.ndarray:
    return np.concatenate([a.ravel() for a in grads.weights + grads.biases])
