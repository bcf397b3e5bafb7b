"""End-to-end training of the contrasting map and the classifier-head ablation,
plus materialization of transformed and concatenated embedding tables."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable
from .network import (DivergenceError, MlpParams, TripletBatch, Gradients,
                      _forward_cached, _backward, init_head_params, init_optimizer,
                      init_params, optimizer_step, pair_head_loss_backward,
                      triplet_backward, triplet_loss, pair_head_logits)
from .pairs import Triplet

BASELINE = "baseline"
CLASSIFIER_SYSTEM = "classifier_system"


@dataclass
class TrainConfig:
    layer_dims: list[int] | None = None          # default [m, 128, 40]
    hidden_activation: str = "tanh"
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 50
    early_stop_patience: int = 5
    validation_fraction: float = 0.1
    seed: int = 0
    mode: str = BASELINE
    head_dims: list[int] | None = None           # default [2k, 32, 1]

    def __post_init__(self) -> None:
        if not (0.0 < self.validation_fraction <= 0.5):
            raise ValueError("validation_fraction must be in (0, 0.5]")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.mode not in (BASELINE, CLASSIFIER_SYSTEM):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class TrainReport:
    train_losses: list[float]
    val_losses: list[float]
    stopped_epoch: int
    wall_time: float
    triplet_total: int
    triplet_validation: int
    dropped_unresolvable: int = 0

    def to_dict(self, include_wall_time: bool = True) -> dict:
        doc = {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "stopped_epoch": self.stopped_epoch,
            "triplet_total": self.triplet_total,
            "triplet_validation": self.triplet_validation,
            "dropped_unresolvable": self.dropped_unresolvable,
        }
        if include_wall_time:
            doc["wall_time"] = self.wall_time
        return doc


def resolve_triplets(table: EmbeddingTable, triplets: list[Triplet]):
    """Resolve triplet words to vector rows; unresolvable triplets are dropped.

    Returns (anchors, synonyms, antonyms) as (n, m) arrays plus the drop count.
    """
    columns = [table.indices([t.anchor for t in triplets]),
               table.indices([t.synonym for t in triplets]),
               table.indices([t.antonym for t in triplets])]
    resolved = (columns[0] >= 0) & (columns[1] >= 0) & (columns[2] >= 0)
    if not resolved.any():
        raise ValueError("no resolvable triplets")
    rows = tuple(table.matrix[c[resolved]] for c in columns)
    return rows, len(triplets) - int(np.count_nonzero(resolved))


def _split_validation(n: int, fraction: float, rng: np.random.Generator):
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * fraction))) if n > 1 else 0
    return perm[n_val:], perm[:n_val]


def _default_dims(m: int, dims: list[int] | None) -> list[int]:
    if dims is None:
        return [m, 128, 40]
    if dims[0] != m:
        raise ValueError(f"layer_dims starts with {dims[0]} but the embedding "
                         f"dimension is {m}")
    return list(dims)


def train_baseline(table: EmbeddingTable, triplets: list[Triplet],
                   config: TrainConfig) -> tuple[MlpParams, TrainReport]:
    """Train the contrasting map on the triplet cosine loss.

    Holds out a seeded validation fraction of triplets, early-stops after
    ``early_stop_patience`` non-improving epochs, and restores the best
    validation epoch's parameters.
    """
    if config.mode != BASELINE:
        raise ValueError("config.mode must be 'baseline'")
    start = time.perf_counter()
    (W, S, A), dropped = resolve_triplets(table, triplets)
    dims = _default_dims(table.dimension, config.layer_dims)
    rng = np.random.default_rng(config.seed)
    params = init_params(dims, config.hidden_activation, seed=config.seed)
    state = init_optimizer(params, learning_rate=config.learning_rate)
    train_idx, val_idx = _split_validation(len(W), config.validation_fraction, rng)
    val_batch = TripletBatch(W[val_idx], S[val_idx], A[val_idx]) if len(val_idx) else None

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_params = params.copy()
    best_val = math.inf
    bad_epochs = 0
    stopped = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        seen = 0
        for lo in range(0, len(order), config.batch_size):
            idx = train_idx[order[lo:lo + config.batch_size]]
            batch = TripletBatch(W[idx], S[idx], A[idx])
            loss, grads = triplet_backward(params, batch)
            if not math.isfinite(loss):
                raise DivergenceError("diverged")
            params, state = optimizer_step(params, grads, state)
            epoch_loss += loss * len(idx)
            seen += len(idx)
        train_losses.append(epoch_loss / max(seen, 1))
        val = triplet_loss(params, val_batch) if val_batch is not None else train_losses[-1]
        if not math.isfinite(val):
            raise DivergenceError("diverged")
        val_losses.append(val)
        stopped = epoch + 1
        if val < best_val - 1e-12:
            best_val = val
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.early_stop_patience:
                break
    report = TrainReport(train_losses, val_losses, stopped,
                         time.perf_counter() - start, len(W),
                         len(val_idx), dropped)
    return best_params, report


def _classifier_val_loss(params, head, W, S, A, idx) -> float:
    Zw, _ = _forward_cached(params, W[idx])
    Zs, _ = _forward_cached(params, S[idx])
    Za, _ = _forward_cached(params, A[idx])
    U = np.concatenate([Zw, Zw])
    V = np.concatenate([Zs, Za])
    y = np.concatenate([np.ones(len(idx)), np.zeros(len(idx))])
    z = pair_head_logits(head, U, V)
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def train_classifier_system(table: EmbeddingTable, triplets: list[Triplet],
                            config: TrainConfig):
    """Train map + external pair-classification head end to end.

    Each triplet contributes a positive (anchor, synonym) and a negative
    (anchor, antonym) pair; the loss is mean binary cross-entropy through
    the head, and gradients flow into both the head and the map.
    """
    if config.mode != CLASSIFIER_SYSTEM:
        raise ValueError("config.mode must be 'classifier_system'")
    start = time.perf_counter()
    (W, S, A), dropped = resolve_triplets(table, triplets)
    dims = _default_dims(table.dimension, config.layer_dims)
    k = dims[-1]
    head_dims = list(config.head_dims) if config.head_dims else [2 * k, 32, 1]
    if head_dims[0] != 2 * k:
        raise ValueError(f"head input dim must be 2k = {2 * k}")
    rng = np.random.default_rng(config.seed)
    params = init_params(dims, config.hidden_activation, seed=config.seed)
    head = init_head_params(head_dims, config.hidden_activation, seed=config.seed + 1)
    p_state = init_optimizer(params, learning_rate=config.learning_rate)
    h_state = init_optimizer(head, learning_rate=config.learning_rate)
    train_idx, val_idx = _split_validation(len(W), config.validation_fraction, rng)

    train_losses: list[float] = []
    val_losses: list[float] = []
    best = (params.copy(), head.copy())
    best_val = math.inf
    bad_epochs = 0
    stopped = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        seen = 0
        for lo in range(0, len(order), config.batch_size):
            idx = train_idx[order[lo:lo + config.batch_size]]
            n = len(idx)
            Zw, cw = _forward_cached(params, W[idx])
            Zs, cs = _forward_cached(params, S[idx])
            Za, ca = _forward_cached(params, A[idx])
            U = np.concatenate([Zw, Zw])
            V = np.concatenate([Zs, Za])
            y = np.concatenate([np.ones(n), np.zeros(n)])
            loss, h_grads, dU, dV = pair_head_loss_backward(head, U, V, y)
            if not math.isfinite(loss):
                raise DivergenceError("diverged")
            dZw = dU[:n] + dU[n:]
            g_net, _ = _backward(params, cw, dZw)
            g_s, _ = _backward(params, cs, dV[:n])
            g_a, _ = _backward(params, ca, dV[n:])
            g_net.add_(g_s).add_(g_a)
            params, p_state = optimizer_step(params, g_net, p_state)
            head, h_state = optimizer_step(head, h_grads, h_state)
            epoch_loss += loss * n
            seen += n
        train_losses.append(epoch_loss / max(seen, 1))
        val = (_classifier_val_loss(params, head, W, S, A, val_idx)
               if len(val_idx) else train_losses[-1])
        if not math.isfinite(val):
            raise DivergenceError("diverged")
        val_losses.append(val)
        stopped = epoch + 1
        if val < best_val - 1e-12:
            best_val = val
            best = (params.copy(), head.copy())
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.early_stop_patience:
                break
    report = TrainReport(train_losses, val_losses, stopped,
                         time.perf_counter() - start, len(W),
                         len(val_idx), dropped)
    return best[0], best[1], report


def transform_vocabulary(contrast_map: MlpParams,
                         table: EmbeddingTable) -> EmbeddingTable:
    """Apply the map to every vector; near-zero outputs are dropped."""
    if table.dimension != contrast_map.input_dim:
        raise ValueError(f"table dimension {table.dimension} != map input "
                         f"{contrast_map.input_dim}")
    out, _ = _forward_cached(contrast_map, table.matrix)
    norms = np.linalg.norm(out, axis=1)
    keep = norms >= 1e-12
    words = [w for w, k in zip(table.words, keep) if k]
    if not words:
        raise ValueError("all transformed vectors degenerate")
    result = EmbeddingTable(dimension=contrast_map.output_dim, words=words,
                            matrix=out[keep],
                            source_label=f"{table.source_label}:transformed")
    result.skipped_rows = int(np.sum(~keep))
    return result


def concat_embeddings(raw: EmbeddingTable, new: EmbeddingTable) -> EmbeddingTable:
    """Per-word concatenation [raw; new] over the common vocabulary."""
    rows = new.indices(raw.words)
    found = rows >= 0
    common = [w for w, f in zip(raw.words, found) if f]
    if not common:
        raise ValueError("no common vocabulary")
    table = EmbeddingTable(dimension=raw.dimension + new.dimension,
                           words=common,
                           matrix=np.concatenate([raw.matrix[found],
                                                  new.matrix[rows[found]]], axis=1),
                           source_label=f"{raw.source_label}+{new.source_label}")
    table.skipped_rows = (len(raw) - len(common)) + (len(new) - len(common))
    return table
