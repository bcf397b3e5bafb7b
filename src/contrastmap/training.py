"""End-to-end training of the contrasting map and the classifier-head ablation,
plus materialization of transformed and concatenated embedding tables, and
the concatenated table's text written without materializing it."""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import IO

import numpy as np

from .embeddings import EmbeddingTable, gather_rows, write_text_columns
from .errors import InputError
from .network import (DivergenceError, MlpParams, _backward,
                      _forward_cached, forward, init_optimizer,
                      init_params, logistic_loss, optimizer_step,
                      pair_head_loss_backward, triplet_backward, triplet_loss,
                      pair_head_logits)
from .pairs import Triplet

BASELINE = "baseline"
CLASSIFIER_SYSTEM = "classifier_system"
# rows per forward pass of transform_vocabulary; blocks this large map each
# row to the bits of one whole-matrix pass (tested at 1 and 2 BLAS threads)
TRANSFORM_BLOCK_ROWS = 1024


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
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
        doc = asdict(self)
        if not include_wall_time:
            del doc["wall_time"]
        return doc


def resolve_triplets(table: EmbeddingTable, triplets: list[Triplet]):
    """Resolve triplet words to rows of ``table.matrix``, dropping unresolvable
    triplets. Returns (anchors, synonyms, antonyms) as aligned int row-index
    arrays plus the drop count. Training gathers each batch's vectors through
    them, so its memory follows the table and the batch, not the triplet count.
    """
    rows = np.array([table.indices([t.anchor for t in triplets]),
                     table.indices([t.synonym for t in triplets]),
                     table.indices([t.antonym for t in triplets])])
    resolved = (rows >= 0).all(axis=0)
    if not resolved.any():
        raise InputError("no resolvable triplets")
    return tuple(rows[:, resolved]), len(triplets) - int(np.count_nonzero(resolved))


def _default_dims(m: int, dims: list[int] | None) -> list[int]:
    """The map's layer dims, ``[m, 128, 40]`` when ``dims`` is None. They must
    start at the embedding dimension ``m`` and end below it."""
    dims = [m, 128, 40] if dims is None else list(dims)
    if dims[0] != m:
        raise ValueError(f"layer_dims starts with {dims[0]} but the embedding "
                         f"dimension is {m}")
    if dims[-1] >= m:
        raise ValueError(f"layer_dims {dims} must end below the embedding "
                         f"dimension {m}")
    return dims


def _head_dims(k: int, head_dims: list[int] | None) -> list[int]:
    """The pair head's layer dims, ``[2k, 32, 1]`` when ``head_dims`` is
    empty. They must start at ``2k``, a pair of mapped vectors, and end at
    one logit."""
    dims = list(head_dims) if head_dims else [2 * k, 32, 1]
    if dims[0] != 2 * k or dims[-1] != 1:
        raise ValueError(f"head_dims {dims} must start at 2k = {2 * k} and end at 1")
    return dims


# no RuntimeWarnings: a non-finite loss or gradient raises DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def _fit(table: EmbeddingTable, triplets: list[Triplet], config: TrainConfig,
         models: list[MlpParams], step, val_loss) -> tuple[list[MlpParams], TrainReport]:
    """The training run both modes share.

    Resolves the triplets, holds out a seeded validation fraction, and per
    epoch shuffles the rest into batches: lazy generators of the anchor,
    synonym and antonym vectors, one block at a time. ``step(models, batch)``
    returns the mean loss and one gradient per model, and each model takes an
    optimizer step. ``val_loss(models, batch)`` scores the held-out triplets;
    when there are none, the epoch's training loss stands in. Training stops
    after ``early_stop_patience`` non-improving epochs and returns the best
    epoch's models: an optimizer step makes a new model, so they need no copy.
    """
    start = time.perf_counter()
    rows, dropped = resolve_triplets(table, triplets)
    n = len(rows[0])
    rng = np.random.default_rng(config.seed)
    states = [init_optimizer(m, learning_rate=config.learning_rate) for m in models]
    perm = rng.permutation(n)
    n_val = max(1, int(round(n * config.validation_fraction))) if n > 1 else 0
    train_idx, val_idx = perm[n_val:], perm[:n_val]
    train_losses: list[float] = []
    val_losses: list[float] = []
    best = list(models)  # the first epoch's finite validation loss replaces it
    best_val, bad_epochs = math.inf, 0
    for _ in range(config.max_epochs):
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            idx = train_idx[order[lo:lo + config.batch_size]]
            loss, grads = step(models, (table.matrix[r[idx]] for r in rows))
            if not math.isfinite(loss):
                raise DivergenceError("diverged")
            for i, grad in enumerate(grads):
                models[i], states[i] = optimizer_step(models[i], grad, states[i])
            epoch_loss += loss * len(idx)
        train_losses.append(epoch_loss / max(len(order), 1))
        val = (val_loss(models, (table.matrix[r[val_idx]] for r in rows)) if n_val
               else train_losses[-1])
        if not math.isfinite(val):
            raise DivergenceError("diverged")
        val_losses.append(val)
        if val < best_val - 1e-12:
            best_val = val
            best = list(models)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.early_stop_patience:
                break
    return best, TrainReport(train_losses, val_losses, len(val_losses),
                             time.perf_counter() - start, n, n_val, dropped)


def train_baseline(table: EmbeddingTable, triplets: list[Triplet],
                   config: TrainConfig) -> tuple[MlpParams, TrainReport]:
    """Train the contrasting map on the triplet cosine loss, early-stopped on a
    seeded validation fraction of the triplets, and return the best validation
    epoch's map with the run's report."""
    if config.mode != BASELINE:
        raise ValueError("config.mode must be 'baseline'")
    dims = _default_dims(table.dimension, config.layer_dims)
    params = init_params(dims, config.hidden_activation, seed=config.seed)

    def step(models, batch):
        loss, grad = triplet_backward(models[0], *batch)
        return loss, [grad]

    def val_loss(models, batch):
        return triplet_loss(models[0], *batch)

    (best,), report = _fit(table, triplets, config, [params], step, val_loss)
    return best, report


def _head_pairs(Zw: np.ndarray, Zs: np.ndarray, Za: np.ndarray):
    """Head inputs (U, V, y) for mapped triplet rows: the (anchor, synonym)
    rows labelled 1, then the (anchor, antonym) rows labelled 0."""
    y = np.concatenate([np.ones(len(Zw)), np.zeros(len(Zw))])
    return np.concatenate([Zw, Zw]), np.concatenate([Zs, Za]), y


def train_classifier_system(table: EmbeddingTable, triplets: list[Triplet],
                            config: TrainConfig):
    """Train map + external pair-classification head end to end.

    Each triplet contributes a positive (anchor, synonym) and a negative
    (anchor, antonym) pair; the loss is mean binary cross-entropy through
    the head, and gradients flow into both the head and the map.
    """
    if config.mode != CLASSIFIER_SYSTEM:
        raise ValueError("config.mode must be 'classifier_system'")
    dims = _default_dims(table.dimension, config.layer_dims)
    head_dims = _head_dims(dims[-1], config.head_dims)
    params = init_params(dims, config.hidden_activation, seed=config.seed)
    head = init_params(head_dims, config.hidden_activation, seed=config.seed + 1)

    def step(models, batch):
        params, head = models
        (Zw, cw), (Zs, cs), (Za, ca) = (_forward_cached(params, X) for X in batch)
        n = len(Zw)
        U, V, y = _head_pairs(Zw, Zs, Za)
        loss, head_grad, dU, dV = pair_head_loss_backward(head, U, V, y)
        grad = _backward(params, cw, dU[:n] + dU[n:])[0]
        _backward(params, cs, dV[:n], grad)
        _backward(params, ca, dV[n:], grad)
        return loss, [grad, head_grad]

    def val_loss(models, batch):
        # one branch's gather and forward cache at a time: the held-out rows are many
        U, V, y = _head_pairs(*(_forward_cached(models[0], X)[0] for X in batch))
        return logistic_loss(y, pair_head_logits(models[1], U, V))

    (best_params, best_head), report = _fit(table, triplets, config, [params, head], step,
                                            val_loss)
    return best_params, best_head, report


def transform_vocabulary(contrast_map: MlpParams,
                         table: EmbeddingTable) -> EmbeddingTable:
    """Apply the map to every vector; non-finite and near-zero outputs are dropped.

    The map runs over blocks of ``TRANSFORM_BLOCK_ROWS`` rows, the short tail
    merged into the last block, into one output matrix, so no hidden layer
    of the whole table is held.
    """
    n = len(table)
    out = np.empty((n, contrast_map.output_dim))
    keep = np.empty(n, dtype=bool)
    starts = [*range(0, n - TRANSFORM_BLOCK_ROWS + 1, TRANSFORM_BLOCK_ROWS)] or [0]
    for lo, hi in zip(starts, [*starts[1:], n]):
        block = out[lo:hi]
        block[...] = forward(contrast_map, table.matrix[lo:hi])
        with np.errstate(over="ignore"):  # huge finite outputs have an infinite norm
            keep[lo:hi] = (np.isfinite(block).all(axis=1)
                           & (np.linalg.norm(block, axis=1) >= 1e-12))
    words = [w for w, k in zip(table.words, keep) if k]
    if not words:
        raise InputError("all transformed vectors degenerate")
    return EmbeddingTable(words=words, matrix=out if len(words) == n else out[keep])


def _common_rows(raw: EmbeddingTable, new: EmbeddingTable):
    """Words in both tables, in ``raw``'s order, with their rows in ``raw`` and ``new``."""
    rows = new.indices(raw.words)
    found = np.flatnonzero(rows >= 0)
    if not len(found):
        raise ValueError("no common vocabulary")
    return [raw.words[i] for i in found], found, rows[found]


def concat_embeddings(raw: EmbeddingTable, new: EmbeddingTable) -> EmbeddingTable:
    """Per-word concatenation [raw; new] over the common vocabulary.

    The result is allocated once and filled :func:`gather_rows` rows at a
    time, so the rows it gathers at once stay that small.
    """
    common, found, rows = _common_rows(raw, new)
    d, width = raw.dimension, raw.dimension + new.dimension
    matrix = np.empty((len(common), width))
    step = gather_rows(width)
    for start in range(0, len(common), step):
        matrix[start:start + step, :d] = raw.matrix[found[start:start + step]]
        matrix[start:start + step, d:] = new.matrix[rows[start:start + step]]
    return EmbeddingTable(words=common, matrix=matrix)


def write_concat_text(raw: EmbeddingTable, new: EmbeddingTable, stream: IO[str]) -> int:
    """Write ``concat_embeddings(raw, new)`` in the text format, byte for byte,
    without building it: each line joins the two tables' row texts.

    Returns the number of characters written.
    """
    common, found, rows = _common_rows(raw, new)
    return write_text_columns(common, [(raw.matrix, found), (new.matrix, rows)], stream)
