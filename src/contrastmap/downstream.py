"""Downstream text-classification harness: mean-of-embeddings documents,
one logistic regression per embedding arm, shared split. Each arm's table
is passed as a loader, so that only one table is held at a time."""
from __future__ import annotations

import csv
import hashlib
import re
from importlib import resources
from dataclasses import asdict, dataclass
from typing import IO, Callable, Iterable

import numpy as np

from .embeddings import EmbeddingTable, _as_lines
from .errors import InputError
from .evaluation import train_linear
from .network import _sigmoid

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


@dataclass
class TextDataset:
    records: list[tuple[str, int]]
    name: str = ""
    skipped_rows: int = 0

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class DownstreamResult:
    dataset_name: str
    accuracy_raw: float
    accuracy_concat: float
    relative_gain: float
    train_size: int
    test_size: int
    oov_rate: float
    split_hash: str

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["dataset"] = doc.pop("dataset_name")
        return doc


def load_text_csv(stream: str | IO[str], name: str = "") -> TextDataset:
    """Load a `text,label` CSV with standard double-quote escaping. A row
    ``csv.reader`` cannot read, such as one with a field over
    ``csv.field_size_limit()`` (131,072 characters by default), is an
    InputError naming its line."""
    reader = csv.reader(_as_lines(stream))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise InputError(f"CSV line {reader.line_num}: {exc}") from None
    if not rows or [c.strip().lower() for c in rows[0]] != ["text", "label"]:
        raise InputError("missing header: expected 'text,label'")
    records = [(row[0], int(row[1].strip())) for row in rows[1:]
               if len(row) == 2 and row[1].strip() in ("0", "1")]
    if {y for _, y in records} != {0, 1}:
        raise InputError("dataset must contain both labels")
    return TextDataset(records=records, name=name, skipped_rows=len(rows) - 1 - len(records))


def load_bundled_corpus() -> TextDataset:
    """The 200-document synthetic sentiment corpus shipped with the package."""
    text = resources.files("contrastmap").joinpath(
        "data/sentiment_corpus.csv").read_text(encoding="utf-8")
    return load_text_csv(text, name="bundled-sentiment")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on every non-alphanumeric character, drop empties."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def embed_document(table: EmbeddingTable, tokens: Iterable[str]) -> np.ndarray:
    """Mean of in-vocabulary token vectors; the zero vector when all are OOV."""
    idx = table.indices(tokens)
    idx = idx[idx >= 0]
    if idx.size == 0:
        return np.zeros(table.dimension)
    return np.mean(table.matrix[idx], axis=0)


def _stratified_split(labels: np.ndarray, test_fraction: float,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    train, test = [], []  # each class's index array
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        perm = idx[rng.permutation(len(idx))]
        n_test = int(round(len(idx) * test_fraction))
        test.append(perm[:n_test])
        train.append(perm[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def run_downstream(load_raw: Callable[[], EmbeddingTable],
                   load_concat: Callable[[], EmbeddingTable],
                   data: TextDataset, test_fraction: float = 0.25,
                   seed: int = 0) -> DownstreamResult:
    """Train one linear classifier per arm on the same stratified split.

    Each arm's table comes from a zero-argument loader, called once the
    split is known to be sound; a table is released once its arm's
    documents are embedded, and their matrix once the arm is scored, before
    the next one loads. An arm whose document means overflow raises an
    :class:`InputError` naming the arm, ``"raw"`` or ``"concat"``.
    """
    if not (0.0 < test_fraction < 0.5):
        raise ValueError("test_fraction must be in (0, 0.5)")
    labels = np.array([y for _, y in data.records])
    token_lists = [tokenize(text) for text, _ in data.records]

    train_idx, test_idx = _stratified_split(labels, test_fraction, seed)
    for side in (train_idx, test_idx):
        if len(set(labels[side].tolist())) < 2:
            raise InputError("degenerate split: one side is single-class")
    split_hash = hashlib.sha256(
        (",".join(map(str, train_idx)) + "|" + ",".join(map(str, test_idx))).encode()
    ).hexdigest()

    # the train documents take the first rows, so the fit and the test scores
    # read views of one document matrix
    order = np.concatenate([train_idx, test_idx])
    n_train = len(train_idx)
    accuracies = {}
    for arm, load in (("raw", load_raw), ("concat", load_concat)):
        table = load()
        if arm == "raw":
            total_tokens = sum(len(t) for t in token_lists)
            oov_tokens = sum(1 for toks in token_lists for t in toks if t not in table)
            oov_rate = oov_tokens / total_tokens if total_tokens else 0.0
        X = np.empty((len(order), table.dimension))
        with np.errstate(over="ignore", invalid="ignore"):  # a mean may overflow
            for row, doc in enumerate(order):
                X[row] = embed_document(table, token_lists[doc])
        del table
        if not np.isfinite(X).all():
            raise InputError("a document's mean vector overflows", arm)
        w, b = train_linear(X[:n_train], labels[train_idx])
        p = _sigmoid(X[n_train:] @ w + b)
        del X  # before the next arm's loader runs
        accuracies[arm] = float(np.mean((p >= 0.5) == labels[test_idx]))

    acc_raw, acc_concat = accuracies["raw"], accuracies["concat"]
    gain = (acc_concat - acc_raw) / acc_raw if acc_raw > 0 else 0.0
    return DownstreamResult(dataset_name=data.name, accuracy_raw=acc_raw,
                            accuracy_concat=acc_concat, relative_gain=gain,
                            train_size=len(train_idx), test_size=len(test_idx),
                            oov_rate=oov_rate, split_hash=split_hash)
