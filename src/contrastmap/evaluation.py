"""Measurement suite: distance distributions, pairwise shifts, extreme
examples, and the raw/new/concatenated pair-classifier comparison."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .boosting import BoostedTrees, boosted_proba, train_boosted_trees
from .embeddings import EmbeddingTable, cosine_distance
from .network import _sigmoid
from .pairs import ANTONYM, SYNONYM, PairSet

N_BINS = 100
BIN_WIDTH = 2.0 / N_BINS

LINEAR_DEFAULTS = {"lr": 0.1, "epochs": 500, "l2": 1e-4}
BOOSTED_DEFAULTS = {"rounds": 200, "shrinkage": 0.1, "max_depth": 2}


@dataclass
class DistanceReport:
    space_label: str
    syn_counts: np.ndarray          # 100 bins over [0, 2]
    ant_counts: np.ndarray
    syn_mean: float
    syn_std: float
    ant_mean: float
    ant_std: float
    pair_count: int
    unresolved: int
    records: list[tuple[str, str, str, float]] = field(default_factory=list)

    def write_csv(self, stream: IO[str]) -> None:
        stream.write("bin_lo,bin_hi,syn_count,ant_count\n")
        for i in range(N_BINS):
            stream.write(f"{i * BIN_WIDTH},{(i + 1) * BIN_WIDTH},"
                         f"{int(self.syn_counts[i])},{int(self.ant_counts[i])}\n")


@dataclass
class ShiftReport:
    records: list[tuple[str, str, str, float, float, float]]
    syn_mean_shift: float
    ant_mean_shift: float
    unresolved: int

    def write_csv(self, stream: IO[str]) -> None:
        stream.write("left,right,relation,d_before,d_after,shift\n")
        for left, right, rel, db, da, sh in self.records:
            stream.write(f"{left},{right},{rel},{db!r},{da!r},{sh!r}\n")


@dataclass
class PairClassifierModel:
    kind: str                                  # "linear" | "boosted_trees"
    feature_dimension: int
    weights: np.ndarray | None = None          # linear
    bias: float = 0.0
    trees: BoostedTrees | None = None          # boosted


@dataclass
class AccuracyTable:
    accuracies: dict[str, dict[str, float]]    # space -> classifier kind -> accuracy
    counts: dict[str, dict[str, int]]
    config: dict

    def to_dict(self) -> dict:
        return {"accuracies": self.accuracies, "counts": self.counts,
                "config": self.config}

    def format_text(self) -> str:
        lines = [f"{'space':<14}{'linear':>10}{'boosted':>10}"]
        for space in ("raw", "new", "concatenated"):
            if space not in self.accuracies:
                continue
            row = self.accuracies[space]
            lines.append(f"{space:<14}{row['linear']:>10.4f}{row['boosted']:>10.4f}")
        return "\n".join(lines) + "\n"


def _bin_index(d: float) -> int:
    return min(int(d / BIN_WIDTH), N_BINS - 1)


def distance_report(table: EmbeddingTable, pairs: PairSet,
                    space_label: str = "") -> DistanceReport:
    """Histogram + summary stats of cosine distances per relation."""
    syn_counts = np.zeros(N_BINS, dtype=np.int64)
    ant_counts = np.zeros(N_BINS, dtype=np.int64)
    syn_d: list[float] = []
    ant_d: list[float] = []
    records = []
    unresolved = 0
    for p in pairs:
        u = table.lookup(p.left)
        v = table.lookup(p.right)
        if u is None or v is None:
            unresolved += 1
            continue
        d = cosine_distance(u, v)
        records.append((p.left, p.right, p.relation, d))
        if p.relation == SYNONYM:
            syn_counts[_bin_index(d)] += 1
            syn_d.append(d)
        else:
            ant_counts[_bin_index(d)] += 1
            ant_d.append(d)
    if not records:
        raise ValueError("no resolvable pairs")
    return DistanceReport(
        space_label=space_label,
        syn_counts=syn_counts, ant_counts=ant_counts,
        syn_mean=float(np.mean(syn_d)) if syn_d else math.nan,
        syn_std=float(np.std(syn_d)) if syn_d else math.nan,
        ant_mean=float(np.mean(ant_d)) if ant_d else math.nan,
        ant_std=float(np.std(ant_d)) if ant_d else math.nan,
        pair_count=len(records), unresolved=unresolved, records=records)


def shift_report(before: EmbeddingTable, after: EmbeddingTable,
                 pairs: PairSet) -> ShiftReport:
    """Per-pair distance shifts between two spaces (after minus before)."""
    records = []
    syn_shifts: list[float] = []
    ant_shifts: list[float] = []
    unresolved = 0
    for p in pairs:
        ub, vb = before.lookup(p.left), before.lookup(p.right)
        ua, va = after.lookup(p.left), after.lookup(p.right)
        if ub is None or vb is None or ua is None or va is None:
            unresolved += 1
            continue
        db = cosine_distance(ub, vb)
        da = cosine_distance(ua, va)
        records.append((p.left, p.right, p.relation, db, da, da - db))
        (syn_shifts if p.relation == SYNONYM else ant_shifts).append(da - db)
    if not records:
        raise ValueError("no resolvable pairs")
    return ShiftReport(
        records=records,
        syn_mean_shift=float(np.mean(syn_shifts)) if syn_shifts else math.nan,
        ant_mean_shift=float(np.mean(ant_shifts)) if ant_shifts else math.nan,
        unresolved=unresolved)


def extreme_pairs(report: ShiftReport | DistanceReport, n: int) -> dict:
    """The n antonym pairs mapped closest and n synonym pairs mapped farthest.

    For a ShiftReport the transformed distance (d_after) is ranked; for a
    DistanceReport its per-pair distances. Ties break lexicographically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(report, ShiftReport):
        entries = [(left, right, rel, da) for left, right, rel, _, da, _ in report.records]
    else:
        entries = list(report.records)
    ants = sorted([e for e in entries if e[2] == ANTONYM],
                  key=lambda e: (e[3], e[0], e[1]))
    syns = sorted([e for e in entries if e[2] == SYNONYM],
                  key=lambda e: (-e[3], e[0], e[1]))
    fmt = lambda e: {"left": e[0], "right": e[1], "distance": e[3]}
    return {"closest_antonyms": [fmt(e) for e in ants[:n]],
            "farthest_synonyms": [fmt(e) for e in syns[:n]]}


def featurize_pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pair feature vector: plain concatenation [u; v]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return np.concatenate([u, v])


def train_linear(features: np.ndarray, labels: np.ndarray,
                 config: dict | None = None) -> PairClassifierModel:
    """Logistic regression by full-batch gradient descent with L2 penalty."""
    cfg = dict(LINEAR_DEFAULTS)
    if config:
        cfg.update(config)
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if len(set(y.tolist())) < 2:
        raise ValueError("single-class input")
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(int(cfg["epochs"])):
        p = _sigmoid(X @ w + b)
        err = (p - y) / n
        gw = X.T @ err + cfg["l2"] * w
        gb = err.sum()
        w -= cfg["lr"] * gw
        b -= cfg["lr"] * gb
    return PairClassifierModel(kind="linear", feature_dimension=d,
                               weights=w, bias=b)


def train_boosted(features: np.ndarray, labels: np.ndarray,
                  config: dict | None = None) -> PairClassifierModel:
    """Gradient-boosted depth-limited trees on the logistic loss."""
    cfg = dict(BOOSTED_DEFAULTS)
    if config:
        cfg.update(config)
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if len(set(y.tolist())) < 2:
        raise ValueError("single-class input")
    trees = train_boosted_trees(X, y, rounds=int(cfg["rounds"]),
                                shrinkage=float(cfg["shrinkage"]),
                                max_depth=int(cfg["max_depth"]))
    return PairClassifierModel(kind="boosted_trees",
                               feature_dimension=X.shape[1], trees=trees)


def predict_proba(model: PairClassifierModel, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if model.kind == "linear":
        return _sigmoid(X @ model.weights + model.bias)
    return boosted_proba(model.trees, X)


def _swap_halves(X: np.ndarray) -> np.ndarray:
    d = X.shape[1] // 2
    return np.concatenate([X[:, d:], X[:, :d]], axis=1)


def classify_accuracy(model: PairClassifierModel, features: np.ndarray,
                      labels: np.ndarray) -> float:
    """Accuracy at threshold 0.5, order-averaged over both pair orders."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    p = 0.5 * (predict_proba(model, X) + predict_proba(model, _swap_halves(X)))
    pred = (p >= 0.5).astype(int)
    return float(np.mean(pred == y))


def _pair_features(table: EmbeddingTable, pairs: PairSet, augment: bool):
    feats = []
    labels = []
    for p in pairs:
        u = table.lookup(p.left)
        v = table.lookup(p.right)
        if u is None or v is None:
            continue
        y = 1 if p.relation == SYNONYM else 0
        feats.append(featurize_pair(u, v))
        labels.append(y)
        if augment:
            feats.append(featurize_pair(v, u))
            labels.append(y)
    if not feats:
        raise ValueError("no resolvable pairs")
    return np.array(feats), np.array(labels)


def build_accuracy_table(raw: EmbeddingTable, new: EmbeddingTable,
                         concat: EmbeddingTable, train_pairs: PairSet,
                         test_pairs: PairSet,
                         linear_config: dict | None = None,
                         boosted_config: dict | None = None) -> AccuracyTable:
    """3 spaces x 2 classifiers on the leakage-free split.

    Train features are order-augmented; test predictions are order-averaged
    by :func:`classify_accuracy`. Any train/test vocabulary overlap aborts.
    """
    if train_pairs.vocabulary() & test_pairs.vocabulary():
        raise ValueError("leakage")
    accuracies: dict[str, dict[str, float]] = {}
    counts: dict[str, dict[str, int]] = {}
    for space, table in (("raw", raw), ("new", new), ("concatenated", concat)):
        Xtr, ytr = _pair_features(table, train_pairs, augment=True)
        Xte, yte = _pair_features(table, test_pairs, augment=False)
        linear = train_linear(Xtr, ytr, linear_config)
        boosted = train_boosted(Xtr, ytr, boosted_config)
        accuracies[space] = {
            "linear": classify_accuracy(linear, Xte, yte),
            "boosted": classify_accuracy(boosted, Xte, yte),
        }
        counts[space] = {"train_examples": len(ytr), "test_pairs": len(yte)}
    config = {"linear": {**LINEAR_DEFAULTS, **(linear_config or {})},
              "boosted": {**BOOSTED_DEFAULTS, **(boosted_config or {})}}
    return AccuracyTable(accuracies=accuracies, counts=counts, config=config)
