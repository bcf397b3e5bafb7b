"""Measurement suite: distance distributions, pairwise shifts, extreme
examples, and the raw/new/concatenated pair-classifier comparison."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .boosting import boosted_proba, train_boosted_trees
from .embeddings import EmbeddingTable, cosine_distance
from .network import _sigmoid
from .pairs import ANTONYM, SYNONYM, PairSet

N_BINS = 100
BIN_WIDTH = 2.0 / N_BINS

LINEAR_DEFAULTS = {"lr": 0.1, "epochs": 500, "l2": 1e-4}
BOOSTED_DEFAULTS = {"rounds": 200, "shrinkage": 0.1, "max_depth": 2}


@dataclass
class DistanceReport:
    syn_counts: np.ndarray          # 100 bins over [0, 2]
    ant_counts: np.ndarray
    syn_mean: float
    syn_std: float
    ant_mean: float
    ant_std: float
    pair_count: int
    unresolved: int

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
            row = self.accuracies[space]
            lines.append(f"{space:<14}{row['linear']:>10.4f}{row['boosted']:>10.4f}")
        return "\n".join(lines) + "\n"


def _pair_distances(tables: list[EmbeddingTable], pairs: PairSet):
    """Resolve ``pairs`` in every table once.

    Returns the mask of the pairs that every table resolves and, per table,
    the float64 cosine distances of those pairs in pair order.
    """
    lefts, rights = [p.left for p in pairs], [p.right for p in pairs]
    rows = [(t, t.indices(lefts), t.indices(rights)) for t in tables]
    found = np.logical_and.reduce([(i >= 0) & (j >= 0) for _, i, j in rows])
    if not found.any():
        raise ValueError("no resolvable pairs")
    return found, [np.array([cosine_distance(t.matrix[a], t.matrix[b])
                             for a, b in zip(i[found], j[found])])
                   for t, i, j in rows]


def _summary(fn, x: np.ndarray) -> float:
    """``fn`` (np.mean or np.std) of ``x`` as a float; nan when ``x`` is empty."""
    return float(fn(x)) if len(x) else math.nan


def distance_report(table: EmbeddingTable, pairs: PairSet) -> DistanceReport:
    """Histogram + summary stats of cosine distances per relation."""
    found, (d,) = _pair_distances([table], pairs)
    syn = np.array([p.relation == SYNONYM for p in pairs])[found]
    bins = np.minimum((d / BIN_WIDTH).astype(np.intp), N_BINS - 1)
    return DistanceReport(
        syn_counts=np.bincount(bins[syn], minlength=N_BINS),
        ant_counts=np.bincount(bins[~syn], minlength=N_BINS),
        syn_mean=_summary(np.mean, d[syn]), syn_std=_summary(np.std, d[syn]),
        ant_mean=_summary(np.mean, d[~syn]), ant_std=_summary(np.std, d[~syn]),
        pair_count=len(d), unresolved=len(pairs) - len(d))


def shift_report(before: EmbeddingTable, after: EmbeddingTable,
                 pairs: PairSet) -> ShiftReport:
    """Per-pair distance shifts between two spaces (after minus before)."""
    found, (db, da) = _pair_distances([before, after], pairs)
    syn = np.array([p.relation == SYNONYM for p in pairs])[found]
    shift = da - db
    kept = (p for p, f in zip(pairs, found) if f)
    records = [(p.left, p.right, p.relation, b, a, sh)
               for p, b, a, sh in zip(kept, db.tolist(), da.tolist(), shift.tolist())]
    return ShiftReport(records=records, syn_mean_shift=_summary(np.mean, shift[syn]),
                       ant_mean_shift=_summary(np.mean, shift[~syn]),
                       unresolved=len(pairs) - len(records))


def extreme_pairs(report: ShiftReport, n: int) -> dict:
    """The n antonym pairs mapped closest and n synonym pairs mapped farthest.

    The transformed distance (d_after) is ranked; ties break lexicographically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    entries = [(left, right, rel, da) for left, right, rel, _, da, _ in report.records]
    ants = sorted([e for e in entries if e[2] == ANTONYM],
                  key=lambda e: (e[3], e[0], e[1]))
    syns = sorted([e for e in entries if e[2] == SYNONYM],
                  key=lambda e: (-e[3], e[0], e[1]))
    fmt = lambda e: {"left": e[0], "right": e[1], "distance": e[3]}
    return {"closest_antonyms": [fmt(e) for e in ants[:n]],
            "farthest_synonyms": [fmt(e) for e in syns[:n]]}


def featurize_pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pair features: plain concatenation [u; v], row-wise for (n, d) inputs."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return np.concatenate([u, v], axis=-1)


def _order_augmented(X: np.ndarray, y: np.ndarray) -> bool:
    """Whether rows 2i and 2i + 1 are [u; v] and [v; u] with one label."""
    n, width = X.shape
    d = width // 2
    return (n % 2 == 0 and width % 2 == 0 and np.array_equal(y[::2], y[1::2])
            and np.array_equal(X[::2, :d], X[1::2, d:])
            and np.array_equal(X[::2, d:], X[1::2, :d]))


def _gradient_descent(X: np.ndarray, y: np.ndarray, cfg: dict, copies: int):
    """Weights and bias after ``cfg["epochs"]`` full-batch steps from zero,
    each row of ``X`` standing for ``copies`` identical training rows."""
    n = copies * len(y)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(int(cfg["epochs"])):
        p = _sigmoid(X @ w + b)
        err = (p - y) / n
        gw = X.T @ err + cfg["l2"] * w
        gb = copies * err.sum()
        w -= cfg["lr"] * gw
        b -= cfg["lr"] * gb
    return w, b


def train_linear(features: np.ndarray, labels: np.ndarray,
                 config: dict | None = None) -> tuple[np.ndarray, float]:
    """Logistic regression by full-batch gradient descent with L2 penalty;
    returns ``(weights, bias)``, scored as ``_sigmoid(X @ weights + bias)``.

    On order-augmented pair features (rows 2i and 2i + 1 are [u; v] and
    [v; u] with one label) the two weight halves start at zero and, as both
    rows of a pair then score alike, get equal gradients: they stay equal,
    and the model sees a pair only through u + v. So the fit runs on u + v
    over the distinct pairs, each counted twice, and returns [w; w].
    """
    cfg = dict(LINEAR_DEFAULTS)
    if config:
        cfg.update(config)
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if len(set(y.tolist())) < 2:
        raise ValueError("single-class input")
    if _order_augmented(X, y):
        d = X.shape[1] // 2
        w, b = _gradient_descent(X[::2, :d] + X[::2, d:], y[::2], cfg, copies=2)
        w = np.concatenate([w, w])
    else:
        w, b = _gradient_descent(X, y, cfg, copies=1)
    return w, b


def _swap_halves(X: np.ndarray) -> np.ndarray:
    d = X.shape[1] // 2
    return np.concatenate([X[:, d:], X[:, :d]], axis=1)


def classify_accuracy(proba: Callable[[np.ndarray], np.ndarray],
                      features: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy at threshold 0.5 of ``proba`` (feature matrix -> probabilities),
    order-averaged over both pair orders."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    p = 0.5 * (proba(X) + proba(_swap_halves(X)))
    pred = (p >= 0.5).astype(int)
    return float(np.mean(pred == y))


def _pair_features(table: EmbeddingTable, pairs: PairSet, augment: bool):
    """Rows [u; v] of the resolvable pairs in pair order; with ``augment``
    each is followed by its swapped row [v; u]."""
    left = table.indices([p.left for p in pairs])
    right = table.indices([p.right for p in pairs])
    found = (left >= 0) & (right >= 0)
    if not found.any():
        raise ValueError("no resolvable pairs")
    left, right = left[found], right[found]
    labels = np.array([1 if p.relation == SYNONYM else 0 for p in pairs])[found]
    if augment:
        left, right = (np.column_stack([left, right]).ravel(),
                       np.column_stack([right, left]).ravel())
        labels = np.repeat(labels, 2)
    return featurize_pair(table.matrix[left], table.matrix[right]), labels


def build_accuracy_table(raw: EmbeddingTable, new: EmbeddingTable,
                         concat: EmbeddingTable, train_pairs: PairSet,
                         test_pairs: PairSet,
                         boosted_config: dict | None = None) -> AccuracyTable:
    """3 spaces x 2 classifiers on the leakage-free split.

    Train features are order-augmented; test predictions are order-averaged
    by :func:`classify_accuracy`. Any train/test vocabulary overlap aborts.

    The linear classifier scores a pair through u + v alone (see
    :func:`train_linear`). Whether u and v agree or oppose along a direction,
    which tells synonyms from antonyms, is not linear in their sum, so its
    accuracy stays near chance where the boosted trees' does not.
    """
    if train_pairs.vocabulary() & test_pairs.vocabulary():
        raise ValueError("leakage")
    boosted = {**BOOSTED_DEFAULTS, **(boosted_config or {})}
    accuracies: dict[str, dict[str, float]] = {}
    counts: dict[str, dict[str, int]] = {}
    for space, table in (("raw", raw), ("new", new), ("concatenated", concat)):
        Xtr, ytr = _pair_features(table, train_pairs, augment=True)
        Xte, yte = _pair_features(table, test_pairs, augment=False)
        w, b = train_linear(Xtr, ytr)
        trees = train_boosted_trees(Xtr, ytr, rounds=int(boosted["rounds"]),
                                    shrinkage=float(boosted["shrinkage"]),
                                    max_depth=int(boosted["max_depth"]))
        accuracies[space] = {
            "linear": classify_accuracy(lambda X: _sigmoid(X @ w + b), Xte, yte),
            "boosted": classify_accuracy(lambda X: boosted_proba(trees, X), Xte, yte),
        }
        counts[space] = {"train_examples": len(ytr), "test_pairs": len(yte)}
    config = {"linear": dict(LINEAR_DEFAULTS), "boosted": boosted}
    return AccuracyTable(accuracies=accuracies, counts=counts, config=config)
