"""Measurement suite: distance distributions, pairwise shifts, extreme
examples, and the raw/new/concatenated pair-classifier comparison."""
from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import IO, Callable

import numpy as np

from .boosting import boosted_proba, train_boosted_trees
from .embeddings import EmbeddingTable, cosine_distance, gather_rows
from .errors import InputError, blaming
from .network import _labelled_matrix, _sigmoid, logistic_loss
from .pairs import ANTONYM, SYNONYM, PairSet

N_BINS = 100
BIN_WIDTH = 2.0 / N_BINS

LINEAR_DEFAULTS = {"l2": 1e-4}
NEWTON_STEPS = 100  # a cap: the L2 logistic fits here stop within a few steps
ARMIJO = 0.25       # share of the predicted decrease a Newton step must achieve
HESSIAN_ROWS = 1024  # rows of X scaled at once for the Hessian: no (n, d) temporary
BOOSTED_DEFAULTS = {"rounds": 200, "shrinkage": 0.1, "max_depth": 2}


@dataclass
class DistanceReport:
    syn_counts: np.ndarray          # 100 bins over [0, 2]
    ant_counts: np.ndarray
    syn_mean: float | None          # None for a relation with no pairs
    syn_std: float | None
    ant_mean: float | None
    ant_std: float | None
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
    syn_mean_shift: float | None    # None for a relation with no pairs
    ant_mean_shift: float | None
    unresolved: int

    def write_csv(self, stream: IO[str]) -> None:
        """CSV rows; a word that holds ``,`` or ``"`` is quoted, and a float is
        written as its ``repr``."""
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(("left", "right", "relation", "d_before", "d_after", "shift"))
        writer.writerows(self.records)


@dataclass
class AccuracyTable:
    accuracies: dict[str, dict[str, float]]    # space -> classifier kind -> accuracy
    counts: dict[str, dict[str, int]]
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def format_text(self) -> str:
        lines = [f"{'space':<14}{'linear':>10}{'boosted':>10}"]
        for space in ("raw", "new", "concatenated"):
            row = self.accuracies[space]
            lines.append(f"{space:<14}{row['linear']:>10.4f}{row['boosted']:>10.4f}")
        return "\n".join(lines) + "\n"


def _pair_rows(tables: list[EmbeddingTable], pairs: PairSet):
    """Resolve ``pairs`` in every table once.

    Returns the mask of the pairs that every table resolves, the synonym mask
    of those pairs and, per table, their ``(left, right)`` row indices in pair
    order.
    """
    lefts, rights = [p.left for p in pairs], [p.right for p in pairs]
    rows = [(t.indices(lefts), t.indices(rights)) for t in tables]
    found = np.logical_and.reduce([(i >= 0) & (j >= 0) for i, j in rows])
    if not found.any():
        raise InputError("no resolvable pairs")
    syn = np.array([p.relation == SYNONYM for p in pairs])[found]
    return found, syn, [(i[found], j[found]) for i, j in rows]


def _row_distances(M: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``cosine_distance(M[left[k]], M[right[k]])`` for every ``k``, taken a
    block of gathered rows at a time."""
    d = np.empty(len(left))
    step = gather_rows(M.shape[1])
    for lo in range(0, len(left), step):
        d[lo:lo + step] = cosine_distance(M[left[lo:lo + step]], M[right[lo:lo + step]])
    return d


def _pair_distances(tables: list[EmbeddingTable], pairs: PairSet):
    """:func:`_pair_rows`, with each table's float64 cosine distances of the
    resolved pairs in place of its row indices."""
    found, syn, rows = _pair_rows(tables, pairs)
    return found, syn, [_row_distances(t.matrix, i, j) for t, (i, j) in zip(tables, rows)]


def _summary(fn, x: np.ndarray) -> float | None:
    """``fn`` (np.mean or np.std) of ``x`` as a float; None when ``x`` is empty,
    which a JSON report writes as null."""
    return float(fn(x)) if len(x) else None


def distance_report(table: EmbeddingTable, pairs: PairSet) -> DistanceReport:
    """Histogram + summary stats of cosine distances per relation."""
    _, syn, (d,) = _pair_distances([table], pairs)
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
    found, syn, (db, da) = _pair_distances([before, after], pairs)
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


def train_linear(X: np.ndarray, y: np.ndarray,
                 l2: float = LINEAR_DEFAULTS["l2"]) -> tuple[np.ndarray, float]:
    """L2-regularised logistic regression, solved to its optimum.

    Minimises ``mean(softplus(z) - y * z) + (l2 / 2) * |w|^2`` over the rows
    ``z = X @ w + b``; the bias is not penalised. Returns ``(weights,
    bias)``, scored as ``_sigmoid(X @ weights + bias)``.

    Damped Newton steps from zero, each backtracked by halving until the
    Armijo condition holds (Boyd and Vandenberghe, Convex Optimization,
    9.5). The fit stops when the Newton decrement is within round-off of the
    objective, or when a line search finds no strict decrease; reaching
    ``NEWTON_STEPS`` raises ``ArithmeticError``.
    """
    X, y = _labelled_matrix(X, y)
    if not (math.isfinite(l2) and l2 > 0.0):  # at l2 = 0 separable data has no optimum
        raise ValueError(f"l2 must be finite and > 0, got {l2}")
    n, d = X.shape
    eps = np.finfo(np.float64).eps
    w, b = np.zeros(d), 0.0
    z = np.zeros(n)
    f = logistic_loss(y, z)
    for _ in range(NEWTON_STEPS):
        p = _sigmoid(z)
        r = p - y
        g = np.append(X.T @ r / n + l2 * w, r.mean())
        s = p * (1.0 - p)
        root = np.sqrt(s)
        H = np.zeros((d + 1, d + 1))  # the bias is the last row and column
        for lo in range(0, n, HESSIAN_ROWS):  # X.T S X, a block of X * root at a time
            Xs = X[lo:lo + HESSIAN_ROWS] * root[lo:lo + HESSIAN_ROWS, None]
            H[:d, :d] += Xs.T @ Xs
        H[:d, d] = H[d, :d] = X.T @ s
        H[d, d] = s.sum()
        H /= n
        H[range(d), range(d)] += l2
        step = np.linalg.solve(H, -g)
        decrement = -(g @ step)
        dw, db = step[:d], step[d]
        if decrement <= 4.0 * eps * f:  # only round-off is left of f's decrease,
            return w + dw, b + db       # but a last full step still shrinks g
        dz = X @ dw + db
        t = 1.0
        while True:
            f_new = logistic_loss(y, z + t * dz) + 0.5 * l2 * np.sum((w + t * dw) ** 2)
            if f_new <= f - ARMIJO * t * decrement or t < eps:
                break
            t /= 2.0
        if not f_new < f:
            return w, b
        w, b, z, f = w + t * dw, b + t * db, z + t * dz, f_new
    raise ArithmeticError(f"logistic fit did not converge in {NEWTON_STEPS} Newton steps")


def classify_accuracy(proba: Callable[[np.ndarray], np.ndarray], U: np.ndarray,
                      V: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy at threshold 0.5 of ``proba`` (pair features -> probabilities) on
    the pairs of row-aligned members ``U`` and ``V``, averaged over both orders."""
    p = 0.5 * (proba(featurize_pair(U, V)) + proba(featurize_pair(V, U)))
    return float(np.mean((p >= 0.5) == np.asarray(labels)))


def _pair_sums(M: np.ndarray, left: np.ndarray, right: np.ndarray, side: str, name: str):
    """``M[left] + M[right]``; an :class:`InputError` naming the table ``name``
    where a ``side`` pair's sum overflows, as values near the float64 limit can."""
    with np.errstate(over="ignore"):
        sums = M[left] + M[right]
    if not np.isfinite(sums).all():
        raise InputError(f"a {side} pair's u + v overflows", name)
    return sums


def build_accuracy_table(raw: EmbeddingTable, new: EmbeddingTable,
                         concat: EmbeddingTable, train_pairs: PairSet,
                         test_pairs: PairSet,
                         boosted_config: dict | None = None) -> AccuracyTable:
    """3 spaces x 2 classifiers on the leakage-free split.

    Bad data raises an :class:`InputError` naming the argument at fault: a
    train/test vocabulary overlap, unresolvable pairs, train pairs of one
    relation, or a table whose ``u + v`` overflows. The linear classifier, a
    logistic regression on ``u + v`` with each train pair counted once per
    order, scores a pair the same in either order. Whether u and v agree or
    oppose along a direction, which tells synonyms from antonyms, is not
    linear in their sum, so its accuracy stays near chance where the boosted
    trees' does not; they train on the rows ``[u; v]`` and ``[v; u]`` of
    each pair, order-averaged at test time by :func:`classify_accuracy`.
    """
    shared = train_pairs.vocabulary() & test_pairs.vocabulary()
    if shared:
        raise InputError(f"leakage: {min(shared)!r} is in both pair sets", "test_pairs")
    boosted = {**BOOSTED_DEFAULTS, **(boosted_config or {})}
    accuracies: dict[str, dict[str, float]] = {}
    counts: dict[str, dict[str, int]] = {}
    for space, name, table in (("raw", "raw", raw), ("new", "new", new),
                               ("concatenated", "concat", concat)):
        M = table.matrix
        with blaming("test_pairs"):
            _, y_test, ((left_test, right_test),) = _pair_rows([table], test_pairs)
        with blaming("train_pairs"):  # none resolve, or all are of one relation
            _, y, ((left, right),) = _pair_rows([table], train_pairs)
            # the full-width fit on both orders [u; v] and [v; u] of every pair has
            # the weights [w; w], where w is the fit on u + v at twice the penalty
            w, b = train_linear(_pair_sums(M, left, right, "train", name), y,
                                l2=2 * LINEAR_DEFAULTS["l2"])
        linear_pred = _sigmoid(_pair_sums(M, left_test, right_test, "test", name) @ w + b) >= 0.5
        # rows 2i and 2i + 1 are pair i as [u; v] and as [v; u], filled a
        # block at a time into the one matrix the trees train on
        first = np.column_stack([left, right]).ravel()
        second = np.column_stack([right, left]).ravel()
        Xtr = np.empty((len(first), 2 * table.dimension))
        step = gather_rows(table.dimension)
        for lo in range(0, len(first), step):
            Xtr[lo:lo + step] = featurize_pair(M[first[lo:lo + step]], M[second[lo:lo + step]])
        ytr = np.repeat(y, 2)
        trees = train_boosted_trees(Xtr, ytr, **boosted)
        accuracies[space] = {
            "linear": float(np.mean(linear_pred == y_test)),
            "boosted": classify_accuracy(lambda X: boosted_proba(trees, X),
                                         M[left_test], M[right_test], y_test),
        }
        counts[space] = {"train_examples": len(ytr), "test_pairs": len(y_test)}
    config = {"linear": dict(LINEAR_DEFAULTS), "boosted": boosted}
    return AccuracyTable(accuracies=accuracies, counts=counts, config=config)
