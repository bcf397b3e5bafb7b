"""Gradient-boosted shallow regression trees with logistic loss.

Additive depth-limited trees fit to the negative gradient of the logistic
loss, histogram split search, Newton leaf values and shrinkage.

Each fit bins every feature once, as LightGBM does (Ke et al., NeurIPS 2017):
one argsort per feature gives each row a uint8 code that ascends with its
value. A feature with at most ``MAX_BINS`` distinct values gets one bin per
value, so its candidate splits and thresholds are exactly those of XGBoost's
exact greedy search (Chen and Guestrin, KDD 2016). A wider feature gets at
most ``MAX_BINS`` bins of about equal row count, cut only where the value
changes. Features must be finite, as for every binary fit here.

Each node sums its rows' gradients and hessians per bin with ``np.bincount``,
in row order, and prefix-sums the bins for every candidate's gain. A split
after bin b has as its threshold the midpoint of the largest value of bin b
and the smallest value of the node's next non-empty bin, halved before the
sum so that it cannot overflow. A node holds only its row indices: it
gathers each feature's codes of its rows from the one (d, n) code matrix,
a byte per row and feature, as it builds that feature's histogram, and the
root reads the codes themselves. The gain of every candidate is computed in
place, over the prefix sums, so a node's search holds about four (d,
MAX_BINS) float64 arrays whatever its row count.

``_bin`` bins one column and ``_boost`` runs the rounds on the codes:
``train_boosted_trees`` bins each column of its float matrix, while the
accuracy table (``evaluation.build_accuracy_table``) bins its pair features
straight from the embedding table and never builds that matrix.

Everything is deterministic: split-gain ties break on the lowest feature
index, then the lowest bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import _labelled_matrix, _sigmoid
from .network import logistic_loss  # noqa: F401  (part of the boosting API)

H_EPS = 1e-16
GAIN_TOL = 1e-12
MAX_BINS = 255  # value bins per feature
BOOSTED_DEFAULTS = {"rounds": 200, "shrinkage": 0.1, "max_depth": 2}


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class BoostedTrees:
    base_score: float
    trees: list[TreeNode]
    shrinkage: float


def _bin(x: np.ndarray):
    """Codes (n,) uint8 of one feature column ``x``, and each bin's smallest
    and largest value, (MAX_BINS,) each."""
    n = len(x)
    order = np.argsort(x)  # equal values share a code: any tie order will do
    v = x[order]
    begins = np.zeros(n, dtype=np.intp)  # 1 where a bin begins: at each new value
    begins[1:] = v[1:] > v[:-1]
    starts = np.flatnonzero(begins)
    if len(starts) >= MAX_BINS:  # too many: at the first new value after each n / MAX_BINS rows
        at = np.searchsorted(starts, np.arange(1, MAX_BINS) * n // MAX_BINS)
        begins[:] = 0
        begins[starts[at[at < len(starts)]]] = 1
        starts = np.flatnonzero(begins)
    codes = np.empty(n, dtype=np.uint8)
    codes[order] = np.cumsum(begins, out=begins)
    lower, upper = np.zeros(MAX_BINS), np.zeros(MAX_BINS)
    lower[:len(starts) + 1] = v[np.r_[0, starts]]
    upper[:len(starts) + 1] = v[np.r_[starts - 1, n - 1]]
    return codes, lower, upper


def _node_codes(codes: np.ndarray, f: int, rows: np.ndarray) -> np.ndarray:
    """Feature ``f``'s codes of a node's ``rows``; the root holds every row,
    in order, and reads the codes themselves. The rows are valid indices, so
    ``take`` need not check them ("clip" skips the check, at half the cost)."""
    return codes[f] if len(rows) == codes.shape[1] else codes[f].take(rows, mode="clip")


def _best_split(codes: np.ndarray, rows: np.ndarray, gn: np.ndarray, hn: np.ndarray):
    """Best (gain, feature, bin) for one node, or None when no valid split
    exists. ``codes`` (d, n) are every row's codes, ``rows`` the node's, and
    ``gn``, ``hn`` their gradients and hessians, all in row order, which
    fixes each bin's sum."""
    gl, hl = np.empty((2, len(codes), MAX_BINS))
    nonempty = np.empty((len(codes), MAX_BINS), dtype=bool)
    counted = hn.min() > 0.0  # then a bin is non-empty where its hessian sum is
    c = np.empty(len(rows), dtype=np.intp)  # one feature's node codes at a time
    for f in range(len(codes)):
        c[:] = _node_codes(codes, f, rows)
        gl[f] = np.bincount(c, gn, MAX_BINS)
        hl[f] = np.bincount(c, hn, MAX_BINS)
        nonempty[f] = (hl[f] if counted else np.bincount(c, minlength=MAX_BINS)) > 0
    np.cumsum(gl, axis=1, out=gl)
    np.cumsum(hl, axis=1, out=hl)
    # a split may follow a non-empty value bin that a later one follows; a
    # count of at most MAX_BINS bins fits a byte
    seen = np.cumsum(nonempty, axis=1, dtype=np.uint8)
    valid = seen < seen[:, -1:]
    valid &= nonempty
    if not valid.any():
        return None
    G, H = gl[:, -1:].copy(), hl[:, -1:].copy()
    # gain = gl*gl/(hl+H_EPS) + gr*gr/(hr+H_EPS) - G*G/(H+H_EPS), in this
    # order, with gr and hr written over gl and hl
    gain = gl * gl
    gain /= hl + H_EPS
    gr, hr = np.subtract(G, gl, out=gl), np.subtract(H, hl, out=hl)
    gr *= gr
    hr += H_EPS
    gr /= hr
    gain += gr
    gain -= G * G / (H + H_EPS)
    gain[~valid] = -np.inf
    # row-major argmax: the first maximum has the lowest feature, then bin
    f, b = divmod(int(np.argmax(gain)), MAX_BINS)
    return float(gain[f, b]), f, b


def _build_tree(codes: np.ndarray, rows: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                g: np.ndarray, h: np.ndarray, depth: int, out: np.ndarray) -> TreeNode:
    """The subtree of the node of ``rows``, in row order, split on the (d, n)
    ``codes`` of every row. Each leaf writes its value to ``out[rows]``."""
    gn, hn = g[rows], h[rows]
    split = _best_split(codes, rows, gn, hn) if depth > 0 else None
    if split is not None and split[0] <= GAIN_TOL:
        # a zero-gain split is worth taking only when a child split can still
        # realize the gain (XOR-style interactions): needs remaining depth and
        # mixed gradient signs in the node
        if depth < 2 or gn.min() >= 0.0 or gn.max() <= 0.0:
            split = None
    if split is None:  # rows are in row order: a float sum's rounding depends on order
        out[rows] = value = -gn.sum() / (hn.sum() + H_EPS)
        return TreeNode(value=value)
    _, feature, b = split
    c = _node_codes(codes, feature, rows)
    goes_left = c <= b
    lo, hi = upper[feature, b], lower[feature, c[~goes_left].min()]
    t = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) can overflow, or round up to hi
    left, right = (_build_tree(codes, rows[keep], lower, upper, g, h, depth - 1, out)
                   for keep in (goes_left, ~goes_left))
    return TreeNode(feature=feature, threshold=float(t if t < hi else lo), left=left, right=right)


def _tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        left = X[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[left]))
        stack.append((nd.right, idx[~left]))
    return out


def _boost(codes: np.ndarray, lower: np.ndarray, upper: np.ndarray, y: np.ndarray,
           rounds: int, shrinkage: float, max_depth: int) -> BoostedTrees:
    """The round loop on binned features: ``codes`` (d, n) and ``lower``,
    ``upper`` (d, MAX_BINS) stack each feature's :func:`_bin`, and ``y`` holds
    the checked 0/1 labels of both classes."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if not (math.isfinite(shrinkage) and shrinkage > 0.0):
        raise ValueError(f"shrinkage must be finite and > 0, got {shrinkage}")
    p_base = y.mean()
    base = math.log(p_base / (1.0 - p_base))
    rows = np.arange(len(y))
    scores = np.full(len(y), base)
    update = np.empty(len(y))  # each round's leaves write their values to their rows
    trees: list[TreeNode] = []
    for _ in range(rounds):
        p = _sigmoid(scores)
        g = p - y
        h = p * (1.0 - p)
        trees.append(_build_tree(codes, rows, lower, upper, g, h, max_depth, update))
        scores += shrinkage * update
    return BoostedTrees(base_score=base, trees=trees, shrinkage=shrinkage)


def train_boosted_trees(X: np.ndarray, y: np.ndarray, rounds: int = BOOSTED_DEFAULTS["rounds"],
                        shrinkage: float = BOOSTED_DEFAULTS["shrinkage"],
                        max_depth: int = BOOSTED_DEFAULTS["max_depth"]) -> BoostedTrees:
    """Fit the ensemble: base-rate log-odds, then one tree per round."""
    X, y = _labelled_matrix(X, y)
    codes = np.empty(X.T.shape, dtype=np.uint8)
    lower, upper = np.empty((2, X.shape[1], MAX_BINS))
    for f, x in enumerate(X.T):
        codes[f], lower[f], upper[f] = _bin(x)
    return _boost(codes, lower, upper, y, rounds, shrinkage, max_depth)


def boosted_scores(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    scores = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        scores += model.shrinkage * _tree_predict(tree, X)
    return scores


def boosted_proba(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    return _sigmoid(boosted_scores(model, X))
