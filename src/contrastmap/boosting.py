"""Gradient-boosted shallow regression trees with logistic loss.

Additive depth-limited trees fit to the negative gradient of the logistic
loss, exact greedy split search over every feature (XGBoost's exact greedy
algorithm), Newton leaf values and shrinkage.

Each node carries its rows in sorted order per feature, as two int32 (d, m)
arrays: row f of ``S`` lists the node's m rows in ascending order of feature
f, and row f of ``R`` their dense ranks in it (equal values share a rank).
The root's come from one stable argsort per feature per ensemble; a child's
are a stable compaction of its parent's, so no node sorts and no node touches
rows outside it. A split may fall only where the rank rises, that is between
neighbours with different values; its threshold, read back from ``X``, is
their midpoint, halved before the sum so that it cannot overflow.
Prefix sums of the gradients along each row give every candidate's gain.

The split search and the compaction walk blocks of feature rows of about
``BLOCK_CELLS`` entries each, the cache-sized column blocks of XGBoost (Chen
and Guestrin, KDD 2016, section 4), so no node allocates a temporary the size
of its orders. A fit holds the orders of one root-to-node path at a time,
8 bytes per row and feature each, plus one block's scratch: at depth 2 that
is at most about twice the float64 input plus 5 MB.

Everything is deterministic: split-gain ties break on the lowest feature
index, then the lowest threshold, across blocks as within one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import _sigmoid

H_EPS = 1e-16
GAIN_TOL = 1e-12
BLOCK_CELLS = 1 << 16  # entries of S per feature block


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


def _blocks(S: np.ndarray) -> list[slice]:
    """Slices of the feature rows of ``S``, each of about BLOCK_CELLS entries."""
    d, m = S.shape
    step = max(1, BLOCK_CELLS // max(m, 1))
    return [slice(lo, min(lo + step, d)) for lo in range(0, d, step)]


def _best_split(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                S: np.ndarray, R: np.ndarray):
    """Best (gain, feature, threshold) over all features for one node.

    Row f of ``S`` lists the node's rows in ascending order of feature f and
    row f of ``R`` their ranks. A split may fall only between neighbours
    with different values. Returns None when no valid split exists.
    """
    m = S.shape[1]
    best = None
    for b in _blocks(S):
        between = R[b, 1:] > R[b, :-1]  # [r, i]: in block row r, a threshold fits between i, i + 1
        at = np.flatnonzero(between)
        if at.size == 0:
            continue
        at += at // (m - 1)  # the same positions, r * m + i, in the (rows, m) sums
        GL, HL = g.take(S[b]), h.take(S[b])
        np.cumsum(GL, axis=1, out=GL)
        np.cumsum(HL, axis=1, out=HL)
        per_row = between.sum(axis=1)
        G, H = np.repeat(GL[:, -1], per_row), np.repeat(HL[:, -1], per_row)
        gl, hl = GL.take(at), HL.take(at)
        # gain = gl*gl/(hl+H_EPS) + gr*gr/(hr+H_EPS) - G*G/(H+H_EPS), operation
        # for operation; gl and hl are overwritten with gr and hr once used
        gain = gl * gl / (hl + H_EPS)
        np.subtract(G, gl, out=gl)
        np.subtract(H, hl, out=hl)
        gain += gl * gl / (hl + H_EPS)
        gain -= G * G / (H + H_EPS)
        # candidates come by feature, then by position, so the first maximum
        # in a block, and a strictly greater one in a later block, give the
        # deterministic tie-break: lowest feature index, then lowest threshold
        i = int(np.argmax(gain))
        if best is None or gain[i] > best[0]:
            r, p = divmod(int(at[i]), m)
            f = b.start + r
            lo, hi = float(X[S[f, p], f]), float(X[S[f, p + 1], f])
            t = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) can overflow, or round up to hi
            best = (float(gain[i]), f, t if t < hi else lo)
    return best


def _compact(S: np.ndarray, R: np.ndarray, keep: np.ndarray):
    """The node's orders and ranks restricted to its rows r with ``keep[r]``."""
    k = np.count_nonzero(keep[S[0]])
    S_kept, R_kept = np.empty((len(S), k), np.int32), np.empty((len(S), k), np.int32)
    for b in _blocks(S):
        kept = keep.take(S[b]).ravel()
        shape = (b.stop - b.start, k)  # explicit: a reshape cannot infer it when k is 0
        S_kept[b] = S[b].ravel().compress(kept).reshape(shape)
        R_kept[b] = R[b].ravel().compress(kept).reshape(shape)
    return S_kept, R_kept


def _build_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                S: np.ndarray, R: np.ndarray, depth: int) -> TreeNode:
    split = _best_split(X, g, h, S, R) if depth > 0 else None
    if split is not None and split[0] <= GAIN_TOL:
        # a zero-gain split is worth taking only when a child split can still
        # realize the gain (XOR-style interactions): needs remaining depth and
        # mixed gradient signs in the node
        gm = g[S[0]]
        if depth < 2 or gm.min() >= 0.0 or gm.max() <= 0.0:
            split = None
    if split is None:
        rows = np.sort(S[0])  # in row order: a float sum's rounding depends on order
        return TreeNode(value=-g[rows].sum() / (h[rows].sum() + H_EPS))
    _, feature, threshold = split
    if depth == 1:  # both children are leaves and need only their rows
        S, R = S[:1], R[:1]
    left = X[:, feature] <= threshold
    # each child's orders exist only while its subtree is built
    return TreeNode(feature=feature, threshold=threshold,
                    left=_build_tree(X, g, h, *_compact(S, R, left), depth - 1),
                    right=_build_tree(X, g, h, *_compact(S, R, ~left), depth - 1))


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


def train_boosted_trees(X: np.ndarray, y: np.ndarray, rounds: int = 200,
                        shrinkage: float = 0.1, max_depth: int = 2) -> BoostedTrees:
    """Fit the ensemble: base-rate log-odds, then one tree per round."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("X must be a matrix with at least one feature column")
    p_base = y.mean()
    if p_base in (0.0, 1.0):
        raise ValueError("single-class input")
    base = math.log(p_base / (1.0 - p_base))
    n, d = X.shape
    if n > np.iinfo(np.int32).max:
        raise ValueError("X has more rows than int32 row orders can index")
    S, R = np.empty((d, n), dtype=np.int32), np.empty((d, n), dtype=np.int32)
    for f in range(d):  # the root's orders and dense ranks
        S[f] = np.argsort(X[:, f], kind="stable")
        v = X[S[f], f]
        R[f, :1] = 0
        np.cumsum(v[1:] > v[:-1], out=R[f, 1:])
        R[f, np.isnan(v)] = -1  # as for values: a NaN (sorted last) is never above its neighbour
    scores = np.full(len(y), base)
    trees: list[TreeNode] = []
    for _ in range(rounds):
        p = _sigmoid(scores)
        g = p - y
        h = p * (1.0 - p)
        tree = _build_tree(X, g, h, S, R, max_depth)
        trees.append(tree)
        scores = scores + shrinkage * _tree_predict(tree, X)
    return BoostedTrees(base_score=base, trees=trees, shrinkage=shrinkage)


def boosted_scores(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    scores = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        scores += model.shrinkage * _tree_predict(tree, X)
    return scores


def boosted_proba(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    return _sigmoid(boosted_scores(model, X))


def logistic_loss(y: np.ndarray, scores: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, scores) - y * scores))
