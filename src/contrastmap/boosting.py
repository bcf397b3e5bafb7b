"""Gradient-boosted shallow regression trees with logistic loss.

Additive depth-limited trees fit to the negative gradient of the logistic
loss, exact greedy split search over every feature (XGBoost's exact greedy
algorithm), Newton leaf values and shrinkage.

Each node carries its rows in sorted order per feature: row f of ``S`` lists
the node's rows in ascending order of feature f and row f of ``V`` their
values. The root's orders come from one stable argsort per ensemble; a
child's are a stable compaction of its parent's, so no node sorts and no
node touches rows outside it. Prefix sums of the gradients along each row
give every candidate split's gain. Everything is deterministic: split-gain
ties break on the lowest feature index, then the lowest threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import _sigmoid

H_EPS = 1e-16
GAIN_TOL = 1e-12


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
    feature_dimension: int


def _best_split(g: np.ndarray, h: np.ndarray, S: np.ndarray, V: np.ndarray):
    """Best (gain, feature, threshold) over all features for one node.

    Row f of ``S`` lists the node's rows in ascending order of feature f and
    row f of ``V`` their values. A split may fall only between neighbours
    with different values. Returns None when no valid split exists.
    """
    m = S.shape[1]
    GL = np.cumsum(g.take(S), axis=1)
    HL = np.cumsum(h.take(S), axis=1)
    between = V[:, 1:] > V[:, :-1]  # [f, i]: a threshold fits between positions i, i + 1
    cand = np.flatnonzero(between)
    if cand.size == 0:
        return None
    at = cand + cand // (m - 1)  # the same positions in the (d, m) sums
    per_feature = between.sum(axis=1)
    G, H = np.repeat(GL[:, -1], per_feature), np.repeat(HL[:, -1], per_feature)
    gl, hl = GL.take(at), HL.take(at)
    gr, hr = G - gl, H - hl
    gain = gl * gl / (hl + H_EPS) + gr * gr / (hr + H_EPS) - G * G / (H + H_EPS)
    # candidates come by feature, then by position, so the first maximum is
    # the deterministic tie-break: lowest feature index, then lowest threshold
    i = int(np.argmax(gain))
    f, p = divmod(int(cand[i]), m - 1)
    return float(gain[i]), f, float(0.5 * (V[f, p] + V[f, p + 1]))


def _compact(A: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Keep the marked entries of every row of ``A``, in order."""
    return A.ravel().compress(keep.ravel()).reshape(A.shape[0], -1)


def _build_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                S: np.ndarray, V: np.ndarray, depth: int) -> TreeNode:
    split = _best_split(g, h, S, V) if depth > 0 else None
    if split is not None and split[0] <= GAIN_TOL:
        # a zero-gain split is worth taking only when a child split can still
        # realize the gain (XOR-style interactions): needs remaining depth and
        # mixed gradient signs in the node
        gm = g.take(S[0])
        if depth < 2 or gm.min() >= 0.0 or gm.max() <= 0.0:
            split = None
    if split is None:
        rows = np.sort(S[0])  # in row order: a float sum's rounding depends on order
        return TreeNode(value=-g[rows].sum() / (h[rows].sum() + H_EPS))
    _, feature, threshold = split
    if depth == 1:  # both children are leaves and need only their rows
        S, V = S[:1], V[:1]
    left = (X[:, feature] <= threshold).take(S)
    return TreeNode(feature=feature, threshold=threshold,
                    left=_build_tree(X, g, h, _compact(S, left), _compact(V, left), depth - 1),
                    right=_build_tree(X, g, h, _compact(S, ~left), _compact(V, ~left), depth - 1))


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
    S = np.argsort(X.T, axis=1, kind="stable")  # the root's sorted orders
    V = np.take_along_axis(X.T, S, axis=1)
    scores = np.full(len(y), base)
    trees: list[TreeNode] = []
    for _ in range(rounds):
        p = _sigmoid(scores)
        g = p - y
        h = p * (1.0 - p)
        tree = _build_tree(X, g, h, S, V, max_depth)
        trees.append(tree)
        scores = scores + shrinkage * _tree_predict(tree, X)
    return BoostedTrees(base_score=base, trees=trees, shrinkage=shrinkage,
                        feature_dimension=X.shape[1])


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
