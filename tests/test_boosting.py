"""Tests for the gradient-boosted tree ensemble."""
import math

import numpy as np
import pytest

from contrastmap import boosting
from contrastmap.boosting import (GAIN_TOL, H_EPS, TreeNode, boosted_proba,
                                  boosted_scores, logistic_loss,
                                  train_boosted_trees)
from contrastmap.evaluation import _pair_features
from contrastmap.pairs import split_pairs
from contrastmap.synthetic import planted_world


def test_base_rate_log_odds():
    X = np.zeros((4, 1))
    y = np.array([1.0, 1.0, 1.0, 0.0])
    model = train_boosted_trees(X, y, rounds=1)
    assert model.base_score == pytest.approx(math.log(3.0), abs=1e-12)


def test_xor_reaches_perfect_accuracy():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    model = train_boosted_trees(X, y, rounds=50, shrinkage=0.3, max_depth=2)
    pred = (boosted_proba(model, X) >= 0.5).astype(float)
    assert np.array_equal(pred, y)


def test_single_split_on_separable_1d():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = train_boosted_trees(X, y, rounds=1, shrinkage=0.1, max_depth=2)
    root = model.trees[0]
    assert root.feature == 0
    assert root.threshold == pytest.approx(1.5)
    # both children are leaves: no further gain within the pure halves
    assert root.left.is_leaf and root.right.is_leaf


def test_loss_non_increasing_per_round():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((80, 5))
    y = (X[:, 0] * X[:, 1] > 0).astype(float)  # interaction target
    model = train_boosted_trees(X, y, rounds=40, shrinkage=0.1, max_depth=2)
    scores = np.full(len(y), model.base_score)
    losses = [logistic_loss(y, scores)]
    for tree in model.trees:
        from contrastmap.boosting import _tree_predict
        scores = scores + model.shrinkage * _tree_predict(tree, X)
        losses.append(logistic_loss(y, scores))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_single_class_rejected():
    with pytest.raises(ValueError, match="single-class"):
        train_boosted_trees(np.zeros((3, 1)), np.ones(3), rounds=1)


def test_rounds_validated():
    with pytest.raises(ValueError, match="rounds"):
        train_boosted_trees(np.zeros((2, 1)), np.array([0.0, 1.0]), rounds=0)
    with pytest.raises(ValueError, match="feature column"):
        train_boosted_trees(np.zeros((2, 0)), np.array([0.0, 1.0]), rounds=1)


def test_determinism():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 4))
    y = (X[:, 0] > 0).astype(float)
    m1 = train_boosted_trees(X, y, rounds=10)
    m2 = train_boosted_trees(X, y, rounds=10)
    assert np.array_equal(boosted_scores(m1, X), boosted_scores(m2, X))


def test_depth_limit_respected():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 4))
    y = (X[:, 0] * X[:, 2] > 0).astype(float)
    model = train_boosted_trees(X, y, rounds=5, max_depth=2)

    def depth(node):
        if node.is_leaf:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert all(depth(t) <= 2 for t in model.trees)


# --- differential test against the masked full-matrix split search ----------
# The reference below is the exact greedy search as it was written before the
# per-node sorted orders: every node masks the column-sorted (n, d) matrix.

def _reference_best_split(X, g, h, sort_idx, Xs, mask):
    n, d = X.shape
    ms = mask[sort_idx]
    gs = np.where(ms, g[sort_idx], 0.0)
    hs = np.where(ms, h[sort_idx], 0.0)
    cg = np.cumsum(gs, axis=0)
    ch = np.cumsum(hs, axis=0)
    cnt = np.cumsum(ms, axis=0)
    G = cg[-1]
    H = ch[-1]
    n_node = cnt[-1]
    pos = np.where(ms, np.arange(n)[:, None], n)
    nxt_pos = np.minimum.accumulate(pos[::-1], axis=0)[::-1]
    nxt_pos = np.vstack([nxt_pos[1:], np.full(d, n, dtype=nxt_pos.dtype)])
    safe = np.minimum(nxt_pos, n - 1)
    nxt_val = np.take_along_axis(Xs, safe, axis=0)
    valid = ms & (cnt >= 1) & (cnt < n_node) & (nxt_pos < n) & (nxt_val > Xs)
    if not valid.any():
        return None
    GR, HR = G - cg, H - ch
    gain = cg * cg / (ch + H_EPS) + GR * GR / (HR + H_EPS) - G * G / (H + H_EPS)
    gain = np.where(valid, gain, -np.inf)
    best_gain = gain.max()
    rows, cols = np.nonzero(gain == best_gain)
    thresholds = 0.5 * (Xs[rows, cols] + nxt_val[rows, cols])
    i = np.lexsort((thresholds, cols))[0]
    return float(best_gain), int(cols[i]), float(thresholds[i])


def _reference_build_tree(X, g, h, sort_idx, Xs, mask, depth):
    split = _reference_best_split(X, g, h, sort_idx, Xs, mask) if depth > 0 else None
    if split is not None and split[0] <= GAIN_TOL:
        gm = g[mask]
        if depth < 2 or gm.min() >= 0.0 or gm.max() <= 0.0:
            split = None
    if split is None:
        return TreeNode(value=-g[mask].sum() / (h[mask].sum() + H_EPS))
    _, feature, threshold = split
    go_left = X[:, feature] <= threshold
    return TreeNode(
        feature=feature, threshold=threshold,
        left=_reference_build_tree(X, g, h, sort_idx, Xs, mask & go_left, depth - 1),
        right=_reference_build_tree(X, g, h, sort_idx, Xs, mask & ~go_left, depth - 1))


def _reference_trees(X, y, rounds, shrinkage, max_depth):
    sort_idx = np.argsort(X, axis=0, kind="stable")
    Xs = np.take_along_axis(X, sort_idx, axis=0)
    scores = np.full(len(y), math.log(y.mean() / (1.0 - y.mean())))
    trees = []
    for _ in range(rounds):
        p = boosting._sigmoid(scores)
        tree = _reference_build_tree(X, p - y, p * (1.0 - p), sort_idx, Xs,
                                     np.ones(len(y), dtype=bool), max_depth)
        trees.append(tree)
        scores = scores + shrinkage * boosting._tree_predict(tree, X)
    return trees


def _bits(node):
    """Preorder (feature, threshold, value) with floats as exact hex strings."""
    if node.is_leaf:
        return [(-1, None, node.value.hex())]
    return ([(node.feature, node.threshold.hex(), None)]
            + _bits(node.left) + _bits(node.right))


def _planted_pair_features():
    world = planted_world(n_words=300, dim=8, seed=5)
    return _pair_features(world.table, split_pairs(world.pairs).train, augment=True)


def _xor():
    return (np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            np.array([0.0, 1.0, 1.0, 0.0]))


def _continuous():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((120, 6))
    return X, (X[:, 0] * X[:, 1] + 0.3 * X[:, 2] > 0).astype(float)


def _small_integers():
    rng = np.random.default_rng(6)
    X = rng.integers(0, 3, size=(90, 5)).astype(float)
    return X, ((X[:, 0] + X[:, 3]) % 2 == 0).astype(float)


def _constant_columns():
    return np.full((10, 3), 2.5), np.array([0.0, 1.0] * 5)


@pytest.mark.parametrize("max_depth", [0, 1, 2, 3])
@pytest.mark.parametrize("fixture", [_planted_pair_features, _xor, _continuous,
                                     _small_integers, _constant_columns])
def test_trees_match_masked_reference_bit_for_bit(fixture, max_depth):
    X, y = fixture()
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    model = train_boosted_trees(X, y, rounds=8, shrinkage=0.3, max_depth=max_depth)
    reference = _reference_trees(X, y, 8, 0.3, max_depth)
    assert [_bits(t) for t in model.trees] == [_bits(t) for t in reference]
