"""Tests for the gradient-boosted tree ensemble."""
import math
import tracemalloc

import numpy as np
import pytest

from contrastmap import boosting, evaluation
from contrastmap.boosting import (GAIN_TOL, H_EPS, MAX_BINS, TreeNode,
                                  boosted_proba, boosted_scores, logistic_loss,
                                  train_boosted_trees)
from contrastmap.embeddings import EmbeddingTable
from contrastmap.evaluation import _pair_rows, build_accuracy_table, featurize_pair
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


@pytest.mark.parametrize("kwargs, message", [
    ({"y": 2.0 * np.array([0.0, 1.0, 1.0, 0.0])}, r"y must hold labels in \{0, 1\}"),
    ({"y": np.array([0.0, 1.0, np.nan, 0.0])}, r"y must hold labels in \{0, 1\}"),
    ({"y": np.array([0.0, 1.0, 1.0])}, "y must hold one label per row"),
    ({"y": np.array([[0.0, 1.0, 1.0, 0.0]])}, "y must hold one label per row"),
    ({"max_depth": -1}, "max_depth must be >= 0"),
    ({"shrinkage": float("nan")}, "shrinkage must be finite and > 0"),
    ({"shrinkage": -1.0}, "shrinkage must be finite and > 0"),
    ({"shrinkage": 0.0}, "shrinkage must be finite and > 0"),
    ({"shrinkage": float("inf")}, "shrinkage must be finite and > 0"),
    ({"X": np.array([[0.0], [np.nan], [2.0], [3.0]])}, "X must be finite"),
    ({"X": np.array([[0.0], [np.inf], [2.0], [3.0]])}, "X must be finite"),
    ({"X": np.array([[0.0], [-np.inf], [2.0], [3.0]])}, "X must be finite"),
])
def test_bad_arguments_rejected_by_name(kwargs, message):
    args = {"X": np.arange(4.0)[:, None], "y": np.array([0.0, 1.0, 1.0, 0.0]),
            "rounds": 1, **kwargs}
    with pytest.raises(ValueError, match=message):
        train_boosted_trees(**args)


def test_single_class_rejected():
    with pytest.raises(ValueError, match="single-class"):
        train_boosted_trees(np.zeros((3, 1)), np.ones(3), rounds=1)


def test_rounds_validated():
    with pytest.raises(ValueError, match="rounds"):
        train_boosted_trees(np.zeros((2, 1)), np.array([0.0, 1.0]), rounds=0)
    with pytest.raises(ValueError, match="feature column"):
        train_boosted_trees(np.zeros((2, 0)), np.array([0.0, 1.0]), rounds=1)
    with pytest.raises(ValueError, match="one row"):
        train_boosted_trees(np.zeros((0, 3)), np.zeros(0), rounds=1)


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
# One change from that version: each distinct value's gradient and hessian are
# summed in row order before the prefix sum over values, as a histogram sums
# them. A prefix sum over single rows rounds ties between mirrored twin
# features differently.

def _reference_orders(X):
    """Column sorts of ``X``, each row's value-group key, and where each group
    starts in sorted order; all NaNs (sorted last) form one group."""
    n, d = X.shape
    sort_idx = np.argsort(X, axis=0, kind="stable")
    Xs = np.take_along_axis(X, sort_idx, axis=0)
    same = (Xs[1:] == Xs[:-1]) | (np.isnan(Xs[1:]) & np.isnan(Xs[:-1]))
    first = np.vstack([np.ones((1, d), dtype=bool), ~same])
    key_sorted = np.cumsum(first, axis=0) - 1 + n * np.arange(d)
    key = np.empty_like(key_sorted)
    np.put_along_axis(key, sort_idx, key_sorted, axis=0)
    return sort_idx, Xs, key, key_sorted, first


def _grouped_prefix(values, mask, orders):
    """Prefix sums, in sorted order, of the per-group sums of the masked
    ``values``; a group's sum is taken in row order and enters the prefix at
    the group's first sorted position."""
    _, _, key, key_sorted, first = orders
    sums = np.zeros(key.size)
    np.add.at(sums, key.ravel(), np.repeat(np.where(mask, values, 0.0), key.shape[1]))
    return np.cumsum(np.where(first, sums[key_sorted], 0.0), axis=0)


def _reference_best_split(X, g, h, orders, mask):
    n, d = X.shape
    sort_idx, Xs = orders[:2]
    ms = mask[sort_idx]
    cg = _grouped_prefix(g, mask, orders)
    ch = _grouped_prefix(h, mask, orders)
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
    lo, hi = Xs[rows, cols], nxt_val[rows, cols]
    thresholds = 0.5 * lo + 0.5 * hi
    thresholds = np.where(thresholds < hi, thresholds, lo)
    i = np.lexsort((thresholds, cols))[0]
    return float(best_gain), int(cols[i]), float(thresholds[i])


def _reference_build_tree(X, g, h, orders, mask, depth):
    split = _reference_best_split(X, g, h, orders, mask) if depth > 0 else None
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
        left=_reference_build_tree(X, g, h, orders, mask & go_left, depth - 1),
        right=_reference_build_tree(X, g, h, orders, mask & ~go_left, depth - 1))


def _reference_trees(X, y, rounds, shrinkage, max_depth):
    orders = _reference_orders(X)
    scores = np.full(len(y), math.log(y.mean() / (1.0 - y.mean())))
    trees = []
    for _ in range(rounds):
        p = boosting._sigmoid(scores)
        tree = _reference_build_tree(X, p - y, p * (1.0 - p), orders,
                                     np.ones(len(y), dtype=bool), max_depth)
        trees.append(tree)
        scores = scores + shrinkage * boosting._tree_predict(tree, X)
    return trees


def _code_matrix(X):
    """The library's bin codes of ``X`` as an (n, d) float matrix, NaN's bin as
    NaN, and each bin's smallest and largest value, read from ``X``."""
    codes = np.array([boosting._bin(x)[0] for x in X.T])
    Xc = codes.T.astype(np.float64)
    Xc[codes.T == MAX_BINS] = np.nan
    lower = np.full((X.shape[1], MAX_BINS + 1), np.inf)
    upper = np.full((X.shape[1], MAX_BINS + 1), -np.inf)
    for f in range(X.shape[1]):
        np.minimum.at(lower[f], codes[f], X[:, f])
        np.maximum.at(upper[f], codes[f], X[:, f])
    return Xc, lower, upper


def _to_values(node, Xc, lower, upper, rows):
    """A tree fit on bin codes, with each threshold mapped to the values of
    the node's bins on either side of it."""
    if node.is_leaf:
        return node
    c = Xc[rows, node.feature]
    left = c <= node.threshold
    lo, hi = upper[node.feature, int(c[left].max())], lower[node.feature, int(np.nanmin(c[~left]))]
    t = 0.5 * lo + 0.5 * hi
    return TreeNode(feature=node.feature, threshold=float(t if t < hi else lo),
                    left=_to_values(node.left, Xc, lower, upper, rows[left]),
                    right=_to_values(node.right, Xc, lower, upper, rows[~left]))


def _bits(node):
    """Preorder (feature, threshold, value) with floats as exact hex strings."""
    if node.is_leaf:
        return [(-1, None, node.value.hex())]
    return ([(node.feature, node.threshold.hex(), None)]
            + _bits(node.left) + _bits(node.right))


def _augmented_train_rows(world):
    """The train pairs of ``world`` as order-augmented features: rows 2i and
    2i + 1 are pair i as [u; v] and as [v; u], with its 0/1 label."""
    _, syn, ((left, right),) = _pair_rows([world.table], split_pairs(world.pairs).train)
    M = world.table.matrix
    X = featurize_pair(M[np.column_stack([left, right]).ravel()],
                       M[np.column_stack([right, left]).ravel()])
    return X, np.repeat(syn.astype(int), 2)


def _planted():
    return planted_world(n_words=300, dim=8, seed=5)


def _planted_pair_features():
    return _augmented_train_rows(_planted())


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


def _twinned(X):
    """``X`` beside a copy of itself: every exact gain tie between twins must
    break on the lower feature index."""
    return np.hstack([X, X])


def _blocked():
    # 525 distinct values per column: more than MAX_BINS, so the columns are binned
    return planted_world(n_words=700, dim=16, seed=5)


def _blocked_pair_features():
    X, y = _augmented_train_rows(_blocked())
    return _twinned(X), y


def _tied():
    """:func:`_blocked` with its vectors rounded: distinct words share values
    (-0.0 and 0.0 among them), over MAX_BINS distinct ones in some columns
    and under it in others."""
    world = _blocked()
    M = world.table.matrix
    world.table = EmbeddingTable(world.table.words, np.hstack([M[:, :8].round(1),
                                                               M[:, 8:].round(2)]))
    return world


def _shared():
    """Groups of 20 words, every two of them a pair: each train word is in 19
    train pairs, so each pair column holds it in 19 rows, and its 460
    distinct words, over MAX_BINS, are cut by their row counts."""
    return planted_world(n_words=600, dim=8, group_size=20, seed=5)


def _blocked_special_values():
    # small integers and two huge values whose midpoint overflows to inf
    rng = np.random.default_rng(8)
    X = rng.choice([0.0, 1.0, 2.0, 1e308, 1.7e308], size=(2100, 32))
    y = ((X[:, 0] > 1.0) ^ (X[:, 5] == 1.7e308)).astype(float)
    return _twinned(X), y


@pytest.mark.parametrize("max_depth", [0, 1, 2, 3])
@pytest.mark.parametrize("fixture", [_planted_pair_features, _xor, _continuous,
                                     _small_integers, _constant_columns,
                                     _blocked_pair_features, _blocked_special_values])
def test_trees_match_masked_reference_bit_for_bit(fixture, max_depth):
    X, y = fixture()
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    model = train_boosted_trees(X, y, rounds=8, shrinkage=0.3, max_depth=max_depth)
    wide = [len(np.unique(column)) > MAX_BINS for column in X.T]
    if not any(wide):  # one bin per value: the exact search's candidates
        reference = _reference_trees(X, y, 8, 0.3, max_depth)
    else:  # the exact search over the bins, its thresholds mapped back to values
        Xc, lower, upper = _code_matrix(X)
        rows = np.arange(len(y))
        reference = [_to_values(t, Xc, lower, upper, rows)
                     for t in _reference_trees(Xc, y, 8, 0.3, max_depth)]
    assert (fixture is _blocked_pair_features) == all(wide)
    assert [_bits(t) for t in model.trees] == [_bits(t) for t in reference]


@pytest.mark.parametrize("max_depth", [0, 1, 2, 3])
@pytest.mark.parametrize("world", [_planted, _blocked, _tied, _shared])
def test_accuracy_table_bins_pairs_as_the_augmented_matrix(monkeypatch, world, max_depth):
    """The accuracy table bins each pair column straight from the table: its
    codes, bin edges and trees are those of the order-augmented matrix that
    featurize_pair lays out, binned whole and fit by train_boosted_trees."""
    world = world()
    fits = []

    def boost(*args, **kwargs):
        fits.append((args, boosting._boost(*args, **kwargs)))
        return fits[-1][1]

    monkeypatch.setattr(evaluation, "_boost", boost)
    split = split_pairs(world.pairs)
    settings = {"rounds": 8, "shrinkage": 0.3, "max_depth": max_depth}
    build_accuracy_table(world.table, world.table, world.table, split.train, split.test,
                         boosted_config=settings)
    X, y = _augmented_train_rows(world)
    codes, lower, upper = (np.array(a) for a in zip(*(boosting._bin(x) for x in X.T)))
    reference = train_boosted_trees(X, y, **settings)
    assert len(fits) == 3
    for (pair_codes, pair_lower, pair_upper, labels), model in fits:
        assert pair_codes.tobytes() == codes.tobytes()
        # -0.0 and 0.0 share a bin in the order argsort gives them, so the
        # edges of that bin may differ in the sign of their zero alone
        assert np.array_equal(pair_lower, lower) and np.array_equal(pair_upper, upper)
        assert np.array_equal(labels, y)
        assert model.base_score.hex() == reference.base_score.hex()
        assert [_bits(t) for t in model.trees] == [_bits(t) for t in reference.trees]


def _fit_peak_over_input():
    """Peak traced memory of a 3-round fit on 6,000 x 64 pair features, over
    the input's bytes."""
    X, y = _augmented_train_rows(planted_world(n_words=2000, dim=32, seed=1))
    assert X.shape == (6000, 64)
    tracemalloc.start()
    try:
        train_boosted_trees(X, y, rounds=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / X.nbytes


@pytest.mark.parametrize("max_depth", [1, 2, 3])
def test_rows_without_hessian_match_masked_reference(max_depth):
    # a huge shrinkage saturates p to exactly 0 or 1 after one round, so
    # later nodes hold rows with h == 0 that count as rows all the same,
    # the root of a depth-1 tree among them
    X, y = _continuous()
    model = train_boosted_trees(X, y, rounds=4, shrinkage=40.0, max_depth=max_depth)
    p = boosting._sigmoid(model.base_score
                          + 40.0 * boosting._tree_predict(model.trees[0], X))
    assert np.any(p * (1.0 - p) == 0.0) and np.any(p * (1.0 - p) > 0.0)
    reference = _reference_trees(X, y, 4, 40.0, max_depth)
    assert [_bits(t) for t in model.trees] == [_bits(t) for t in reference]


def test_fit_peak_memory_stays_under_four_times_the_input():
    assert _fit_peak_over_input() < 4


def test_fit_peak_memory_stays_under_one_and_a_half_times_the_input():
    # the uint8 codes, a root-to-node path of node codes and one node's
    # histograms; the exact search's per-node sorted orders took 3.1x
    assert _fit_peak_over_input() < 1.5


# --- differential test against the split search that copied node codes -------
# The search as it was before it computed gains in place and before a node
# kept only its rows: each inner node copied its rows' codes with
# ``codes.compress``, and the gain was one expression of temporaries.

def _parent_best_split(codes, gn, hn):
    gl, hl = np.empty((2, len(codes), MAX_BINS))
    nonempty = np.empty((len(codes), MAX_BINS), dtype=bool)
    counted = hn.min() > 0.0
    for f, c in enumerate(codes):
        c = c.astype(np.intp)
        gl[f] = np.bincount(c, gn, MAX_BINS)
        hl[f] = np.bincount(c, hn, MAX_BINS)
        nonempty[f] = (hl[f] if counted else np.bincount(c, minlength=MAX_BINS)) > 0
    np.cumsum(gl, axis=1, out=gl)
    np.cumsum(hl, axis=1, out=hl)
    seen = np.cumsum(nonempty, axis=1)
    valid = nonempty & (seen < seen[:, -1:])
    if not valid.any():
        return None
    G, H = gl[:, -1:], hl[:, -1:]
    gain = gl * gl / (hl + H_EPS)
    gr, hr = G - gl, H - hl
    gain += gr * gr / (hr + H_EPS)
    gain -= G * G / (H + H_EPS)
    gain[~valid] = -np.inf
    f, b = divmod(int(np.argmax(gain)), MAX_BINS)
    return float(gain[f, b]), f, b


def _parent_build_tree(codes, rows, lower, upper, g, h, depth, out):
    gn, hn = g[rows], h[rows]
    split = _parent_best_split(codes, gn, hn) if depth > 0 else None
    if split is not None and split[0] <= GAIN_TOL:
        if depth < 2 or gn.min() >= 0.0 or gn.max() <= 0.0:
            split = None
    if split is None:
        out[rows] = value = -gn.sum() / (hn.sum() + H_EPS)
        return TreeNode(value=value)
    _, feature, b = split
    goes_left = codes[feature] <= b
    lo, hi = upper[feature, b], lower[feature, codes[feature, ~goes_left].min()]
    t = 0.5 * lo + 0.5 * hi
    left, right = (_parent_build_tree(codes.compress(keep, axis=1) if depth > 1 else None,
                                      rows[keep], lower, upper, g, h, depth - 1, out)
                   for keep in (goes_left, ~goes_left))
    return TreeNode(feature=feature, threshold=float(t if t < hi else lo), left=left, right=right)


def _random_fit(zero_hessian, seed):
    """Bin codes and edges of 600 rows of wide, few-valued and constant columns,
    with random gradients and hessians; every 97th hessian is zero if ``zero_hessian``."""
    rng, n = np.random.default_rng(seed), 600
    X = np.column_stack([rng.standard_normal((n, 3)), rng.integers(0, 4, size=(n, 2)),
                         np.full(n, 1.5)])
    codes, lower, upper = (np.array(a) for a in zip(*(boosting._bin(x) for x in X.T)))
    g, h = rng.standard_normal(n), rng.uniform(0.01, 0.25, n)
    if zero_hessian:
        h[::97] = 0.0
    return codes, lower, upper, g, h


def _hexed(split):
    return None if split is None else (split[0].hex(), split[1], split[2])


def _direct_split(codes, rows, gn, hn):
    """The search of the node of ``rows`` on its histograms summed directly."""
    hists = boosting._summed(codes, rows, gn, hn)
    return boosting._search(codes, rows, gn, hn, hists, keep=False)


def _root_tree(codes, rows, lower, upper, g, h, depth, out):
    """``_build_tree`` of the root, whose ``rows`` are every row, with its
    histograms summed as ``_boost`` sums them."""
    root = boosting._summed(codes, rows, g, h) if depth else None
    return boosting._build_tree(codes, rows, lower, upper, g, h, depth, out, root)


@pytest.mark.parametrize("zero_hessian", [False, True])
@pytest.mark.parametrize("size", [1, 2, 254, 255, 256, 599, 600])  # 600: the root
def test_best_split_matches_the_copying_search(zero_hessian, size):
    # one draw's best gain can round alike under a reordered expression: many draws
    for seed in range(20):
        codes, _, _, g, h = _random_fit(zero_hessian, seed)
        rng = np.random.default_rng(seed)
        if zero_hessian:  # row 0 has none, and its bin holds a row all the same
            rows = np.sort(np.r_[0, 1 + rng.choice(len(g) - 1, size - 1, replace=False)])
        else:
            rows = np.sort(rng.choice(len(g), size, replace=False))
        assert (h[rows].min() == 0.0) == zero_hessian
        split = _direct_split(codes, rows, g[rows], h[rows])
        assert _hexed(split) == _hexed(_parent_best_split(codes[:, rows], g[rows], h[rows]))
        assert (split is None) == (size == 1)


@pytest.mark.parametrize("zero_hessian", [False, True])
@pytest.mark.parametrize("max_depth", [0, 1, 2, 3])
def test_build_tree_matches_the_copying_search(zero_hessian, max_depth):
    for seed in range(5):
        codes, lower, upper, g, h = _random_fit(zero_hessian, seed)
        rows = np.arange(len(g))
        out, parent_out = np.empty(len(g)), np.empty(len(g))
        tree = _root_tree(codes, rows, lower, upper, g, h, max_depth, out)
        parent = _parent_build_tree(codes, rows, lower, upper, g, h, max_depth, parent_out)
        assert _bits(tree) == _bits(parent)
        assert out.tobytes() == parent_out.tobytes()
        assert sum(f >= 0 for f, _, _ in _bits(tree)) >= max_depth  # the nodes split


def test_direct_search_peak_memory_stays_under_six_histograms():
    # the gains are computed over the prefix sums in place: the copying
    # search's expression temporaries took 9.85 (d, MAX_BINS) float64 arrays
    rng = np.random.default_rng(5)
    d, n = 100, 15000
    codes = rng.integers(0, MAX_BINS, size=(d, n), dtype=np.uint8)
    rows, g, h = np.arange(n), rng.standard_normal(n), rng.uniform(0.01, 0.25, n)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        assert _direct_split(codes, rows, g, h) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - entry < 6 * d * MAX_BINS * 8


def _parent_summed(codes, rows, gn, hn):
    """A node's per-bin gradient and hessian sums and row counts as one
    ``np.bincount`` per feature took each, in row order."""
    g, h = np.empty((2, len(codes), MAX_BINS))
    counts = np.empty((len(codes), MAX_BINS), dtype=np.int32)
    for f in range(len(codes)):
        c = codes[f, rows].astype(np.intp)
        g[f] = np.bincount(c, gn, MAX_BINS)
        h[f] = np.bincount(c, hn, MAX_BINS)
        counts[f] = np.bincount(c, minlength=MAX_BINS)
    return g, h, counts


@pytest.mark.parametrize("size", [1, 2, 37, 600])  # 600: the root
def test_histogram_sums_are_the_row_order_bincounts(size):
    # zero hessians, -0.0 and subnormal gradients and huge and tiny values
    # in one bin, and bins that no row uses (codes 0-6 and 250-254 are unused)
    rng = np.random.default_rng(size)
    n = 600
    codes = rng.integers(7, 250, size=(4, n), dtype=np.uint8)
    codes[3] = rng.integers(7, 10, n)  # few bins, many rows each
    g = rng.standard_normal(n) * np.where(rng.random(n) < 0.1, 1e300, 1.0)
    g[::5] = -0.0
    g[1::7] = 5e-324 * rng.integers(-3, 4, n)[1::7]  # subnormal or zero
    h = rng.uniform(0.0, 0.25, n)
    h[::3] = 0.0
    rows = np.arange(n) if size == n else np.sort(rng.choice(n, size, replace=False))
    gn, hn = g[rows], h[rows]
    hists = boosting._summed(codes, rows, gn, hn)
    parent = _parent_summed(codes, rows, gn, hn)
    assert hists.g.tobytes() == parent[0].tobytes()
    assert hists.h.tobytes() == parent[1].tobytes()
    assert hists.counts.tobytes() == parent[2].tobytes()
    # given counts, only the sums are taken
    again = boosting._summed(codes, rows, gn, hn, parent[2])
    assert again.g.tobytes() == parent[0].tobytes() and again.h.tobytes() == parent[1].tobytes()


# --- derived histograms: the larger child is its parent's minus its sibling's --
# Derived sums differ from row-order sums in the last bits, so a derived node
# re-scores directly each feature that its gains' bound cannot rule out.

def _near_tie_fit(seed, n, zero_hessian=False):
    """Codes and edges of ``n`` rows whose features 1 and 2 hold the same rows
    in their top bin, so that splitting it off ties in exact arithmetic, and
    gradients that split on feature 0 first; every 7th hessian is zero if
    ``zero_hessian``."""
    rng = np.random.default_rng(seed)
    top = rng.random(n) < 0.3
    X = np.column_stack([rng.standard_normal(n), np.where(top, 9.0, rng.integers(0, 4, n)),
                         np.where(top, 9.0, rng.integers(0, 7, n)), rng.standard_normal(n)])
    codes, lower, upper = (np.array(a) for a in zip(*(boosting._bin(x) for x in X.T)))
    g = rng.standard_normal(n) - top + 4.0 * (X[:, 0] > 0.3)
    h = rng.uniform(0.01, 0.25, n)
    if zero_hessian:
        h[::7] = 0.0
    return codes, lower, upper, g, h


def test_near_tie_in_a_derived_child_is_rescored():
    codes, lower, upper, g, h = _near_tie_fit(seed=1, n=60)
    rows = np.arange(len(g))
    out, parent_out = np.empty(len(g)), np.empty(len(g))
    tree = _root_tree(codes, rows, lower, upper, g, h, 2, out)
    parent = _parent_build_tree(codes, rows, lower, upper, g, h, 2, parent_out)
    assert _bits(tree) == _bits(parent)
    assert out.tobytes() == parent_out.tobytes()
    # the larger child's derived sums alone would split on feature 2, not 1
    _, f, b = _direct_split(codes, rows, g, h)
    parts = rows[codes[f] <= b], rows[codes[f] > b]
    small, large = sorted(parts, key=len)
    derived = boosting._larger(boosting._summed(codes, rows, g, h),
                               boosting._summed(codes, small, g[small], h[small]))
    valid = boosting._prefix(derived.g, derived.h, derived.counts > 0)
    unverified = boosting._argmax(boosting._gains(derived.g, derived.h, valid)[0])
    direct = _direct_split(codes, large, g[large], h[large])
    assert (direct[1], unverified[1]) == (1, 2)
    assert (tree.left if len(parts[0]) > len(parts[1]) else tree.right).feature == 1


@pytest.mark.parametrize("zero_hessian", [False, True])
@pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 4])
def test_build_tree_with_derived_children_matches_the_copying_search(zero_hessian, max_depth):
    # depths 3 and 4 derive children from derived parents, whose errors chain
    for seed in range(5):
        codes, lower, upper, g, h = _near_tie_fit(seed, 600, zero_hessian)
        rows = np.arange(len(g))
        out, parent_out = np.empty(len(g)), np.empty(len(g))
        tree = _root_tree(codes, rows, lower, upper, g, h, max_depth, out)
        parent = _parent_build_tree(codes, rows, lower, upper, g, h, max_depth, parent_out)
        assert _bits(tree) == _bits(parent)
        assert out.tobytes() == parent_out.tobytes()


@pytest.mark.parametrize("zero_hessian", [False, True])
def test_derived_gains_stay_within_their_bound(zero_hessian):
    # three generations of derived sums, each against the same rows summed directly
    codes, _, _, g, h = _random_fit(zero_hessian, seed=3)
    rng = np.random.default_rng(3)
    rows = np.arange(len(g))
    hists = boosting._summed(codes, rows, g, h)
    for _ in range(3):
        small = np.sort(rng.choice(rows, len(rows) // 3, replace=False))
        rows = np.setdiff1d(rows, small)
        hists = boosting._larger(hists, boosting._summed(codes, small, g[small], h[small]))
        direct = boosting._summed(codes, rows, g[rows], h[rows])
        assert np.array_equal(hists.counts, direct.counts)
        gl, hl = hists.g.copy(), hists.h.copy()
        valid = boosting._prefix(gl, hl, hists.counts > 0)
        gain, bound = boosting._gains(gl, hl, valid, hists.gap(len(rows)))
        direct_valid = boosting._prefix(direct.g, direct.h, direct.counts > 0)
        assert np.array_equal(valid, direct_valid)
        exact = boosting._gains(direct.g, direct.h, direct_valid)[0]
        gain, exact, bound = gain[valid], exact[valid], bound[valid]
        assert np.all(np.abs(gain - exact) <= bound)
        assert np.any(gain != exact)  # the derived sums do differ


def test_term_bound_covers_every_move_within_its_margins():
    # where y + H_EPS <= c a move can reach a zero denominator: no finite bound
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2000)
    y = np.abs(rng.standard_normal(2000)) * np.where(np.arange(2000) % 2, 1.0, 1e-15)
    a, c = 1e-3, 1e-14
    bound = boosting._term_bound(x, y, a, c)
    assert np.array_equal(np.isinf(bound), y + H_EPS <= c)
    q = x * x / (y + H_EPS)
    for s in ([-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [0.5, -0.5]):
        with np.errstate(divide="ignore"):
            moved = (x + s[0] * a * np.sign(x)) ** 2 / (y + s[1] * c + H_EPS)
        assert np.all(np.abs(moved - q) <= bound * (1 + 1e-9))


def test_rows_without_hessian_rescore_derived_sums_near_zero(monkeypatch):
    # saturated rows (h == 0) leave prefix hessian sums within their bound of
    # zero: those gains have no finite bound, and their features are re-scored
    unbounded = []

    def term_bound(*args):
        bound = term_bound.wrapped(*args)
        unbounded.append(int(np.isinf(bound).sum()))
        return bound

    term_bound.wrapped = boosting._term_bound
    monkeypatch.setattr(boosting, "_term_bound", term_bound)
    X, y = _continuous()
    model = train_boosted_trees(X, y, rounds=4, shrinkage=40.0, max_depth=2)
    assert sum(unbounded) > 0
    reference = _reference_trees(X, y, 4, 40.0, 2)
    assert [_bits(t) for t in model.trees] == [_bits(t) for t in reference]


def test_build_tree_peak_memory_at_depth_two_stays_under_ten_histograms():
    # the root's histograms and their copy for its search, then the larger
    # child's derived ones held while the smaller child searches: measured
    # 8.84 (d, MAX_BINS) float64 arrays at this size, 9.51 while each node
    # kept its rows' gradients through its children's builds, and 7.05
    # without derivation
    rng = np.random.default_rng(5)
    d, n = 100, 15000
    codes = rng.integers(0, MAX_BINS, size=(d, n), dtype=np.uint8)
    rows, g, h = np.arange(n), rng.standard_normal(n), rng.uniform(0.01, 0.25, n)
    edges = np.tile(np.arange(MAX_BINS, dtype=np.float64), (d, 1))
    out = np.empty(n)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        tree = _root_tree(codes, rows, edges, edges, g, h, 2, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not tree.left.is_leaf and not tree.right.is_leaf
    assert peak - entry < 10 * d * MAX_BINS * 8


# --- binning -----------------------------------------------------------------

def _binning_fixture():
    """Columns: continuous (wide), rounded with ties (wide), exactly MAX_BINS
    and MAX_BINS + 1 distinct values, small integers, and constant."""
    rng = np.random.default_rng(12)
    n = 3000
    small = rng.choice([0.0, 1.0, 2.0], size=n)
    return np.column_stack([
        rng.standard_normal(n),
        np.round(rng.standard_normal(n) ** 3, 1),
        rng.permutation(np.arange(n) % MAX_BINS) * 0.5,
        rng.permutation(np.arange(n) % (MAX_BINS + 1)) * 0.5,
        small, np.full(n, 2.5)])


def test_bin_codes_ascend_with_value():
    X = _binning_fixture()
    for values in X.T:
        c, lower, upper = boosting._bin(values)
        assert c.dtype == np.uint8 and c.shape == values.shape
        assert lower.shape == upper.shape == (MAX_BINS,)
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(c[order].astype(int)) >= 0)  # monotone in value
        for v in np.unique(values):
            assert len(np.unique(c[values == v])) == 1  # equal values share a code
        used = np.unique(c)
        assert len(used) <= MAX_BINS
        assert np.array_equal(used, np.arange(len(used)))  # no empty bin between codes
        for b in used:
            assert lower[b] == values[c == b].min() and upper[b] == values[c == b].max()


def test_features_with_few_values_get_one_bin_per_value():
    X = _binning_fixture()
    for f in (2, 4, 5):
        x = X[:, f]
        distinct = np.unique(x)
        assert len(distinct) == (MAX_BINS, 3, 1)[(2, 4, 5).index(f)]
        # the code of each value is its rank among the distinct values
        assert np.array_equal(boosting._bin(x)[0], np.searchsorted(distinct, x))


def test_wide_features_get_bins_of_about_equal_row_count():
    X = _binning_fixture()
    for f in (0, 1, 3):
        x = X[:, f]
        c = boosting._bin(x)[0]
        step = math.ceil(len(x) / MAX_BINS)
        assert len(np.unique(x)) > MAX_BINS and len(np.unique(c)) <= MAX_BINS
        for b in np.unique(c):
            in_bin = x[c == b]
            # n / MAX_BINS rows, plus at most the rows of one value that the
            # next cut could not split
            largest_value = np.unique(in_bin, return_counts=True)[1].max()
            assert len(in_bin) <= step + largest_value
            if f == 0:  # all values distinct: the bins are as even as rounding allows
                assert len(in_bin) in (step - 1, step)


def _weighted_columns():
    """(words, weight) columns: wide and narrow, with rows of one word and of
    many, words that share a value, and a single word. No column holds both
    -0.0 and 0.0, whose bin edges follow argsort's order of the two."""
    rng = np.random.default_rng(21)
    wide = rng.standard_normal(900)
    heavy = rng.integers(1, 60, 900)
    return [(wide, heavy),
            (wide, np.ones(900, dtype=np.intp)),  # weight-1 words: the rows themselves
            (wide[:200], heavy[:200]),  # under MAX_BINS words
            (wide[:MAX_BINS + 1], heavy[:MAX_BINS + 1]),
            # words with equal values, over and under MAX_BINS values (+ 0.0
            # turns the -0.0 that rounding leaves into 0.0)
            (np.round(wide, 2) + 0.0, heavy),
            (np.round(wide[:300], 1) + 0.0, heavy[:300]),
            (np.array([2.5, 2.5, -1.0, 2.5]), np.array([3, 1, 7, 2])),
            (np.array([4.0]), np.array([5])),  # a single value
            (np.array([4.0, 4.0]), np.array([1, 9]))]


@pytest.mark.parametrize("case", range(9))
def test_weighted_bins_are_those_of_the_repeated_rows(case):
    words, weight = _weighted_columns()[case]
    codes, lower, upper = boosting._bin(words, weight)
    row_codes, row_lower, row_upper = boosting._bin(np.repeat(words, weight))
    assert codes.dtype == np.uint8 and codes.shape == words.shape
    assert np.repeat(codes, weight).tobytes() == row_codes.tobytes()
    assert lower.tobytes() == row_lower.tobytes() and upper.tobytes() == row_upper.tobytes()


def _node_sizes(node, X, rows):
    """Rows reaching each node of the tree, in preorder."""
    if node.is_leaf:
        return [len(rows)]
    left = X[rows, node.feature] <= node.threshold
    return ([len(rows)] + _node_sizes(node.left, X, rows[left])
            + _node_sizes(node.right, X, rows[~left]))


def test_no_child_is_empty_with_huge_neighbours():
    X, y = _blocked_special_values()
    model = train_boosted_trees(X, y, rounds=8, shrinkage=0.3, max_depth=3)
    sizes = [s for t in model.trees for s in _node_sizes(t, X, np.arange(len(y)))]
    # every tree splits twice down each side: the XOR of a small value and 1.7e308
    assert len(sizes) == 8 * 7 and min(sizes) > 0
    thresholds = [float.fromhex(t) for tree in model.trees for _, t, _ in _bits(tree) if t]
    assert any(1e308 <= t < 1.7e308 for t in thresholds)  # the midpoint would overflow


def test_threshold_lies_between_neighbours_without_overflow():
    model = train_boosted_trees(np.array([[1e308], [1.7e308]]), np.array([0.0, 1.0]),
                                rounds=1, max_depth=1)
    root = model.trees[0]
    assert 1e308 <= root.threshold < 1.7e308
    assert root.left.value < 0.0 < root.right.value
    # adjacent floats: the rounded midpoint would be the upper value itself
    a, b = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
    assert 0.5 * (a + b) == b
    model = train_boosted_trees(np.array([[a], [b]]), np.array([0.0, 1.0]),
                                rounds=1, max_depth=1)
    root = model.trees[0]
    assert root.threshold == a
    assert root.left.value < 0.0 < root.right.value
