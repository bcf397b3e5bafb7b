"""Tests for the measurement suite: distance/shift reports, extreme pairs,
pair featurization, and the two pair classifiers."""
import io

import numpy as np
import pytest

from contrastmap.embeddings import EmbeddingTable, cosine_distance
from contrastmap.boosting import boosted_proba, train_boosted_trees
from contrastmap.evaluation import (LINEAR_DEFAULTS, _pair_features,
                                    build_accuracy_table, classify_accuracy,
                                    distance_report, extreme_pairs,
                                    featurize_pair, shift_report, train_linear)
from contrastmap.network import _sigmoid, init_params
from contrastmap.pairs import ANTONYM, SYNONYM, LabeledPair, PairSet, split_pairs
from contrastmap.synthetic import planted_world
from contrastmap.training import concat_embeddings, transform_vocabulary


def _table(entries):
    """A table with one row per (word, values) entry."""
    return EmbeddingTable(dimension=len(entries[0][1]), words=[w for w, _ in entries],
                          matrix=np.array([v for _, v in entries], dtype=float))


def _linear(model):
    """The probability function of a linear model ``(w, b)``."""
    w, b = model
    return lambda X: _sigmoid(X @ w + b)


def _pairs(*specs):
    return PairSet(pairs=[LabeledPair(a, b, rel) for a, b, rel in specs])


BASIC_TABLE = _table([("a", [1, 0]), ("b", [1, 0]), ("c", [-1, 0])])
BASIC_PAIRS = _pairs(("a", "b", SYNONYM), ("a", "c", ANTONYM))


def test_distance_report_means():
    report = distance_report(BASIC_TABLE, BASIC_PAIRS)
    assert report.syn_mean == pytest.approx(0.0, abs=1e-12)
    assert report.ant_mean == pytest.approx(2.0, abs=1e-12)
    assert report.pair_count == 2


def test_distance_report_histogram_conservation():
    rng = np.random.default_rng(0)
    words = [(f"w{i}", rng.standard_normal(4)) for i in range(40)]
    table = _table(words)
    specs = []
    for i in range(0, 40, 2):
        rel = SYNONYM if i % 4 == 0 else ANTONYM
        specs.append((f"w{i}", f"w{i + 1}", rel))
    report = distance_report(table, _pairs(*specs))
    assert report.syn_counts.sum() == 10
    assert report.ant_counts.sum() == 10


def test_distance_report_unresolved_counted():
    pairs = _pairs(("a", "b", SYNONYM), ("a", "zzz", ANTONYM))
    report = distance_report(BASIC_TABLE, pairs)
    assert report.unresolved == 1
    assert report.pair_count == 1


def test_distance_report_no_pairs_errors():
    with pytest.raises(ValueError, match="no resolvable pairs"):
        distance_report(BASIC_TABLE, _pairs(("x", "y", SYNONYM)))


def test_distance_report_csv_shape():
    out = io.StringIO()
    distance_report(BASIC_TABLE, BASIC_PAIRS).write_csv(out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,syn_count,ant_count"
    assert len(lines) == 101


def _reference_distance_report(table, pairs):
    # the per-word lookups and per-pair binning that distance_report replaced
    syn_counts, ant_counts = np.zeros(100, dtype=np.int64), np.zeros(100, dtype=np.int64)
    syn_d, ant_d, unresolved = [], [], 0
    for p in pairs:
        u, v = table.lookup(p.left), table.lookup(p.right)
        if u is None or v is None:
            unresolved += 1
            continue
        d = cosine_distance(u, v)
        counts, dists = (syn_counts, syn_d) if p.relation == SYNONYM else (ant_counts, ant_d)
        counts[min(int(d / 0.02), 99)] += 1
        dists.append(d)
    return {"syn_counts": syn_counts.tolist(), "ant_counts": ant_counts.tolist(),
            "syn_mean": float(np.mean(syn_d)), "syn_std": float(np.std(syn_d)),
            "ant_mean": float(np.mean(ant_d)), "ant_std": float(np.std(ant_d)),
            "pair_count": len(syn_d) + len(ant_d), "unresolved": unresolved}


def _reference_shift_records(before, after, pairs):
    # the per-word lookups that shift_report replaced
    records, unresolved = [], 0
    for p in pairs:
        ub, vb = before.lookup(p.left), before.lookup(p.right)
        ua, va = after.lookup(p.left), after.lookup(p.right)
        if ub is None or vb is None or ua is None or va is None:
            unresolved += 1
            continue
        db, da = cosine_distance(ub, vb), cosine_distance(ua, va)
        records.append((p.left, p.right, p.relation, db, da, da - db))
    return records, unresolved


def _without_every(table, k, offset):
    keep = [i % k != offset for i in range(len(table))]
    return EmbeddingTable(dimension=table.dimension,
                          words=[w for w, f in zip(table.words, keep) if f],
                          matrix=table.matrix[keep])


def test_reports_match_per_word_lookups():
    world = planted_world(n_words=400, dim=12, seed=9)
    new = transform_vocabulary(init_params([12, 10, 3], seed=2), world.table)
    before, after = _without_every(world.table, 7, 0), _without_every(new, 11, 3)
    expected = _reference_distance_report(before, world.pairs)
    report = distance_report(before, world.pairs)
    assert expected["unresolved"] > 0
    assert {**vars(report), "syn_counts": report.syn_counts.tolist(),
            "ant_counts": report.ant_counts.tolist()} == expected
    assert report.syn_counts.sum() + report.ant_counts.sum() == report.pair_count
    records, unresolved = _reference_shift_records(before, after, world.pairs)
    shifts = shift_report(before, after, world.pairs)
    assert unresolved > report.unresolved
    assert shifts.records == records and shifts.unresolved == unresolved


def test_shift_report_identity_is_zero():
    report = shift_report(BASIC_TABLE, BASIC_TABLE, BASIC_PAIRS)
    assert report.syn_mean_shift == 0.0
    assert report.ant_mean_shift == 0.0
    assert all(r[5] == 0.0 for r in report.records)


def test_shift_report_records_recompute():
    after = _table([("a", [1, 0]), ("b", [0, 1]), ("c", [1, 0])])
    report = shift_report(BASIC_TABLE, after, BASIC_PAIRS)
    for _, _, _, db, da, sh in report.records:
        assert sh == da - db


def test_extreme_pairs_ordering_and_ties():
    after = _table([("a", [1, 0]), ("b", [1, 0]), ("c", [1, 0]),
                    ("d", [1, 0]), ("e", [1, 0])])
    before = after
    pairs = _pairs(("a", "b", ANTONYM), ("a", "c", ANTONYM),
                   ("d", "e", SYNONYM))
    result = extreme_pairs(shift_report(before, after, pairs), n=10)
    # all distances equal: lexicographic order decides
    ants = [(e["left"], e["right"]) for e in result["closest_antonyms"]]
    assert ants == [("a", "b"), ("a", "c")]
    assert len(result["farthest_synonyms"]) == 1  # truncated to available


def test_extreme_pairs_n_one():
    after = _table([("a", [1, 0]), ("b", [0.9, 0.1]), ("c", [0, 1]),
                    ("d", [1, 0]), ("e", [-1, 0.2])])
    pairs = _pairs(("a", "b", ANTONYM), ("a", "c", ANTONYM),
                   ("d", "e", SYNONYM))
    result = extreme_pairs(shift_report(after, after, pairs), n=1)
    assert result["closest_antonyms"][0]["left"] == "a"
    assert result["closest_antonyms"][0]["right"] == "b"


def test_featurize_pair():
    assert np.array_equal(featurize_pair([1, 2], [3, 4]), [1, 2, 3, 4])
    u, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    assert sorted(featurize_pair(u, v)) == sorted(featurize_pair(v, u))
    with pytest.raises(ValueError, match="mismatch"):
        featurize_pair([1, 2], [1, 2, 3])
    U, V = np.arange(6.0).reshape(3, 2), -np.arange(6.0).reshape(3, 2)
    assert np.array_equal(featurize_pair(U, V),
                          [featurize_pair(u, v) for u, v in zip(U, V)])


def _reference_pair_features(table, pairs, augment):
    # the per-pair loop that _pair_features replaced
    feats, labels = [], []
    for p in pairs:
        u, v = table.lookup(p.left), table.lookup(p.right)
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


@pytest.mark.parametrize("augment", [False, True])
def test_pair_features_match_per_pair_loop(augment):
    world = planted_world(n_words=300, dim=8, seed=5)
    # drop every seventh word so some pairs do not resolve
    kept = [w for i, w in enumerate(world.table.words) if i % 7]
    table = EmbeddingTable(dimension=8, words=kept,
                           matrix=world.table.matrix[[i % 7 != 0 for i in range(300)]])
    X, y = _pair_features(table, world.pairs, augment)
    X_ref, y_ref = _reference_pair_features(table, world.pairs, augment)
    assert len(y_ref) < (2 if augment else 1) * len(world.pairs)
    assert X.shape == X_ref.shape and X.dtype == X_ref.dtype
    assert X.tobytes() == X_ref.tobytes()
    assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
    with pytest.raises(ValueError, match="no resolvable pairs"):
        _pair_features(table, _pairs(("zz", "a", SYNONYM)), augment)


def _reference_train_linear(X, y, config):
    # the fit train_linear ran on every input before it fit order-augmented
    # pair features on u + v: full-batch descent over the (2m, 2d) matrix
    cfg = {**LINEAR_DEFAULTS, **(config or {})}
    n, d = X.shape
    w, b = np.zeros(d), 0.0
    for _ in range(int(cfg["epochs"])):
        p = _sigmoid(X @ w + b)
        err = (p - y) / n
        gw = X.T @ err + cfg["l2"] * w
        gb = err.sum()
        w -= cfg["lr"] * gw
        b -= cfg["lr"] * gb
    return w, b


@pytest.fixture(scope="module")
def pair_spaces():
    """Order-augmented train and plain test pair features per space."""
    world = planted_world(n_words=600, dim=16, seed=3)
    split = split_pairs(world.pairs)
    new = transform_vocabulary(init_params([16, 12, 4], seed=1), world.table)
    spaces = {"raw": world.table, "new": new,
              "concatenated": concat_embeddings(world.table, new)}
    features = {space: (_pair_features(table, split.train, augment=True),
                        _pair_features(table, split.test, augment=False))
                for space, table in spaces.items()}
    rng = np.random.default_rng(7)
    U, V = rng.standard_normal((300, 5)), rng.standard_normal((300, 5))
    y = (np.sum(U * V, axis=1) + 0.5 * U[:, 0] > 0).astype(int)
    X = np.concatenate([U, V], axis=1)
    X_aug = np.empty((600, 10))
    X_aug[::2], X_aug[1::2] = X, np.concatenate([V, U], axis=1)
    features["random"] = ((X_aug, np.repeat(y, 2)), (X, y))
    return features


@pytest.mark.parametrize("space,config", [
    ("raw", None), ("new", None), ("concatenated", None), ("random", None),
    ("raw", {"epochs": 0}), ("new", {"lr": 0.7}), ("concatenated", {"l2": 0.0}),
    ("random", {"epochs": 40, "lr": 1.5, "l2": 0.0})])
def test_linear_on_pair_sums_matches_augmented_fit(pair_spaces, space, config):
    (X, y), (X_test, y_test) = pair_spaces[space]
    model = train_linear(X, y, config)
    reference = _reference_train_linear(X, y.astype(float), config)
    (w, b), (w_ref, b_ref) = model, reference
    d = X.shape[1] // 2
    assert len(w) == len(w_ref) == 2 * d
    assert np.array_equal(w[:d], w[d:])
    got = np.append(w, b)
    want = np.append(w_ref, b_ref)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert (classify_accuracy(_linear(model), X_test, y_test)
            == classify_accuracy(_linear(reference), X_test, y_test))


def test_linear_on_other_features_is_the_augmented_fit_bit_for_bit(pair_spaces):
    (X, y), _ = pair_spaces["random"]
    y = y.astype(float)
    flipped = y.copy()
    flipped[1] = 1.0 - flipped[1]  # one pair whose two rows disagree
    for features, labels in [(X[:, :9], y), (X[:-1], y[:-1]), (X, flipped)]:
        w, b = train_linear(features, labels)
        w_ref, b_ref = _reference_train_linear(features, labels, None)
        assert w.tobytes() == w_ref.tobytes()
        assert b == b_ref


def test_train_linear_separable():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 2))
    y = (X[:, 0] > 0).astype(float)
    X[:, 0] += np.where(y == 1, 1.0, -1.0)  # widen the margin
    model = train_linear(X, y)
    pred = (_linear(model)(X) >= 0.5).astype(float)
    assert np.mean(pred == y) == 1.0


def test_train_linear_zero_epochs():
    X = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 0.0])
    model = train_linear(X, y, {"epochs": 0})
    w, b = model
    assert np.all(w == 0.0) and b == 0.0
    assert np.all(_linear(model)(X) == 0.5)


def test_train_linear_single_class():
    with pytest.raises(ValueError, match="single-class"):
        train_linear(np.zeros((3, 2)), np.ones(3))


def test_linear_threshold_invariant_to_positive_rescaling():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 3))
    y = (X @ np.array([1.0, -2.0, 0.5]) > 0).astype(float)
    m1 = train_linear(X, y, {"l2": 0.0})
    m2 = train_linear(10.0 * X, y, {"l2": 0.0, "lr": 0.001})
    p1 = (_linear(m1)(X) >= 0.5)
    p2 = (_linear(m2)(10.0 * X) >= 0.5)
    assert np.mean(p1 == p2) > 0.95  # decision agreement, not value equality


def test_classify_accuracy_perfect_and_constant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 2))
    X = np.concatenate([X, X], axis=1)  # symmetric pair features
    y = (X[:, 0] > 0).astype(int)
    model = train_linear(X, y.astype(float))
    assert classify_accuracy(_linear(model), X, y) > 0.9
    constant = train_linear(X, y.astype(float), {"epochs": 0})
    # all probabilities 0.5 -> every prediction is "positive"
    assert classify_accuracy(_linear(constant), X, y) == pytest.approx(np.mean(y == 1))


def test_classify_accuracy_order_invariance():
    rng = np.random.default_rng(4)
    U = rng.standard_normal((30, 3))
    V = rng.standard_normal((30, 3))
    X = np.concatenate([U, V], axis=1)
    X_swapped = np.concatenate([V, U], axis=1)
    y = rng.integers(0, 2, size=30)
    trees = train_boosted_trees(X, y.astype(float), rounds=10)
    proba = lambda X: boosted_proba(trees, X)
    assert classify_accuracy(proba, X, y) == classify_accuracy(proba, X_swapped, y)


def test_build_accuracy_table_leakage():
    table = BASIC_TABLE
    train = _pairs(("a", "b", SYNONYM))
    test = _pairs(("a", "c", ANTONYM))  # shares "a" with train
    with pytest.raises(ValueError, match="leakage"):
        build_accuracy_table(table, table, table, train, test)


def test_build_accuracy_table_shape():
    rng = np.random.default_rng(5)
    words = [(f"w{i}", rng.standard_normal(3)) for i in range(24)]
    table = _table(words)
    specs_train = [(f"w{i}", f"w{i + 1}", SYNONYM if i % 4 == 0 else ANTONYM)
                   for i in range(0, 12, 2)]
    specs_test = [(f"w{i}", f"w{i + 1}", SYNONYM if i % 4 == 0 else ANTONYM)
                  for i in range(12, 24, 2)]
    result = build_accuracy_table(table, table, table,
                                  _pairs(*specs_train), _pairs(*specs_test),
                                  boosted_config={"rounds": 5})
    assert set(result.accuracies) == {"raw", "new", "concatenated"}
    for row in result.accuracies.values():
        assert set(row) == {"linear", "boosted"}
        assert all(0.0 <= v <= 1.0 for v in row.values())
    text = result.format_text()
    assert text.startswith("space")
    assert "concatenated" in text
