"""Tests for the measurement suite: distance/shift reports, extreme pairs,
pair featurization, and the two pair classifiers."""
import io
import tracemalloc

import numpy as np
import pytest

from contrastmap.embeddings import EmbeddingTable, cosine_distance, gather_rows
from contrastmap.errors import InputError
from contrastmap import evaluation
from contrastmap.boosting import boosted_proba, train_boosted_trees
from contrastmap.evaluation import (BOOSTED_DEFAULTS, LINEAR_DEFAULTS, _pair_rows, _pair_sums,
                                    _row_distances, build_accuracy_table, classify_accuracy,
                                    distance_report, extreme_pairs,
                                    featurize_pair, shift_report, train_linear)
from contrastmap.network import _sigmoid, init_params
from contrastmap.pairs import ANTONYM, SYNONYM, LabeledPair, PairSet, split_pairs
from contrastmap.synthetic import planted_world
from contrastmap.training import concat_embeddings, transform_vocabulary


def _table(entries):
    """A table with one row per (word, values) entry."""
    return EmbeddingTable(words=[w for w, _ in entries],
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
    vectors = dict(zip(table.words, table.matrix))
    for p in pairs:
        u, v = vectors.get(p.left), vectors.get(p.right)
        if u is None or v is None:
            unresolved += 1
            continue
        d = _reference_cosine_distance(u, v)
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
    old, new = dict(zip(before.words, before.matrix)), dict(zip(after.words, after.matrix))
    for p in pairs:
        ub, vb = old.get(p.left), old.get(p.right)
        ua, va = new.get(p.left), new.get(p.right)
        if ub is None or vb is None or ua is None or va is None:
            unresolved += 1
            continue
        db, da = _reference_cosine_distance(ub, vb), _reference_cosine_distance(ua, va)
        records.append((p.left, p.right, p.relation, db, da, da - db))
    return records, unresolved


def _without_every(table, k, offset):
    keep = [i % k != offset for i in range(len(table))]
    return EmbeddingTable(words=[w for w, f in zip(table.words, keep) if f],
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


def _reference_unit_max(u):
    # frozen: the rescaling helper of the scalar cosine distance that the
    # row-block one replaced
    scale = float(np.max(np.abs(u))) if u.size else 0.0
    if scale == 0.0:
        raise ValueError("degenerate vector")
    return u / scale


def _reference_cosine_distance(u, v):
    # frozen: the scalar cosine distance, one pair at a time
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    with np.errstate(over="ignore"):
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
    if not (1e-150 < nu < 1e150):
        u = _reference_unit_max(u)
        nu = np.linalg.norm(u)
    if not (1e-150 < nv < 1e150):
        v = _reference_unit_max(v)
        nv = np.linalg.norm(v)
    d = 1.0 - float(np.dot(u, v)) / float(nu * nv)
    return min(max(d, 0.0), 2.0)


def _scalar_distances(M, left, right):
    return np.array([_reference_cosine_distance(M[i], M[j]) for i, j in zip(left, right)])


@pytest.mark.parametrize("dim", [4, 40, 50, 300, 340])
def test_row_distances_equal_the_scalar_distance_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    # rows of spread magnitudes; from 40 dimensions on, the pairs fill more than one block
    M = rng.standard_normal((500, dim)) * 10.0 ** rng.integers(-8, 9, size=(500, 1))
    left, right = rng.integers(0, 500, size=(2, 2000))
    assert _row_distances(M, left, right).tobytes() == _scalar_distances(M, left, right).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2, 4, 40, 50, 300, 340])
def test_cosine_distance_of_row_blocks_equals_the_scalar_reference(dim):
    rng = np.random.default_rng(100 + dim)
    # rows from 1e-200 to 1e200: many norms leave (1e-150, 1e150), some overflow
    M = rng.standard_normal((400, dim)) * 10.0 ** rng.integers(-200, 201, size=(400, 1))
    left, right = rng.integers(0, 400, size=(2, 1500))
    expected = _scalar_distances(M, left, right).tobytes()
    assert cosine_distance(M[left], M[right]).tobytes() == expected
    assert _row_distances(M, left, right).tobytes() == expected
    singles = [cosine_distance(M[i], M[j]) for i, j in zip(left[:200], right[:200])]
    assert all(type(d) is float for d in singles)
    assert np.array(singles).tobytes() == expected[:200 * 8]


_EXTREME_PAIRS = [
    ([1.2775512486188477e-160], [3.0]), ([1.2775512486188477e-160 / 128], [3.0]),
    ([5e-324, 0.0], [0.0, 1e300]), ([1e200, 1e200], [1.0, 1.0]),
    ([1e-170, -1e-170], [-2.0, 2.0]), ([1e308, -1e308, 1e308], [1e308, 1e308, 5e-324]),
    ([5e-324, -5e-324], [1e-300, 2e-300]), ([1e-150, 0.0], [0.0, 1e150]),
    ([1.5e-150, 2.0], [-1e155, 3e-160]), ([7.0], [-1e-310]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u,v", _EXTREME_PAIRS)
def test_cosine_distance_of_extreme_pairs_equals_the_scalar_reference(u, v):
    expected = _reference_cosine_distance(u, v)
    assert cosine_distance(u, v) == expected and type(cosine_distance(u, v)) is float
    assert cosine_distance(np.array([u]), np.array([v])).tolist() == [expected]
    assert cosine_distance(v, u) == _reference_cosine_distance(v, u)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows,pairs", [
    ([[1.2775512486188477e-160], [1.2775512486188477e-160 / 128], [3.0]], [(0, 2), (1, 2)]),
    ([[5e-324, 0.0], [0.0, 1e300], [1e200, 1e200], [1.0, 1.0], [1e-170, -1e-170],
      [-2.0, 2.0], [0.6, 0.8]], [(0, 1), (2, 3), (4, 5), (6, 3), (3, 6), (2, 4)]),
], ids=["one-dim", "two-dim"])
def test_row_distances_rescale_extreme_magnitudes_as_the_scalar_distance(rows, pairs):
    # the cases of test_cosine_distance_extreme_magnitudes, among rows in range
    M = np.array(rows)
    left, right = np.array(pairs).T
    assert _row_distances(M, left, right).tobytes() == _scalar_distances(M, left, right).tobytes()


@pytest.mark.parametrize("M", [np.array([[1.0, 2.0], [0.0, 0.0]]), np.zeros((2, 0))],
                         ids=["zero-row", "no-columns"])
def test_row_distances_reject_a_zero_norm_row(M):
    with pytest.raises(ValueError, match="degenerate vector"):
        _row_distances(M, np.array([0, 0]), np.array([0, 1]))


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
    # the per-pair loop that resolving pairs to row indices replaced
    feats, labels = [], []
    vectors = dict(zip(table.words, table.matrix))
    for p in pairs:
        u, v = vectors.get(p.left), vectors.get(p.right)
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
    table = _without_every(world.table, 7, 0)  # so some pairs do not resolve
    found, syn, ((left, right),) = _pair_rows([table], world.pairs)
    y = syn.astype(int)
    if augment:  # rows 2i and 2i + 1 are pair i in both orders
        left, right = (np.column_stack([left, right]).ravel(),
                       np.column_stack([right, left]).ravel())
        y = np.repeat(y, 2)
    X = featurize_pair(table.matrix[left], table.matrix[right])
    X_ref, y_ref = _reference_pair_features(table, world.pairs, augment)
    assert np.count_nonzero(found) == len(syn) < len(world.pairs)
    assert X.shape == X_ref.shape and X.dtype == X_ref.dtype
    assert X.tobytes() == X_ref.tobytes()
    assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
    with pytest.raises(ValueError, match="no resolvable pairs"):
        _pair_rows([table], _pairs(("zz", "a", SYNONYM)))


def _descent_fixed_point(X, y, copies=1, lr=0.1, max_epochs=100_000):
    # the fit train_linear ran before it was solved by Newton's method: full-
    # batch descent from zero at the old learning rate, here run on until an
    # epoch changes no bit of (w, b) rather than stopped after 500 epochs
    n, l2 = copies * len(y), LINEAR_DEFAULTS["l2"]
    w, b = np.zeros(X.shape[1]), 0.0
    for _ in range(max_epochs):
        err = (_sigmoid(X @ w + b) - y) / n
        w_next = w - lr * (X.T @ err + l2 * w)
        b_next = b - lr * copies * err.sum()
        if np.array_equal(w_next, w) and b_next == b:
            return w, b
        w, b = w_next, b_next
    raise AssertionError("descent reached no fixed point")


def _gradient(X, y, model, l2):
    """The full gradient, bias last, of train_linear's objective at ``model``."""
    w, b = model
    r = _sigmoid(X @ w + b) - y
    return np.append(X.T @ r / len(y) + l2 * w, r.mean())


def _count_solves(monkeypatch):
    """A list that gains an entry at each later np.linalg.solve call: one per
    Newton step of train_linear."""
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    return solves


def _separable(n=200, d=20, scale=30.0, seed=220):
    """Linearly separable rows with wide features: only the L2 penalty bounds
    the optimum, whose weights are large."""
    rng = np.random.default_rng(seed)
    X = scale * rng.standard_normal((n, d))
    return X, (X @ rng.standard_normal(d) > 0).astype(float)


@pytest.fixture(scope="module")
def pair_tables():
    """The raw, new and concatenated tables of one planted world, and its split."""
    world = planted_world(n_words=600, dim=16, seed=3)
    new = transform_vocabulary(init_params([16, 12, 4], seed=1), world.table)
    return ({"raw": world.table, "new": new,
             "concatenated": concat_embeddings(world.table, new)},
            split_pairs(world.pairs))


@pytest.fixture(scope="module")
def pair_spaces(pair_tables):
    """Order-augmented train and plain test pair features per space, built
    by the per-pair loop."""
    tables, split = pair_tables
    features = {space: (_reference_pair_features(table, split.train, augment=True),
                        _reference_pair_features(table, split.test, augment=False))
                for space, table in tables.items()}
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
    ("raw", {"l2": 1e-2}), ("new", {"l2": 1.0}), ("concatenated", {"l2": 1e-6}),
    ("random", {"l2": 1e-3})])
def test_linear_on_pair_sums_matches_augmented_fit(pair_spaces, space, config):
    l2 = (config or LINEAR_DEFAULTS)["l2"]
    (X, y), (X_test, y_test) = pair_spaces[space]
    d = X.shape[1] // 2
    w, b = train_linear(X[::2, :d] + X[::2, d:], y[::2], l2=2 * l2)
    w_ref, b_ref = train_linear(X, y, l2=l2)  # full width, on both orders of every pair
    assert len(w) == d and len(w_ref) == 2 * d
    got = np.append(np.concatenate([w, w]), b)
    want = np.append(w_ref, b_ref)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    pred = _sigmoid((X_test[:, :d] + X_test[:, d:]) @ w + b) >= 0.5
    assert (np.mean(pred == y_test)
            == classify_accuracy(_linear((w_ref, b_ref)), X_test[:, :d], X_test[:, d:],
                                 y_test))


def _reference_accuracy_table(tables, train_pairs, test_pairs, rounds):
    # the table as built before the linear column fit u + v itself: the
    # augmented rows, the full-width linear fit, order-averaged scores
    accuracies, counts = {}, {}
    for space, table in tables.items():
        Xtr, ytr = _reference_pair_features(table, train_pairs, augment=True)
        Xte, yte = _reference_pair_features(table, test_pairs, augment=False)
        U, V = np.hsplit(Xte, 2)
        linear = train_linear(Xtr, ytr)
        trees = train_boosted_trees(Xtr, ytr, rounds=rounds,
                                    shrinkage=BOOSTED_DEFAULTS["shrinkage"],
                                    max_depth=BOOSTED_DEFAULTS["max_depth"])
        accuracies[space] = {
            "linear": classify_accuracy(_linear(linear), U, V, yte),
            "boosted": classify_accuracy(lambda X: boosted_proba(trees, X), U, V, yte)}
        counts[space] = {"train_examples": len(ytr), "test_pairs": len(yte)}
    return accuracies, counts


@pytest.mark.parametrize("thinned", [(), ("new",), ("raw", "new", "concatenated")],
                         ids=["none", "new", "all"])
def test_accuracy_table_matches_augmented_reference(pair_tables, thinned):
    tables, split = pair_tables
    # drop every seventh word of the thinned tables so some pairs do not resolve
    tables = {space: _without_every(table, 7, 0) if space in thinned else table
              for space, table in tables.items()}
    result = build_accuracy_table(tables["raw"], tables["new"], tables["concatenated"],
                                  split.train, split.test, boosted_config={"rounds": 20})
    accuracies, counts = _reference_accuracy_table(tables, split.train, split.test, 20)
    assert result.accuracies == accuracies
    assert result.counts == counts
    for space in tables:
        assert (counts[space]["train_examples"] < 2 * len(split.train)) == (space in thinned)


def test_train_linear_separable():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 2))
    y = (X[:, 0] > 0).astype(float)
    X[:, 0] += np.where(y == 1, 1.0, -1.0)  # widen the margin
    model = train_linear(X, y)
    pred = (_linear(model)(X) >= 0.5).astype(float)
    assert np.mean(pred == y) == 1.0


def test_train_linear_zero_epochs(monkeypatch):
    # the gradient vanishes at zero, so the fit stops at its first Newton
    # system, whose step is zero, as a fit of zero descent epochs did
    solves = _count_solves(monkeypatch)
    X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    model = train_linear(X, y)
    w, b = model
    assert len(solves) == 1
    assert np.all(w == 0.0) and b == 0.0
    assert np.all(_linear(model)(X) == 0.5)


def test_train_linear_single_class():
    with pytest.raises(ValueError, match="single-class"):
        train_linear(np.zeros((3, 2)), np.ones(3))


@pytest.mark.parametrize("features,labels,l2,message", [
    (np.ones((3, 1)), [0.0, 2.0, 1.0], 1e-4, r"y must hold labels in \{0, 1\}"),
    (np.ones((3, 1)), [0.0, np.nan, 1.0], 1e-4, r"y must hold labels in \{0, 1\}"),
    (np.ones((3, 1)), [0.0, 1.0], 1e-4, "y must hold one label per row"),
    (np.ones((3, 1)), [[0.0, 1.0, 1.0]], 1e-4, "y must hold one label per row"),
    ([[1.0], [np.nan], [0.0]], [0.0, 1.0, 1.0], 1e-4, "X must be finite"),
    ([[1.0], [np.inf], [0.0]], [0.0, 1.0, 1.0], 1e-4, "X must be finite"),
    ([[1e200], [3e200], [-2e200]], [0.0, 1.0, 1.0], 1e-4,
     "the squares of the linear fit's features overflow"),
    (np.ones((0, 2)), [], 1e-4, "X must be a matrix with at least one row"),
    (np.ones((3, 0)), [0.0, 1.0, 1.0], 1e-4, "X must be a matrix .* one feature column"),
    (np.ones(3), [0.0, 1.0, 1.0], 1e-4, "X must be a matrix"),
    (np.ones((3, 1)), [0.0, 1.0, 1.0], 0.0, "l2 must be finite and > 0"),
    (np.ones((3, 1)), [0.0, 1.0, 1.0], -1e-4, "l2 must be finite and > 0"),
    (np.ones((3, 1)), [0.0, 1.0, 1.0], np.nan, "l2 must be finite and > 0"),
], ids=["label-2", "label-nan", "short-labels", "label-matrix", "nan-feature",
        "inf-feature", "squares-overflow", "no-rows", "no-columns", "vector-features",
        "l2-0", "l2-negative", "l2-nan"])
def test_train_linear_rejects_bad_arguments(features, labels, l2, message):
    with pytest.raises(ValueError, match=message):
        train_linear(np.asarray(features), np.asarray(labels), l2=l2)


@pytest.mark.parametrize("fixture", ["pair-sums", "augmented", "separable"])
def test_train_linear_returns_a_stationary_point(pair_spaces, fixture):
    (X, y), _ = pair_spaces["new"]
    y, d, l2 = y.astype(float), X.shape[1] // 2, LINEAR_DEFAULTS["l2"]
    X, y, l2 = {"pair-sums": (X[::2, :d] + X[::2, d:], y[::2], 2 * l2),
                "augmented": (X, y, l2),
                "separable": (*_separable(), l2)}[fixture]
    model = train_linear(X, y, l2=l2)
    zero = (np.zeros(X.shape[1]), 0.0)
    assert (np.linalg.norm(_gradient(X, y, model, l2))
            <= 1e-9 * np.linalg.norm(_gradient(X, y, zero, l2)))


@pytest.mark.parametrize("copies", [1, 2])
def test_train_linear_matches_descent_run_to_its_fixed_point(copies):
    # a small, well-conditioned fit that the old descent can finish
    rng = np.random.default_rng(11)
    X = rng.standard_normal((100, 3))
    y = (rng.random(100) < _sigmoid(X @ np.array([1.0, -0.5, 0.25]) + 0.3)).astype(float)
    got = np.append(*train_linear(X, y, l2=copies * LINEAR_DEFAULTS["l2"]))
    want = np.append(*_descent_fixed_point(X, y, copies=copies))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_train_linear_newton_steps_bounded_on_separable_data(monkeypatch):
    # separable rows drive the weights far from zero, where a stopping rule
    # that asks an absolute decrement below round-off of the objective stalls
    solves = _count_solves(monkeypatch)
    X, y = _separable()
    model = train_linear(X, y)
    assert len(solves) <= 30
    assert np.mean((_linear(model)(X) >= 0.5) == y) == 1.0


def test_train_linear_peak_memory_stays_under_half_the_features():
    # the Hessian is formed a block of rows at a time: no (n, d) temporary
    rng = np.random.default_rng(12)
    X = rng.standard_normal((8192, 32))
    y = (rng.random(8192) < _sigmoid(X[:, 0])).astype(float)
    tracemalloc.start()
    try:
        train_linear(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * X.nbytes


def _accuracy_table_peak_over_matrix(n_words, dim):
    """Traced peak of a 2-round accuracy table on ``planted_world(n_words,
    dim)`` with a dim-32-8 map, over the float64 (2n, 2d) order-augmented
    train matrix of its widest space, which the table never builds."""
    world = planted_world(n_words=n_words, dim=dim, seed=1)
    new = transform_vocabulary(init_params([dim, 32, 8], seed=1), world.table)
    concat = concat_embeddings(world.table, new)
    split = split_pairs(world.pairs)
    tracemalloc.start()
    try:
        table = build_accuracy_table(world.table, new, concat, split.train, split.test,
                                     boosted_config={"rounds": 2})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (table.counts["concatenated"]["train_examples"] * 2 * concat.dimension * 8)


def test_accuracy_table_peak_memory_stays_under_half_a_training_matrix():
    # the trees bin each pair column from the table, the train pair sums are
    # summed a block at a time and dropped after the linear fit, and the codes
    # after the boosted fit: 0.82 before, 1.83 when the matrix was built
    assert _accuracy_table_peak_over_matrix(5000, 50) < 0.5


def test_accuracy_table_peak_memory_stays_under_one_training_matrix_with_few_rows():
    # with few rows a node's split search, not the data, can set the peak: its
    # gains are computed in place (1.19 before)
    assert _accuracy_table_peak_over_matrix(2000, 32) < 1.0


STEP = gather_rows(40)  # rows of a 40-d pair-sum block


@pytest.mark.parametrize("n", [STEP - 1, STEP, STEP + 1, 2 * STEP + 1])
def test_pair_sums_match_the_whole_sum_at_block_edges(n):
    d = 40
    rng = np.random.default_rng(3)
    M = rng.standard_normal((300, d))
    left, right = rng.integers(0, 300, n), rng.integers(0, 300, n)
    assert _pair_sums(M, left, right, "train", "raw").tobytes() == (M[left] + M[right]).tobytes()
    # a pair whose sum overflows only in the last block
    M[7, 5] = 1.5e308
    left[:-1] = np.where(left[:-1] == 7, 8, left[:-1])
    right[:-1] = np.where(right[:-1] == 7, 8, right[:-1])
    left[-1] = right[-1] = 7
    with pytest.raises(InputError, match="a test pair's u \\+ v overflows") as raised:
        _pair_sums(M, left, right, "test", "concat")
    assert raised.value.input == "concat"


def test_train_linear_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(evaluation, "NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge in 1 Newton steps"):
        train_linear(*_separable())


def test_linear_threshold_invariant_to_positive_rescaling():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 3))
    y = (X @ np.array([1.0, -2.0, 0.5]) > 0).astype(float)
    m1 = train_linear(X, y)
    m2 = train_linear(10.0 * X, y)
    p1 = (_linear(m1)(X) >= 0.5)
    p2 = (_linear(m2)(10.0 * X) >= 0.5)
    assert np.mean(p1 == p2) > 0.95  # decision agreement, not value equality


def test_classify_accuracy_perfect_and_constant():
    rng = np.random.default_rng(3)
    U = rng.standard_normal((40, 2))
    X = np.concatenate([U, U], axis=1)  # symmetric pair features
    y = (X[:, 0] > 0).astype(int)
    model = train_linear(X, y.astype(float))
    assert classify_accuracy(_linear(model), U, U, y) > 0.9
    # all probabilities 0.5 -> every prediction is "positive"
    constant = lambda X: np.full(len(X), 0.5)
    assert classify_accuracy(constant, U, U, y) == pytest.approx(np.mean(y == 1))


def test_classify_accuracy_order_invariance():
    rng = np.random.default_rng(4)
    U = rng.standard_normal((30, 3))
    V = rng.standard_normal((30, 3))
    X = np.concatenate([U, V], axis=1)
    y = rng.integers(0, 2, size=30)
    trees = train_boosted_trees(X, y.astype(float), rounds=10)
    proba = lambda X: boosted_proba(trees, X)
    assert classify_accuracy(proba, U, V, y) == classify_accuracy(proba, V, U, y)


def test_build_accuracy_table_leakage():
    table = BASIC_TABLE
    train = _pairs(("a", "b", SYNONYM))
    test = _pairs(("a", "c", ANTONYM))  # shares "a" with train
    with pytest.raises(ValueError, match="leakage"):
        build_accuracy_table(table, table, table, train, test)


def _small_table_and_split():
    """A 24-word, 3-d table and six train and six test pairs over disjoint words."""
    rng = np.random.default_rng(5)
    table = _table([(f"w{i}", rng.standard_normal(3)) for i in range(24)])
    specs = [(f"w{i}", f"w{i + 1}", SYNONYM if i % 4 == 0 else ANTONYM)
             for i in range(0, 24, 2)]
    return table, _pairs(*specs[:6]), _pairs(*specs[6:])


def test_build_accuracy_table_shape():
    table, train, test = _small_table_and_split()
    result = build_accuracy_table(table, table, table, train, test,
                                  boosted_config={"rounds": 5})
    assert set(result.accuracies) == {"raw", "new", "concatenated"}
    for row in result.accuracies.values():
        assert set(row) == {"linear", "boosted"}
        assert all(0.0 <= v <= 1.0 for v in row.values())
    text = result.format_text()
    assert text.startswith("space")
    assert "concatenated" in text


def test_build_accuracy_table_rejects_an_unknown_boosted_setting():
    table, train, test = _small_table_and_split()
    with pytest.raises(TypeError, match="'round'"):
        build_accuracy_table(table, table, table, train, test, boosted_config={"round": 3})
