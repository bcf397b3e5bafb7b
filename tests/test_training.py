"""Tests for end-to-end training, the classifier-head ablation, and the
transformed / concatenated table plumbing."""
import numpy as np
import pytest

from contrastmap.embeddings import EmbeddingTable
from contrastmap.network import (TripletBatch, _sigmoid, init_params,
                                 pair_head_logits, pair_head_loss_backward)
from contrastmap.pairs import build_triplets, split_pairs
from contrastmap.synthetic import planted_world
from contrastmap.training import (CLASSIFIER_SYSTEM, TrainConfig, _head_dims,
                                  concat_embeddings, resolve_triplets,
                                  train_baseline, train_classifier_system,
                                  transform_vocabulary)


def _table(entries):
    """A table with one row per (word, values) entry."""
    return EmbeddingTable(dimension=len(entries[0][1]), words=[w for w, _ in entries],
                          matrix=np.array([v for _, v in entries], dtype=float))


@pytest.fixture(scope="module")
def small_world():
    world = planted_world(n_words=300, dim=50, seed=4)
    split = split_pairs(world.pairs)
    triplets = build_triplets(split.train, seed=1)
    return world, split, triplets


def _small_config(**overrides):
    base = dict(layer_dims=[50, 64, 32, 4], learning_rate=1e-3,
                max_epochs=25, early_stop_patience=6, seed=2)
    base.update(overrides)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="max_epochs"):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError, match="validation_fraction"):
        TrainConfig(validation_fraction=0.9)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="mode"):
        TrainConfig(mode="nonsense")


def test_single_epoch_report(small_world):
    world, _, triplets = small_world
    params, report = train_baseline(world.table, triplets,
                                    _small_config(max_epochs=1))
    assert report.stopped_epoch == 1
    assert len(report.train_losses) == 1
    assert len(report.val_losses) == 1
    assert params.output_dim == 4


def test_baseline_determinism(small_world):
    world, _, triplets = small_world
    cfg = _small_config(max_epochs=3)
    p1, r1 = train_baseline(world.table, triplets, cfg)
    p2, r2 = train_baseline(world.table, triplets, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses


def test_baseline_training_progress(small_world):
    world, split, triplets = small_world
    params, report = train_baseline(world.table, triplets, _small_config())
    # best-epoch restore: the returned model is at least as good as epoch 1
    assert min(report.val_losses) <= report.val_losses[0]
    # the planted structure is learnable: validation loss halves
    assert report.val_losses[-1] < 0.5 * report.val_losses[0] \
        or min(report.val_losses) < 0.5 * report.val_losses[0]
    # held-out triplets separate with margin in the new space
    test_triplets = build_triplets(split.test, seed=1)
    (W, S, A), _ = resolve_triplets(world.table, test_triplets)
    from contrastmap.network import forward
    Zw, Zs, Za = forward(params, W), forward(params, S), forward(params, A)

    def mean_cos(U, V):
        num = np.sum(U * V, axis=1)
        den = np.linalg.norm(U, axis=1) * np.linalg.norm(V, axis=1) + 1e-12
        return float(np.mean(num / den))

    assert mean_cos(Zw, Zs) - mean_cos(Zw, Za) >= 0.2


def test_unresolvable_triplets_dropped(small_world):
    world, _, triplets = small_world
    from contrastmap.pairs import Triplet
    extra = triplets + [Triplet("missing", "alsomissing", "gone")]
    (_, _, _), dropped = resolve_triplets(world.table, extra)
    assert dropped == 1


def test_resolve_triplets_matches_per_triplet_loop(small_world):
    world, _, triplets = small_world
    from contrastmap.pairs import Triplet
    anchor = triplets[0].anchor
    mixed = ([Triplet("missing", anchor, anchor)] + triplets[:50]
             + [Triplet(anchor, "gone", anchor), Triplet(anchor, anchor, "absent")]
             + triplets[50:])
    rows, dropped = [], 0
    for t in mixed:  # the per-triplet lookups resolve_triplets used to do
        vecs = [world.table.lookup(w) for w in (t.anchor, t.synonym, t.antonym)]
        if any(v is None for v in vecs):
            dropped += 1
        else:
            rows.append(vecs)
    expected = tuple(np.array([r[i] for r in rows]) for i in range(3))
    got, got_dropped = resolve_triplets(world.table, mixed)
    assert got_dropped == dropped == 3
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_all_unresolvable_errors(small_world):
    world, _, _ = small_world
    from contrastmap.pairs import Triplet
    with pytest.raises(ValueError, match="no resolvable"):
        resolve_triplets(world.table, [Triplet("x", "y", "z")])


def test_zero_frozen_head_gives_no_map_signal():
    head = init_params([8, 4, 1], seed=0)
    for w in head.weights:
        w[:] = 0.0
    rng = np.random.default_rng(0)
    U = rng.standard_normal((5, 4))
    V = rng.standard_normal((5, 4))
    y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    _, _, dU, dV = pair_head_loss_backward(head, U, V, y)
    assert np.all(dU == 0.0)
    assert np.all(dV == 0.0)


def test_classifier_system_learns():
    # a gentler world than the module fixture: the head has to generalize
    # from train pairs alone, so keep observation noise low
    world = planted_world(n_words=600, dim=50, noise=0.1, hidden_dim=4, seed=4)
    split = split_pairs(world.pairs)
    triplets = build_triplets(split.train, seed=1)
    cfg = _small_config(mode=CLASSIFIER_SYSTEM, max_epochs=40,
                        early_stop_patience=10, seed=5)
    params, head, report = train_classifier_system(world.table, triplets, cfg)
    # held-out pairs, scored by the trained head on transformed vectors
    from contrastmap.network import forward
    U = forward(params, world.table.matrix[world.table.indices([p.left for p in split.test])])
    V = forward(params, world.table.matrix[world.table.indices([p.right for p in split.test])])
    predicted = np.where(_sigmoid(pair_head_logits(head, U, V)) >= 0.5, "synonym", "antonym")
    assert len(split.test) > 50
    assert np.mean(predicted == [p.relation for p in split.test]) > 0.9


def test_classifier_system_determinism(small_world):
    world, _, triplets = small_world
    cfg = _small_config(mode=CLASSIFIER_SYSTEM, max_epochs=3)
    p1, h1, r1 = train_classifier_system(world.table, triplets, cfg)
    p2, h2, r2 = train_classifier_system(world.table, triplets, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(h1.weights, h2.weights))
    assert r1.val_losses == r2.val_losses


def test_transform_identity_map():
    from contrastmap.network import MlpParams
    table = _table([("a", [1.0, 2.0, 3.0]), ("b", [0.0, 1.0, 0.0])])
    # single linear layer embedding the first two coordinates
    params = MlpParams([3, 2])
    params.weights[0][...] = np.eye(2, 3)
    out = transform_vocabulary(params, table)
    assert out.dimension == 2
    assert np.allclose(out.lookup("a"), [1.0, 2.0])
    assert set(out.words) <= set(table.words)


def test_transform_dimension_mismatch():
    table = _table([("a", [1.0, 2.0])])
    with pytest.raises(ValueError, match="input dimension 2 != 3"):
        transform_vocabulary(init_params([3, 2], seed=0), table)


def test_concat_basic():
    raw = _table([("a", [1.0, 0.0])])
    new = _table([("a", [5.0])])
    out = concat_embeddings(raw, new)
    assert out.dimension == 3
    assert np.allclose(out.lookup("a"), [1.0, 0.0, 5.0])


def test_concat_matches_per_word_loop():
    rng = np.random.default_rng(3)
    raw = EmbeddingTable(dimension=4, words=[f"w{i}" for i in range(30)],
                         matrix=rng.standard_normal((30, 4)))
    picked = [i for i in range(40) if i % 3]
    new = EmbeddingTable(dimension=2, words=[f"w{i}" for i in reversed(picked)],
                         matrix=rng.standard_normal((len(picked), 2)))
    out = concat_embeddings(raw, new)
    common = [w for w in raw.words if w in new]
    ref = np.concatenate([np.array([raw.lookup(w) for w in common]),
                          np.array([new.lookup(w) for w in common])], axis=1)
    assert out.words == common
    assert out.matrix.tobytes() == ref.tobytes()
    assert out.skipped_rows == (30 - len(common)) + (len(picked) - len(common))


def test_layer_dims_must_start_with_embedding_dimension(small_world):
    world, _, triplets = small_world
    for mode, train in ((None, train_baseline), (CLASSIFIER_SYSTEM, train_classifier_system)):
        config = _small_config(layer_dims=[49, 8, 4], max_epochs=1,
                               **({"mode": mode} if mode else {}))
        with pytest.raises(ValueError, match="starts with 49 but the embedding dimension is 50"):
            train(world.table, triplets, config)
        config.layer_dims = [50, 8, 50]
        with pytest.raises(ValueError, match=r"\[50, 8, 50\] must end below the embedding "
                                             "dimension 50"):
            train(world.table, triplets, config)


def test_head_dims_start_at_2k_and_end_at_one_logit():
    assert _head_dims(4, None) == [8, 32, 1]
    assert _head_dims(4, [8, 64, 1]) == [8, 64, 1]  # expansion allowed for the head
    for dims in ([8, 32, 2], [10, 1], [8]):
        with pytest.raises(ValueError, match=rf"head_dims \[{dims[0]}.* must start at "
                                             r"2k = 8 and end at 1"):
            _head_dims(4, dims)


def test_concat_disjoint_errors():
    raw = _table([("a", [1.0, 0.0])])
    new = _table([("b", [5.0])])
    with pytest.raises(ValueError, match="no common vocabulary"):
        concat_embeddings(raw, new)


def test_concat_identical_word_distance_zero():
    from contrastmap.embeddings import cosine_distance
    raw = _table([("a", [1.0, 0.0])])
    new = _table([("a", [5.0])])
    out = concat_embeddings(raw, new)
    assert cosine_distance(out.lookup("a"), out.lookup("a")) == 0.0


def test_wall_time_excluded_on_request(small_world):
    world, _, triplets = small_world
    _, report = train_baseline(world.table, triplets,
                               _small_config(max_epochs=1))
    doc = report.to_dict(include_wall_time=False)
    assert "wall_time" not in doc
    assert "wall_time" in report.to_dict()
