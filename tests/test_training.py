"""Tests for end-to-end training, the classifier-head ablation, and the
transformed / concatenated table plumbing."""
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contrastmap
from contrastmap import embeddings, training
from contrastmap.embeddings import GATHER_BYTES, EmbeddingTable, gather_rows, write_embedding_text
from contrastmap.network import (MlpParams, _row_cosines, _sigmoid, forward,
                                 init_params, pair_head_logits, pair_head_loss_backward)
from contrastmap.pairs import build_triplets, split_pairs
from contrastmap.synthetic import planted_world
from contrastmap.training import (BASELINE, CLASSIFIER_SYSTEM, TRANSFORM_BLOCK_ROWS,
                                  TrainConfig, _head_dims, concat_embeddings, resolve_triplets,
                                  train_baseline, train_classifier_system,
                                  transform_vocabulary, write_concat_text)


def _table(entries):
    """A table with one row per (word, values) entry."""
    return EmbeddingTable(words=[w for w, _ in entries],
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
    for lr in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError, match="early_stop_patience"):
        TrainConfig(early_stop_patience=0)


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
    rows, _ = resolve_triplets(world.table, test_triplets)
    W, S, A = (world.table.matrix[r] for r in rows)
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
    indices, vectors, dropped = [], [], 0
    for t in mixed:  # the per-triplet lookups resolve_triplets used to do
        words = (t.anchor, t.synonym, t.antonym)
        if not all(w in world.table for w in words):
            dropped += 1
        else:
            indices.append([world.table.words.index(w) for w in words])
            vectors.append([world.table.matrix[i] for i in indices[-1]])
    got, got_dropped = resolve_triplets(world.table, mixed)
    assert got_dropped == dropped == 3
    assert len(got) == 3
    for i, rows in enumerate(got):
        assert rows.dtype.kind == "i"
        assert rows.tolist() == [r[i] for r in indices]
        gathered, expected = world.table.matrix[rows], np.array([v[i] for v in vectors])
        assert gathered.dtype == expected.dtype and gathered.shape == expected.shape
        assert gathered.tobytes() == expected.tobytes()


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
    assert np.allclose(out.matrix[out.indices(["a"])], [[1.0, 2.0]])
    assert set(out.words) <= set(table.words)


def test_transform_dimension_mismatch():
    table = _table([("a", [1.0, 2.0])])
    with pytest.raises(ValueError, match="input dimension 2 != 3"):
        transform_vocabulary(init_params([3, 2], seed=0), table)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_transform_drops_outputs_that_overflow():
    world = planted_world(n_words=100, dim=20, seed=3)
    params = init_params([20, 8, 4], seed=0)
    params.weights[-1][...] = 1e308
    out = transform_vocabulary(params, world.table)
    assert 0 < len(out) < len(world.table)
    assert np.all(np.isfinite(out.matrix))
    full = forward(params, world.table.matrix)
    kept = np.isfinite(full).all(axis=1)
    assert out.words == [w for w, k in zip(world.table.words, kept) if k]
    assert out.matrix.tobytes() == full[kept].tobytes()


# Maps each table through transform_vocabulary and through one whole-matrix
# forward pass, at every row count around the block edges, and prints each
# case whose words or bits differ.
_BLOCKED_TRANSFORM_CHECK = """
import numpy as np
from contrastmap.embeddings import EmbeddingTable
from contrastmap.network import forward, init_params
from contrastmap.synthetic import planted_world
from contrastmap.training import transform_vocabulary

criterion_3 = planted_world(n_words=5000, dim=50, seed=42).table.matrix
vocab_cli = np.random.default_rng(5).standard_normal((5000, 300))
for dims, matrix in (([50, 128, 64, 4], criterion_3), ([300, 128, 40], vocab_cli)):
    params = init_params(dims, seed=7)
    for n in (1, 1023, 1024, 1025, 2047, 2048, 3001, 5000):
        table = EmbeddingTable([f"w{i}" for i in range(n)], matrix[:n])
        out = transform_vocabulary(params, table)
        if (out.words != table.words
                or out.matrix.tobytes() != forward(params, matrix[:n]).tobytes()):
            print(dims, n)
"""


# at most two threads, so this test never oversubscribes a two-core runner
@pytest.mark.parametrize("threads", ["1", "2"])
def test_blocked_transform_equals_one_whole_matrix_pass(threads):
    assert TRANSFORM_BLOCK_ROWS == 1024  # the row counts below straddle its edges
    src = str(Path(contrastmap.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _BLOCKED_TRANSFORM_CHECK], env=env,
                            capture_output=True, text=True, check=True, timeout=300)
    assert result.stdout == ""


def test_transform_holds_its_output_and_one_block():
    # a hidden layer wider than the input: one whole-table forward pass would
    # hold 2.56 times the raw table beside it
    rng = np.random.default_rng(8)
    table = EmbeddingTable([f"w{i}" for i in range(20000)], rng.standard_normal((20000, 100)))
    params = init_params([100, 256, 8], seed=1)
    tracemalloc.start()
    try:
        out = transform_vocabulary(params, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == len(table)
    # the caller holds the raw table; the last block, which takes the short
    # tail, has fewer than twice TRANSFORM_BLOCK_ROWS rows
    block = 2 * TRANSFORM_BLOCK_ROWS * (256 + 8) * 8
    assert peak < out.matrix.nbytes + block


def test_concat_basic():
    raw = _table([("a", [1.0, 0.0])])
    new = _table([("a", [5.0])])
    out = concat_embeddings(raw, new)
    assert out.dimension == 3
    assert np.allclose(out.matrix[out.indices(["a"])], [[1.0, 0.0, 5.0]])


def test_concat_matches_per_word_loop():
    rng = np.random.default_rng(3)
    raw = EmbeddingTable(words=[f"w{i}" for i in range(30)],
                         matrix=rng.standard_normal((30, 4)))
    picked = [i for i in range(40) if i % 3]
    new = EmbeddingTable(words=[f"w{i}" for i in reversed(picked)],
                         matrix=rng.standard_normal((len(picked), 2)))
    out = concat_embeddings(raw, new)
    common = [w for w in raw.words if w in new]
    ref = np.concatenate([np.array([raw.matrix[raw.words.index(w)] for w in common]),
                          np.array([new.matrix[new.words.index(w)] for w in common])], axis=1)
    assert out.words == common
    assert out.matrix.tobytes() == ref.tobytes()


def _raw_and_reordered_subset(rows, d_raw, d_new, seed):
    """A raw table and a ``new`` table over a shuffled strict subset of its words."""
    rng = np.random.default_rng(seed)
    raw = EmbeddingTable(words=[f"w{i}" for i in range(rows)],
                         matrix=rng.standard_normal((rows, d_raw)))
    subset = rng.permutation(rows)[:rows - rows // 7]
    new = EmbeddingTable(words=[raw.words[i] for i in subset],
                         matrix=rng.standard_normal((len(subset), d_new)))
    return raw, new


def test_concat_matches_whole_table_gather_across_row_blocks():
    block_rows = GATHER_BYTES // (8 * (60 + 4))
    raw, new = _raw_and_reordered_subset(4 * block_rows, 60, 4, seed=5)
    out = concat_embeddings(raw, new)
    assert 3 * block_rows < len(out) < 4 * block_rows  # the last block is partial
    # the formula concat_embeddings used before it filled row blocks
    index = new.indices(raw.words)
    found = index >= 0
    ref = np.concatenate([raw.matrix[found], new.matrix[index[found]]], axis=1)
    assert out.words == [w for w, f in zip(raw.words, found) if f]
    assert out.matrix.tobytes() == ref.tobytes()


def test_concat_peak_memory_stays_under_1_5_times_the_result():
    raw, new = _raw_and_reordered_subset(20000, 100, 10, seed=6)
    tracemalloc.start()
    try:
        out = concat_embeddings(raw, new)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == len(new)
    assert peak < 1.5 * out.matrix.nbytes


def _concat_text_outcomes(raw, new):
    built, streamed = io.StringIO(), io.StringIO()
    n_built = write_embedding_text(concat_embeddings(raw, new), built)
    n_streamed = write_concat_text(raw, new, streamed)
    return (built.getvalue(), n_built), (streamed.getvalue(), n_streamed)


# values that exercise both of the writer's notations and its integral and signed-zero forms
_concat_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(1e-4, 1e16),
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([0.0, -0.0, 1e-4, 1e16, 5e-324, 9999999999999998.0, 3.0]))


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_concat_text_equals_the_written_concat_table(d_raw, d_new, data):
    n_raw = data.draw(st.integers(1, 12))
    raw_rows = data.draw(st.lists(st.lists(_concat_value, min_size=d_raw, max_size=d_raw),
                                  min_size=n_raw, max_size=n_raw))
    names = [f"w{i}.0" for i in range(n_raw)] + ["x", "y.0"]
    new_words = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=14,
                                   unique=True))
    new_rows = data.draw(st.lists(st.lists(_concat_value, min_size=d_new, max_size=d_new),
                                  min_size=len(new_words), max_size=len(new_words)))
    raw = EmbeddingTable(words=names[:n_raw], matrix=np.array(raw_rows))
    new = EmbeddingTable(words=new_words, matrix=np.array(new_rows))
    if not set(raw.words) & set(new.words):
        with pytest.raises(ValueError, match="no common vocabulary"):
            write_concat_text(raw, new, io.StringIO())
        return
    built, streamed = _concat_text_outcomes(raw, new)
    assert streamed == built


@pytest.mark.parametrize("layout", ["float32", "fortran", "column-slice"])
def test_concat_text_equals_the_written_concat_table_across_blocks(layout, monkeypatch):
    # blocks of 21 raw rows and 102 new rows: both columns cross several block
    # edges, and both end on a partial block
    monkeypatch.setattr(embeddings, "GATHER_BYTES", 4096)
    raw, new = _raw_and_reordered_subset(700, 24, 5, seed=8)
    for width in (24, 5):
        assert len(new) // gather_rows(width) >= 5 and len(new) % gather_rows(width)
    rng = np.random.default_rng(9)
    scale = 10.0 ** rng.integers(-7, 19, size=raw.matrix.shape)
    wide = np.ascontiguousarray((raw.matrix * scale)[:, ::-1])
    wide[::5, 3] = 0.0
    wide[::7, 4] = -0.0
    matrix = {"float32": wide.astype(np.float32), "fortran": np.asfortranarray(wide),
              "column-slice": np.concatenate([wide, wide], axis=1)[:, ::2]}[layout]
    raw = EmbeddingTable(words=raw.words, matrix=matrix)
    built, streamed = _concat_text_outcomes(raw, new)
    assert streamed == built


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
    u = out.matrix[out.indices(["a"])[0]]
    assert cosine_distance(u, u) == 0.0


def test_wall_time_excluded_on_request(small_world):
    world, _, triplets = small_world
    _, report = train_baseline(world.table, triplets,
                               _small_config(max_epochs=1))
    doc = report.to_dict(include_wall_time=False)
    assert "wall_time" not in doc
    assert "wall_time" in report.to_dict()


def test_report_dict_keeps_its_keys(small_world):
    world, _, triplets = small_world
    _, report = train_baseline(world.table, triplets, _small_config(max_epochs=1))
    keys = {"train_losses", "val_losses", "stopped_epoch", "triplet_total",
            "triplet_validation", "dropped_unresolvable"}
    assert set(report.to_dict(include_wall_time=False)) == keys
    assert set(report.to_dict()) == keys | {"wall_time"}


def test_training_peak_memory_follows_the_batch_not_the_triplet_count():
    world = planted_world(2000, 50, seed=1)
    triplets = build_triplets(split_pairs(world.pairs).train, seed=2)
    m, n, dims, batch = world.table.dimension, len(triplets), [50, 32, 4], 64
    assert n > 2 * len(world.table)  # many more triplets than words
    params_bytes = MlpParams(dims).flat.nbytes + MlpParams([8, 32, 1]).flat.nbytes
    bound = (3 * round(0.1 * n) * m * 8  # the validation gather
             + 3 * batch * m * 8  # one batch
             + 16 * params_bytes  # parameters, gradients, best copies, optimizer moments
             + 4 * 3 * n * 8  # the row indices, the permutations and their transients
             + (256 << 10))  # slack for small temporaries
    assert bound < 3 * n * m * 8  # three copied (n, m) triplet matrices alone exceed it
    for mode, train in ((BASELINE, train_baseline),
                        (CLASSIFIER_SYSTEM, train_classifier_system)):
        config = TrainConfig(layer_dims=dims, batch_size=batch, max_epochs=1, seed=3, mode=mode)
        tracemalloc.start()
        try:
            train(world.table, triplets, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (mode, peak, bound)


# --- differential tests: the copied triplet matrices and the allocating step
# that training used before, kept here as references ---------------------------

def _reference_resolve(table, triplets):
    columns = [table.indices([t.anchor for t in triplets]),
               table.indices([t.synonym for t in triplets]),
               table.indices([t.antonym for t in triplets])]
    resolved = (columns[0] >= 0) & (columns[1] >= 0) & (columns[2] >= 0)
    return tuple(table.matrix[c[resolved]] for c in columns)


def _reference_forward_cached(params, X):
    a = X
    cache = []
    last = len(params.weights) - 1
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W.T + b
        if i == last:
            out = z
        elif params.hidden_activation == "tanh":
            out = np.tanh(z)
        else:
            out = np.maximum(z, 0.0)
        cache.append((a, z, out))
        a = out
    return a, cache


def _reference_backward(params, cache, dout):
    grad = MlpParams(params.layer_dims, np.empty_like(params.flat),
                     params.hidden_activation)
    last = len(params.weights) - 1
    delta = dout
    for i in range(last, -1, -1):
        a_in, z, a_out = cache[i]
        if i != last:
            slope = (1.0 - a_out * a_out if params.hidden_activation == "tanh"
                     else (z > 0.0).astype(np.float64))
            delta = (delta @ params.weights[i + 1]) * slope
        grad.weights[i][...] = delta.T @ a_in
        grad.biases[i][...] = delta.sum(axis=0)
    return grad.flat, delta


def _reference_baseline_step(params, W, S, A):
    n = len(W)
    Zw, cw = _reference_forward_cached(params, W)
    Zs, cs_cache = _reference_forward_cached(params, S)
    Za, ca_cache = _reference_forward_cached(params, A)
    cs, dcs_dw, dcs_ds = _row_cosines(Zw, Zs)
    ca, dca_dw, dca_da = _row_cosines(Zw, Za)
    loss = float(np.mean((1.0 - cs) + (1.0 + ca)))
    grad = _reference_backward(params, cw, (dca_dw - dcs_dw) / n)[0]
    grad += _reference_backward(params, cs_cache, -dcs_ds / n)[0]
    grad += _reference_backward(params, ca_cache, dca_da / n)[0]
    return loss, [grad]


def _reference_classifier_step(params, head, W, S, A):
    n = len(W)
    (Zw, cw), (Zs, cs), (Za, ca) = (_reference_forward_cached(params, X) for X in (W, S, A))
    U, V = np.concatenate([Zw, Zw]), np.concatenate([Zs, Za])
    y = np.concatenate([np.ones(n), np.zeros(n)])
    out, cache = _reference_forward_cached(head, np.concatenate([U, V], axis=1))
    z = out[:, 0]
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    head_grad, dZ0 = _reference_backward(head, cache, ((_sigmoid(z) - y) / (2 * n))[:, None])
    dX = dZ0 @ head.weights[0]
    dU, dV = dX[:, :U.shape[1]], dX[:, U.shape[1]:]
    grad = _reference_backward(params, cw, dU[:n] + dU[n:])[0]
    grad += _reference_backward(params, cs, dV[:n])[0]
    grad += _reference_backward(params, ca, dV[n:])[0]
    return loss, [grad, head_grad]


def _training_closures(monkeypatch, table, triplets, mode, activation, **overrides):
    """The models, step and val_loss that a training call hands to ``_fit``
    (its config ``_small_config`` with ``overrides``), with every parameter
    perturbed so that the biases are nonzero."""
    seen = {}

    def capture(models, step, val_loss, *_):
        seen.update(models=models, step=step, val_loss=val_loss)
        return models, None

    monkeypatch.setattr(training, "_fit", capture)
    config = _small_config(mode=mode, hidden_activation=activation, **overrides)
    (train_baseline if mode == BASELINE else train_classifier_system)(table, triplets, config)
    rng = np.random.default_rng(7)
    for model in seen["models"]:
        model.flat += rng.normal(0.0, 0.1, model.flat.shape)
    return seen["models"], seen["step"], seen["val_loss"]


def _assert_step_matches_reference(models, step, val_loss, mode, triplet_rows, idx):
    reference = _reference_baseline_step if mode == BASELINE else _reference_classifier_step
    # as in training: a non-finite loss is an outcome to compare, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = step(models, idx)
        held_out = val_loss(models, idx)
        ref_loss, ref_grads = reference(*models, *(X[idx] for X in triplet_rows))
    assert len(grads) == len(ref_grads) == len(models)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert np.float64(held_out).tobytes() == np.float64(ref_loss).tobytes()
    for g, ref in zip(grads, ref_grads):
        assert g.dtype == ref.dtype and g.shape == ref.shape
        assert g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("mode", [BASELINE, CLASSIFIER_SYSTEM])
def test_step_matches_allocating_reference_bit_for_bit(small_world, monkeypatch, mode,
                                                       activation):
    world, _, triplets = small_world
    models, step, val_loss = _training_closures(monkeypatch, world.table, triplets, mode,
                                                activation)
    triplet_rows = _reference_resolve(world.table, triplets)
    order = np.random.default_rng(8).permutation(len(triplet_rows[0]))
    for size in (1, 7, 251, 256):
        _assert_step_matches_reference(models, step, val_loss, mode, triplet_rows,
                                       order[:size])


@pytest.mark.parametrize("mode", [BASELINE, CLASSIFIER_SYSTEM])
def test_relu_step_with_a_nan_input_row_matches_reference(small_world, monkeypatch, mode):
    world, _, triplets = small_world
    table = EmbeddingTable(words=world.table.words,
                           matrix=world.table.matrix.copy())
    table.matrix[table.indices([triplets[3].anchor])[0]] = np.nan
    models, step, val_loss = _training_closures(monkeypatch, table, triplets, mode, "relu")
    idx = np.arange(7)
    triplet_rows = _reference_resolve(table, triplets)
    assert np.isnan(triplet_rows[0][idx]).any()
    _assert_step_matches_reference(models, step, val_loss, mode, triplet_rows, idx)


def test_classifier_step_gradients_match_finite_differences(monkeypatch):
    # the head's input gradients reach the map through dU[:n] + dU[n:] (the
    # anchor's two pairs), dV[:n] (synonyms) and dV[n:] (antonyms)
    world = planted_world(n_words=120, dim=6, seed=4)
    triplets = build_triplets(split_pairs(world.pairs).train, seed=1)
    models, step, _ = _training_closures(monkeypatch, world.table, triplets,
                                         CLASSIFIER_SYSTEM, "tanh",
                                         layer_dims=[6, 5, 3], head_dims=[6, 4, 1])
    idx = np.arange(9)
    grads = [g.copy() for g in step(models, idx)[1]]
    h = 1e-6
    for model, grad in zip(models, grads):
        numeric = np.empty_like(model.flat)
        for i in range(len(model.flat)):
            orig = model.flat[i]
            model.flat[i] = orig + h
            up = step(models, idx)[0]
            model.flat[i] = orig - h
            down = step(models, idx)[0]
            model.flat[i] = orig
            numeric[i] = (up - down) / (2 * h)
        assert np.all(np.abs(grad) > 1e-8)  # every entry is checked at relative tolerance
        np.testing.assert_allclose(grad, numeric, rtol=1e-5)
