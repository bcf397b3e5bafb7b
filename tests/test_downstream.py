"""Tests for the downstream text-classification harness."""
import io
from importlib import resources

import numpy as np
import pytest

from contrastmap.downstream import (TextDataset, embed_document,
                                    load_bundled_corpus, load_text_csv,
                                    run_downstream, tokenize)
from contrastmap.embeddings import EmbeddingTable
from contrastmap.synthetic import planted_world, sentiment_corpus, write_sentiment_csv
from contrastmap.training import concat_embeddings


def _table(entries):
    """A table with one row per (word, values) entry."""
    return EmbeddingTable(words=[w for w, _ in entries],
                          matrix=np.array([v for _, v in entries], dtype=float))


def test_load_text_csv_basic():
    data = load_text_csv('text,label\n"good movie",1\n"bad movie",0\n')
    assert len(data) == 2
    assert data.records[0] == ("good movie", 1)


def test_load_text_csv_quoting():
    data = load_text_csv('text,label\n"says ""hi"", then leaves",1\nplain,0\n')
    assert data.records[0][0] == 'says "hi", then leaves'


def test_sentiment_csv_round_trips_quotes_and_commas():
    docs = [('he said "no" twice', 1), ("a, b", 0), ('""', 1), ("plain", 0)]
    stream = io.StringIO()
    write_sentiment_csv(docs, stream)
    assert load_text_csv(stream.getvalue()).records == docs


def test_bundled_corpus_is_the_generated_corpus_byte_for_byte():
    stream = io.StringIO()
    write_sentiment_csv(sentiment_corpus(planted_world(600, 50, seed=11), 200, seed=6),
                        stream)
    bundled = resources.files("contrastmap").joinpath("data/sentiment_corpus.csv")
    assert stream.getvalue().encode("utf-8") == bundled.read_bytes()


def test_load_text_csv_missing_header():
    with pytest.raises(ValueError, match="header"):
        load_text_csv('body,sentiment\nx,1\n')
    with pytest.raises(ValueError, match="header"):
        load_text_csv("")


def test_load_text_csv_single_class():
    with pytest.raises(ValueError, match="both labels"):
        load_text_csv('text,label\na,1\nb,1\n')


def test_load_text_csv_skips_malformed():
    data = load_text_csv('text,label\na,1\nb,2\nc,0\n')
    assert len(data) == 2
    assert data.skipped_rows == 1


def test_tokenize():
    assert tokenize("It's FAST!") == ["it", "s", "fast"]
    assert tokenize("") == []
    assert tokenize("co-operate 2x") == ["co", "operate", "2x"]


def test_embed_document_mean():
    table = _table([("a", [2, 4]), ("b", [2, 0])])
    assert np.allclose(embed_document(table, ["a", "a"]), [2, 4])
    table2 = _table([("a", [0, 2]), ("b", [2, 0])])
    vec = embed_document(table2, ["a", "b"])
    assert np.allclose(vec, [1, 1])


def test_embed_document_all_oov():
    table = _table([("a", [1, 0])])
    vec = embed_document(table, ["x", "y"])
    assert vec.shape == (2,) and np.all(vec == 0.0)


def test_embed_document_permutation_invariant():
    table = _table([("a", [1, 0]), ("b", [0, 1]), ("c", [2, 2])])
    v1 = embed_document(table, ["a", "b", "c"])
    v2 = embed_document(table, ["c", "a", "b"])
    assert np.array_equal(v1, v2)


def _reference_embed_document(table, tokens):
    # the per-word lookups that embed_document replaced
    rows = []
    vectors = dict(zip(table.words, table.matrix))
    for tok in tokens:
        v = vectors.get(tok)
        if v is not None:
            rows.append(v)
    if not rows:
        return np.zeros(table.dimension), True
    return np.mean(rows, axis=0), False


def test_embed_document_matches_per_word_lookups():
    world = planted_world(n_words=300, dim=7, seed=4)
    keep = [i % 3 != 0 for i in range(300)]
    table = EmbeddingTable(words=[w for w, k in zip(world.table.words, keep) if k],
                           matrix=world.table.matrix[keep])
    docs = [tokenize(text) for text, _ in sentiment_corpus(world, n_documents=50, seed=5)]
    docs += [[], ["w00000", "w00003", "unknown"], ["w00001"], ["w00001", "w00001", "w00002"]]
    oov_docs = 0
    for tokens in docs:
        vec = embed_document(table, tokens)
        ref_vec, ref_oov = _reference_embed_document(table, tokens)
        assert vec.tobytes() == ref_vec.tobytes()
        oov_docs += ref_oov
    assert oov_docs == 2


def _reference_sentiment_corpus(world, n_documents, seed, sentiment_groups=1):
    # the list-based draw that sentiment_corpus used before its word array
    rng = np.random.default_rng(seed)
    gs = world.group_size
    region = [w for g in range(sentiment_groups)
              for w in world.table.words[g * gs:(g + 1) * gs]]
    pos = sorted(w for w in region if world.polarity[w] == 1)
    neg = sorted(w for w in region if world.polarity[w] == -1)
    all_words = sorted(world.polarity)
    docs = []
    for i in range(n_documents):
        pool = pos if i % 2 == 1 else neg
        chosen = list(rng.choice(pool, size=2, replace=True))
        chosen += list(rng.choice(all_words, size=13, replace=True))
        rng.shuffle(chosen)
        docs.append((" ".join(chosen), i % 2))
    return docs


@pytest.mark.parametrize("seed,groups", [(0, 1), (3, 1), (11, 4)])
def test_sentiment_corpus_matches_list_based_draws(seed, groups):
    world = planted_world(n_words=400, dim=10, seed=seed)
    got = sentiment_corpus(world, n_documents=60, seed=seed + 1,
                           sentiment_groups=groups)
    assert got == _reference_sentiment_corpus(world, 60, seed + 1, groups)
    assert all(type(text) is str for text, _ in got)


@pytest.fixture(scope="module")
def corpus_setup():
    world = planted_world(n_words=200, dim=20, seed=1)
    docs = sentiment_corpus(world, n_documents=80, seed=2)
    data = TextDataset(records=docs, name="toy")
    dup = EmbeddingTable(words=list(world.table.words),
                         matrix=world.table.matrix.copy())
    rawraw = concat_embeddings(world.table, dup)
    return world.table, rawraw, data


def test_run_downstream_deterministic(corpus_setup):
    raw, rawraw, data = corpus_setup
    r1 = run_downstream(raw, rawraw, data, seed=3)
    r2 = run_downstream(raw, rawraw, data, seed=3)
    assert r1 == r2
    assert r1.split_hash == r2.split_hash


def test_run_downstream_redundant_control(corpus_setup):
    raw, rawraw, data = corpus_setup
    result = run_downstream(raw, rawraw, data, seed=3)
    assert abs(result.accuracy_concat - result.accuracy_raw) <= 0.02 + 1e-9
    assert result.train_size + result.test_size == len(data)


def test_run_downstream_gain_recomputable(corpus_setup):
    raw, rawraw, data = corpus_setup
    result = run_downstream(raw, rawraw, data, seed=3)
    if result.accuracy_raw > 0:
        expected = (result.accuracy_concat - result.accuracy_raw) / result.accuracy_raw
        assert result.relative_gain == pytest.approx(expected)


def test_run_downstream_test_fraction_validated(corpus_setup):
    raw, rawraw, data = corpus_setup
    with pytest.raises(ValueError, match="test_fraction"):
        run_downstream(raw, rawraw, data, test_fraction=0.7)


def test_bundled_corpus_loads():
    data = load_bundled_corpus()
    assert len(data) == 200
    labels = {y for _, y in data.records}
    assert labels == {0, 1}
    # bundled corpus vocabulary matches the generator's word scheme
    tokens = tokenize(data.records[0][0])
    assert all(t.startswith("w") for t in tokens)
