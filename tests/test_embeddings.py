"""Tests for the embedding table: parsing, serialization, cosine distance."""
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastmap.embeddings import (EmbeddingParseError, EmbeddingTable,
                                    cosine_distance, parse_embedding_text,
                                    write_embedding_text)


def test_parse_basic():
    table = parse_embedding_text("cat 0.1 0.2 0.3\ndog 1 0 0")
    assert table.dimension == 3
    assert list(table.words) == ["cat", "dog"]
    assert np.allclose(table.lookup("cat"), [0.1, 0.2, 0.3])
    assert np.allclose(table.lookup("dog"), [1, 0, 0])


def test_parse_header_and_duplicate():
    table = parse_embedding_text("2 3\ncat 0.1 0.2 0.3\ncat 9 9 9\ndog 1 0 0")
    assert table.dimension == 3
    assert np.allclose(table.lookup("cat"), [0.1, 0.2, 0.3])  # first wins
    assert np.allclose(table.lookup("dog"), [1, 0, 0])
    assert table.duplicate_warnings == 1


def test_parse_sole_zero_norm_row_is_no_vectors():
    with pytest.raises(EmbeddingParseError, match="no vectors"):
        parse_embedding_text("cat 0 0 0")


def test_zero_norm_rule_is_the_same_for_the_first_row():
    # 1e-200 squared underflows, so these rows have norm 0 wherever they sit
    table = parse_embedding_text("a 1e-200 1e-200\nb 1e-200 1e-200\nc 1 2\n")
    assert table.words == ["c"] and table.skipped_rows == 2
    table = parse_embedding_text("a 5e-324\nb 1\n")
    assert table.words == ["b"] and table.skipped_rows == 1
    assert np.all(np.linalg.norm(table.matrix, axis=1) > 0.0)


def test_parse_empty_stream():
    with pytest.raises(EmbeddingParseError, match="no vectors"):
        parse_embedding_text("")


def test_parse_bad_first_line():
    with pytest.raises(EmbeddingParseError, match="bad format"):
        parse_embedding_text("justoneword")
    with pytest.raises(EmbeddingParseError, match="bad format"):
        parse_embedding_text("word abc def")


def test_parse_skips_malformed_rows():
    stream = "cat 1 0\ndog 1\nfish 0 0\nbird nan 1\nfox 2 2\n"
    table = parse_embedding_text(stream)
    assert list(table.words) == ["cat", "fox"]
    assert table.skipped_rows == 3  # wrong arity, zero norm, non-finite


def test_parse_crlf():
    table = parse_embedding_text(io.StringIO("cat 1 2\r\ndog 3 4\r\n"))
    assert np.allclose(table.lookup("dog"), [3, 4])


def test_lookup():
    table = parse_embedding_text("cat 0.1 0.2 0.3\ndog 1 0 0")
    assert np.allclose(table.lookup("cat"), [0.1, 0.2, 0.3])
    assert table.lookup("Cat") is None  # case-sensitive
    assert table.lookup("fish") is None
    assert "cat" in table and "fish" not in table


def test_cosine_distance_canonical_values():
    assert type(cosine_distance(np.array([1.0, 2.0]), np.array([3.0, 1.0]))) is float
    assert cosine_distance([1, 0], [2, 0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_distance([1, 0], [-1, 0]) == pytest.approx(2.0, abs=1e-12)


def test_cosine_distance_errors():
    with pytest.raises(ValueError, match="degenerate vector"):
        cosine_distance([0, 0], [1, 0])
    with pytest.raises(ValueError, match="mismatch"):
        cosine_distance([1, 0], [1, 0, 0])


@pytest.mark.filterwarnings("error")
def test_cosine_distance_extreme_magnitudes():
    tiny = np.array([1.2775512486188477e-160])
    assert cosine_distance(tiny, [3.0]) == 0.0
    assert cosine_distance(tiny / 128, [3.0]) == 0.0
    assert cosine_distance([5e-324, 0.0], [0.0, 1e300]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_distance([1e200, 1e200], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance([1e-170, -1e-170], [-2.0, 2.0]) == pytest.approx(2.0, abs=1e-12)


def test_write_basic():
    table = EmbeddingTable(dimension=2, words=["a"], matrix=np.array([[1.0, 0.0]]))
    out = io.StringIO()
    n = write_embedding_text(table, out)
    assert out.getvalue() == "1 2\na 1 0\n"
    assert n == len(out.getvalue())


def test_round_trip_small():
    src = "cat 0.1 0.2 0.3\ndog 1 0 0\nfox -2.5e-3 1e20 7"
    table = parse_embedding_text(src)
    out = io.StringIO()
    write_embedding_text(table, out)
    again = parse_embedding_text(out.getvalue())
    assert list(again.words) == list(table.words)
    assert np.array_equal(again.matrix, table.matrix)


def test_round_trip_large_vocabulary():
    rng = np.random.default_rng(0)
    n, dim = 26264, 5
    words = [f"w{i}" for i in range(n)]
    matrix = rng.standard_normal((n, dim))
    table = EmbeddingTable(dimension=dim, words=words, matrix=matrix)
    out = io.StringIO()
    write_embedding_text(table, out)
    again = parse_embedding_text(io.StringIO(out.getvalue()))
    assert list(again.words) == words
    assert np.array_equal(again.matrix, matrix)


finite_vec = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d))


@given(finite_vec)
def test_cosine_self_and_negation(v):
    u = np.array(v)
    if np.linalg.norm(u) == 0.0:
        return
    assert cosine_distance(u, u) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(u, -u) == pytest.approx(2.0, abs=1e-12)


@given(finite_vec, st.randoms(use_true_random=False),
       st.floats(1e-3, 1e3))
def test_cosine_symmetry_and_scale_invariance(v, rnd, c):
    u = np.array(v)
    w = np.array([rnd.uniform(-10, 10) for _ in v])
    if np.linalg.norm(u) == 0.0 or np.linalg.norm(w) == 0.0:
        return
    assert cosine_distance(u, w) == pytest.approx(cosine_distance(w, u), abs=1e-12)
    assert cosine_distance(c * u, w) == pytest.approx(cosine_distance(u, w), abs=1e-9)
    assert 0.0 <= cosine_distance(u, w) <= 2.0


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=400))
def test_parser_fuzz_never_violates_invariants(blob):
    try:
        table = parse_embedding_text(blob)
    except EmbeddingParseError:
        return
    assert len(table.words) == len(set(table.words))
    assert table.matrix.shape == (len(table.words), table.dimension)
    assert np.all(np.isfinite(table.matrix))
    assert np.all(np.linalg.norm(table.matrix, axis=1) > 0.0)


def test_indices():
    table = parse_embedding_text("cat 1 0\ndog 0 1\n")
    idx = table.indices(["dog", "fish", "cat"])
    assert idx.tolist() == [1, -1, 0]
    assert table.indices([]).shape == (0,)


# --- differential tests: the per-token reader and per-value writer this module
# used before, kept here as references ----------------------------------------

def _reference_parse(stream):
    words, rows, index = [], [], {}
    duplicates = skipped = 0
    dim = None
    first_line = True
    for raw_line in io.StringIO(stream):
        line = raw_line.rstrip("\r\n")
        tokens = line.split()
        if first_line and len(tokens) == 2 and all(t.isdigit() for t in tokens):
            first_line = False
            continue
        first_line = False
        if not tokens:
            continue
        if dim is None:
            if len(tokens) < 2:
                raise EmbeddingParseError("bad format")
            try:
                vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingParseError("bad format") from exc
            dim = len(tokens) - 1
            if not np.all(np.isfinite(vec)) or np.linalg.norm(vec) == 0.0:
                skipped += 1
                dim = None
                continue
            index[tokens[0]] = len(words)
            words.append(tokens[0])
            rows.append(vec)
            continue
        if len(tokens) != dim + 1:
            skipped += 1
            continue
        try:
            vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError:
            skipped += 1
            continue
        if not np.all(np.isfinite(vec)) or np.linalg.norm(vec) == 0.0:
            skipped += 1
            continue
        if tokens[0] in index:
            duplicates += 1
            continue
        index[tokens[0]] = len(words)
        words.append(tokens[0])
        rows.append(vec)
    if not rows:
        raise EmbeddingParseError("no vectors")
    return EmbeddingTable(dimension=dim, words=words, matrix=np.vstack(rows),
                          duplicate_warnings=duplicates, skipped_rows=skipped)


def _reference_write(table, stream):
    def render(v):
        s = repr(float(v))
        return s[:-2] if s.endswith(".0") else s

    written = 0
    header = f"{len(table)} {table.dimension}\n"
    stream.write(header)
    written += len(header)
    for i, word in enumerate(table.words):
        line = word + " " + " ".join(render(v) for v in table.matrix[i]) + "\n"
        stream.write(line)
        written += len(line)
    return written


def _outcome(parse, text, **kwargs):
    try:
        t = parse(text, **kwargs)
    except EmbeddingParseError as exc:
        return ("error", str(exc))
    return (t.dimension, t.words, t.matrix.shape, t.matrix.tobytes(),
            t.skipped_rows, t.duplicate_warnings)


WORDS = ["a", "b", "c", "v1.0", "é"]
_value = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["0", "-0", "0.0", "nan", "-inf", "1e400", "1e-400", "5e-324",
                     "1_000", "+.5", "abc", "١٢٣", "0x10"]))
_row = st.tuples(st.sampled_from(WORDS), st.lists(_value, max_size=4)).map(
    lambda r: [r[0], *r[1]])
_line = st.one_of(_row, _row, _row, st.just([]),
                  st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
                      lambda h: [str(h[0]), str(h[1])]))
vector_streams = st.tuples(
    st.lists(st.tuples(_line, st.sampled_from([" ", "\t", "  "]),
                       st.sampled_from(["\n", "\r\n"])), max_size=12),
    st.booleans()).map(
    lambda s: "".join(sep.join(toks) + end for toks, sep, end in s[0])
    + ("tail 1 2" if s[1] else ""))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300)
@given(vector_streams)
def test_parse_matches_per_token_reference(text):
    assert _outcome(parse_embedding_text, text) == _outcome(_reference_parse, text)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300)
@given(vector_streams, st.sets(st.sampled_from(WORDS)))
def test_parse_with_vocabulary_is_restricted_full_parse(text, vocabulary):
    full = _outcome(parse_embedding_text, text)
    part = _outcome(parse_embedding_text, text, vocabulary=vocabulary)
    if full[0] == "error":
        assert part == full
        return
    table = parse_embedding_text(text)
    keep = [i for i, w in enumerate(table.words) if i == 0 or w in vocabulary]
    restricted = parse_embedding_text(text, vocabulary=vocabulary)
    assert restricted.dimension == table.dimension
    assert restricted.words == [table.words[i] for i in keep]
    assert restricted.matrix.tobytes() == table.matrix[keep].tobytes()


def test_parse_with_vocabulary_cases():
    # "b" first occurs in an invalid row; its later valid row is the one kept
    text = "a 1 2\nb nan 1\nc 1 1\nb 3 4\nb 5 6\n"
    table = parse_embedding_text(text, vocabulary={"b"})
    assert table.words == ["a", "b"]
    assert table.lookup("b").tolist() == [3.0, 4.0]
    assert table.skipped_rows == 1 and table.duplicate_warnings == 1
    # rejected leading rows are read as before; the first accepted row is kept
    table = parse_embedding_text("3 2\nz 0 0\ny nan 1\na 1 2\nq 1 1\n", vocabulary={"q"})
    assert table.words == ["a", "q"] and table.skipped_rows == 2
    assert parse_embedding_text("a 1 2\nb 1 1\n", vocabulary=set()).words == ["a"]
    with pytest.raises(EmbeddingParseError, match="bad format"):
        parse_embedding_text("z 0 0\nq abc 1\n", vocabulary={"a"})


def _write(writer, table):
    out = io.StringIO()
    n = writer(table, out)
    return out.getvalue(), n


def test_write_matches_per_value_reference_on_edge_values():
    matrix = np.array([[-0.0, 1e16, 1e-05, 5e-324, 3.0],
                       [10.0, -2.0, 0.1, 1e22, 123456789.0],
                       [1.5, 100.0, -1e-300, 2.0 ** 60, 0.0]])
    table = EmbeddingTable(dimension=5, words=["v1.0", "w", "1.0"], matrix=matrix)
    text, n = _write(write_embedding_text, table)
    assert (text, n) == _write(_reference_write, table)
    assert text.splitlines()[1:] == [
        "v1.0 -0 1e+16 1e-05 5e-324 3",
        "w 10 -2 0.1 1e+22 123456789",
        "1.0 1.5 100 -1e-300 1.152921504606847e+18 0"]


@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                         | st.integers(-10**6, 10**6).map(float),
                         min_size=3, max_size=3), min_size=1, max_size=5))
def test_write_matches_per_value_reference(rows):
    table = EmbeddingTable(dimension=3, words=[f"w{i}.0" for i in range(len(rows))],
                           matrix=np.array(rows, dtype=np.float64))
    assert _write(write_embedding_text, table) == _write(_reference_write, table)
