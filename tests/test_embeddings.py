"""Tests for the embedding table: parsing, serialization, cosine distance."""
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrastmap import InputError, embeddings
from contrastmap.embeddings import (EmbeddingTable, cosine_distance,
                                    parse_embedding_text, write_embedding_text)
from contrastmap.training import concat_embeddings, write_concat_text


def test_parse_basic():
    table = parse_embedding_text("cat 0.1 0.2 0.3\ndog 1 0 0")
    assert table.dimension == 3
    assert list(table.words) == ["cat", "dog"]
    assert np.allclose(table.matrix, [[0.1, 0.2, 0.3], [1, 0, 0]])


def test_parse_header_and_duplicate():
    table = parse_embedding_text("2 3\ncat 0.1 0.2 0.3\ncat 9 9 9\ndog 1 0 0")
    assert table.dimension == 3
    assert table.words == ["cat", "dog"]
    assert np.allclose(table.matrix, [[0.1, 0.2, 0.3], [1, 0, 0]])  # first wins
    assert table.duplicate_warnings == 1


def test_parse_sole_zero_norm_row_is_no_vectors():
    with pytest.raises(InputError, match="no vectors"):
        parse_embedding_text("cat 0 0 0")


def test_zero_norm_rule_is_the_same_for_the_first_row():
    # 1e-200 squared underflows, so these rows have norm 0 wherever they sit
    table = parse_embedding_text("a 1e-200 1e-200\nb 1e-200 1e-200\nc 1 2\n")
    assert table.words == ["c"] and table.skipped_rows == 2
    table = parse_embedding_text("a 5e-324\nb 1\n")
    assert table.words == ["b"] and table.skipped_rows == 1
    assert np.all(np.linalg.norm(table.matrix, axis=1) > 0.0)


def test_parse_empty_stream():
    with pytest.raises(InputError, match="no vectors"):
        parse_embedding_text("")


def test_parse_bad_first_line():
    with pytest.raises(InputError, match="bad format"):
        parse_embedding_text("justoneword")
    with pytest.raises(InputError, match="bad format"):
        parse_embedding_text("word abc def")


def test_parse_skips_malformed_rows():
    # "big" squares to inf but is finite: kept, without an overflow warning
    stream = "cat 1 0\ndog 1\nfish 0 0\nbird nan 1\nfox 2 2\nbig 1e200 1e200\n"
    table = parse_embedding_text(stream)
    assert list(table.words) == ["cat", "fox", "big"]
    assert table.skipped_rows == 3  # wrong arity, zero norm, non-finite


def test_parse_crlf():
    table = parse_embedding_text(io.StringIO("cat 1 2\r\ndog 3 4\r\n"))
    assert np.allclose(table.matrix[table.indices(["dog"])], [[3, 4]])


def test_indices_exact_case_sensitive_and_absent():
    table = parse_embedding_text("cat 0.1 0.2 0.3\ndog 1 0 0")
    rows = table.indices(["dog", "cat", "Cat", "fish", "ca", "cat "])
    assert rows.dtype == np.intp
    assert rows.tolist() == [1, 0, -1, -1, -1, -1]  # exact, case-sensitive, -1 if absent
    assert np.allclose(table.matrix[rows[:2]], [[1, 0, 0], [0.1, 0.2, 0.3]])
    assert table.indices([]).shape == (0,)


def test_cosine_distance_canonical_values():
    assert type(cosine_distance(np.array([1.0, 2.0]), np.array([3.0, 1.0]))) is float
    assert cosine_distance([1, 0], [2, 0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_distance([1, 0], [-1, 0]) == pytest.approx(2.0, abs=1e-12)


def test_cosine_distance_errors():
    with pytest.raises(ValueError, match="degenerate vector"):
        cosine_distance([0, 0], [1, 0])
    with pytest.raises(ValueError, match="degenerate vector"):
        cosine_distance([1e200, 0], [0, 0])
    with pytest.raises(ValueError, match="degenerate vector"):
        cosine_distance([], [])
    with pytest.raises(ValueError, match="degenerate vector"):
        cosine_distance([[1, 0], [0, 0]], [[1, 0], [1, 0]])
    with pytest.raises(ValueError, match="mismatch"):
        cosine_distance([1, 0], [1, 0, 0])
    with pytest.raises(ValueError, match="mismatch"):
        cosine_distance([[1, 0]], [1, 0])


@pytest.mark.filterwarnings("error")
def test_cosine_distance_extreme_magnitudes():
    tiny = np.array([1.2775512486188477e-160])
    assert cosine_distance(tiny, [3.0]) == 0.0
    assert cosine_distance(tiny / 128, [3.0]) == 0.0
    assert cosine_distance([5e-324, 0.0], [0.0, 1e300]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_distance([1e200, 1e200], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance([1e-170, -1e-170], [-2.0, 2.0]) == pytest.approx(2.0, abs=1e-12)


def test_write_basic():
    table = EmbeddingTable(words=["a"], matrix=np.array([[1.0, 0.0]]))
    out = io.StringIO()
    n = write_embedding_text(table, out)
    assert out.getvalue() == "1 2\na 1 0\n"
    assert n == len(out.getvalue())


def test_table_is_its_words_and_its_matrix():
    table = EmbeddingTable(words=["a", "b"], matrix=np.zeros((2, 5)))
    assert table.dimension == 5 and len(table) == 2
    with pytest.raises(ValueError, match="one row per word"):
        EmbeddingTable(words=["a", "b"], matrix=np.zeros(2))
    with pytest.raises(ValueError, match="one row per word"):
        EmbeddingTable(words=["a", "b", "c"], matrix=np.zeros((1, 2)))
    with pytest.raises(TypeError):
        EmbeddingTable(words=["a"], matrix=np.zeros((1, 3)), dimension=3)


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
    table = EmbeddingTable(words=words, matrix=matrix)
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
    except InputError:
        return
    assert len(table.words) == len(set(table.words))
    assert table.matrix.shape == (len(table.words), table.dimension)
    assert np.all(np.isfinite(table.matrix))
    assert np.all(np.linalg.norm(table.matrix, axis=1) > 0.0)


def _traced_parse(path, vocabulary=None):
    """The table parsed from ``path`` and the parse's tracemalloc peak."""
    with open(path, encoding="utf-8") as f:
        tracemalloc.start()
        try:
            parsed = parse_embedding_text(f, vocabulary=vocabulary)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return parsed, peak


def _written_table(path, rows, dim, header=True):
    table = EmbeddingTable(words=[f"w{i}" for i in range(rows)],
                           matrix=np.random.default_rng(0).standard_normal((rows, dim)))
    text = _write(write_embedding_text, table)[0]
    path.write_text(text if header else text.split("\n", 1)[1], encoding="utf-8")
    return table


def test_parse_peak_memory_stays_under_1_75_times_the_matrix(tmp_path):
    # a headerless file: the matrix grows as rows arrive
    table = _written_table(tmp_path / "vectors.txt", 3000, 100, header=False)
    parsed, peak = _traced_parse(tmp_path / "vectors.txt")
    assert parsed.matrix.tobytes() == table.matrix.tobytes()
    assert peak < 1.75 * parsed.matrix.nbytes


def test_parse_peak_memory_stays_under_1_15_times_the_matrix_with_a_header(tmp_path):
    # the header's count sizes the matrix once; the rest is each word and its
    # index entry, about 200 bytes a row, so the width is GloVe's 300
    table = _written_table(tmp_path / "vectors.txt", 3000, 300)
    parsed, peak = _traced_parse(tmp_path / "vectors.txt")
    assert parsed.matrix.tobytes() == table.matrix.tobytes()
    assert parsed.matrix.base is None  # no view into a larger buffer
    assert peak < 1.15 * parsed.matrix.nbytes
    # a vocabulary caps the rows allocated at its size plus the first row
    parsed, peak = _traced_parse(tmp_path / "vectors.txt", vocabulary={"w5", "w9", "x"})
    assert parsed.words == ["w0", "w5", "w9"]
    assert peak < 0.05 * table.matrix.nbytes


def test_parse_peak_memory_stays_under_1_75_times_the_matrix_past_a_small_count(tmp_path):
    # rows past the header's count grow the matrix by half again, as a
    # headerless parse does; one row short of the count grows it the most
    table = _written_table(tmp_path / "vectors.txt", 3000, 100)
    body = (tmp_path / "vectors.txt").read_text(encoding="utf-8").split("\n", 1)[1]
    for count in (10, 2999):
        (tmp_path / "vectors.txt").write_text(f"{count} 100\n" + body, encoding="utf-8")
        parsed, peak = _traced_parse(tmp_path / "vectors.txt")
        assert parsed.matrix.tobytes() == table.matrix.tobytes()
        assert parsed.matrix.base is None  # no view into a larger buffer
        assert peak < 1.75 * parsed.matrix.nbytes


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
                raise InputError("bad format")
            try:
                vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
            except ValueError as exc:
                raise InputError("bad format") from exc
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
        raise InputError("no vectors")
    return EmbeddingTable(words=words, matrix=np.vstack(rows),
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
    except InputError as exc:
        return ("error", str(exc))
    return (t.dimension, t.words, t.matrix.shape, t.matrix.tobytes(),
            t.skipped_rows, t.duplicate_warnings)


WORDS = ["a", "b", "c", "v1.0", "é"]
# 30-digit mantissas, as plain decimals and with exponents
_long_mantissa = st.tuples(st.integers(10**29, 10**30 - 1), st.integers(-340, 310),
                           st.sampled_from(["{m}e{e}", "-0.{m}e{e}", "{m}.5", "0.{m}"])).map(
    lambda t: t[2].format(m=t[0], e=t[1]))
_value = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    _long_mantissa,
    # tokens that JSON and float() read differently, or that only one reads
    st.sampled_from(["0", "-0", "0.0", "nan", "-inf", "1e400", "1e-400", "5e-324",
                     "1_000", "+.5", "abc", "١٢٣", "0x10", "true", "null", '"1"',
                     "[1]", "0.5,2.5", "0e999999", "18446744073709551616", "1E5", "-0.0",
                     # JSON values that hold a "." but are not floats
                     '"1.5"', '"."', "[1.5]", '{"a":1.5}']))
_row = st.tuples(st.sampled_from(WORDS), st.lists(_value, max_size=4)).map(
    lambda r: [r[0], *r[1]])
_line = st.one_of(_row, _row, _row, st.just([]),
                  st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
                      lambda h: [str(h[0]), str(h[1])]))
vector_streams = st.tuples(
    st.lists(st.tuples(_line, st.sampled_from([" ", "\t", "  ", "\t ", " \t", "\xa0"]),
                       st.sampled_from(["\n", "\r\n", " \n"])), max_size=12),
    st.booleans()).map(
    lambda s: "".join(sep.join(toks) + end for toks, sep, end in s[0])
    + ("tail 1 2" if s[1] else ""))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300)
@given(vector_streams)
@example("a 0.5,2.5\nb 1.5 2.5\n")  # a comma is not a separator
@example("a 1.5 2.5\nb 0.5,2.5 1.5\n")
@example("a -0 1.5\nb 1.5 -0.0\n")  # the int -0 is read as -0.0
@example('a 1.5 2.5\nb "1.5" "2.5"\nc [1.5] 2.5\nd {"a":1.5} "."\ne 0.5 1.5\n')  # one "." a value
def test_parse_matches_per_token_reference(text):
    assert _outcome(parse_embedding_text, text) == _outcome(_reference_parse, text)


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("values", [
    "1e-200 1e-200",         # each square underflows: the dot is 0
    "1e-160 0",              # a subnormal square: the dot is not 0
    "5e-324 -5e-324",        # subnormal values
    "2.2250738585072014e-308 1e-300",
    "1e200 1e200",           # the dot is inf, but the row is finite and kept
    "-1e300 1e-300",
    "inf 1", "-inf 1", "nan 1", "1e400 0",
    "0 0", "-0.0 0.0", "-0 -0", "0.0 -0.0",
])
def test_rows_at_the_dot_limits_follow_the_norm_rule(values):
    for text in (f"a {values}\nb 1 2\n", f"a 1 2\nb {values}\nc 3 4\n"):
        assert _outcome(parse_embedding_text, text) == _outcome(_reference_parse, text)


def test_header_line_that_is_also_a_row_is_skipped_only_as_line_0():
    text = "2 1\n2 1\n3 1.5\n"
    assert _outcome(parse_embedding_text, text) == _outcome(_reference_parse, text)
    table = parse_embedding_text(text)
    assert table.words == ["2", "3"] and table.matrix.tolist() == [[1.0], [1.5]]


def _header_outcomes(count, header_dim, body, vocabulary):
    """The parse of ``body`` under a ``count dim`` header (None: no header), and
    under an empty first line, which keeps ``body``'s lines where they are but
    sizes nothing."""
    header = "" if count is None else f"{count} {header_dim}"
    kwargs = {} if vocabulary is None else {"vocabulary": vocabulary}
    return (_outcome(parse_embedding_text, header + "\n" + body, **kwargs),
            _outcome(parse_embedding_text, "\n" + body, **kwargs))


@settings(max_examples=300)
@given(vector_streams, st.sampled_from([None, 0, 1, 2, 3, 5, 100, 10**12]),
       st.integers(0, 9), st.none() | st.sets(st.sampled_from(WORDS)))
@example("a 1 2\nb 3 4\nc 5 6\n", 2, 2, None)  # more rows than the count
@example("a 1 2\nb 3 4\nc 5 6\n", 10**12, 2, None)  # a count no allocation serves
@example("a 1 2\nb 3 4\nc 5 6\n", 10**12, 2, {"c"})  # capped by the vocabulary
@example("a 1 2\nb nan 4\na 5 6\nc 1\n", 4, 7, None)  # fewer rows than the count
def test_header_sized_parse_equals_the_headerless_parse(body, count, header_dim, vocabulary):
    sized, unsized = _header_outcomes(count, header_dim, body, vocabulary)
    assert sized == unsized


def test_header_sized_parse_cases():
    body = "".join(f"w{i} {i + 1} -{i}.5\n" for i in range(40)) + "w3 9 9\nx nan 1\n"
    for count in (None, 0, 1, 39, 40, 41, 42, 1000, 10**12, 10**100):
        for vocabulary in (None, {"w7", "w39", "x"}, set()):
            sized, unsized = _header_outcomes(count, 2, body, vocabulary)
            assert sized == unsized
        assert sized[4:] == (0, 0)  # the last vocabulary holds none of the rejected rows
    assert _header_outcomes(41, 2, body, None)[0][4:] == (1, 1)
    # a header count int() cannot read is still a header
    assert _header_outcomes("\u00b2", 2, body, None)[0][1] == [f"w{i}" for i in range(40)]


def test_parse_with_vocabulary_cases():
    # "b" first occurs in an invalid row; its later valid row is the one kept
    text = "a 1 2\nb nan 1\nc 1 1\nb 3 4\nb 5 6\n"
    table = parse_embedding_text(text, vocabulary={"b"})
    assert table.words == ["a", "b"]
    assert table.matrix[table.indices(["b"])].tolist() == [[3.0, 4.0]]
    assert table.skipped_rows == 1 and table.duplicate_warnings == 1
    # rejected leading rows are read as before; the first accepted row is kept
    table = parse_embedding_text("3 2\nz 0 0\ny nan 1\na 1 2\nq 1 1\n", vocabulary={"q"})
    assert table.words == ["a", "q"] and table.skipped_rows == 2
    assert parse_embedding_text("a 1 2\nb 1 1\n", vocabulary=set()).words == ["a"]
    with pytest.raises(InputError, match="bad format"):
        parse_embedding_text("z 0 0\nq abc 1\n", vocabulary={"a"})


def _write(writer, table):
    out = io.StringIO()
    n = writer(table, out)
    return out.getvalue(), n


# both sides of each point where repr changes notation
_SWITCH_VALUES = [v for x in (1e-4, 1e16) for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]


def test_write_matches_per_value_reference_on_edge_values():
    matrix = np.array([[-0.0, 1e16, 1e-05, 5e-324, 3.0],
                       [10.0, -2.0, 0.1, 1e22, 123456789.0],
                       [1.5, 100.0, -1e-300, 2.0 ** 60, 0.0],
                       [0.5, -0.0, 1e-4, 0.0, 1e15],
                       [np.nextafter(1e16, 0), -np.nextafter(1e-4, 1), 2.5, -7.0, 0.25]])
    table = EmbeddingTable(words=["v1.0", "w", "1.0", "in", "edges"],
                           matrix=matrix)
    text, n = _write(write_embedding_text, table)
    assert (text, n) == _write(_reference_write, table)
    assert text.splitlines()[1:] == [
        "v1.0 -0 1e+16 1e-05 5e-324 3",
        "w 10 -2 0.1 1e+22 123456789",
        "1.0 1.5 100 -1e-300 1.152921504606847e+18 0",
        "in 0.5 -0 0.0001 0 1000000000000000",
        "edges 9999999999999998 -0.00010000000000000002 2.5 -7 0.25"]
    # each switch value alone in an otherwise in-range row
    table = EmbeddingTable(words=[f"s{i}" for i in range(12)],
                           matrix=np.array([[s * v, 2.5, -7.0] for v in _SWITCH_VALUES
                                            for s in (1.0, -1.0)]))
    assert _write(write_embedding_text, table) == _write(_reference_write, table)


_write_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-4, 1e16),
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([*_SWITCH_VALUES, 5e-324, 1e-310, 0.0]).flatmap(
        lambda v: st.sampled_from([v, -v])))


@given(st.integers(1, 50).flatmap(lambda d: st.lists(
    st.lists(_write_value, min_size=d, max_size=d), min_size=1, max_size=5)))
def test_write_matches_per_value_reference(rows):
    table = EmbeddingTable(words=[f"w{i}.0" for i in range(len(rows))],
                           matrix=np.array(rows, dtype=np.float64))
    assert _write(write_embedding_text, table) == _write(_reference_write, table)


@pytest.mark.parametrize("layout", ["float32", "fortran", "column-slice"])
def test_write_matches_per_value_reference_on_other_layouts(layout):
    rng = np.random.default_rng(4)
    wide = rng.standard_normal((300, 12)) * 10.0 ** rng.integers(-6, 18, size=(300, 12))
    matrix = {"float32": wide.astype(np.float32), "fortran": np.asfortranarray(wide),
              "column-slice": wide[:, ::2]}[layout]
    table = EmbeddingTable(words=[f"w{i}" for i in range(300)],
                           matrix=matrix)
    assert _write(write_embedding_text, table) == _write(_reference_write, table)


def test_in_range_tables_never_take_the_per_value_paths(tmp_path, monkeypatch):
    # a bug that sent every row down the slow path would pass every other test
    rng = np.random.default_rng(5)
    matrix = rng.uniform(1e-3, 1e3, size=(500, 30)) * rng.choice([-1.0, 1.0], size=(500, 30))
    zeros = matrix.copy()
    zeros[::7, 3] = 0.0
    zeros[1::7, 4] = -0.0

    def refuse(*args):
        raise AssertionError("per-value path taken")

    strip = embeddings._without_point_zero
    paths = []
    for name, m in (("vectors.txt", matrix), ("zeros.txt", zeros)):
        table = EmbeddingTable(words=[f"w{i}" for i in range(500)], matrix=m)
        paths.append(tmp_path / name)
        cut = []  # the rows whose ".0" the writer cuts

        def counting_strip(text):
            cut.append(text)
            return strip(text)

        with monkeypatch.context() as patch:
            patch.setattr(embeddings, "repr", refuse, raising=False)
            patch.setattr(embeddings, "_without_point_zero", counting_strip)
            with open(paths[-1], "w", encoding="utf-8", newline="\n") as f:
                write_embedding_text(table, f)
        assert paths[-1].read_text(encoding="utf-8") == _write(_reference_write, table)[0]
        # only rows holding an integral value: none of vectors.txt, 144 zero rows of zeros.txt
        assert len(cut) == (0 if m is matrix else 144)
    # zeros are written as the JSON ints "0" and "-0"; orjson reads the int 0,
    # which loses the sign of -0, so only the rows holding "-0" go to float()
    convert = embeddings._floats
    per_token = []

    def recording_tokens(values, matrix, i):
        if any(isinstance(v, str) for v in values):
            per_token.append(i)
        convert(values, matrix, i)

    monkeypatch.setattr(embeddings, "_floats", recording_tokens)
    for path, m in zip(paths, (matrix, zeros)):
        per_token.clear()
        with open(path, encoding="utf-8") as f:
            parsed = parse_embedding_text(f)
        assert parsed.words == table.words
        assert parsed.matrix.tobytes() == m.tobytes()
        assert per_token == ([] if m is matrix else list(range(1, 500, 7)))


@pytest.mark.parametrize("token", ["0", "-0", "7", "9007199254740993", "18446744073709551615",
                                   "18446744073709551616", "true", "null"])
def test_integral_tokens_read_as_float_reads_them(token):
    # a row of ints takes the orjson path, except where "-0" would lose its sign
    text = f"a 1.5 2.5 3.5\nb 1 {token} 2\nc {token} 0.5 -0.25\n"
    assert _outcome(parse_embedding_text, text) == _outcome(_reference_parse, text)


def test_rows_mixing_notations_repr_only_their_out_of_range_values(monkeypatch):
    rng = np.random.default_rng(7)
    matrix = rng.uniform(1e-3, 1e3, size=(600, 20)) * rng.choice([-1.0, 1.0], size=(600, 20))
    for value, step in ((1e-5, 3), (-2.5e-7, 5), (1e17, 4), (-3e20, 9), (5e-324, 11),
                        (0.0, 2), (-0.0, 6), (7.0, 8), (np.nextafter(1e16, 0), 13)):
        matrix[::step, (step * 7) % 20] = value
    table = EmbeddingTable(words=[f"w{i}.0" for i in range(600)], matrix=matrix)
    magnitude = np.abs(matrix)
    out_of_range = int(np.sum((magnitude != 0.0) & ((magnitude < 1e-4) | (magnitude >= 1e16))))
    rendered = []

    def counting_repr(value):
        rendered.append(value)
        return repr(value)

    monkeypatch.setattr(embeddings, "repr", counting_repr, raising=False)
    assert _write(write_embedding_text, table) == _write(_reference_write, table)
    assert len(rendered) == out_of_range


@pytest.mark.parametrize("raw_row, new_row", [
    ([0.5, -1.25, 2.0], [0.75, 1.5]),  # the last raw column: ".0 " before the new part
    ([0.5, -1.25, 2.5], [0.75, 3.0]),  # the last new column: ".0\n"
    ([0.0, -0.0, 0.0], [-0.0, 0.0]),  # a row of only signed zeros
    ([0.5, 1e15, 2.5], [0.75, 1.5]),
    ([0.5, -1.25, 2.5], [np.nextafter(1e16, 0), 1.5]),
], ids=["last-raw", "last-new", "signed-zeros", "1e15", "below-1e16"])
def test_concat_text_cuts_the_point_zero_of_a_sole_integral_value(raw_row, new_row):
    # each table's other rows hold no integral value, so only this row is cut
    raw = EmbeddingTable(words=["a", "b", "c"],
                         matrix=np.array([[0.25, 1.5, -2.5], raw_row, [-0.5, 3.25, 4.5]]))
    new = EmbeddingTable(words=["c", "b"], matrix=np.array([[1.75, -0.125], new_row]))
    written = io.StringIO()
    n = write_concat_text(raw, new, written)
    assert (written.getvalue(), n) == _write(_reference_write, concat_embeddings(raw, new))
