"""Word-vector tables: text-format parsing, serialization, row indices and cosine distance.

The on-disk format is the plain text layout shared by the GloVe/FastText
distributions: one word per line followed by its vector components, with an
optional ``count dim`` header line. Only this text format is supported; the
binary Word2Vec format must be converted externally.

A table is its words and its matrix, one row per word; its dimension is the
matrix's width, and the constructor checks the two agree.

The reader is one loop that stores each row straight into the next row of
one matrix; an unusable row is overwritten by the next. orjson, whose number
reader rounds as ``float`` does, reads a row of JSON numbers: one with no
``"``, ``[`` or ``{`` and one ``.`` per value (a JSON number holds one only
if it is a float), or else whose values all load as floats or ints, with no
``-0`` among them. Any other row (a ``-0``, other spacing, ``nan``) converts
token by token by ``float``'s rules.
The first accepted row sizes the matrix: under a ``count dim`` header, for
``count`` rows, cut to the rows accepted, so a parse whose count is at least
its rows peaks near 1.0 times its matrix; without one, or past a count that
is too small, it grows by half again as rows arrive and peaks under 1.75 times.
Given a ``vocabulary``, it converts only the rows a caller will use:
after the first accepted row (which fixes the dimension and is always kept),
a row whose word is outside the vocabulary is passed over unconverted and
uncounted. The result is the full parse restricted to the
vocabulary plus that first row, in file order and bit for bit.

The writer prints the shortest round-trip form of each value, as ``repr``
does, and prints integral values without their trailing ``.0``. orjson's Ryu
printer renders a row, which gives ``repr``'s text for 0 and for magnitudes
in [1e-4, 1e16); ``repr`` renders the values outside that range, where the
two choose different notations. Only rows holding an integral value have a
``.0`` to cut. A value's text does not depend on its row, so the rows of
two tables side by side can be written without building their concatenation.
"""
from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import IO, Container, Iterable, Iterator, Sized

import numpy as np
import orjson

from .errors import InputError


@dataclass
class EmbeddingTable:
    """Immutable word -> dense vector table: ``words[i]`` owns ``matrix[i]``.

    Vectors are stored row-wise in a single 2-D float64 matrix with one row
    per word; the constructor rejects any other shape. ``indices`` and ``in``
    match words exactly, case included. ``duplicate_warnings`` and
    ``skipped_rows`` count what a parse dropped.
    """

    words: list[str]
    matrix: np.ndarray
    duplicate_warnings: int = 0
    skipped_rows: int = 0

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.words):
            raise ValueError(f"matrix of shape {self.matrix.shape} for "
                             f"{len(self.words)} words: need one row per word")
        self._index = {w: i for i, w in enumerate(self.words)}

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def indices(self, words: Iterable[str]) -> np.ndarray:
        """Row index of each word, -1 where the word is absent."""
        get = self._index.get
        return np.array([get(w, -1) for w in words], dtype=np.intp)


def _as_lines(stream: str | IO[str] | Iterable[str]) -> Iterable[str]:
    if isinstance(stream, str):
        return io.StringIO(stream)
    return stream


def _is_header(tokens: list[str]) -> bool:
    return len(tokens) == 2 and all(t.isdigit() for t in tokens)


def _allocated(count: str, dim: int, vocabulary: Container[str] | None) -> np.ndarray:
    """An empty matrix for the ``count`` rows a header promises, but no more
    than a sized ``vocabulary`` lets through (its words and the first row),
    or of no rows for a count no allocation can serve."""
    try:
        rows = int(count)
        if isinstance(vocabulary, Sized):
            rows = min(rows, len(vocabulary) + 1)
        return np.empty((rows, dim))
    except (ValueError, MemoryError):  # a digit int() does not read, or far too many rows
        return np.empty((0, dim))


def _floats(values: list[str] | list[float | int], matrix: np.ndarray, i: int) -> None:
    """Store a row's values as row ``i`` of the C-contiguous float64 ``matrix``;
    tokens convert by Python's ``float`` rules."""
    if isinstance(values[0], str):
        values = map(float, values)
    # struct packs a list of floats two to three times faster than numpy assigns it
    struct.pack_into(f"{matrix.shape[1]}d", matrix, i * matrix.strides[0], *values)


def _json_floats(rest: str) -> list[float | int] | None:
    """The values of ``rest`` if it is JSON numbers split by single spaces, else None.

    Every JSON number is a valid ``float`` literal, and orjson rounds a float
    as ``float`` does; an int it returns converts to the float ``float`` reads
    from its text, except ``-0``, whose sign the int drops. So a result
    converts to the bits ``rest.split()`` does. Anything else (a ``-0``,
    other JSON values, a comma that ``split`` would not split at, any other
    spacing) is None and left to the per-token conversion.
    """
    if "," in rest:
        return None
    try:
        values = orjson.loads("[" + rest.rstrip().replace(" ", ",") + "]")
    except orjson.JSONDecodeError:
        return None
    # without strings, arrays or objects the values are numbers, true, false and
    # null; a JSON number holds at most one ".", and holds one only if it is a float
    if rest.count(".") == len(values) and not ('"' in rest or "[" in rest or "{" in rest):
        return values
    exact = {*map(type, values)} <= {float, int} and "-0" not in rest.split()
    return values if exact else None


def parse_embedding_text(stream: str | IO[str] | Iterable[str],
                         vocabulary: Container[str] | None = None) -> EmbeddingTable:
    """Parse a text vector stream into an :class:`EmbeddingTable`.

    An optional first line ``count dim`` (two bare integers) is skipped;
    its count only sizes the matrix, so a wrong count gives the same table.
    The dimension is inferred from the first content line. Rows with wrong
    arity, non-finite values or a zero norm (as ``np.linalg.norm`` computes
    it, so rows of tiny values whose norm underflows count) are skipped and
    counted, the first row by the same rule as the others; duplicate
    words keep the first occurrence and bump ``duplicate_warnings``.

    With a ``vocabulary``, rows after the first accepted one are read only
    for words in it; the others are neither converted nor counted.
    """
    words: list[str] = []
    seen: set[str] = set()
    duplicates = 0
    skipped = 0
    dim: int | None = None  # fixed by the first accepted row
    count = "0"  # the header's row count: without one, the matrix starts with no rows
    matrix = np.empty((0, 0))
    filled = 0  # rows accepted; row ``filled`` takes the next candidate
    with np.errstate(over="ignore"):  # huge finite values square to inf
        for n, line in enumerate(_as_lines(stream)):
            head = line.split(None, 1)
            if not head or (dim is not None and vocabulary is not None
                            and head[0] not in vocabulary):
                continue
            if n == 0 and _is_header(line.split()):
                count = head[0]
                continue
            values = _json_floats(head[1]) if len(head) == 2 else None
            if values is None:  # left to the per-token conversion
                values = line.split()[1:]
            if dim is None:
                if not values:
                    raise InputError("bad format")
                if matrix.shape[1] != len(values):
                    matrix = _allocated(count, len(values), vocabulary)
            elif len(values) != dim:
                skipped += 1
                continue
            if filled == len(matrix):  # grow in place by half again
                matrix.resize((filled + filled // 2 + 4, len(values)), refcheck=False)
            try:
                _floats(values, matrix, filled)
            except ValueError as exc:
                if dim is None:  # no row has fixed the dimension yet
                    raise InputError("bad format") from exc
                skipped += 1
                continue
            row = matrix[filled]
            dot = row @ row  # np.linalg.norm(row) is its sqrt, so it is 0 where this is
            if not 0.0 < dot < np.inf and (dot == 0.0 or not np.all(np.isfinite(row))):
                skipped += 1  # a rejected first row leaves the dimension open
                continue
            dim = len(values)
            word = head[0]
            if word in seen:
                duplicates += 1
                continue
            seen.add(word)
            words.append(word)
            filled += 1
    if dim is None:
        raise InputError("no vectors")
    matrix.resize((filled, dim), refcheck=False)
    seen.clear()  # the table builds its own index
    return EmbeddingTable(words=words, matrix=matrix,
                          duplicate_warnings=duplicates, skipped_rows=skipped)


# bytes of float64 table rows that every blocked copy of rows takes: the
# writer's, the concat table's, and the pair distances' and features'
GATHER_BYTES = 1 << 19


def gather_rows(width: int) -> int:
    """Rows of ``width`` values that one blocked copy of table rows takes:
    ``GATHER_BYTES`` at float64 width, and at least one row."""
    return max(1, GATHER_BYTES // (8 * max(width, 1)))


def _repr_only(block: np.ndarray) -> np.ndarray:
    """Where orjson's notation differs from ``repr``'s: all but 0 and [1e-4, 1e16)
    in magnitude, compared on ``block`` itself so that only bool masks are made."""
    ryu = (block >= 1e-4) & (block < 1e16)
    ryu |= (block <= -1e-4) & (block > -1e16)
    ryu |= block == 0.0
    return ~ryu


def _without_point_zero(text: str) -> str:
    """``text`` with each integral value's trailing ``.0`` cut."""
    return text.replace(".0 ", " ").replace(".0\n", "\n")


def _block_texts(block: np.ndarray, end: str) -> Iterator[str]:
    """Each row of ``block`` as the writer prints its values, space-separated, then ``end``."""
    # C-contiguous float64 rows: orjson writes float32 in its own shortest form
    block = np.ascontiguousarray(block, dtype=np.float64)
    other = _repr_only(block)
    # only an integral value's shortest form ends in ".0", and never where repr prints it
    integral = (block == np.trunc(block)).any(axis=1)
    for row, out, mixed, whole in zip(block, other, other.any(axis=1), integral):
        values = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        if mixed:  # only the values outside the range go to repr
            tokens = values.decode().split(",")
            for j in np.flatnonzero(out).tolist():
                tokens[j] = repr(row.item(j))
            text = " ".join(tokens) + end
        else:
            text = values.replace(b",", b" ").decode() + end
        yield _without_point_zero(text) if whole else text


def _row_texts(matrix: np.ndarray, rows: np.ndarray | None, end: str) -> Iterator[str]:
    """The texts of row ``rows[i]`` of ``matrix`` (row i where ``rows`` is
    None), gathered :func:`gather_rows` rows at a time, so the range checks
    run once per block, not once per row (a third of a row's write); each
    block is freed before the next."""
    if rows is not None and np.array_equal(rows, np.arange(len(matrix))):
        rows = None  # every row in order: slice views, not gathered copies
    n = len(matrix) if rows is None else len(rows)
    step = gather_rows(matrix.shape[1])
    for start in range(0, n, step):
        stop = start + step
        yield from _block_texts(matrix[start:stop] if rows is None else matrix[rows[start:stop]],
                                end)


def write_text_columns(words: list[str],
                       columns: list[tuple[np.ndarray, np.ndarray | None]],
                       stream: IO[str]) -> int:
    """Write ``words`` in the text format with a ``count dim`` header; word
    i's values are row ``rows[i]`` of each ``(matrix, rows)`` column in turn
    (row i where ``rows`` is None), so a row-wise concatenation of tables is
    written, byte for byte as :func:`write_embedding_text` writes it, unbuilt.

    Returns the number of characters written.
    """
    header = f"{len(words)} {sum(m.shape[1] for m, _ in columns)}\n"
    stream.write(header)
    written = len(header)
    ends = [" "] * (len(columns) - 1) + ["\n"]
    texts = [_row_texts(m, rows, end) for (m, rows), end in zip(columns, ends)]
    for word, *parts in zip(words, *texts):
        line = word + " " + "".join(parts)
        stream.write(line)
        written += len(line)
    return written


def write_embedding_text(table: EmbeddingTable, stream: IO[str]) -> int:
    """Write ``table`` in the text format with a ``count dim`` header.

    Returns the number of characters written. Values round-trip exactly
    through :func:`parse_embedding_text`.
    """
    return write_text_columns(table.words, [(table.matrix, None)], stream)


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Cosine distance 1 - cos(u, v), in [0, 2]: a float for two vectors, and
    the ``n`` distances of their rows for two aligned ``(n, d)`` blocks.

    Raises for a zero-norm row ("degenerate vector") and for unequal shapes
    ("dimension mismatch"); this is the exact metric, with no epsilon guard.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    blocks = [u, v] if u.ndim == 2 else [u.reshape(1, -1), v.reshape(1, -1)]
    norms = []
    for k, X in enumerate(blocks):
        # np.vecdot (numpy 2) takes each row's dot as np.dot does, so a row's
        # distance has the same bits in any block and as a single vector
        with np.errstate(over="ignore"):  # an overflowing norm reads inf
            norm = np.sqrt(np.vecdot(X, X))
        # Outside this range the squares go subnormal (a vector near 1e-160
        # loses precision or reads as zero) or overflow: divide the row by its
        # largest magnitude and measure it again.
        far = ~((1e-150 < norm) & (norm < 1e150))
        if far.any():
            scale = np.max(np.abs(X[far]), axis=-1, initial=0.0)
            if not scale.all():
                raise ValueError("degenerate vector")
            X = blocks[k] = X.copy()  # the caller's rows are left as they are
            X[far] /= scale[:, None]
            norm[far] = np.sqrt(np.vecdot(X[far], X[far]))
        norms.append(norm)
    d = np.clip(1.0 - np.vecdot(*blocks) / (norms[0] * norms[1]), 0.0, 2.0)
    return d if u.ndim == 2 else float(d[0])
