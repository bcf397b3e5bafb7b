"""Word-vector tables: text-format parsing, serialization, row indices and cosine distance.

The on-disk format is the plain text layout shared by the GloVe/FastText
distributions: one word per line followed by its vector components, with an
optional ``count dim`` header line. Only this text format is supported; the
binary Word2Vec format must be converted externally.

A table is its words and its matrix, one row per word; its dimension is the
matrix's width, and the constructor checks the two agree.

The reader first tries each row's values as JSON floats through orjson,
whose number reader rounds correctly, so it gives the bits Python's ``float``
gives. A row in any other form (ints, other spacing, tokens JSON does not
know such as ``nan``) falls back to one ``np.array(tokens, dtype=float64)``
call, which parses every token by Python's ``float`` rules. Each accepted
row goes straight into one growing matrix, so a parse peaks near 1.5 times
its matrix rather than holding every row twice.
Given a ``vocabulary``, it converts only the rows a caller will use:
after the first accepted row (which fixes the dimension and is always kept),
a row whose word is outside the vocabulary is passed over unconverted and
uncounted. The result is the full parse restricted to the
vocabulary plus that first row, in file order and bit for bit.

The writer prints the shortest round-trip form of each value, as ``repr``
does, and prints integral values without their trailing ``.0``. A row whose
values are all 0 or of magnitude in [1e-4, 1e16) is rendered by orjson's Ryu
printer, which gives ``repr``'s text there; ``repr`` renders any other row,
since outside that range the two choose different notations.
"""
from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from typing import IO, Container, Iterable

import numpy as np
import orjson


class EmbeddingParseError(ValueError):
    """Raised when a vector stream cannot be parsed at all."""


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
    if len(tokens) != 2:
        return False
    return all(t.isdigit() for t in tokens)


def _unusable(vec: np.ndarray) -> bool:
    """A non-finite value, or a norm of zero (also when tiny values underflow)."""
    with np.errstate(over="ignore"):  # huge finite values square to inf
        if 0.0 < vec @ vec < np.inf:  # the dot np.linalg.norm takes: a usual row
            return False
        return not np.all(np.isfinite(vec)) or np.linalg.norm(vec) == 0.0


def _floats(values: list[str] | list[float]) -> np.ndarray:
    """A row's values as float64; tokens convert by Python's ``float`` rules."""
    return np.array(values, dtype=np.float64)


def _json_floats(rest: str) -> list[float] | None:
    """The values of ``rest`` if it is JSON floats split by single spaces, else None.

    Every JSON float is a valid ``float`` literal, and orjson rounds it as
    ``float`` does, so a result converts to the bits ``rest.split()`` does.
    Anything else (ints, where ``-0`` would lose its sign, other JSON values,
    a comma that ``split`` would not split at, any other spacing) is None
    and left to the per-token conversion.
    """
    if "," in rest:
        return None
    try:
        values = orjson.loads("[" + rest.rstrip().replace(" ", ",") + "]")
    except orjson.JSONDecodeError:
        return None
    return values if {*map(type, values)} == {float} else None


def parse_embedding_text(stream: str | IO[str] | Iterable[str],
                         vocabulary: Container[str] | None = None) -> EmbeddingTable:
    """Parse a text vector stream into an :class:`EmbeddingTable`.

    An optional first line ``count dim`` (two bare integers) is skipped.
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
    dim: int | None = None

    def accepted_rows():
        nonlocal duplicates, skipped, dim
        for n, raw_line in enumerate(_as_lines(stream)):
            line = raw_line.rstrip("\r\n")
            head = line.split(None, 1)
            if not head or (dim is not None and vocabulary is not None
                            and head[0] not in vocabulary):
                continue
            values = _json_floats(head[1]) if len(head) == 2 else None
            if values is None:  # left to the per-token conversion
                tokens = line.split()
                if n == 0 and _is_header(tokens):
                    continue
                values = tokens[1:]
            try:
                if not values or dim not in (None, len(values)):
                    raise ValueError("wrong arity")
                vec = _floats(values)
            except ValueError as exc:
                if dim is None:  # no row has fixed the dimension yet
                    raise EmbeddingParseError("bad format") from exc
                skipped += 1
                continue
            if _unusable(vec):
                skipped += 1  # a rejected first row leaves the dimension open
                continue
            dim = len(vec)
            word = head[0]
            if word in seen:
                duplicates += 1
                continue
            seen.add(word)
            words.append(word)
            yield vec

    rows = accepted_rows()
    first = next(rows, None)  # fixes the dimension
    if first is None:
        raise EmbeddingParseError("no vectors")
    # each row goes straight into one growing buffer: no row is held twice
    matrix = np.fromiter(itertools.chain([first], rows),
                         dtype=np.dtype((np.float64, (dim,))))
    return EmbeddingTable(words=words, matrix=matrix,
                          duplicate_warnings=duplicates, skipped_rows=skipped)


# rows per range check in the writer: checked row by row, the check costs a
# third of a row's write; a small block keeps the block's copies small
_WRITE_BLOCK = 256


def write_embedding_text(table: EmbeddingTable, stream: IO[str]) -> int:
    """Write ``table`` in the text format with a ``count dim`` header.

    Returns the number of characters written. Values round-trip exactly
    through :func:`parse_embedding_text`.
    """
    written = 0
    header = f"{len(table)} {table.dimension}\n"
    stream.write(header)
    written += len(header)
    for start in range(0, len(table), _WRITE_BLOCK):
        # C-contiguous float64 rows: orjson writes float32 in its own shortest form
        block = np.ascontiguousarray(table.matrix[start:start + _WRITE_BLOCK],
                                     dtype=np.float64)
        # only 0 and magnitudes in [1e-4, 1e16) get the same notation from both
        magnitude = np.abs(block)
        ryu = ((magnitude == 0.0)
               | ((magnitude >= 1e-4) & (magnitude < 1e16))).all(axis=1)
        for word, row, fast in zip(table.words[start:start + _WRITE_BLOCK], block, ryu):
            if fast:
                values = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)
                values = values[1:-1].decode().replace(",", " ") + "\n"
            else:
                values = " ".join(map(repr, row.tolist())) + "\n"
            line = word + " " + values.replace(".0 ", " ").replace(".0\n", "\n")
            stream.write(line)
            written += len(line)
    return written


def _unit_max(u: np.ndarray) -> np.ndarray:
    """``u`` divided by its largest magnitude; raises for a zero vector."""
    scale = float(np.max(np.abs(u))) if u.size else 0.0
    if scale == 0.0:
        raise ValueError("degenerate vector")
    return u / scale


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine distance 1 - cos(u, v), in [0, 2].

    Raises for zero-norm inputs ("degenerate vector") and dimension
    mismatch; this is the exact metric, with no epsilon guard.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm reads inf
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
    # Outside this range the squares inside norm() go subnormal (a vector
    # near 1e-160 loses precision or reads as zero) or overflow: divide by
    # the largest magnitude and measure again.
    if not 1e-150 < nu < 1e150:
        u = _unit_max(u)
        nu = np.linalg.norm(u)
    if not 1e-150 < nv < 1e150:
        v = _unit_max(v)
        nv = np.linalg.norm(v)
    d = 1.0 - float(np.dot(u, v)) / float(nu * nv)
    return min(max(d, 0.0), 2.0)

