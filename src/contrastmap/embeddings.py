"""Word-vector tables: text-format parsing, serialization, lookup and cosine distance.

The on-disk format is the plain text layout shared by the GloVe/FastText
distributions: one word per line followed by its vector components, with an
optional ``count dim`` header line. Only this text format is supported; the
binary Word2Vec format must be converted externally.

The reader converts each row's values with one ``np.array(tokens,
dtype=float64)`` call, which parses every token by Python's ``float`` rules.
Given a ``vocabulary``, it converts only the rows a caller will look up:
after the first accepted row (which fixes the dimension and is always kept),
a row whose word is outside the vocabulary is passed over unsplit,
unconverted and uncounted. The result is the full parse restricted to the
vocabulary plus that first row, in file order and bit for bit. The writer
renders each row with ``repr`` (the shortest round-trip form) and prints
integral values without their trailing ``.0``.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import IO, Container, Iterable

import numpy as np


class EmbeddingParseError(ValueError):
    """Raised when a vector stream cannot be parsed at all."""


@dataclass
class EmbeddingTable:
    """Immutable word -> dense vector table of fixed dimension.

    Vectors are stored row-wise in a single float64 matrix; ``words[i]``
    owns ``matrix[i]``. Lookup is exact and case-sensitive.
    """

    dimension: int
    words: list[str]
    matrix: np.ndarray
    duplicate_warnings: int = 0
    skipped_rows: int = 0
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index:
            self._index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def indices(self, words: Iterable[str]) -> np.ndarray:
        """Row index of each word, -1 where the word is absent."""
        get = self._index.get
        return np.array([get(w, -1) for w in words], dtype=np.intp)

    def lookup(self, word: str) -> np.ndarray | None:
        """Exact-match vector for ``word``, or None if absent."""
        i = self._index.get(word)
        if i is None:
            return None
        return self.matrix[i]


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
    return not np.all(np.isfinite(vec)) or np.linalg.norm(vec) == 0.0


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
    rows: list[np.ndarray] = []
    index: dict[str, int] = {}
    duplicates = 0
    skipped = 0
    dim: int | None = None

    for n, raw_line in enumerate(_as_lines(stream)):
        line = raw_line.rstrip("\r\n")
        if dim is not None and vocabulary is not None:
            head = line.split(None, 1)
            if head and head[0] not in vocabulary:
                continue
        tokens = line.split()
        if not tokens or (n == 0 and _is_header(tokens)):
            continue
        try:
            if len(tokens) < 2 or dim not in (None, len(tokens) - 1):
                raise ValueError("wrong arity")
            vec = np.array(tokens[1:], dtype=np.float64)
        except ValueError as exc:
            if dim is None:  # no row has fixed the dimension yet
                raise EmbeddingParseError("bad format") from exc
            skipped += 1
            continue
        if _unusable(vec):
            skipped += 1  # a rejected first row leaves the dimension open
            continue
        dim = len(vec)
        word = tokens[0]
        if word in index:
            duplicates += 1
            continue
        index[word] = len(words)
        words.append(word)
        rows.append(vec)

    if not rows:
        raise EmbeddingParseError("no vectors")
    return EmbeddingTable(dimension=dim, words=words, matrix=np.vstack(rows),
                          duplicate_warnings=duplicates, skipped_rows=skipped)


def write_embedding_text(table: EmbeddingTable, stream: IO[str]) -> int:
    """Write ``table`` in the text format with a ``count dim`` header.

    Returns the number of characters written. Values round-trip exactly
    through :func:`parse_embedding_text`.
    """
    written = 0
    header = f"{len(table)} {table.dimension}\n"
    stream.write(header)
    written += len(header)
    for word, row in zip(table.words, table.matrix):
        # repr() is the shortest round-trip form; integral values lose their
        # ".0". One tolist() per row: a whole-matrix one holds every float.
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

