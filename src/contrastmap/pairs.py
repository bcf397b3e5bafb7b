"""Labeled synonym/antonym pairs: loading, component statistics, leakage-free split, triplets."""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .embeddings import _as_lines

SYNONYM = "synonym"
ANTONYM = "antonym"
RELATIONS = (SYNONYM, ANTONYM)


class PairParseError(ValueError):
    """Raised when a pair stream yields no usable records."""


@dataclass(frozen=True, slots=True)
class LabeledPair:
    left: str
    right: str
    relation: str

    def key(self) -> tuple[str, str]:
        """Unordered identity of the pair."""
        return (self.left, self.right) if self.left <= self.right else (self.right, self.left)


@dataclass
class PairSet:
    pairs: list[LabeledPair]
    dropped_duplicates: int = 0
    dropped_conflicts: int = 0
    skipped_lines: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def vocabulary(self) -> set[str]:
        vocab: set[str] = set()
        for p in self.pairs:
            vocab.add(p.left)
            vocab.add(p.right)
        return vocab

    def by_relation(self, relation: str) -> list[LabeledPair]:
        return [p for p in self.pairs if p.relation == relation]


@dataclass
class SplitResult:
    train: PairSet
    test: PairSet
    dropped_spanning: int


@dataclass(frozen=True, slots=True)
class Triplet:
    anchor: str
    synonym: str
    antonym: str


def _valid_token(tok: str) -> bool:
    """Non-empty and free of whitespace (``split`` and ``isspace`` agree on what that is)."""
    return tok.split() == [tok]


def load_pairs(stream: str | IO[str] | Iterable[str]) -> PairSet:
    """Load a 3-column TSV of (left, right, relation) records.

    ``#``-prefixed lines are comments. Exact unordered duplicates keep the
    first record; a pair seen with both relations drops every record of
    that pair (counted in ``dropped_conflicts``).
    """
    # key -> its first pair, or None once the key is seen with both relations
    entries: dict[tuple[str, str], LabeledPair | None] = {}
    dropped_duplicates = 0
    dropped_conflicts = 0
    skipped = 0

    for raw_line in _as_lines(stream):
        line = raw_line.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            skipped += 1
            continue
        left, right, relation = cols[0], cols[1], cols[2].strip().lower()
        if relation not in RELATIONS or not _valid_token(left) \
                or not _valid_token(right) or left == right:
            skipped += 1
            continue
        pair = LabeledPair(left, right, relation)
        key = pair.key()
        if key not in entries:
            entries[key] = pair
            continue
        prev = entries[key]
        if prev is None:
            dropped_conflicts += 1
        elif prev.relation == relation:
            dropped_duplicates += 1
        else:
            # both records of a synonym/antonym conflict are dropped
            entries[key] = None
            dropped_conflicts += 2
    if not entries:
        raise PairParseError("no pairs")
    return PairSet(pairs=[p for p in entries.values() if p is not None],
                   dropped_duplicates=dropped_duplicates,
                   dropped_conflicts=dropped_conflicts, skipped_lines=skipped)


def write_pairs(pairs: PairSet, stream: IO[str]) -> int:
    """Write pairs as 3-column TSV; inverse of :func:`load_pairs`."""
    written = 0
    for p in pairs:
        line = f"{p.left}\t{p.right}\t{p.relation}\n"
        stream.write(line)
        written += len(line)
    return written


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def component_stats(pairs: PairSet) -> dict:
    """Statistics of the word graph whose edges are the pairs: its word count,
    its component count and the share of pairs in the largest component."""
    if not pairs:
        raise ValueError("empty graph")
    uf = _UnionFind()
    for p in pairs:
        uf.union(p.left, p.right)
    edge_counts: dict[str, int] = {}
    for p in pairs:
        root = uf.find(p.left)
        edge_counts[root] = edge_counts.get(root, 0) + 1
    return {"words": len(uf.parent), "component_count": len(edge_counts),
            "giant_share_of_pairs": max(edge_counts.values()) / len(pairs)}


def split_pairs(pairs: PairSet, test_every: int = 4) -> SplitResult:
    """Leakage-free train/test split with a 3:1 cycle over unconstrained pairs.

    Iterating pairs in input order: a pair with a word already assigned to one
    side follows that side; a pair spanning both sides is dropped; otherwise a
    cycle counter sends positions 1..test_every-1 to train and position
    test_every to test. Train and test vocabularies are disjoint by
    construction.
    """
    if test_every < 2:
        raise ValueError("test_every must be >= 2")
    side: dict[str, str] = {}
    train: list[LabeledPair] = []
    test: list[LabeledPair] = []
    dropped = 0
    cycle = 0
    for p in pairs:
        sl = side.get(p.left)
        sr = side.get(p.right)
        if sl is not None and sr is not None and sl != sr:
            dropped += 1
            continue
        chosen = sl or sr
        if chosen is None:
            cycle = cycle % test_every + 1
            chosen = "test" if cycle == test_every else "train"
        (train if chosen == "train" else test).append(p)
        side[p.left] = chosen
        side[p.right] = chosen
    return SplitResult(train=PairSet(pairs=train), test=PairSet(pairs=test),
                       dropped_spanning=dropped)


def build_triplets(train: PairSet, cap_per_anchor: int = 20,
                   seed: int = 0) -> list[Triplet]:
    """Enumerate (anchor, synonym, antonym) triplets from the train pairs.

    Pairs are unordered, so both members of a pair can serve as anchor. A
    word anchors the cross product of its synonyms and antonyms, sampled
    down to ``cap_per_anchor`` combinations (seeded, without replacement)
    when it exceeds the cap.
    """
    if cap_per_anchor < 1:
        raise ValueError("cap_per_anchor must be >= 1")
    syn: dict[str, set[str]] = {}
    ant: dict[str, set[str]] = {}
    for p in train:
        target = syn if p.relation == SYNONYM else ant
        target.setdefault(p.left, set()).add(p.right)
        target.setdefault(p.right, set()).add(p.left)
    anchors = sorted(set(syn) & set(ant))
    if not anchors:
        raise ValueError("no triplets")
    rng = np.random.default_rng(seed)
    triplets: list[Triplet] = []
    for w in anchors:
        syns = sorted(syn[w])
        ants = sorted(ant[w])
        total = len(syns) * len(ants)
        if total <= cap_per_anchor:
            chosen = range(total)
        else:
            chosen = np.sort(rng.choice(total, size=cap_per_anchor, replace=False))
        for idx in chosen:
            triplets.append(Triplet(w, syns[idx // len(ants)], ants[idx % len(ants)]))
    return triplets
