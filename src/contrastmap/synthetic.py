"""Synthetic planted-structure data: embeddings whose synonym/antonym labels
follow a known generator, plus a small sentiment corpus built on top.

Each word carries a hidden sense vector z and a polarity s in {-1, +1}. The
observed embedding is x = A z + s * B sin(2 z) + noise: the polarity enters
only through an odd nonlinearity of z, so it has no linear correlation with
the embedding coordinates, but it is recoverable by a nonlinear map. Words in
the same group share (approximately) the same z; a within-group pair is a
synonym when polarities agree and an antonym when they disagree. The label
function is therefore known exactly and serves as the evaluation oracle.

A seed fixes a world bit for bit. ``planted_world`` draws A, then B, then,
group by group, ``normal(size=hidden_dim)`` for the group's base z and for
each of its words ``normal(size=hidden_dim)`` (the jitter), ``integers(0, 2)``
(the polarity index, the draw ``choice([-1, 1])`` makes) and
``normal(size=dim)`` (the noise, in the word's output row), in that order.
The arithmetic runs after the draws, on blocks of rows, and must keep each
row's bits: stacked products call the per-row gemv and dot that a per-word
``A @ z`` and ``np.linalg.norm`` call, where one whole-matrix product does
not. ``sentiment_corpus`` draws each document's word indices
with ``integers(0, len(pool), size=k)``, the draw ``rng.choice(pool, k)``
makes, then shuffles the document's words.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .pairs import ANTONYM, SYNONYM, LabeledPair, PairSet

SENTIMENT_WORDS = 2    # words of the label's polarity per document
FILLER_WORDS = 13      # words drawn from the whole vocabulary per document
# planted_world's arithmetic runs on 64 KiB of rows at a time: temporaries under
# malloc's 128 KiB mmap threshold reuse heap memory, so peak RSS does not grow
_BLOCK_BYTES = 64 << 10


@dataclass
class PlantedWorld:
    table: EmbeddingTable
    pairs: PairSet
    polarity: dict[str, int]
    group_size: int = 5


def planted_world(n_words: int = 5000, dim: int = 50, hidden_dim: int = 6,
                  group_size: int = 5, z_jitter: float = 0.1,
                  noise: float = 0.8, polarity_gain: float = 1.4,
                  seed: int = 0) -> PlantedWorld:
    """Generate words, embeddings and within-group labeled pairs."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, hidden_dim)) / np.sqrt(hidden_dim)
    B = rng.normal(size=(dim, hidden_dim)) / np.sqrt(hidden_dim)

    words = [f"w{i:05d}" for i in range(n_words)]
    rows = np.empty((n_words, dim))  # each word's noise draw, then its embedding
    groups = range(0, n_words, group_size)
    bases = np.empty((len(groups), hidden_dim))
    jitter = np.empty((n_words, hidden_dim))
    draws = np.empty(n_words, dtype=np.int64)
    for g, g_start in enumerate(groups):
        bases[g] = rng.normal(size=hidden_dim)
        for i in range(g_start, min(g_start + group_size, n_words)):
            jitter[i] = rng.normal(size=hidden_dim)
            draws[i] = rng.integers(0, 2)  # the index rng.choice([-1, 1]) draws
            rows[i] = rng.normal(size=dim)
    signs = 2 * draws - 1
    group = np.arange(n_words) // group_size
    step = max(1, _BLOCK_BYTES // (8 * max(dim, 1)))
    for start in range(0, n_words, step):  # per-row gemv, as A @ z: a gemm would move bits
        blk = slice(start, start + step)
        z = bases[group[blk]] + z_jitter * jitter[blk]
        carrier = np.sin(2.0 * z)
        carrier /= np.sqrt(carrier[:, None, :] @ carrier[:, :, None])[:, 0] + 0.1
        gain = (polarity_gain * signs[blk])[:, None]
        rows[blk] *= noise
        rows[blk] += (np.matmul(A, z[:, :, None])[..., 0]
                      + gain * np.matmul(B, carrier[:, :, None])[..., 0])
    polarity = dict(zip(words, signs.tolist()))
    del bases, jitter, draws, signs, group
    table = EmbeddingTable(words=words, matrix=rows)

    pair_list: list[LabeledPair] = []
    for g_start in groups:
        members = words[g_start:g_start + group_size]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                rel = SYNONYM if polarity[members[i]] == polarity[members[j]] else ANTONYM
                pair_list.append(LabeledPair(members[i], members[j], rel))
    return PlantedWorld(table=table, pairs=PairSet(pairs=pair_list),
                        polarity=polarity, group_size=group_size)


def sentiment_corpus(world: PlantedWorld, n_documents: int = 200,
                     sentiment_groups: int = 1,
                     seed: int = 6) -> list[tuple[str, int]]:
    """Documents whose label is carried by planted polarity-word choices.

    Sentiment words come from the first ``sentiment_groups`` word groups (a
    coherent topic region, like a real sentiment lexicon): a label-1 document
    uses that region's polarity +1 words, a label-0 document its polarity -1
    words. Filler words are drawn from the whole vocabulary at random so they
    carry no signal.
    """
    rng = np.random.default_rng(seed)
    gs = world.group_size
    region = [w for g in range(sentiment_groups)
              for w in world.table.words[g * gs:(g + 1) * gs]]
    pos = sorted(w for w in region if world.polarity[w] == 1)
    neg = sorted(w for w in region if world.polarity[w] == -1)
    if not pos or not neg:
        raise ValueError("sentiment region lacks one polarity; widen it")
    all_words = sorted(world.polarity)
    docs: list[tuple[str, int]] = []
    for i in range(n_documents):
        label = i % 2
        pool = pos if label == 1 else neg
        # the index draws rng.choice(pool, size=k) makes, without its array copy of pool
        chosen = [pool[j] for j in rng.integers(0, len(pool), size=SENTIMENT_WORDS).tolist()]
        chosen += [all_words[j] for j in rng.integers(0, len(all_words),
                                                      size=FILLER_WORDS).tolist()]
        rng.shuffle(chosen)
        docs.append((" ".join(chosen), label))
    return docs


def write_sentiment_csv(docs: list[tuple[str, int]], stream) -> None:
    """A ``text,label`` CSV: each text quoted, its ``"`` doubled."""
    stream.write("text,label\n")
    csv.writer(stream, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC).writerows(docs)
