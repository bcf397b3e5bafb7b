"""Synthetic planted-structure data: embeddings whose synonym/antonym labels
follow a known generator, plus a small sentiment corpus built on top.

Each word carries a hidden sense vector z and a polarity s in {-1, +1}. The
observed embedding is x = A z + s * B sin(2 z) + noise: the polarity enters
only through an odd nonlinearity of z, so it has no linear correlation with
the embedding coordinates, but it is recoverable by a nonlinear map. Words in
the same group share (approximately) the same z; a within-group pair is a
synonym when polarities agree and an antonym when they disagree. The label
function is therefore known exactly and serves as the evaluation oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .pairs import ANTONYM, SYNONYM, LabeledPair, PairSet

SENTIMENT_WORDS = 2    # words of the label's polarity per document
FILLER_WORDS = 13      # words drawn from the whole vocabulary per document


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
    polarity: dict[str, int] = {}
    rows = np.empty((n_words, dim))
    for g_start in range(0, n_words, group_size):
        z_base = rng.normal(size=hidden_dim)
        for i in range(g_start, min(g_start + group_size, n_words)):
            z = z_base + z_jitter * rng.normal(size=hidden_dim)
            s = int(rng.choice([-1, 1]))
            carrier = np.sin(2.0 * z)
            carrier = carrier / (np.linalg.norm(carrier) + 0.1)
            x = A @ z + polarity_gain * s * (B @ carrier) \
                + noise * rng.normal(size=dim)
            polarity[words[i]] = s
            rows[i] = x
    table = EmbeddingTable(dimension=dim, words=words, matrix=rows)

    pair_list: list[LabeledPair] = []
    for g_start in range(0, n_words, group_size):
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
    all_words = np.array(sorted(world.polarity))  # once, not per rng.choice
    docs: list[tuple[str, int]] = []
    for i in range(n_documents):
        label = i % 2
        pool = pos if label == 1 else neg
        chosen = list(rng.choice(pool, size=SENTIMENT_WORDS, replace=True))
        chosen += list(rng.choice(all_words, size=FILLER_WORDS, replace=True))
        rng.shuffle(chosen)
        docs.append((" ".join(chosen), label))
    return docs


def write_sentiment_csv(docs: list[tuple[str, int]], stream) -> None:
    stream.write("text,label\n")
    for text, label in docs:
        stream.write(f'"{text}",{label}\n')
