"""Tests for the planted-world generator: the batched build against the
per-word loop it replaced, across worlds and BLAS thread counts, and its
memory."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import contrastmap
from contrastmap.pairs import ANTONYM, SYNONYM
from contrastmap.synthetic import planted_world


def _reference_planted_world(n_words=5000, dim=50, hidden_dim=6, group_size=5,
                             z_jitter=0.1, noise=0.8, polarity_gain=1.4, seed=0):
    # the per-word loop planted_world ran before its arithmetic was batched;
    # returns the matrix, the polarity dict and the (left, right, relation) pairs
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, hidden_dim)) / np.sqrt(hidden_dim)
    B = rng.normal(size=(dim, hidden_dim)) / np.sqrt(hidden_dim)
    words = [f"w{i:05d}" for i in range(n_words)]
    polarity = {}
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
    pairs = []
    for g_start in range(0, n_words, group_size):
        members = words[g_start:g_start + group_size]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                rel = SYNONYM if polarity[members[i]] == polarity[members[j]] else ANTONYM
                pairs.append((members[i], members[j], rel))
    return rows, polarity, pairs


def _differences(**kwargs):
    """What differs between ``planted_world(**kwargs)`` and the reference:
    matrix bytes, polarity items in order, and the pair list."""
    world = planted_world(**kwargs)
    rows, polarity, pairs = _reference_planted_world(**kwargs)
    found = []
    if world.table.words != list(polarity) or world.table.matrix.tobytes() != rows.tobytes():
        found.append("matrix")
    if list(world.polarity.items()) != list(polarity.items()):
        found.append("polarity")
    if [(p.left, p.right, p.relation) for p in world.pairs.pairs] != pairs:
        found.append("pairs")
    return found


WORLDS = [
    *[dict(n_words=5000, dim=50, seed=s) for s in (1, 7, 42, 101)],
    dict(n_words=2000, dim=300, seed=3),
    dict(n_words=1003, dim=20, group_size=3, seed=5),  # a short last group
    dict(n_words=4, dim=9, group_size=5, seed=2),  # fewer words than one group
    dict(n_words=600, dim=40, hidden_dim=11, z_jitter=0.37, noise=0.25,
         polarity_gain=-2.5, seed=9),
]


@pytest.mark.parametrize("kwargs", WORLDS,
                         ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_planted_world_equals_the_per_word_loop(kwargs):
    assert _differences(**kwargs) == []


# at most two threads, so this test never oversubscribes a two-core runner
@pytest.mark.parametrize("threads", ["1", "2"])
def test_planted_world_equals_the_per_word_loop_at_blas_threads(threads):
    src = str(Path(contrastmap.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, tests,
                                                        os.environ.get("PYTHONPATH")])))
    check = ("from test_synthetic import _differences\n"
             "print(*_differences(n_words=2000, dim=300, seed=11))\n")
    result = subprocess.run([sys.executable, "-c", check], env=env,
                            capture_output=True, text=True, check=True, timeout=300)
    assert result.stdout == "\n"


def test_planted_world_peaks_near_what_it_holds():
    tracemalloc.start()
    try:
        world = planted_world(4000, 300, seed=101)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(world.table) == 4000
    # the draws beside the matrix are (n, hidden_dim), and the arithmetic's
    # temporaries one block of rows; none is the size of the matrix
    assert peak <= 1.05 * held
