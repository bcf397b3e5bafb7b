"""Downstream text classification with the bundled sentiment corpus.

Trains the contrasting map on planted-structure pairs, then compares a
mean-of-embeddings logistic-regression text classifier on raw embeddings
against the same classifier on raw(+)transformed concatenated embeddings.
A raw(+)raw control shows that the gain is not a feature-count artifact.

Run:  python3 demos/02_downstream_sentiment.py
"""
from contrastmap import (EmbeddingTable, build_triplets, concat_embeddings,
                         load_bundled_corpus, planted_world, run_downstream,
                         split_pairs, train_baseline, transform_vocabulary,
                         TrainConfig)

# The bundled 200-document corpus was generated over this exact world, so
# its tokens resolve in the table below.
world = planted_world(n_words=600, dim=50, seed=11)
split = split_pairs(world.pairs)
triplets = build_triplets(split.train, seed=2)
config = TrainConfig(layer_dims=[50, 128, 64, 4], max_epochs=60,
                     early_stop_patience=8, seed=3)
contrast_map, _ = train_baseline(world.table, triplets, config)
new = transform_vocabulary(contrast_map, world.table)
concat = concat_embeddings(world.table, new)

data = load_bundled_corpus()
print(f"corpus: {len(data)} documents")

# each arm is passed as a loader of its table, given the corpus words
result = run_downstream(lambda _: world.table, lambda _: concat, data, seed=9)
print(f"raw accuracy    {result.accuracy_raw:.3f}")
print(f"concat accuracy {result.accuracy_concat:.3f} "
      f"({result.relative_gain:+.1%})")

# Control: concatenating raw with a copy of itself adds feature count but
# no information; its accuracy should track the raw arm.
duplicate = EmbeddingTable(words=list(world.table.words),
                           matrix=world.table.matrix.copy())
control = run_downstream(lambda _: world.table,
                         lambda _: concat_embeddings(world.table, duplicate), data, seed=9)
print(f"raw(+)raw control {control.accuracy_concat:.3f} "
      f"(raw arm {control.accuracy_raw:.3f})")
