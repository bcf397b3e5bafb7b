"""End-to-end walkthrough on synthetic planted-structure data.

Generates a vocabulary whose synonym/antonym labels follow a known hidden
generator, trains the contrasting map, and reproduces the measurement suite:
distance distributions, pairwise shifts, extreme pairs, and the
raw/new/concatenated classifier comparison.

Run:  python3 demos/01_planted_pipeline.py
"""
from contrastmap import (build_triplets, build_accuracy_table,
                         concat_embeddings, distance_report, extreme_pairs,
                         planted_world, shift_report, split_pairs,
                         train_baseline, transform_vocabulary, TrainConfig)

# 1. A desk-scale stand-in for pretrained embeddings + a thesaurus: each word
#    has a hidden sense vector and a polarity; relations follow the polarity.
world = planted_world(n_words=1500, dim=50, seed=0)
print(f"world: {len(world.table)} words, {len(world.pairs)} labeled pairs")

# 2. Leakage-free 3:1 split: train and test vocabularies are disjoint.
split = split_pairs(world.pairs)
print(f"split: {len(split.train)} train / {len(split.test)} test pairs "
      f"({split.dropped_spanning} dropped as cross-side)")

# 3. Triplets (word, synonym, antonym) and Siamese training on the cosine
#    objective: synonyms pulled together, antonyms pushed apart.
triplets = build_triplets(split.train, seed=1)
config = TrainConfig(layer_dims=[50, 128, 64, 4], max_epochs=40,
                     early_stop_patience=8, seed=7)
contrast_map, report = train_baseline(world.table, triplets, config)
print(f"training: stopped at epoch {report.stopped_epoch}, "
      f"val loss {min(report.val_losses):.3f} (epoch 1: {report.val_losses[0]:.3f})")

# 4. Materialize the transformed and concatenated spaces.
new = transform_vocabulary(contrast_map, world.table)
concat = concat_embeddings(world.table, new)

# 5. Distance distributions before/after: the mass separates.
for label, table in (("raw", world.table), ("new", new)):
    rep = distance_report(table, split.test)
    print(f"distances[{label}]: syn mean {rep.syn_mean:.3f}, "
          f"ant mean {rep.ant_mean:.3f}")

# 6. Pairwise shifts on held-out pairs. The antonym shift is large and
#    positive (pushed apart); the synonym shift turns negative once the
#    training vocabulary is large enough (at this demo scale it hovers
#    near zero).
shifts = shift_report(world.table, new, split.test)
print(f"shifts: syn {shifts.syn_mean_shift:+.3f}, ant {shifts.ant_mean_shift:+.3f}")

# 7. Worst offenders: antonyms the map still leaves close, synonyms it
#    pushes far apart.
worst = extreme_pairs(shifts, n=3)
print("closest antonyms after mapping:",
      [(e["left"], e["right"]) for e in worst["closest_antonyms"]])

# 8. The classifier comparison: 3 spaces x {logistic regression, boosted
#    trees}. The new space should help the most.
table = build_accuracy_table(world.table, new, concat, split.train, split.test,
                             boosted_config={"rounds": 50})
print(table.format_text())
