#!/bin/sh
# The same pipeline as demo 01, driven through the CLI. Every stage writes
# its artifacts plus a run.json manifest with content hashes, so reruns can
# be audited byte for byte. Each stage gets its own --out directory, because a
# stage's run.json replaces any earlier one in the same directory.
#
# Run:  sh demos/03_cli_pipeline.sh
# (from a checkout without an install: PYTHONPATH=src sh demos/03_cli_pipeline.sh)
set -e

# the installed `contrastmap` script runs this same module
contrastmap() { python3 -m contrastmap.cli "$@"; }

WORK="$(mktemp -d)"
echo "working directory: $WORK"

# fixtures: embeddings + labeled pairs from the planted generator
python3 - "$WORK" <<'EOF'
import sys
from contrastmap import planted_world, write_embedding_text
from contrastmap.pairs import write_pairs

work = sys.argv[1]
world = planted_world(n_words=800, dim=50, seed=0)
with open(f"{work}/embeddings.txt", "w") as f:
    write_embedding_text(world.table, f)
with open(f"{work}/pairs.tsv", "w") as f:
    write_pairs(world.pairs, f)
EOF

contrastmap split --pairs "$WORK/pairs.tsv" --out "$WORK/split"
contrastmap stats --pairs "$WORK/pairs.tsv" --out "$WORK/stats"
contrastmap train --mode baseline \
    --embeddings "$WORK/embeddings.txt" --pairs "$WORK/split/train.tsv" \
    --dims 50,128,64,4 --epochs 30 --seed 7 --out "$WORK/train"
contrastmap transform --model "$WORK/train/model.json" \
    --embeddings "$WORK/embeddings.txt" --out "$WORK/transform"
contrastmap eval-distances --embeddings "$WORK/embeddings.txt" \
    --pairs "$WORK/split/test.tsv" --label raw --out "$WORK/distances"
contrastmap eval-shifts --before "$WORK/embeddings.txt" \
    --after "$WORK/transform/transformed.txt" \
    --pairs "$WORK/split/test.tsv" --out "$WORK/shifts"
contrastmap eval-extremes --before "$WORK/embeddings.txt" \
    --after "$WORK/transform/transformed.txt" \
    --pairs "$WORK/split/test.tsv" -n 5 --out "$WORK/extremes"
contrastmap eval-classifiers --raw "$WORK/embeddings.txt" \
    --new "$WORK/transform/transformed.txt" \
    --concat "$WORK/transform/concat.txt" \
    --train-pairs "$WORK/split/train.tsv" \
    --test-pairs "$WORK/split/test.tsv" \
    --rounds 50 --out "$WORK/eval-cls"

echo
echo "accuracy table:"
cat "$WORK/eval-cls/accuracy.txt"
echo "artifacts under $WORK"
