"""contrastmap: learn low-dimensional projections of word embeddings that
pull synonyms together and push antonyms apart, and evaluate the result."""

__version__ = "0.1.0"

from .errors import InputError
from .embeddings import (EmbeddingTable, cosine_distance, parse_embedding_text,
                         write_embedding_text)
from .pairs import (LabeledPair, PairSet, SplitResult, Triplet, build_triplets,
                    component_stats, load_pairs, split_pairs, write_pairs)
from .network import (MlpParams, OptimizerState, forward, init_params,
                      optimizer_step, triplet_backward, triplet_loss)
from .training import (TrainConfig, TrainReport, concat_embeddings,
                       train_baseline, train_classifier_system,
                       transform_vocabulary)
from .evaluation import (AccuracyTable, DistanceReport, ShiftReport,
                         build_accuracy_table, classify_accuracy,
                         distance_report, extreme_pairs, featurize_pair,
                         shift_report, train_linear)
from .downstream import (DownstreamResult, TextDataset, embed_document,
                         load_bundled_corpus, load_text_csv, run_downstream,
                         tokenize)
from .synthetic import (PlantedWorld, planted_world, sentiment_corpus,
                        write_sentiment_csv)

__all__ = [
    "InputError",
    "EmbeddingTable", "cosine_distance", "parse_embedding_text",
    "write_embedding_text",
    "LabeledPair", "PairSet", "SplitResult", "Triplet", "build_triplets",
    "component_stats", "load_pairs", "split_pairs", "write_pairs",
    "MlpParams", "OptimizerState", "forward", "init_params",
    "optimizer_step", "triplet_backward", "triplet_loss",
    "TrainConfig", "TrainReport", "concat_embeddings", "train_baseline",
    "train_classifier_system", "transform_vocabulary",
    "AccuracyTable", "DistanceReport", "ShiftReport", "build_accuracy_table",
    "classify_accuracy", "distance_report", "extreme_pairs", "featurize_pair",
    "shift_report", "train_linear",
    "DownstreamResult", "TextDataset", "embed_document", "load_bundled_corpus",
    "load_text_csv", "run_downstream", "tokenize",
    "PlantedWorld", "planted_world", "sentiment_corpus", "write_sentiment_csv",
]
