"""Batch command-line front end for the full experiment pipeline.

Every subcommand confines its outputs to ``--out`` and writes a ``run.json``
manifest with sha256 hashes of inputs and artifacts, so reruns can be
audited byte for byte. Exit codes: 1 usage, 2 input/parse, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .embeddings import EmbeddingParseError, parse_embedding_text, write_embedding_text
from .network import (MODEL_FORMAT_VERSION, DivergenceError, load_params,
                      save_params)
from .pairs import (PairParseError, build_graph, build_triplets,
                    component_stats, load_pairs, split_pairs, write_pairs)
from .training import (BASELINE, CLASSIFIER_SYSTEM, TrainConfig,
                       concat_embeddings, train_baseline,
                       train_classifier_system, transform_vocabulary)
from .evaluation import (build_accuracy_table, distance_report, extreme_pairs,
                         shift_report)
from .downstream import load_text_csv, run_downstream, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_dump(doc, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


class _Run:
    """Collects inputs/outputs of one subcommand and writes the manifest."""

    def __init__(self, command: str, out_dir: str, config: dict, quiet: bool):
        self.command = command
        self.out = Path(out_dir)
        self.config = config
        self.quiet = quiet
        self.inputs: dict[str, dict] = {}
        self.outputs: dict[str, dict] = {}

    def check_input(self, name: str, path: str) -> Path:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"input not found: {path}")
        self.inputs[name] = {"path": str(p), "sha256": _sha256(p)}
        return p

    def start(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)

    def register_output(self, path: Path) -> None:
        self.outputs[path.name] = {"path": str(path), "sha256": _sha256(path)}

    def log(self, message: str) -> None:
        if not self.quiet:
            print(message, file=sys.stderr)

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "versions": {"contrastmap": __version__,
                         "format_version": MODEL_FORMAT_VERSION},
        }
        _json_dump(manifest, self.out / "run.json")


def _write_table(table, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_embedding_text(table, f)


def _load_table(path: Path, vocabulary=None):
    with open(path, "r", encoding="utf-8") as f:
        return parse_embedding_text(f, source_label=path.name, vocabulary=vocabulary)


def _load_pairs_file(path: Path):
    with open(path, "r", encoding="utf-8") as f:
        return load_pairs(f)


# --- subcommand implementations ----------------------------------------------

def _cmd_split(args) -> None:
    run = _Run("split", args.out, {"pairs": args.pairs, "test_every": args.test_every,
                                   "seed": args.seed}, args.quiet)
    pairs_path = run.check_input("pairs", args.pairs)
    run.start()
    pairs = _load_pairs_file(pairs_path)
    result = split_pairs(pairs, test_every=args.test_every)
    for name, side in (("train.tsv", result.train), ("test.tsv", result.test)):
        path = run.out / name
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            write_pairs(side, f)
        run.register_output(path)
    summary = {
        "input_pairs": len(pairs),
        "train_pairs": len(result.train),
        "test_pairs": len(result.test),
        "dropped_spanning": result.dropped_spanning,
        "dropped_duplicates": pairs.dropped_duplicates,
        "dropped_conflicts": pairs.dropped_conflicts,
        "train_vocab": len(result.train.vocabulary()),
        "test_vocab": len(result.test.vocabulary()),
    }
    path = run.out / "split.json"
    _json_dump(summary, path)
    run.register_output(path)
    run.log(f"split: {summary['train_pairs']} train / {summary['test_pairs']} test "
            f"({summary['dropped_spanning']} dropped)")
    run.finish()


def _cmd_stats(args) -> None:
    run = _Run("stats", args.out, {"pairs": args.pairs, "seed": args.seed}, args.quiet)
    pairs_path = run.check_input("pairs", args.pairs)
    run.start()
    pairs = _load_pairs_file(pairs_path)
    graph = build_graph(pairs)
    stats = component_stats(graph)
    summary = {
        "pairs": len(pairs),
        "words": len(graph.vertices),
        "component_count": stats["component_count"],
        "giant_share_of_pairs": stats["giant_share_of_pairs"],
        "synonym_pairs": len(pairs.by_relation("synonym")),
        "antonym_pairs": len(pairs.by_relation("antonym")),
    }
    path = run.out / "stats.json"
    _json_dump(summary, path)
    run.register_output(path)
    run.log(f"stats: {summary['component_count']} components, giant share "
            f"{summary['giant_share_of_pairs']:.3f}")
    run.finish()


def _parse_dims(text: str | None) -> list[int] | None:
    if not text:
        return None
    return [int(t) for t in text.split(",")]


def _dims_arg(text: str) -> str:
    """argparse type for ``--dims`` / ``--head-dims``: a comma-separated list
    of positive ints, kept as given so run.json records the text."""
    try:
        dims = _parse_dims(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of ints: {text!r}") from None
    if dims and min(dims) < 1:
        raise argparse.ArgumentTypeError(f"dims must be >= 1, got {text!r}")
    return text


def _cmd_train(args) -> None:
    mode = BASELINE if args.mode == "baseline" else CLASSIFIER_SYSTEM
    config = {"mode": args.mode, "embeddings": args.embeddings, "pairs": args.pairs,
              "dims": args.dims, "head_dims": args.head_dims,
              "activation": args.activation, "lr": args.lr,
              "batch_size": args.batch_size, "epochs": args.epochs,
              "patience": args.patience, "val_fraction": args.val_fraction,
              "cap_per_anchor": args.cap_per_anchor, "seed": args.seed}
    run = _Run("train", args.out, config, args.quiet)
    emb_path = run.check_input("embeddings", args.embeddings)
    pairs_path = run.check_input("pairs", args.pairs)
    run.start()
    pairs = _load_pairs_file(pairs_path)
    table = _load_table(emb_path, pairs.vocabulary())
    layer_dims = _parse_dims(args.dims)
    if layer_dims and layer_dims[0] != table.dimension:
        raise UsageError(f"--dims starts with {layer_dims[0]} but the embedding "
                         f"dimension is {table.dimension}")
    triplets = build_triplets(pairs, cap_per_anchor=args.cap_per_anchor,
                              seed=args.seed)
    train_config = TrainConfig(
        layer_dims=layer_dims, hidden_activation=args.activation,
        learning_rate=args.lr, batch_size=args.batch_size,
        max_epochs=args.epochs, early_stop_patience=args.patience,
        validation_fraction=args.val_fraction, seed=args.seed, mode=mode,
        head_dims=_parse_dims(args.head_dims))
    if mode == BASELINE:
        params, report = train_baseline(table, triplets, train_config)
        head = None
    else:
        params, head, report = train_classifier_system(table, triplets, train_config)
    model_path = run.out / "model.json"
    with open(model_path, "w", encoding="utf-8", newline="\n") as f:
        save_params(params, f)
    run.register_output(model_path)
    if head is not None:
        head_path = run.out / "head.json"
        with open(head_path, "w", encoding="utf-8", newline="\n") as f:
            save_params(head, f)
        run.register_output(head_path)
    # wall_time is logged, not serialized: artifacts must be rerun-identical
    report_path = run.out / "report.json"
    _json_dump(report.to_dict(include_wall_time=False), report_path)
    run.register_output(report_path)
    run.log(f"train: stopped at epoch {report.stopped_epoch}, "
            f"val loss {report.val_losses[-1]:.4f}, {report.wall_time:.1f}s")
    run.finish()


def _cmd_transform(args) -> None:
    run = _Run("transform", args.out,
               {"model": args.model, "embeddings": args.embeddings,
                "seed": args.seed}, args.quiet)
    model_path = run.check_input("model", args.model)
    emb_path = run.check_input("embeddings", args.embeddings)
    run.start()
    with open(model_path, "r", encoding="utf-8") as f:
        params = load_params(f)
    table = _load_table(emb_path)
    new = transform_vocabulary(params, table)
    concat = concat_embeddings(table, new)
    for name, t in (("transformed.txt", new), ("concat.txt", concat)):
        path = run.out / name
        _write_table(t, path)
        run.register_output(path)
    run.log(f"transform: {len(new)} words -> dim {new.dimension} "
            f"(+concat dim {concat.dimension})")
    run.finish()


def _cmd_eval_distances(args) -> None:
    run = _Run("eval-distances", args.out,
               {"embeddings": args.embeddings, "pairs": args.pairs,
                "label": args.label, "seed": args.seed}, args.quiet)
    emb_path = run.check_input("embeddings", args.embeddings)
    pairs_path = run.check_input("pairs", args.pairs)
    run.start()
    pairs = _load_pairs_file(pairs_path)
    report = distance_report(_load_table(emb_path, pairs.vocabulary()), pairs,
                             space_label=args.label)
    csv_path = run.out / f"distances_{args.label}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        report.write_csv(f)
    run.register_output(csv_path)
    summary = {"space": args.label, "pair_count": report.pair_count,
               "unresolved": report.unresolved,
               "syn_mean": report.syn_mean, "syn_std": report.syn_std,
               "ant_mean": report.ant_mean, "ant_std": report.ant_std}
    json_path = run.out / f"distances_{args.label}.json"
    _json_dump(summary, json_path)
    run.register_output(json_path)
    run.log(f"distances[{args.label}]: syn mean {report.syn_mean:.3f}, "
            f"ant mean {report.ant_mean:.3f}")
    run.finish()


def _cmd_eval_shifts(args) -> None:
    run = _Run("eval-shifts", args.out,
               {"before": args.before, "after": args.after, "pairs": args.pairs,
                "seed": args.seed}, args.quiet)
    before_path = run.check_input("before", args.before)
    after_path = run.check_input("after", args.after)
    pairs_path = run.check_input("pairs", args.pairs)
    run.start()
    pairs = _load_pairs_file(pairs_path)
    vocabulary = pairs.vocabulary()
    report = shift_report(_load_table(before_path, vocabulary),
                          _load_table(after_path, vocabulary), pairs)
    csv_path = run.out / "shifts.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        report.write_csv(f)
    run.register_output(csv_path)
    summary = {"syn_mean_shift": report.syn_mean_shift,
               "ant_mean_shift": report.ant_mean_shift,
               "pair_count": len(report.records),
               "unresolved": report.unresolved}
    json_path = run.out / "shifts.json"
    _json_dump(summary, json_path)
    run.register_output(json_path)
    run.log(f"shifts: syn {report.syn_mean_shift:+.3f}, "
            f"ant {report.ant_mean_shift:+.3f}")
    run.finish()


def _cmd_eval_extremes(args) -> None:
    run = _Run("eval-extremes", args.out,
               {"before": args.before, "after": args.after, "pairs": args.pairs,
                "n": args.n, "seed": args.seed}, args.quiet)
    before_path = run.check_input("before", args.before)
    after_path = run.check_input("after", args.after)
    pairs_path = run.check_input("pairs", args.pairs)
    run.start()
    pairs = _load_pairs_file(pairs_path)
    vocabulary = pairs.vocabulary()
    report = shift_report(_load_table(before_path, vocabulary),
                          _load_table(after_path, vocabulary), pairs)
    extremes = extreme_pairs(report, args.n)
    path = run.out / "extremes.json"
    _json_dump(extremes, path)
    run.register_output(path)
    run.log(f"extremes: top {args.n} per relation written")
    run.finish()


def _cmd_eval_classifiers(args) -> None:
    run = _Run("eval-classifiers", args.out,
               {"raw": args.raw, "new": args.new, "concat": args.concat,
                "train_pairs": args.train_pairs, "test_pairs": args.test_pairs,
                "rounds": args.rounds, "seed": args.seed}, args.quiet)
    raw_path = run.check_input("raw", args.raw)
    new_path = run.check_input("new", args.new)
    concat_path = run.check_input("concat", args.concat)
    train_path = run.check_input("train_pairs", args.train_pairs)
    test_path = run.check_input("test_pairs", args.test_pairs)
    run.start()
    train_pairs = _load_pairs_file(train_path)
    test_pairs = _load_pairs_file(test_path)
    vocabulary = train_pairs.vocabulary() | test_pairs.vocabulary()
    table = build_accuracy_table(
        _load_table(raw_path, vocabulary), _load_table(new_path, vocabulary),
        _load_table(concat_path, vocabulary), train_pairs, test_pairs,
        boosted_config={"rounds": args.rounds})
    json_path = run.out / "accuracy.json"
    _json_dump(table.to_dict(), json_path)
    run.register_output(json_path)
    txt_path = run.out / "accuracy.txt"
    with open(txt_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(table.format_text())
    run.register_output(txt_path)
    run.log("accuracy:\n" + table.format_text())
    run.finish()


def _cmd_downstream(args) -> None:
    run = _Run("downstream", args.out,
               {"raw": args.raw, "concat": args.concat, "data": args.data,
                "test_fraction": args.test_fraction, "seed": args.seed},
               args.quiet)
    raw_path = run.check_input("raw", args.raw)
    concat_path = run.check_input("concat", args.concat)
    data_path = run.check_input("data", args.data)
    run.start()
    with open(data_path, "r", encoding="utf-8", newline="") as f:
        data = load_text_csv(f, name=data_path.name)
    vocabulary = {t for text, _ in data.records for t in tokenize(text)}
    result = run_downstream(_load_table(raw_path, vocabulary),
                            _load_table(concat_path, vocabulary),
                            data, test_fraction=args.test_fraction,
                            seed=args.seed)
    path = run.out / "downstream.json"
    _json_dump(result.to_dict(), path)
    run.register_output(path)
    run.log(f"downstream[{data_path.name}]: raw {result.accuracy_raw:.3f} -> "
            f"concat {result.accuracy_concat:.3f} "
            f"({result.relative_gain:+.1%})")
    run.finish()


def build_parser() -> _Parser:
    parser = _Parser(prog="contrastmap",
                     description="Contrasting-map experiment pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("split", help="leakage-free train/test pair split")
    p.add_argument("--pairs", required=True)
    p.add_argument("--test-every", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("stats", help="relation-graph component statistics")
    p.add_argument("--pairs", required=True)
    common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train", help="train the contrasting map")
    p.add_argument("--mode", choices=["baseline", "classifier-system"],
                   default="baseline")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pairs", required=True, help="train-side pair TSV")
    p.add_argument("--dims", type=_dims_arg,
                   help="comma-separated layer dims, e.g. 300,128,40")
    p.add_argument("--head-dims", type=_dims_arg,
                   help="classifier head dims (classifier-system)")
    p.add_argument("--activation", choices=["tanh", "relu"], default="tanh")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--cap-per-anchor", type=int, default=20)
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("transform", help="materialize transformed + concat tables")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("eval-distances", help="distance distribution report")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--label", default="raw")
    common(p)
    p.set_defaults(func=_cmd_eval_distances)

    p = sub.add_parser("eval-shifts", help="pairwise distance shift report")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--pairs", required=True)
    common(p)
    p.set_defaults(func=_cmd_eval_shifts)

    p = sub.add_parser("eval-extremes", help="closest antonyms / farthest synonyms")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("-n", type=int, default=10)
    common(p)
    p.set_defaults(func=_cmd_eval_extremes)

    p = sub.add_parser("eval-classifiers", help="raw/new/concat accuracy table")
    p.add_argument("--raw", required=True)
    p.add_argument("--new", required=True)
    p.add_argument("--concat", required=True)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--test-pairs", required=True)
    p.add_argument("--rounds", type=_positive_int, default=200)
    common(p)
    p.set_defaults(func=_cmd_eval_classifiers)

    p = sub.add_parser("downstream", help="mean-embedding text classification")
    p.add_argument("--raw", required=True)
    p.add_argument("--concat", required=True)
    p.add_argument("--data", required=True, help="text,label CSV")
    p.add_argument("--test-fraction", type=float, default=0.25)
    common(p)
    p.set_defaults(func=_cmd_downstream)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage-error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, EmbeddingParseError, PairParseError,
            ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DivergenceError, ArithmeticError) as exc:
        print(f"numeric-error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
