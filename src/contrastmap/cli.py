"""Batch command-line front end for the full experiment pipeline.

Every subcommand confines its outputs to ``--out`` and writes a ``run.json``
manifest with sha256 hashes of inputs and artifacts, so reruns can be
audited byte for byte. Exit codes: 1 usage, 2 input, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .embeddings import parse_embedding_text, write_embedding_text
from .errors import InputError, blaming
from .network import (MODEL_FORMAT_VERSION, DivergenceError, load_params,
                      save_params)
from .pairs import (build_triplets, component_stats, load_pairs, split_pairs,
                    write_pairs)
from .training import (BASELINE, CLASSIFIER_SYSTEM, TrainConfig, _default_dims,
                       _head_dims, train_baseline, train_classifier_system,
                       transform_vocabulary, write_concat_text)
# not called here; perfbench's traced run wraps it under this module's name
from .training import concat_embeddings  # noqa: F401
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


def _checked(convert, ok, requirement: str):
    """argparse type: ``convert(text)``, which must satisfy ``ok``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
# a value that goes into artifact file names
_file_label = _checked(str, lambda v: not {"/", os.sep, os.altsep} & set(v),
                       "free of path separators")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _json(doc, stream) -> None:
    json.dump(doc, stream, sort_keys=True, indent=2, allow_nan=False)
    stream.write("\n")


def _fixed(x: float | None, spec: str) -> str:
    """``x`` formatted by ``spec`` for a log line; ``none`` for a summary of no pairs."""
    return "none" if x is None else format(x, spec)


# parsed-argument fields that steer the run but are not part of its config
_NOT_CONFIG = ("out", "quiet", "subcommand", "func", "inputs")


class _Run:
    """One subcommand's run, built from its parsed arguments.

    The config is every argument except ``_NOT_CONFIG``. The inputs the
    subparser declares are checked and hashed before ``--out`` is created;
    ``write`` hashes each artifact, and ``finish`` writes the manifest.
    """

    def __init__(self, args):
        self.command = args.subcommand
        self.out = Path(args.out)
        self.quiet = args.quiet
        self.config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
        self.paths: dict[str, Path] = {}
        self.inputs: dict[str, dict] = {}
        for name in args.inputs:
            path = Path(getattr(args, name))
            if not path.is_file():
                raise FileNotFoundError(f"input not found: {getattr(args, name)}")
            self.paths[name] = path
            self.inputs[name] = {"path": str(path), "sha256": _sha256(path)}
        self.outputs: dict[str, dict] = {}
        self.out.mkdir(parents=True, exist_ok=True)

    @contextlib.contextmanager
    def open(self, name: str, newline: str | None = None):
        """Input ``name`` as text, with any UTF-8 byte-order mark dropped; an
        InputError raised while it is open, a bad encoding included, is its."""
        with blaming(name), open(self.paths[name], "r", encoding="utf-8-sig",
                                 newline=newline) as f:
            yield f

    def table(self, name: str, vocabulary=None):
        with self.open(name) as f:
            return parse_embedding_text(f, vocabulary=vocabulary)

    def pairs(self, name: str):
        with self.open(name) as f:
            pairs = load_pairs(f)
        if not pairs:  # load_pairs keeps an empty set when every pair conflicts
            raise InputError("no pairs: every pair conflicts", name)
        return pairs

    def write(self, name: str, render, *values) -> None:
        """Write ``render(*values, stream)`` to ``--out``/name and hash it."""
        path = self.out / name
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            render(*values, f)
        self.outputs[name] = {"path": str(path), "sha256": _sha256(path)}

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
        with open(self.out / "run.json", "w", encoding="utf-8", newline="\n") as f:
            _json(manifest, f)


# --- subcommand implementations ----------------------------------------------

def _cmd_split(args, run: _Run) -> None:
    pairs = run.pairs("pairs")
    result = split_pairs(pairs, test_every=args.test_every)
    run.write("train.tsv", write_pairs, result.train)
    run.write("test.tsv", write_pairs, result.test)
    summary = {
        "input_pairs": len(pairs),
        "train_pairs": len(result.train),
        "test_pairs": len(result.test),
        "dropped_spanning": result.dropped_spanning,
        "dropped_duplicates": pairs.dropped_duplicates,
        "dropped_conflicts": pairs.dropped_conflicts,
        "skipped_lines": pairs.skipped_lines,
        "train_vocab": len(result.train.vocabulary()),
        "test_vocab": len(result.test.vocabulary()),
    }
    run.write("split.json", _json, summary)
    run.log(f"split: {summary['train_pairs']} train / {summary['test_pairs']} test "
            f"({summary['dropped_spanning']} dropped)")


def _cmd_stats(args, run: _Run) -> None:
    pairs = run.pairs("pairs")
    summary = {
        "pairs": len(pairs),
        **component_stats(pairs),
        "synonym_pairs": len(pairs.by_relation("synonym")),
        "antonym_pairs": len(pairs.by_relation("antonym")),
        "skipped_lines": pairs.skipped_lines,
    }
    run.write("stats.json", _json, summary)
    run.log(f"stats: {summary['component_count']} components, giant share "
            f"{summary['giant_share_of_pairs']:.3f}")


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


def _cmd_train(args, run: _Run) -> None:
    mode = BASELINE if args.mode == "baseline" else CLASSIFIER_SYSTEM
    pairs = run.pairs("pairs")
    table = run.table("embeddings", pairs.vocabulary())
    try:
        layer_dims = _default_dims(table.dimension, _parse_dims(args.dims))
    except ValueError as exc:  # its messages start with "layer_dims"
        raise UsageError("--dims" + str(exc).removeprefix("layer_dims")) from None
    head_dims = _parse_dims(args.head_dims)
    if mode == CLASSIFIER_SYSTEM:
        try:
            head_dims = _head_dims(layer_dims[-1], head_dims)
        except ValueError as exc:  # its messages start with "head_dims"
            raise UsageError("--head-dims" + str(exc).removeprefix("head_dims")) from None
    with blaming("pairs"):  # pairs of one relation hold no triplet
        triplets = build_triplets(pairs, cap_per_anchor=args.cap_per_anchor, seed=args.seed)
    train_config = TrainConfig(
        layer_dims=layer_dims, hidden_activation=args.activation,
        learning_rate=args.lr, batch_size=args.batch_size,
        max_epochs=args.epochs, early_stop_patience=args.patience,
        validation_fraction=args.val_fraction, seed=args.seed, mode=mode,
        head_dims=head_dims)
    with blaming("embeddings"):  # a table that resolves no triplet names itself
        if mode == BASELINE:
            params, report = train_baseline(table, triplets, train_config)
        else:
            params, head, report = train_classifier_system(table, triplets, train_config)
            run.write("head.json", save_params, head)
    run.write("model.json", save_params, params)
    # wall_time is logged, not serialized: artifacts must be rerun-identical
    run.write("report.json", _json, report.to_dict(include_wall_time=False))
    run.log(f"train: stopped at epoch {report.stopped_epoch}, "
            f"val loss {report.val_losses[-1]:.4f}, {report.wall_time:.1f}s")


def _cmd_transform(args, run: _Run) -> None:
    with run.open("model") as f:
        params = load_params(f)
    table = run.table("embeddings")
    with blaming("model"):  # a model that maps every vector to zero, say
        if params.input_dim != table.dimension:
            raise InputError(f"input dimension {params.input_dim} "
                             f"!= --embeddings dimension {table.dimension}")
        new = transform_vocabulary(params, table)
    run.write("transformed.txt", write_embedding_text, new)
    # written from the two tables' rows: the concatenated table is never built
    run.write("concat.txt", write_concat_text, table, new)
    run.log(f"transform: {len(new)} words -> dim {new.dimension} "
            f"(+concat dim {table.dimension + new.dimension})")


def _cmd_eval_distances(args, run: _Run) -> None:
    pairs = run.pairs("pairs")
    with blaming("embeddings"):  # a table that resolves none of the pairs names itself
        report = distance_report(run.table("embeddings", pairs.vocabulary()), pairs)
    run.write(f"distances_{args.label}.csv", report.write_csv)
    run.write(f"distances_{args.label}.json", _json,
              {"space": args.label, "pair_count": report.pair_count,
               "unresolved": report.unresolved,
               "syn_mean": report.syn_mean, "syn_std": report.syn_std,
               "ant_mean": report.ant_mean, "ant_std": report.ant_std})
    run.log(f"distances[{args.label}]: syn mean {_fixed(report.syn_mean, '.3f')}, "
            f"ant mean {_fixed(report.ant_mean, '.3f')}")


def _shifts(run: _Run):
    """Shift report of the ``--pairs`` between ``--before`` and ``--after``."""
    pairs = run.pairs("pairs")
    vocabulary = pairs.vocabulary()
    before, after = run.table("before", vocabulary), run.table("after", vocabulary)
    try:
        return shift_report(before, after, pairs)
    except InputError as exc:  # no pair resolves in both tables: the pair file's error
        held = [sum(w in table for w in vocabulary) for table in (before, after)]
        raise InputError(f"{exc}: --before holds {held[0]} and --after {held[1]} "
                         f"of its {len(vocabulary)} words", "pairs") from None


def _cmd_eval_shifts(args, run: _Run) -> None:
    report = _shifts(run)
    run.write("shifts.csv", report.write_csv)
    run.write("shifts.json", _json,
              {"syn_mean_shift": report.syn_mean_shift,
               "ant_mean_shift": report.ant_mean_shift,
               "pair_count": len(report.records),
               "unresolved": report.unresolved})
    run.log(f"shifts: syn {_fixed(report.syn_mean_shift, '+.3f')}, "
            f"ant {_fixed(report.ant_mean_shift, '+.3f')}")


def _cmd_eval_extremes(args, run: _Run) -> None:
    run.write("extremes.json", _json, extreme_pairs(_shifts(run), args.n))
    run.log(f"extremes: top {args.n} per relation written")


def _cmd_eval_classifiers(args, run: _Run) -> None:
    train_pairs = run.pairs("train_pairs")
    test_pairs = run.pairs("test_pairs")
    vocabulary = train_pairs.vocabulary() | test_pairs.vocabulary()
    table = build_accuracy_table(
        run.table("raw", vocabulary), run.table("new", vocabulary),
        run.table("concat", vocabulary), train_pairs, test_pairs,
        boosted_config={"rounds": args.rounds})
    text = table.format_text()
    run.write("accuracy.json", _json, table.to_dict())
    run.write("accuracy.txt", lambda f: f.write(text))
    run.log("accuracy:\n" + text)


def _cmd_downstream(args, run: _Run) -> None:
    with run.open("data", newline="") as f:
        data = load_text_csv(f, name=run.paths["data"].name)
    vocabulary = {t for text, _ in data.records for t in tokenize(text)}
    # loaders, so that one table is held at a time; a split the documents
    # cannot fill with both labels on each side is the data's error
    with blaming("data"):
        result = run_downstream(lambda: run.table("raw", vocabulary),
                                lambda: run.table("concat", vocabulary),
                                data, test_fraction=args.test_fraction, seed=args.seed)
    run.write("downstream.json", _json, result.to_dict())
    run.log(f"downstream[{run.paths['data'].name}]: raw {result.accuracy_raw:.3f} -> "
            f"concat {result.accuracy_concat:.3f} "
            f"({result.relative_gain:+.1%})")


def build_parser() -> _Parser:
    parser = _Parser(prog="contrastmap",
                     description="Contrasting-map experiment pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help, func, inputs, input_help=None):
        """A subparser with one required flag per input file in ``inputs``,
        declared in the order ``_Run`` checks and hashes them, and the flags
        every subcommand shares."""
        p = sub.add_parser(name, help=help)
        for dest in inputs:
            p.add_argument("--" + dest.replace("_", "-"), required=True,
                           help=(input_help or {}).get(dest))
        p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, ">= 0"), default=0)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=func, inputs=inputs)
        return p

    p = command("split", "leakage-free train/test pair split", _cmd_split, ("pairs",))
    p.add_argument("--test-every", type=_checked(int, lambda v: v >= 2, ">= 2"), default=4)

    command("stats", "relation-graph component statistics", _cmd_stats, ("pairs",))

    p = command("train", "train the contrasting map", _cmd_train,
                ("embeddings", "pairs"), {"pairs": "train-side pair TSV"})
    p.add_argument("--mode", choices=["baseline", "classifier-system"],
                   default="baseline")
    p.add_argument("--dims", type=_dims_arg,
                   help="comma-separated layer dims, e.g. 300,128,40")
    p.add_argument("--head-dims", type=_dims_arg,
                   help="classifier head dims (classifier-system)")
    p.add_argument("--activation", choices=["tanh", "relu"], default="tanh")
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    p.add_argument("--batch-size", type=_positive_int, default=256)
    p.add_argument("--epochs", type=_positive_int, default=50)
    p.add_argument("--patience", type=_positive_int, default=5)
    p.add_argument("--val-fraction", type=_checked(float, lambda v: 0 < v <= 0.5, "in (0, 0.5]"),
                   default=0.1)
    p.add_argument("--cap-per-anchor", type=_positive_int, default=20)

    command("transform", "materialize transformed + concat tables", _cmd_transform,
            ("model", "embeddings"))

    p = command("eval-distances", "distance distribution report", _cmd_eval_distances,
                ("embeddings", "pairs"))
    p.add_argument("--label", type=_file_label, default="raw")

    command("eval-shifts", "pairwise distance shift report", _cmd_eval_shifts,
            ("before", "after", "pairs"))

    p = command("eval-extremes", "closest antonyms / farthest synonyms", _cmd_eval_extremes,
                ("before", "after", "pairs"))
    p.add_argument("-n", type=_positive_int, default=10)

    p = command("eval-classifiers", "raw/new/concat accuracy table", _cmd_eval_classifiers,
                ("raw", "new", "concat", "train_pairs", "test_pairs"))
    p.add_argument("--rounds", type=_positive_int, default=200)

    p = command("downstream", "mean-embedding text classification", _cmd_downstream,
                ("raw", "concat", "data"), {"data": "text,label CSV"})
    p.add_argument("--test-fraction", type=_checked(float, lambda v: 0 < v < 0.5, "in (0, 0.5)"),
                   default=0.25)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        job = _Run(args)
        args.func(args, job)
        job.finish()
        return EXIT_OK
    except UsageError as exc:
        print(f"usage-error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        name = getattr(exc, "input", None)  # an InputError comes once the job is set up
        where = f"--{name.replace('_', '-')} {job.paths[name]}: " if name else ""
        print(f"input-error: {where}{exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DivergenceError, ArithmeticError) as exc:
        print(f"numeric-error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
