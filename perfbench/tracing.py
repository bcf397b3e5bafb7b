"""Spans and counters for the traced benchmark run.

The traced run wraps public names in the namespaces of the modules that call
them (``contrastmap.cli.parse_embedding_text``, not the defining module's
name), so the library itself is never edited. Each wrapped call records one
span (name, start, end, parent); calls made hundreds of thousands of times
per pass only bump a counter. Every name is restored on exit. A wrap target
that no longer exists is recorded as missing, with the reason, and the run
goes on.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def current_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE_BYTES / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span in the same phase, -1 at the top


class Phase:
    """Spans, counters and observations of one traced set-up or timed pass."""

    traced = True

    def __init__(self, label: str):
        self.label = label
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.records: dict[str, list[dict]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def record(self, name: str, doc: dict) -> None:
        self.records.setdefault(name, []).append(doc)

    def to_dict(self) -> dict:
        return {"label": self.label, "counts": self.counts,
                "records": self.records,
                "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans]}


class NullPhase:
    """Stand-in for :class:`Phase` in untraced set-ups and passes."""

    traced = False
    records: dict[str, list[dict]] = {}

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


NULL = NullPhase()


@dataclass(frozen=True)
class Target:
    """One public name to wrap: ``attr`` is ``name`` or ``Class.name``."""

    module: str
    attr: str
    name: str                                   # span or counter name
    counter_only: bool = False
    observe: Callable | None = None             # (phase, args, kwargs, result, seconds, rss_before)
    rss: bool = False                           # read the resident set before the call


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def _wrap(fn, target: Target, phase: Phase, missing: dict[str, str]):
    if target.counter_only:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            phase.count(target.name)
            return fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rss_before = current_rss_mb() if target.rss else 0.0
        start = time.perf_counter()
        with phase.span(target.name):
            result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        if target.observe is not None:
            try:
                target.observe(phase, args, kwargs, result, seconds, rss_before)
            except Exception as exc:  # a reshaped argument or result must not stop the run
                missing.setdefault(target.name, f"observer failed: {exc!r}")
        return result
    return traced


@contextmanager
def installed(targets: list[Target], phase, missing: dict[str, str]):
    """Wrap every resolvable target around ``phase`` for the block's duration.

    Does nothing for an untraced phase. Unresolvable targets are recorded in
    ``missing`` under their span or counter name.
    """
    undo = []
    try:
        if phase.traced:
            for target in targets:
                try:
                    owner, leaf, original = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    missing.setdefault(target.name,
                                       f"{target.module}.{target.attr}: {exc}")
                    continue
                setattr(owner, leaf, _wrap(original, target, phase, missing))
                undo.append((owner, leaf, original))
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


# --- observers: counts and values taken at the wrapped boundary ----------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_parse(phase, args, kwargs, table, seconds, rss_before):
    phase.count("embeddings.rows_parsed",
                len(table) + table.skipped_rows + table.duplicate_warnings)
    stream = _arg(args, kwargs, 0, "stream")
    phase.count("embeddings.parse_bytes", os.fstat(stream.fileno()).st_size)


def _on_write(phase, args, kwargs, written, seconds, rss_before):
    phase.count("embeddings.write_bytes", written)


def _on_triplets(phase, args, kwargs, triplets, seconds, rss_before):
    phase.count("pairs.triplets", len(triplets))


def _on_train(phase, args, kwargs, result, seconds, rss_before):
    phase.count("training.epochs", result[-1].stopped_epoch)


def _count_leaves(node) -> int:
    if node.is_leaf:
        return 1
    return _count_leaves(node.left) + _count_leaves(node.right)


def _on_boost(phase, args, kwargs, model, seconds, rss_before):
    import numpy as np
    from contrastmap.boosting import boosted_scores, logistic_loss
    X = np.asarray(_arg(args, kwargs, 0, "X"), dtype=np.float64)
    y = np.asarray(_arg(args, kwargs, 1, "y"), dtype=np.float64)
    p = y.mean()
    phase.record("boosting.fit", {
        "feature_dim": int(X.shape[1]),
        "rows": int(X.shape[0]),
        "rounds": len(model.trees),
        "seconds": seconds,
        "leaves": sum(_count_leaves(t) for t in model.trees),
        "train_logloss": logistic_loss(y, boosted_scores(model, X)),
        "base_rate_logloss": float(-(p * np.log(p) + (1 - p) * np.log(1 - p))),
        "rss_growth_mb": max(0.0, peak_rss_mb() - rss_before),
    })


def _on_shift(phase, args, kwargs, report, seconds, rss_before):
    phase.count("evaluation.report_pairs", len(report.records) + report.unresolved)


def _on_downstream(phase, args, kwargs, result, seconds, rss_before):
    phase.count("downstream.docs", len(_arg(args, kwargs, 2, "data").records))


def _t(module, attr, name, **kw) -> Target:
    return Target("contrastmap." + module, attr, name, **kw)


# Each layer is wrapped where its consumer looks it up; the benchmark's own
# set-up calls go through the defining module, so that name is wrapped too.
TARGETS = [
    _t("cli", "parse_embedding_text", "embeddings.parse", observe=_on_parse),
    _t("cli", "write_embedding_text", "embeddings.write", observe=_on_write),
    _t("embeddings", "write_embedding_text", "embeddings.write", observe=_on_write),
    _t("embeddings", "EmbeddingTable.lookup", "embeddings.lookup_calls", counter_only=True),
    _t("evaluation", "cosine_distance", "embeddings.cosine_calls", counter_only=True),
    _t("cli", "load_pairs", "pairs.load"),
    _t("cli", "write_pairs", "pairs.write"),
    _t("cli", "split_pairs", "pairs.split"),
    _t("pairs", "split_pairs", "pairs.split"),
    _t("pairs", "build_triplets", "pairs.triplets", observe=_on_triplets),
    _t("training", "triplet_backward", "network.backward"),
    _t("training", "pair_head_loss_backward", "network.head_backward"),
    _t("training", "optimizer_step", "network.optimizer"),
    _t("training", "triplet_loss", "network.val_loss"),
    _t("training", "pair_head_logits", "network.val_loss"),
    _t("cli", "load_params", "network.load_params"),
    _t("training", "train_baseline", "training.baseline", observe=_on_train),
    _t("training", "train_classifier_system", "training.classifier", observe=_on_train),
    _t("training", "transform_vocabulary", "training.transform"),
    _t("cli", "transform_vocabulary", "training.transform"),
    _t("training", "concat_embeddings", "training.concat"),
    _t("cli", "concat_embeddings", "training.concat"),
    _t("evaluation", "build_accuracy_table", "evaluation.table"),
    _t("evaluation", "featurize_pair", "evaluation.featurize_calls", counter_only=True),
    _t("evaluation", "train_linear", "evaluation.linear_fit"),
    _t("evaluation", "classify_accuracy", "evaluation.classify"),
    _t("evaluation", "train_boosted_trees", "boosting.fit", observe=_on_boost, rss=True),
    _t("evaluation", "boosted_proba", "boosting.predict"),
    _t("cli", "shift_report", "evaluation.shift_report", observe=_on_shift),
    _t("cli", "load_text_csv", "downstream.load_csv"),
    _t("cli", "run_downstream", "downstream.run", observe=_on_downstream),
    _t("downstream", "embed_document", "downstream.embed_calls", counter_only=True),
    _t("downstream", "train_linear", "downstream.linear_fit"),
    _t("synthetic", "planted_world", "synthetic.world"),
    _t("synthetic", "sentiment_corpus", "synthetic.corpus"),
]


# --- per-layer metrics derived from the spans ------------------------------------

class Spans:
    """Sums, self times and samples over a list of phases."""

    def __init__(self, phases: list[Phase]):
        self.phases = phases

    def _each(self, name: str):
        for ph in self.phases:
            for s in ph.spans:
                if s.name == name:
                    yield ph, s

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for _, s in self._each(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name), 0.0)

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def self_time(self, prefix: str) -> float:
        """Duration of spans named ``prefix*`` minus their direct children."""
        total = 0.0
        for ph in self.phases:
            for i, s in enumerate(ph.spans):
                if not s.name.startswith(prefix):
                    continue
                children = sum(c.end - c.start for c in ph.spans if c.parent == i)
                total += (s.end - s.start) - children
        return total

    def count(self, name: str) -> int:
        return sum(ph.counts.get(name, 0) for ph in self.phases)

    def records(self, name: str) -> list[dict]:
        return [r for ph in self.phases for r in ph.records.get(name, [])]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 with no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(sums: Spans, samples: Spans, spaces: dict[int, str]) -> dict:
    """Every per-layer metric as name -> (value, unit, span/counter sources).

    ``sums`` covers one set-up and one timed pass; ``samples`` pools every
    traced phase for the percentiles. ``spaces`` maps a boosted feature
    dimension to its space name (raw, new, concat).
    """
    fits = {spaces.get(r["feature_dim"], str(r["feature_dim"])): r
            for r in sums.records("boosting.fit")}

    def fit(space: str, key: str) -> float:
        return fits[space][key] if space in fits else 0.0

    ms = lambda name, q: 1000.0 * percentile(samples.durations(name), q)
    parse_s = sums.total("embeddings.parse")
    write_s = sums.total("embeddings.write")
    shift_s = sums.total("evaluation.shift_report")
    down_s = sums.total("downstream.run")
    concat_fit = fits.get("concat")
    m = {
        "embeddings.parse_s": (parse_s, "s", ["embeddings.parse"]),
        "embeddings.parse_mb_per_s": (_rate(sums.count("embeddings.parse_bytes") / 1e6, parse_s),
                                      "MB/s", ["embeddings.parse"]),
        "embeddings.write_s": (write_s, "s", ["embeddings.write"]),
        "embeddings.write_mb_per_s": (_rate(sums.count("embeddings.write_bytes") / 1e6, write_s),
                                      "MB/s", ["embeddings.write"]),
        "embeddings.rows_parsed": (sums.count("embeddings.rows_parsed"), "count",
                                   ["embeddings.parse"]),
        "embeddings.lookup_calls": (sums.count("embeddings.lookup_calls"), "count",
                                    ["embeddings.lookup_calls"]),
        "embeddings.cosine_calls": (sums.count("embeddings.cosine_calls"), "count",
                                    ["embeddings.cosine_calls"]),
        "pairs.load_s": (sums.total("pairs.load"), "s", ["pairs.load"]),
        "pairs.split_s": (sums.total("pairs.split"), "s", ["pairs.split"]),
        "pairs.triplets_s": (sums.total("pairs.triplets"), "s", ["pairs.triplets"]),
        "pairs.triplets": (sums.count("pairs.triplets"), "count", ["pairs.triplets"]),
        "network.backward_calls": (sums.calls("network.backward") + sums.calls("network.head_backward"),
                                   "count", ["network.backward", "network.head_backward"]),
        "network.backward_ms.p50": (ms("network.backward", 0.50), "ms", ["network.backward"]),
        "network.backward_ms.p99": (ms("network.backward", 0.99), "ms", ["network.backward"]),
        "network.optimizer_ms.p50": (ms("network.optimizer", 0.50), "ms", ["network.optimizer"]),
        "network.optimizer_ms.p99": (ms("network.optimizer", 0.99), "ms", ["network.optimizer"]),
        "network.head_backward_ms.p50": (ms("network.head_backward", 0.50), "ms",
                                         ["network.head_backward"]),
        "network.val_loss_s": (sums.total("network.val_loss"), "s", ["network.val_loss"]),
        "training.self_s.baseline": (sums.self_time("training.baseline"), "s",
                                     ["training.baseline", "network.backward",
                                      "network.optimizer", "network.val_loss"]),
        "training.self_s.classifier": (sums.self_time("training.classifier"), "s",
                                       ["training.classifier", "network.head_backward",
                                        "network.optimizer", "network.val_loss"]),
        "training.epochs": (sums.count("training.epochs"), "count",
                            ["training.baseline", "training.classifier"]),
        "training.transform_s": (sums.total("training.transform"), "s", ["training.transform"]),
        "training.concat_s": (sums.total("training.concat"), "s", ["training.concat"]),
        "boosting.fit_s.raw": (fit("raw", "seconds"), "s", ["boosting.fit"]),
        "boosting.fit_s.new": (fit("new", "seconds"), "s", ["boosting.fit"]),
        "boosting.fit_s.concat": (fit("concat", "seconds"), "s", ["boosting.fit"]),
        "boosting.round_ms.concat": (1000.0 * concat_fit["seconds"] / concat_fit["rounds"]
                                     if concat_fit else 0.0, "ms", ["boosting.fit"]),
        "boosting.predict_s": (sums.total("boosting.predict"), "s", ["boosting.predict"]),
        "boosting.leaves": (sum(r["leaves"] for r in fits.values()), "count", ["boosting.fit"]),
        "boosting.train_logloss.raw": (fit("raw", "train_logloss"), "nats", ["boosting.fit"]),
        "boosting.train_logloss.new": (fit("new", "train_logloss"), "nats", ["boosting.fit"]),
        "boosting.train_logloss.concat": (fit("concat", "train_logloss"), "nats", ["boosting.fit"]),
        "boosting.rss_growth_mb": (max((r["rss_growth_mb"] for r in fits.values()), default=0.0),
                                   "MB", ["boosting.fit"]),
        "evaluation.table_self_s": (sums.self_time("evaluation.table"), "s",
                                    ["evaluation.table", "evaluation.linear_fit",
                                     "evaluation.classify", "boosting.fit"]),
        "evaluation.featurize_calls": (sums.count("evaluation.featurize_calls"), "count",
                                       ["evaluation.featurize_calls"]),
        "evaluation.linear_fit_s": (sums.total("evaluation.linear_fit"), "s",
                                    ["evaluation.linear_fit"]),
        "evaluation.classify_s": (sums.total("evaluation.classify"), "s", ["evaluation.classify"]),
        "evaluation.shift_report_s": (shift_s, "s", ["evaluation.shift_report"]),
        "evaluation.report_pairs_per_s": (_rate(sums.count("evaluation.report_pairs"), shift_s),
                                          "pairs/s", ["evaluation.shift_report"]),
        "downstream.run_s": (down_s, "s", ["downstream.run"]),
        "downstream.embed_calls": (sums.count("downstream.embed_calls"), "count",
                                   ["downstream.embed_calls"]),
        "downstream.docs_per_s": (_rate(sums.count("downstream.docs"), down_s), "docs/s",
                                  ["downstream.run"]),
        "downstream.linear_fit_s": (sums.total("downstream.linear_fit"), "s",
                                    ["downstream.linear_fit"]),
        "cli.split_s": (sums.total("cli.split"), "s", []),
        "cli.transform_s": (sums.total("cli.transform"), "s", []),
        "cli.eval_shifts_s": (sums.total("cli.eval-shifts"), "s", []),
        "cli.downstream_s": (sums.total("cli.downstream"), "s", []),
        "cli.self_s": (sums.self_time("cli."), "s",
                       ["embeddings.parse", "embeddings.write", "pairs.load", "pairs.write",
                        "pairs.split", "network.load_params", "training.transform",
                        "training.concat", "evaluation.shift_report", "downstream.load_csv",
                        "downstream.run"]),
        "cli.bytes_hashed": (sums.count("cli.bytes_hashed"), "bytes", []),
        "synthetic.world_s": (sums.total("synthetic.world"), "s", ["synthetic.world"]),
        "synthetic.corpus_s": (sums.total("synthetic.corpus"), "s", ["synthetic.corpus"]),
    }
    return m
