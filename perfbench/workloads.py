"""The three benchmark workloads.

Each workload has a set-up, a timed pass and an untimed inspection of the
pass's outputs. A pass is one closed-loop call sequence: one caller, each
call waiting for the previous one. All inputs come from the seed.

Every call into the library goes through the defining or consuming module's
attribute (``synthetic.planted_world``, not a name imported here), so the
traced run sees it when it wraps that name.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from contrastmap import (cli, embeddings, evaluation, network, pairs, synthetic,
                         training)


@dataclass
class Inspection:
    """What the benchmark learns from one pass, outside the timed region."""

    quality: dict[str, float]                      # deterministic, compared exactly
    checks: list[tuple[str, bool]]
    fingerprint: dict = field(default_factory=dict)  # other values that must repeat exactly


def _finite_fraction(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and 0.0 <= x <= 1.0


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Workload:
    """Defaults shared by the workloads."""

    setup_repeats = 3
    REPORT_UNITS: dict[str, str] = {}

    def timings(self, passes) -> dict[str, float]:
        """Stage times reported beside ``wall_s``: medians over the passes."""
        return {}

    def spaces(self, state) -> dict[int, str]:
        """Boosted feature dimension -> space name, for the traced run."""
        return {}


# --- pairclf -----------------------------------------------------------------

class PairClf(Workload):
    """``build_accuracy_table`` on the criterion-3 planted world.

    Boosting dominates the pass, so this workload shows changes to the
    boosted trees; set-up trains the map briefly, so it shows training too.
    """

    name = "pairclf"
    SETUP_EPOCHS = 10
    ROUNDS = 10
    MAP_DIMS = [50, 128, 64, 4]
    REPORT_UNITS = {"acc_boosted_raw": "fraction", "acc_boosted_new": "fraction",
                    "acc_boosted_concat": "fraction", "acc_linear_new": "fraction"}

    def setup(self, seed: int, work: Path):
        world = synthetic.planted_world(5000, 50, seed=seed)
        split = pairs.split_pairs(world.pairs)
        triplets = pairs.build_triplets(split.train, seed=seed + 1)
        config = training.TrainConfig(layer_dims=self.MAP_DIMS,
                                      max_epochs=self.SETUP_EPOCHS,
                                      early_stop_patience=self.SETUP_EPOCHS + 1,
                                      seed=seed + 2)
        params, _ = training.train_baseline(world.table, triplets, config)
        new = training.transform_vocabulary(params, world.table)
        concat = training.concat_embeddings(world.table, new)
        return {"raw": world.table, "new": new, "concat": concat, "split": split,
                "triplets": len(triplets)}

    def run_pass(self, state, phase):
        return evaluation.build_accuracy_table(
            state["raw"], state["new"], state["concat"],
            state["split"].train, state["split"].test,
            boosted_config={"rounds": self.ROUNDS})

    def inspect(self, state, table, phase) -> Inspection:
        acc = table.accuracies
        checks = [(f"accuracy {space}/{kind} finite in [0, 1]",
                   _finite_fraction(acc.get(space, {}).get(kind)))
                  for space in ("raw", "new", "concatenated")
                  for kind in ("linear", "boosted")]
        for fit in phase.records.get("boosting.fit", []):
            checks.append((f"boosted train logloss below base rate (dim {fit['feature_dim']})",
                           fit["train_logloss"] < fit["base_rate_logloss"]))
        quality = {"acc_boosted_raw": acc["raw"]["boosted"],
                   "acc_boosted_new": acc["new"]["boosted"],
                   "acc_boosted_concat": acc["concatenated"]["boosted"],
                   "acc_linear_new": acc["new"]["linear"]}
        return Inspection(quality, checks, {"accuracies": acc, "counts": table.counts})

    def spaces(self, state) -> dict[int, str]:
        return {2 * state["raw"].dimension: "raw", 2 * state["new"].dimension: "new",
                2 * state["concat"].dimension: "concat"}

    def sizes(self, state) -> dict:
        n_train = 2 * len(state["split"].train)
        return {"words": len(state["raw"]), "pairs_train": len(state["split"].train),
                "pairs_test": len(state["split"].test), "triplets": state["triplets"],
                "setup_epochs": self.SETUP_EPOCHS, "boosting_rounds": self.ROUNDS,
                "features": {space: [n_train, dim] for dim, space in self.spaces(state).items()}}


# --- train-map ---------------------------------------------------------------

class TrainMap(Workload):
    """Baseline then classifier-system training on the criterion-3 triplets.

    No boosting and no I/O: the network and training modules do all the
    work. The two modes use the network differently (triplet loss against a
    head with four backward passes per step), so a gain for one mode that
    costs the other shows.
    """

    name = "train-map"
    setup_repeats = 7
    EPOCHS = 5
    MAP_DIMS = [50, 128, 64, 4]
    BATCH = 256
    REPORT_UNITS = {"train_baseline_s": "s", "train_classifier_s": "s",
                    "train_val_loss": "loss", "clf_val_loss": "nats"}

    def setup(self, seed: int, work: Path):
        world = synthetic.planted_world(5000, 50, seed=seed)
        split = pairs.split_pairs(world.pairs)
        triplets = pairs.build_triplets(split.train, seed=seed + 1)
        state = {"table": world.table, "triplets": triplets, "seed": seed + 2}
        # One warm-up epoch per mode: the first training call in a process
        # runs about 40% slower, and that belongs to set-up, not to a pass.
        training.train_baseline(world.table, triplets,
                                self._config(state, training.BASELINE, epochs=1))
        training.train_classifier_system(world.table, triplets,
                                         self._config(state, training.CLASSIFIER_SYSTEM,
                                                      epochs=1))
        return state

    def _config(self, state, mode: str, epochs: int = EPOCHS):
        # patience above the epoch count: early stopping never fires
        return training.TrainConfig(layer_dims=self.MAP_DIMS, batch_size=self.BATCH,
                                    max_epochs=epochs, early_stop_patience=epochs + 1,
                                    seed=state["seed"], mode=mode)

    def run_pass(self, state, phase):
        t0 = time.perf_counter()
        _, base = training.train_baseline(state["table"], state["triplets"],
                                          self._config(state, training.BASELINE))
        t1 = time.perf_counter()
        _, _, clf = training.train_classifier_system(
            state["table"], state["triplets"],
            self._config(state, training.CLASSIFIER_SYSTEM))
        t2 = time.perf_counter()
        return {"baseline": base, "classifier": clf,
                "train_baseline_s": t1 - t0, "train_classifier_s": t2 - t1}

    def inspect(self, state, out, phase) -> Inspection:
        checks = []
        for mode in ("baseline", "classifier"):
            r = out[mode]
            losses = r.train_losses + r.val_losses
            checks.append((f"{mode}: every loss finite",
                           bool(losses) and all(math.isfinite(x) for x in losses)))
            checks.append((f"{mode}: best validation loss below the first epoch's",
                           len(r.val_losses) > 1 and min(r.val_losses) < r.val_losses[0]))
        quality = {"train_val_loss": min(out["baseline"].val_losses),
                   "clf_val_loss": min(out["classifier"].val_losses)}
        fingerprint = {mode: out[mode].to_dict(include_wall_time=False)
                       for mode in ("baseline", "classifier")}
        return Inspection(quality, checks, fingerprint)

    def timings(self, passes) -> dict[str, float]:
        return {key: float(np.median([p[key] for p in passes]))
                for key in ("train_baseline_s", "train_classifier_s")}

    def sizes(self, state) -> dict:
        return {"words": len(state["table"]), "triplets": len(state["triplets"]),
                "layer_dims": self.MAP_DIMS, "batch_size": self.BATCH,
                "epochs_per_mode": self.EPOCHS}


# --- vocab-cli ---------------------------------------------------------------

class VocabCli(Workload):
    """A 20,000 x 300 planted vocabulary driven through ``contrastmap.cli.run``.

    Text parsing and writing, per-word lookups and sha256 manifests dominate,
    and nothing boosts. ``transform`` writes 149 MB beside four parses of the
    117 MB vector file, so a reader gain that costs the writer shows.
    """

    name = "vocab-cli"
    # one set-up is about half of this workload's run; repeating it would not
    # fit the run budget (see README.md)
    setup_repeats = 1
    WORDS, DIM = 20000, 300
    MODEL_DIMS = [300, 128, 40]
    DOCUMENTS = 5000
    COMMANDS = ("split", "transform", "eval-shifts", "downstream")
    REPORT_UNITS = {"downstream_acc_concat": "fraction"}

    def setup(self, seed: int, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        world = synthetic.planted_world(self.WORDS, self.DIM, seed=seed)
        files = {name: work / name for name in
                 ("vectors.txt", "pairs.tsv", "model.json", "corpus.csv")}
        with open(files["vectors.txt"], "w", encoding="utf-8", newline="\n") as f:
            embeddings.write_embedding_text(world.table, f)
        with open(files["pairs.tsv"], "w", encoding="utf-8", newline="\n") as f:
            pairs.write_pairs(world.pairs, f)
        with open(files["model.json"], "w", encoding="utf-8", newline="\n") as f:
            network.save_params(network.init_params(self.MODEL_DIMS, seed=seed + 4), f)
        docs = synthetic.sentiment_corpus(world, n_documents=self.DOCUMENTS, seed=seed + 3,
                                          sentiment_groups=self._sentiment_groups(world))
        with open(files["corpus.csv"], "w", encoding="utf-8", newline="\n") as f:
            synthetic.write_sentiment_csv(docs, f)
        return {"world": world, "files": files, "work": work, "seed": seed}

    @staticmethod
    def _sentiment_groups(world) -> int:
        """Four leading word groups, widened until both polarities occur.

        ``sentiment_corpus`` refuses a region of one polarity; four groups
        (20 words) all of one polarity has probability 2e-6 per seed.
        """
        groups = 4
        while len({world.polarity[w]
                   for w in world.table.words[:groups * world.group_size]}) < 2:
            groups += 1
        return groups

    def _argv(self, state, command: str) -> list[str]:
        f, out = state["files"], state["work"]
        args = {
            "split": ["--pairs", f["pairs.tsv"]],
            "transform": ["--model", f["model.json"], "--embeddings", f["vectors.txt"]],
            "eval-shifts": ["--before", f["vectors.txt"],
                            "--after", out / "transform" / "transformed.txt",
                            "--pairs", out / "split" / "test.tsv"],
            "downstream": ["--raw", f["vectors.txt"],
                           "--concat", out / "transform" / "concat.txt",
                           "--data", f["corpus.csv"]],
        }[command]
        return [command, *map(str, args), "--seed", str(state["seed"]),
                "--out", str(out / command), "--quiet"]

    def run_pass(self, state, phase):
        codes = {}
        for command in self.COMMANDS:
            with phase.span("cli." + command):
                codes[command] = cli.run(self._argv(state, command))
            if phase.traced:
                phase.count("cli.bytes_hashed", self._bytes_hashed(state, command))
        return codes

    def _manifest(self, state, command: str) -> dict:
        with open(state["work"] / command / "run.json", encoding="utf-8") as f:
            return json.load(f)

    def _bytes_hashed(self, state, command: str) -> int:
        doc = self._manifest(state, command)
        entries = list(doc["inputs"].values()) + list(doc["outputs"].values())
        return sum(Path(e["path"]).stat().st_size for e in entries)

    def inspect(self, state, codes, phase) -> Inspection:
        checks = [(f"{c} exits 0", codes[c] == cli.EXIT_OK) for c in self.COMMANDS]
        hashes = {}
        for command in self.COMMANDS:
            doc = self._manifest(state, command)
            entries = {**doc["inputs"], **doc["outputs"]}
            checks.append((f"{command}: every run.json hash matches its file",
                           all(_sha256(Path(e["path"])) == e["sha256"]
                               for e in entries.values())))
            hashes[command] = {k: e["sha256"] for k, e in doc["outputs"].items()}

        raw = state["world"].table
        with open(state["files"]["model.json"], encoding="utf-8") as f:
            new = training.transform_vocabulary(network.load_params(f), raw)
        with open(state["work"] / "transform" / "transformed.txt", encoding="utf-8") as f:
            parsed = embeddings.parse_embedding_text(f)
        checks.append(("transformed.txt parses back bit for bit to transform_vocabulary",
                       parsed.words == new.words
                       and parsed.matrix.tobytes() == new.matrix.tobytes()))

        expected = evaluation.shift_report(raw, new, pairs.split_pairs(state["world"].pairs).test)
        with open(state["work"] / "eval-shifts" / "shifts.json", encoding="utf-8") as f:
            shifts = json.load(f)
        checks.append(("eval-shifts summary equals shift_report on the in-memory tables",
                       shifts == {"syn_mean_shift": expected.syn_mean_shift,
                                  "ant_mean_shift": expected.ant_mean_shift,
                                  "pair_count": len(expected.records),
                                  "unresolved": expected.unresolved}))

        with open(state["work"] / "downstream" / "downstream.json", encoding="utf-8") as f:
            acc = json.load(f)["accuracy_concat"]
        checks.append(("downstream concat accuracy finite in [0, 1]", _finite_fraction(acc)))
        return Inspection({"downstream_acc_concat": acc}, checks, {"output_sha256": hashes})

    def sizes(self, state) -> dict:
        files = {name: path.stat().st_size for name, path in state["files"].items()}
        return {"words": self.WORDS, "dim": self.DIM, "pairs": len(state["world"].pairs),
                "model_dims": self.MODEL_DIMS, "corpus_documents": self.DOCUMENTS,
                "file_bytes": files}


WORKLOADS = {w.name: w for w in (PairClf(), TrainMap(), VocabCli())}
