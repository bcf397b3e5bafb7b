"""The benchmark's traced run wraps library names by module and attribute
(``TARGETS`` in ``perfbench/tracing.py``). A target it cannot resolve turns
its metric into a ``missing`` line, so a renamed or deleted public name must
show up here first."""
import importlib.util
import sys
from pathlib import Path

# metrics whose wrap target is gone on purpose
RETIRED = {
    "embeddings.lookup_calls",  # EmbeddingTable.lookup: indices is the one word-lookup path
    "boosting.fit",  # evaluation.train_boosted_trees: the table bins its pair columns itself
}


def _load_tracing(monkeypatch):
    """``perfbench/tracing.py``, loaded by path; it leaves ``sys.modules``
    with the test (its dataclasses look their module up there)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_only_retired_benchmark_targets_are_unresolvable(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    unresolved = set()
    for target in tracing.TARGETS:
        try:
            tracing._resolve(target)
        except (ImportError, AttributeError):
            unresolved.add(target.name)
    assert unresolved == RETIRED


def test_traced_mini_run_leaves_only_retired_metrics_missing(monkeypatch, tmp_path):
    """Every target's observer runs on what the library returns now: a field
    the benchmark reads (``skipped_rows``, ``dimension``, ``is_leaf``,
    ``stopped_epoch``, ...) that moves shows here, not only in a traced run."""
    from contrastmap import (cli, embeddings, evaluation, network, pairs, synthetic,
                             training)

    tracing = _load_tracing(monkeypatch)
    phase, missing = tracing.Phase("mini-run"), {}
    files = {name: tmp_path / name for name in ("vectors.txt", "model.json", "corpus.csv")}
    with tracing.installed(tracing.TARGETS, phase, missing):
        world = synthetic.planted_world(300, 20, seed=6)
        split = pairs.split_pairs(world.pairs)
        triplets = pairs.build_triplets(split.train, seed=1)
        config = training.TrainConfig(layer_dims=[20, 16, 4], max_epochs=2, seed=2)
        params, _ = training.train_baseline(world.table, triplets, config)
        training.train_classifier_system(
            world.table, triplets,
            training.TrainConfig(layer_dims=[20, 16, 4], max_epochs=2, seed=2,
                                 mode=training.CLASSIFIER_SYSTEM))
        new = training.transform_vocabulary(params, world.table)
        concat = training.concat_embeddings(world.table, new)
        evaluation.build_accuracy_table(world.table, new, concat, split.train, split.test,
                                        boosted_config={"rounds": 3})
        with open(files["vectors.txt"], "w", encoding="utf-8", newline="\n") as f:
            embeddings.write_embedding_text(world.table, f)
        with open(files["model.json"], "w", encoding="utf-8", newline="\n") as f:
            network.save_params(params, f)
        with open(files["corpus.csv"], "w", encoding="utf-8", newline="\n") as f:
            synthetic.write_sentiment_csv(
                synthetic.sentiment_corpus(world, n_documents=60, seed=3), f)
        out = tmp_path / "out"
        assert cli.run(["transform", "--model", str(files["model.json"]),
                        "--embeddings", str(files["vectors.txt"]),
                        "--out", str(out / "transform"), "--quiet"]) == cli.EXIT_OK
        assert cli.run(["downstream", "--raw", str(files["vectors.txt"]),
                        "--concat", str(out / "transform" / "concat.txt"),
                        "--data", str(files["corpus.csv"]),
                        "--out", str(out / "downstream"), "--quiet"]) == cli.EXIT_OK
    assert set(missing) == RETIRED, missing
    assert not [r for r in missing.values() if r.startswith("observer failed")]
    # the observers ran: each left its count or record
    assert phase.counts["training.epochs"] == 4
    # two featurize_pair calls per space, one per test-pair order: the
    # boosted trees' training rows are binned from the table, not laid out
    assert phase.counts["evaluation.featurize_calls"] == 6
    assert phase.counts["embeddings.rows_parsed"] > len(world.table)  # three parses
    assert phase.counts["downstream.docs"] == 60
    assert phase.counts["pairs.triplets"] == len(triplets)
