"""Tests for the command-line pipeline: exit codes, artifacts, manifests,
and rerun determinism."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contrastmap
from contrastmap.cli import run
from contrastmap.pairs import load_pairs
from contrastmap.synthetic import planted_world, sentiment_corpus, write_sentiment_csv
from contrastmap.embeddings import write_embedding_text
from contrastmap.pairs import write_pairs


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fixtures")
    world = planted_world(n_words=120, dim=20, seed=6)
    emb = root / "embeddings.txt"
    with open(emb, "w", newline="\n") as f:
        write_embedding_text(world.table, f)
    pairs = root / "pairs.tsv"
    with open(pairs, "w", newline="\n") as f:
        write_pairs(world.pairs, f)
    corpus = root / "corpus.csv"
    with open(corpus, "w", newline="\n") as f:
        write_sentiment_csv(sentiment_corpus(world, n_documents=60, seed=3), f)
    return {"root": root, "embeddings": emb, "pairs": pairs, "corpus": corpus}


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["split"]) == 1  # missing required --pairs/--out
    err = capsys.readouterr().err
    assert "usage-error:" in err


def test_eval_classifiers_rounds_checked_at_parsing(tmp_path, capsys):
    # the inputs do not exist: a usage error must come before any input is read
    args = ["eval-classifiers", "--out", str(tmp_path / "out")]
    for flag in ("--raw", "--new", "--concat", "--train-pairs", "--test-pairs"):
        args += [flag, str(tmp_path / "missing")]
    for rounds in ("0", "-3", "abc"):
        assert run(args + ["--rounds", rounds]) == 1
        err = capsys.readouterr().err
        assert "usage-error:" in err and "--rounds" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--dims", "3,abc"), ("--dims", "20,,4"),
                                        ("--dims", "20,0"), ("--head-dims", "8,x")])
def test_train_dims_checked_at_parsing(tmp_path, capsys, flag, value):
    # the inputs do not exist: a usage error must come before any input is read
    args = ["train", "--embeddings", str(tmp_path / "missing"),
            "--pairs", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
    assert run(args + [flag, value]) == 1
    err = capsys.readouterr().err
    assert "usage-error:" in err and flag in err
    assert not (tmp_path / "out").exists()


def test_train_dims_must_start_with_embedding_dimension(fixtures, tmp_path, capsys):
    assert run(["train", "--embeddings", str(fixtures["embeddings"]),
                "--pairs", str(fixtures["pairs"]), "--dims", "5,2", "--epochs", "1",
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage-error:" in err and "--dims" in err
    assert "5" in err and "20" in err
    assert not (tmp_path / "out" / "model.json").exists()


def test_missing_input_exit_2(tmp_path, capsys):
    code = run(["split", "--pairs", str(tmp_path / "nope.tsv"),
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert "input-error:" in capsys.readouterr().err


def test_bad_pairs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("# only comments\n")
    code = run(["split", "--pairs", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2


def test_split_command(fixtures, tmp_path):
    out = tmp_path / "split"
    assert run(["split", "--pairs", str(fixtures["pairs"]),
                "--out", str(out), "--quiet"]) == 0
    train = load_pairs(open(out / "train.tsv").read())
    test = load_pairs(open(out / "test.tsv").read())
    assert not (train.vocabulary() & test.vocabulary())
    summary = json.loads((out / "split.json").read_text())
    assert summary["train_pairs"] == len(train)
    assert summary["test_pairs"] == len(test)
    manifest = json.loads((out / "run.json").read_text())
    for entry in manifest["outputs"].values():
        assert _sha256(out / entry["path"].split("/")[-1]) == entry["sha256"]


@pytest.fixture(scope="module")
def pipeline(fixtures, tmp_path_factory):
    """split -> train -> transform, shared by the downstream CLI tests."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run(["split", "--pairs", str(fixtures["pairs"]),
                "--out", str(out / "split"), "--quiet"]) == 0
    train_args = ["train", "--mode", "baseline",
                  "--embeddings", str(fixtures["embeddings"]),
                  "--pairs", str(out / "split" / "train.tsv"),
                  "--dims", "20,32,4", "--epochs", "8", "--seed", "7",
                  "--out", str(out / "train"), "--quiet"]
    assert run(train_args) == 0
    assert run(["transform", "--model", str(out / "train" / "model.json"),
                "--embeddings", str(fixtures["embeddings"]),
                "--out", str(out / "transform"), "--quiet"]) == 0
    return {"out": out, "train_args": train_args, "fixtures": fixtures}


def test_train_rerun_byte_identical(pipeline, tmp_path):
    out = pipeline["out"]
    args = list(pipeline["train_args"])
    args[args.index("--out") + 1] = str(tmp_path / "train2")
    assert run(args) == 0
    first = (out / "train" / "model.json").read_bytes()
    second = (tmp_path / "train2" / "model.json").read_bytes()
    assert first == second
    assert (out / "train" / "report.json").read_bytes() == \
        (tmp_path / "train2" / "report.json").read_bytes()


@pytest.mark.parametrize("mode", ["baseline", "classifier-system"])
def test_train_artifacts_equal_across_blas_thread_counts(pipeline, tmp_path, mode):
    # at most two threads, so the test never oversubscribes a two-core runner
    src = str(Path(contrastmap.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        args = list(pipeline["train_args"])
        args[args.index("--mode") + 1] = mode
        out = tmp_path / f"threads{threads}"
        args[args.index("--out") + 1] = str(out)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "contrastmap.cli", *args], env=env,
                       check=True, timeout=300)
        outputs = json.loads((out / "run.json").read_text())["outputs"]
        assert all(_sha256(out / name) == entry["sha256"] for name, entry in outputs.items())
        digests.append({name: entry["sha256"] for name, entry in outputs.items()})
    expected = {"model.json", "report.json"} | ({"head.json"} if mode != "baseline" else set())
    assert set(digests[0]) == expected
    assert digests[0] == digests[1]


def test_eval_distance_and_shift_commands(pipeline, tmp_path):
    out = pipeline["out"]
    fixtures = pipeline["fixtures"]
    test_pairs = str(out / "split" / "test.tsv")
    assert run(["eval-distances", "--embeddings", str(fixtures["embeddings"]),
                "--pairs", test_pairs, "--label", "raw",
                "--out", str(tmp_path / "dist"), "--quiet"]) == 0
    assert (tmp_path / "dist" / "distances_raw.csv").exists()
    assert run(["eval-shifts", "--before", str(fixtures["embeddings"]),
                "--after", str(out / "transform" / "transformed.txt"),
                "--pairs", test_pairs,
                "--out", str(tmp_path / "shift"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "shift" / "shifts.json").read_text())
    assert "syn_mean_shift" in summary and "ant_mean_shift" in summary
    assert run(["eval-extremes", "--before", str(fixtures["embeddings"]),
                "--after", str(out / "transform" / "transformed.txt"),
                "--pairs", test_pairs, "-n", "3",
                "--out", str(tmp_path / "ext"), "--quiet"]) == 0
    extremes = json.loads((tmp_path / "ext" / "extremes.json").read_text())
    assert len(extremes["closest_antonyms"]) <= 3


def test_eval_classifiers_command(pipeline, tmp_path):
    out = pipeline["out"]
    fixtures = pipeline["fixtures"]
    assert run(["eval-classifiers", "--raw", str(fixtures["embeddings"]),
                "--new", str(out / "transform" / "transformed.txt"),
                "--concat", str(out / "transform" / "concat.txt"),
                "--train-pairs", str(out / "split" / "train.tsv"),
                "--test-pairs", str(out / "split" / "test.tsv"),
                "--rounds", "5",
                "--out", str(tmp_path / "acc"), "--quiet"]) == 0
    table = json.loads((tmp_path / "acc" / "accuracy.json").read_text())
    assert set(table["accuracies"]) == {"raw", "new", "concatenated"}


def test_downstream_command(pipeline, tmp_path):
    out = pipeline["out"]
    fixtures = pipeline["fixtures"]
    assert run(["downstream", "--raw", str(fixtures["embeddings"]),
                "--concat", str(out / "transform" / "concat.txt"),
                "--data", str(fixtures["corpus"]),
                "--out", str(tmp_path / "ds"), "--quiet"]) == 0
    result = json.loads((tmp_path / "ds" / "downstream.json").read_text())
    assert 0.0 <= result["accuracy_raw"] <= 1.0
    assert 0.0 <= result["accuracy_concat"] <= 1.0


def test_stats_command(fixtures, tmp_path):
    assert run(["stats", "--pairs", str(fixtures["pairs"]),
                "--out", str(tmp_path / "stats"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "stats" / "stats.json").read_text())
    assert summary["component_count"] >= 1
    assert 0.0 <= summary["giant_share_of_pairs"] <= 1.0


def test_outputs_confined_to_out(fixtures, tmp_path):
    before = _sha256(fixtures["pairs"])
    assert run(["split", "--pairs", str(fixtures["pairs"]),
                "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert _sha256(fixtures["pairs"]) == before  # inputs untouched
