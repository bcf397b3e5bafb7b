"""Tests for the command-line pipeline: exit codes, artifacts, manifests,
and rerun determinism."""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contrastmap
from contrastmap.cli import run
from contrastmap.pairs import load_pairs
from contrastmap.synthetic import planted_world, sentiment_corpus, write_sentiment_csv
from contrastmap.embeddings import parse_embedding_text, write_embedding_text
from contrastmap.evaluation import shift_report
from contrastmap.pairs import write_pairs


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_manifest(out, command, config, inputs):
    """``out``/run.json names ``command``, records exactly ``config`` and the
    input names ``inputs``, and every hash in it matches its file."""
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["command"] == command
    assert manifest["config"] == config
    assert sorted(manifest["inputs"]) == sorted(inputs)
    for entry in (*manifest["inputs"].values(), *manifest["outputs"].values()):
        assert _sha256(Path(entry["path"])) == entry["sha256"]
    return manifest


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
                                        ("--dims", "20,0"), ("--head-dims", "8,x"),
                                        ("--epochs", "0"), ("--batch-size", "0"),
                                        ("--cap-per-anchor", "0")])
def test_train_dims_checked_at_parsing(tmp_path, capsys, flag, value):
    # the inputs do not exist: a usage error must come before any input is read
    args = ["train", "--embeddings", str(tmp_path / "missing"),
            "--pairs", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
    assert run(args + [flag, value]) == 1
    err = capsys.readouterr().err
    assert "usage-error:" in err and flag in err
    assert not (tmp_path / "out").exists()


def test_eval_extremes_n_checked_at_parsing(tmp_path, capsys):
    # the inputs do not exist: a usage error must come before any input is read
    missing = str(tmp_path / "missing")
    assert run(["eval-extremes", "--before", missing, "--after", missing,
                "--pairs", missing, "-n", "0", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage-error:" in err and "-n" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_divergence_exit_3(fixtures, tmp_path, capsys):
    assert run(["train", "--embeddings", str(fixtures["embeddings"]),
                "--pairs", str(fixtures["pairs"]), "--dims", "20,8,4", "--epochs", "2",
                "--lr", "1e300", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "numeric-error: diverged\n" and "RuntimeWarning" not in err
    assert not (tmp_path / "out" / "run.json").exists()


def test_train_dims_must_start_with_embedding_dimension(fixtures, tmp_path, capsys):
    assert run(["train", "--embeddings", str(fixtures["embeddings"]),
                "--pairs", str(fixtures["pairs"]), "--dims", "5,2", "--epochs", "1",
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage-error:" in err and "--dims" in err
    assert "5" in err and "20" in err
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("head_dims", ["10,1", "8,2"])
def test_train_head_dims_must_start_at_2k_and_end_at_1(fixtures, tmp_path, capsys,
                                                        head_dims):
    assert run(["train", "--mode", "classifier-system",
                "--embeddings", str(fixtures["embeddings"]),
                "--pairs", str(fixtures["pairs"]), "--dims", "20,8,4",
                "--head-dims", head_dims, "--epochs", "1",
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == (f"usage-error: --head-dims [{head_dims.replace(',', ', ')}] must "
                   "start at 2k = 8 and end at 1\n")
    assert not (tmp_path / "out" / "model.json").exists()


def _ints(text):
    """``text`` as a list of ints, [] when empty, None when not a list of ints."""
    try:
        return [int(t) for t in text.split(",")] if text else []
    except ValueError:
        return None


def _rejected_flag(dims_text, head_text, m=20):
    """The flag a classifier-system ``train`` on m-d vectors must reject, or
    None when both texts are valid; checked in the order the CLI checks."""
    dims, head = _ints(dims_text), _ints(head_text)
    for flag, parsed in (("--dims", dims), ("--head-dims", head)):
        if parsed is None or any(d < 1 for d in parsed):
            return flag
    dims = dims or [m, 128, 40]
    if dims[0] != m or dims[-1] >= m:
        return "--dims"
    if head and (head[0] != 2 * dims[-1] or head[-1] != 1):
        return "--head-dims"
    return None


_dims_text = st.lists(
    st.one_of(st.integers(0, 64).map(str),
              st.sampled_from(["20", "10", "5", "1", "", "x", "1.5", "-3", " 7"])),
    max_size=4).map(",".join)


@settings(max_examples=60, deadline=None)
@given(_dims_text, _dims_text)
@example("20,5", "8,1")
@example("20,5", "10,1")
@example("20,64,5", "10,64,1")
def test_train_dims_flags_fuzz(fixtures, dims_text, head_text):
    expected = _rejected_flag(dims_text, head_text)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr):
        code = run(["train", "--mode", "classifier-system",
                    "--embeddings", str(fixtures["embeddings"]),
                    "--pairs", str(fixtures["pairs"]),
                    f"--dims={dims_text}", f"--head-dims={head_text}",
                    "--epochs", "1", "--out", out, "--quiet"])
    err = stderr.getvalue()
    assert code == (0 if expected is None else 1), err
    if expected is not None:
        assert err.startswith("usage-error:") and expected in err
        other = "--head-dims" if expected == "--dims" else "--dims"
        assert other not in err


@pytest.mark.parametrize("mode", ["baseline", "classifier-system"])
def test_train_default_dims_must_contract(fixtures, tmp_path, capsys, mode):
    # the default map [m, 128, 40] does not contract 20-d vectors
    assert run(["train", "--mode", mode, "--embeddings", str(fixtures["embeddings"]),
                "--pairs", str(fixtures["pairs"]), "--epochs", "1",
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == ("usage-error: --dims [20, 128, 40] must end below the embedding "
                   "dimension 20\n")
    assert not (tmp_path / "out" / "run.json").exists()


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
    train = load_pairs((out / "train.tsv").read_text())
    test = load_pairs((out / "test.tsv").read_text())
    assert not (train.vocabulary() & test.vocabulary())
    summary = json.loads((out / "split.json").read_text())
    assert summary["train_pairs"] == len(train)
    assert summary["test_pairs"] == len(test)
    manifest = json.loads((out / "run.json").read_text())
    for entry in manifest["outputs"].values():
        assert _sha256(out / entry["path"].split("/")[-1]) == entry["sha256"]
    _assert_manifest(out, "split", {"pairs": str(fixtures["pairs"]), "test_every": 4,
                                    "seed": 0}, ["pairs"])


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
    config = {"mode": "baseline", "embeddings": str(pipeline["fixtures"]["embeddings"]),
              "pairs": str(out / "split" / "train.tsv"), "dims": "20,32,4",
              "head_dims": None, "activation": "tanh", "lr": 1e-3, "batch_size": 256,
              "epochs": 8, "patience": 5, "val_fraction": 0.1, "cap_per_anchor": 20,
              "seed": 7}
    for train_out in (out / "train", tmp_path / "train2"):
        manifest = _assert_manifest(train_out, "train", config, ["embeddings", "pairs"])
        assert set(manifest["outputs"]) == {"model.json", "report.json"}


def test_transform_command(pipeline):
    out = pipeline["out"]
    manifest = _assert_manifest(
        out / "transform", "transform",
        {"model": str(out / "train" / "model.json"),
         "embeddings": str(pipeline["fixtures"]["embeddings"]), "seed": 0},
        ["model", "embeddings"])
    assert set(manifest["outputs"]) == {"transformed.txt", "concat.txt"}


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
    _assert_manifest(tmp_path / "dist", "eval-distances",
                     {"embeddings": str(fixtures["embeddings"]), "pairs": test_pairs,
                      "label": "raw", "seed": 0}, ["embeddings", "pairs"])
    shift_config = {"before": str(fixtures["embeddings"]),
                    "after": str(out / "transform" / "transformed.txt"),
                    "pairs": test_pairs, "seed": 0}
    assert run(["eval-shifts", "--before", str(fixtures["embeddings"]),
                "--after", str(out / "transform" / "transformed.txt"),
                "--pairs", test_pairs,
                "--out", str(tmp_path / "shift"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "shift" / "shifts.json").read_text())
    assert "syn_mean_shift" in summary and "ant_mean_shift" in summary
    _assert_shifts_csv(tmp_path / "shift" / "shifts.csv", fixtures["embeddings"],
                       out / "transform" / "transformed.txt", out / "split" / "test.tsv")
    _assert_manifest(tmp_path / "shift", "eval-shifts", shift_config,
                     ["before", "after", "pairs"])
    assert run(["eval-extremes", "--before", str(fixtures["embeddings"]),
                "--after", str(out / "transform" / "transformed.txt"),
                "--pairs", test_pairs, "-n", "3",
                "--out", str(tmp_path / "ext"), "--quiet"]) == 0
    extremes = json.loads((tmp_path / "ext" / "extremes.json").read_text())
    assert len(extremes["closest_antonyms"]) <= 3
    _assert_manifest(tmp_path / "ext", "eval-extremes", {**shift_config, "n": 3},
                     ["before", "after", "pairs"])


def _assert_shifts_csv(csv_path, before, after, pairs):
    """Each row of ``csv_path`` holds plain numbers equal to the shift report's."""
    with open(before) as b, open(after) as a, open(pairs) as p:
        report = shift_report(parse_embedding_text(b), parse_embedding_text(a), load_pairs(p))
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "left,right,relation,d_before,d_after,shift"
    assert len(rows) == len(report.records) + 1
    for row, record in zip(rows[1:], report.records):
        fields = row.split(",")
        assert fields[:3] == list(record[:3])
        assert [float(x) for x in fields[3:]] == list(record[3:])


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
    _assert_manifest(tmp_path / "acc", "eval-classifiers",
                     {"raw": str(fixtures["embeddings"]),
                      "new": str(out / "transform" / "transformed.txt"),
                      "concat": str(out / "transform" / "concat.txt"),
                      "train_pairs": str(out / "split" / "train.tsv"),
                      "test_pairs": str(out / "split" / "test.tsv"),
                      "rounds": 5, "seed": 0},
                     ["raw", "new", "concat", "train_pairs", "test_pairs"])


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
    _assert_manifest(tmp_path / "ds", "downstream",
                     {"raw": str(fixtures["embeddings"]),
                      "concat": str(out / "transform" / "concat.txt"),
                      "data": str(fixtures["corpus"]), "test_fraction": 0.25, "seed": 0},
                     ["raw", "concat", "data"])


def test_stats_command(fixtures, tmp_path):
    assert run(["stats", "--pairs", str(fixtures["pairs"]),
                "--out", str(tmp_path / "stats"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "stats" / "stats.json").read_text())
    assert summary["component_count"] >= 1
    assert 0.0 <= summary["giant_share_of_pairs"] <= 1.0
    _assert_manifest(tmp_path / "stats", "stats",
                     {"pairs": str(fixtures["pairs"]), "seed": 0}, ["pairs"])


def test_outputs_confined_to_out(fixtures, tmp_path):
    before = _sha256(fixtures["pairs"])
    assert run(["split", "--pairs", str(fixtures["pairs"]),
                "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert _sha256(fixtures["pairs"]) == before  # inputs untouched
