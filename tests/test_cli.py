"""Tests for the command-line pipeline: exit codes, artifacts, manifests,
and rerun determinism."""
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contrastmap
from contrastmap import cli
from contrastmap.cli import run
from contrastmap.pairs import load_pairs
from contrastmap.synthetic import planted_world, sentiment_corpus, write_sentiment_csv
from contrastmap.embeddings import parse_embedding_text, write_embedding_text
from contrastmap.evaluation import shift_report
from contrastmap.network import init_params, save_params
from contrastmap.pairs import write_pairs
from contrastmap.training import concat_embeddings, transform_vocabulary


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(path):
    """The JSON document in ``path``; a NaN or Infinity in it raises."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def _assert_manifest(out, command, config, inputs):
    """``out``/run.json names ``command``, records exactly ``config`` and the
    input names ``inputs``, every hash in it matches its file, and every JSON
    output in it is strict JSON."""
    manifest = _strict_json(out / "run.json")
    assert manifest["command"] == command
    assert manifest["config"] == config
    assert sorted(manifest["inputs"]) == sorted(inputs)
    for entry in (*manifest["inputs"].values(), *manifest["outputs"].values()):
        assert _sha256(Path(entry["path"])) == entry["sha256"]
    for entry in manifest["outputs"].values():
        if entry["path"].endswith(".json"):
            _strict_json(entry["path"])
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
                                        ("--cap-per-anchor", "0"), ("--lr", "-1"),
                                        ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
                                        ("--lr", "abc"), ("--patience", "0"),
                                        ("--patience", "-1"), ("--val-fraction", "0"),
                                        ("--val-fraction", "0.6"), ("--val-fraction", "nan")])
def test_train_dims_checked_at_parsing(tmp_path, capsys, flag, value):
    # the inputs do not exist: a usage error must come before any input is read
    args = ["train", "--embeddings", str(tmp_path / "missing"),
            "--pairs", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
    assert run(args + [flag, value]) == 1
    err = capsys.readouterr().err
    assert "usage-error:" in err and flag in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, inputs, flag, value", [
    ("split", ["--pairs"], "--test-every", "1"),
    ("split", ["--pairs"], "--test-every", "-4"),
    ("split", ["--pairs"], "--test-every", "2.5"),
    ("downstream", ["--raw", "--concat", "--data"], "--test-fraction", "0"),
    ("downstream", ["--raw", "--concat", "--data"], "--test-fraction", "0.5"),
    ("downstream", ["--raw", "--concat", "--data"], "--test-fraction", "nan"),
    # the label goes into artifact file names, which must stay inside --out
    ("eval-distances", ["--embeddings", "--pairs"], "--label", "x/y"),
    ("eval-distances", ["--embeddings", "--pairs"], "--label", "/abs"),
    ("train", ["--embeddings", "--pairs"], "--seed", "-1"),
    ("downstream", ["--raw", "--concat", "--data"], "--seed", "-1"),
])
def test_split_and_test_fractions_checked_at_parsing(tmp_path, capsys, command, inputs,
                                                     flag, value):
    # the inputs do not exist: a usage error must come before any input is read
    args = [command, "--out", str(tmp_path / "out"), flag, value]
    for name in inputs:
        args += [name, str(tmp_path / "missing")]
    assert run(args) == 1
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


_fixture_word = st.integers(0, 125).map("w{:05d}".format)  # the fixture's 120 and a few more
_pair_lines = st.lists(st.one_of(
    st.tuples(_fixture_word, _fixture_word,
              st.sampled_from(["synonym", "antonym", "Antonym\r", "other"])).map("\t".join),
    st.text(max_size=30)), max_size=30).map("\n".join)
_csv_cell = st.one_of(st.lists(_fixture_word, max_size=6).map(" ".join),
                      st.sampled_from(["0", "1", " 1 ", "2", "", '"', '"a,""b"""']),
                      st.text(max_size=12))
_csv_document = st.tuples(st.lists(_fixture_word, max_size=6).map(" ".join),
                          st.sampled_from(["0", "1"])).map(",".join)
# two of three rows are documents, so that some datasets fill a split
_csv_row = st.one_of(_csv_document, _csv_document,
                     st.lists(_csv_cell, min_size=1, max_size=3).map(",".join))
_csv_text = st.tuples(
    st.sampled_from(["text,label\n", "text,label\n", "Text , LABEL\r\n", "label,text\n", ""]),
    st.lists(_csv_row, min_size=8, max_size=30)).map(lambda p: p[0] + "\n".join(p[1]))


def _run_on_text(args, flag, text):
    """Exit code and stderr of ``run(args)`` with ``flag`` naming a file of ``text``."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        path = Path(tmp) / "input"
        path.write_bytes(text.encode("utf-8"))
        code = run([*args, flag, str(path), "--out", str(Path(tmp) / "out"), "--quiet"])
    return code, stderr.getvalue(), path


@settings(max_examples=150, deadline=None)
@given(_pair_lines | st.text())
def test_split_on_malformed_pairs_exits_0_or_names_the_input(text):
    code, err, path = _run_on_text(["split"], "--pairs", text)
    assert code in (0, 2), err
    if code:
        assert err.startswith(f"input-error: --pairs {path}: "), err


@settings(max_examples=150, deadline=None)
@given(_csv_text | st.text())
@example("text,label\n,0\n,1")  # a test side with no documents
def test_downstream_on_malformed_data_exits_0_or_names_the_input(fixtures, text):
    code, err, path = _run_on_text(["downstream", "--raw", str(fixtures["embeddings"]),
                                    "--concat", str(fixtures["embeddings"])], "--data", text)
    assert code in (0, 2), err
    if code:
        assert err.startswith(f"input-error: --data {path}: "), err


# values of both signs from the least subnormal to 1e308, most of them far
# outside the range where a norm's squares neither underflow nor overflow
_vector_value = st.tuples(st.sampled_from(["", "-"]), st.floats(5e-324, 1e308)).map(
    lambda p: p[0] + repr(p[1]))
_group_word = st.integers(0, 9).map("w{:05d}".format)  # the first two groups
_vector_word = st.one_of(_group_word, _group_word, _fixture_word)
_vector_line = st.integers(1, 4).map(lambda dim: st.tuples(
    _vector_word, st.lists(_vector_value, min_size=dim, max_size=dim)).map(
        lambda p: " ".join([p[0], *p[1]])))
# the first line and three of four after it are vectors of the text's dimension
_vector_text = _vector_line.flatmap(lambda line: st.tuples(line, st.lists(
    st.one_of(line, line, line, st.text(max_size=30)), max_size=40))).map(
        lambda p: "\n".join([p[0], *p[1]]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_vector_text, _vector_text, st.text()))
@example("w00000 1e308 -1e308\nw00001 5e-324 1e-200\nw00002 -1e300 1e-310\nw00003 3 4")
def test_eval_distances_on_malformed_embeddings_exits_0_or_names_the_input(fixtures, text):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        path, out = Path(tmp) / "input", Path(tmp) / "out"
        path.write_bytes(text.encode("utf-8"))
        code = run(["eval-distances", "--pairs", str(fixtures["pairs"]),
                    "--embeddings", str(path), "--out", str(out), "--quiet"])
        summary = _strict_json(out / "distances_raw.json") if code == 0 else None
    err = stderr.getvalue()
    assert code in (0, 2), err
    if code:
        assert err.startswith(f"input-error: --embeddings {path}: "), err
        return
    for key in ("syn_mean", "syn_std", "ant_mean", "ant_std"):
        assert summary[key] is None or math.isfinite(summary[key]), summary
    for key in ("syn_mean", "ant_mean"):
        assert summary[key] is None or 0.0 <= summary[key] <= 2.0, summary


_odd_value = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                      st.sampled_from(["1.5", "nan", [0.5], [], {"a": 1}, 10**400]))


@st.composite
def _model_documents(draw):
    """A model document for the fixture's 20-d vectors, valid or with one fault:
    a ragged row, a weight or bias that is not a number, a nested list, wrong
    dims or an unknown activation; zero weights are valid but map to nothing."""
    dims = draw(st.sampled_from([[20, 4], [20, 3, 2]]))
    scale = draw(st.sampled_from([0.1, 0.1, 0.1, 0.0]))  # 0.0 maps every vector to zero
    weights = [[[scale] * i for _ in range(o)] for i, o in zip(dims, dims[1:])]
    biases = [[0.0] * o for o in dims[1:]]
    doc = {"format_version": 1, "layer_dims": dims, "hidden_activation": "tanh",
           "weights": weights, "biases": biases}
    layer = draw(st.integers(0, len(dims) - 2))
    row = weights[layer][draw(st.integers(0, dims[layer + 1] - 1))]
    fault = draw(st.sampled_from(["none", "ragged", "value", "nested", "bias", "dims",
                                  "activation"]))
    if fault == "ragged":
        del row[draw(st.integers(0, len(row) - 1))]
    elif fault == "value":
        row[draw(st.integers(0, len(row) - 1))] = draw(_odd_value)
    elif fault == "nested":
        weights[layer] = [weights[layer]]
    elif fault == "bias":
        biases[layer][0] = draw(_odd_value)
    elif fault == "dims":
        doc["layer_dims"] = draw(st.lists(st.one_of(st.integers(-2, 30), _odd_value),
                                          max_size=4))
    elif fault == "activation":
        doc["hidden_activation"] = draw(st.one_of(st.sampled_from(["relu", "sigmoid"]),
                                                  _odd_value))
    return doc


@settings(max_examples=100, deadline=None)
@given(_model_documents())
def test_transform_on_malformed_models_exits_0_or_names_the_model(fixtures, doc):
    code, err, path = _run_on_text(["transform", "--embeddings", str(fixtures["embeddings"])],
                                   "--model", json.dumps(doc))
    assert code in (0, 2), err
    if code:
        assert err.startswith(f"input-error: --model {path}: "), err


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["--before", "--after"]), st.one_of(_vector_text, st.text()))
def test_eval_shifts_on_malformed_tables_exits_0_or_names_an_input(fixtures, flag, text):
    other = "--after" if flag == "--before" else "--before"
    code, err, path = _run_on_text(["eval-shifts", "--pairs", str(fixtures["pairs"]),
                                    other, str(fixtures["embeddings"])], flag, text)
    assert code in (0, 2), err
    if code:
        assert err.startswith((f"input-error: {flag} {path}: ",
                               f"input-error: --pairs {fixtures['pairs']}: ")), err


# train words from the first 70 of the fixture's 120, test words from the last
# 60 and a few it lacks, so that some files leak; either may hold one relation
_relations = st.sampled_from([["synonym", "antonym"], ["synonym", "antonym"],
                              ["synonym"], ["antonym"]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 69), min_size=6, max_size=24, unique=True),
       st.lists(st.integers(60, 125), min_size=2, max_size=16, unique=True),
       _relations, _relations)
def test_eval_classifiers_on_odd_pair_files_exits_0_or_names_an_input(
        pipeline, train_ids, test_ids, train_relations, test_relations):
    out, fixtures = pipeline["out"], pipeline["fixtures"]
    texts = {flag: "".join(f"w{a:05d}\tw{b:05d}\t{relations[k % len(relations)]}\n"
                           for k, (a, b) in enumerate(zip(ids[::2], ids[1::2])))
             for flag, ids, relations in (("--train-pairs", train_ids, train_relations),
                                          ("--test-pairs", test_ids, test_relations))}
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        args = ["eval-classifiers", "--raw", str(fixtures["embeddings"]),
                "--new", str(out / "transform" / "transformed.txt"),
                "--concat", str(out / "transform" / "concat.txt"), "--rounds", "2"]
        for flag, text in texts.items():
            path = Path(tmp) / flag.strip("-")
            path.write_text(text)
            args += [flag, str(path)]
        code = run([*args, "--out", str(Path(tmp) / "out"), "--quiet"])
    err = stderr.getvalue()
    assert code in (0, 2), err
    if code:
        assert err.startswith(tuple(f"input-error: {flag} {Path(tmp) / flag.strip('-')}: "
                                    for flag in texts)), err


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


@pytest.mark.parametrize("model", [
    "word\t1 2\n",
    "[1, 2]\n",
    '{"format_version": 1, "layer_dims": [3, 2]}\n',
    '{"format_version": 1, "layer_dims": 3, "hidden_activation": "tanh", '
    '"weights": [], "biases": []}\n',
    # shaped for the truncated dims [20, 3, 2], which used to load
    json.dumps({"format_version": 1, "layer_dims": [20.9, 3.2, 2.7],
                "hidden_activation": "tanh", "weights": [[[0.1] * 20] * 3, [[0.1] * 3] * 2],
                "biases": [[0.0] * 3, [0.0] * 2]}),
    json.dumps({"format_version": 1, "layer_dims": [20, True, 2],
                "hidden_activation": "tanh", "weights": [[[0.1] * 20], [[0.1]] * 2],
                "biases": [[0.0], [0.0] * 2]}),
    # a valid model for 30-d vectors; the fixture's are 20-d
    json.dumps({"format_version": 1, "layer_dims": [30, 5], "hidden_activation": "tanh",
                "weights": [[[0.1] * 30] * 5], "biases": [[0.0] * 5]}),
    json.dumps({"format_version": 1, "layer_dims": [20, 5], "hidden_activation": "tanh",
                "weights": 5, "biases": [[0.0] * 5]}),
    json.dumps({"format_version": 1, "layer_dims": [20, 5], "hidden_activation": "tanh",
                "weights": [[{"a": 1}]], "biases": [[0.0] * 5]}),
    # float64 conversion reads both as numbers
    json.dumps({"format_version": 1, "layer_dims": [20, 5], "hidden_activation": "tanh",
                "weights": [[[0.1] * 19 + ["1"]] * 5], "biases": [[0.0] * 5]}),
    json.dumps({"format_version": 1, "layer_dims": [20, 5], "hidden_activation": "tanh",
                "weights": [[[0.1] * 20] * 5], "biases": [[0.0] * 4 + [True]]}),
], ids=["not-json", "json-list", "missing-keys", "dims-not-a-list", "dims-not-integers",
        "dims-bools", "input-dim-not-the-vectors", "weights-not-a-list", "weights-hold-an-object",
        "weights-hold-strings", "biases-hold-booleans"])
def test_bad_model_file_exit_2(fixtures, tmp_path, capsys, model):
    path = tmp_path / "model.json"
    path.write_text(model)
    code = run(["transform", "--model", str(path), "--embeddings", str(fixtures["embeddings"]),
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"input-error: --model {path}: ")
    assert not (tmp_path / "out" / "transformed.txt").exists()


@pytest.mark.parametrize("flag, content, message", [
    ("--concat", b"word abc def\n", "bad format"),
    ("--raw", b"\xff\xfe not utf-8\n", "'utf-8' codec can't decode"),
    # one field over csv.field_size_limit()'s default of 131,072 characters
    ("--data", b'text,label\ngood,1\n"' + b"x" * 131073 + b'",0\n',
     "CSV line 3: field larger than field limit (131072)"),
], ids=["bad-format", "not-utf-8", "csv-field-over-the-limit"])
def test_parse_errors_name_the_input(fixtures, tmp_path, capsys, flag, content, message):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    inputs = {"--raw": fixtures["embeddings"], "--concat": fixtures["embeddings"],
              "--data": fixtures["corpus"], flag: bad}
    code = run(["downstream", *[str(a) for kv in inputs.items() for a in kv],
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"input-error: {flag} {bad}: {message}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--concat", "--raw"])
def test_downstream_names_the_table_whose_document_means_overflow(tmp_path, capsys, flag):
    finite, huge, data = (tmp_path / name for name in ("finite.txt", "huge.txt", "data.csv"))
    finite.write_text("w0 1 0\nw1 0 1\nw2 1 1\n")
    huge.write_text("w0 1e308 -1e308\nw1 1e308 1e308\nw2 -1e308 1e308\n")
    docs = ["w0 w1", "w1 w2", "w0 w2 w1", "w2 w0"]
    data.write_text("text,label\n" + "".join(f"{d},{i % 2}\n" for i, d in enumerate(docs * 2)))
    inputs = {"--raw": finite, "--concat": finite, flag: huge}
    code = run(["downstream", *[str(a) for kv in inputs.items() for a in kv],
                "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (f"input-error: {flag} {huge}: "
                                       "a document's mean vector overflows\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, side", [
    ("--raw", "train"), ("--new", "train"), ("--concat", "train"),
    ("--raw", "test"), ("--new", "test"), ("--concat", "test"),
], ids=["--raw", "--new", "--concat", "--raw-test-side", "--new-test-side",
        "--concat-test-side"])
def test_eval_classifiers_names_the_table_whose_pair_sums_overflow(tmp_path, capsys, flag,
                                                                   side):
    small, huge, train, test = (tmp_path / name for name in
                                ("small.txt", "huge.txt", "train.tsv", "test.tsv"))
    small.write_text("".join(f"w{i} {i % 3 - 1} {i % 5 - 2} 1\n" for i in range(16)))
    # every word is huge for the train side, only the test pairs' words for the test side
    first_huge = {"train": 0, "test": 8}[side]
    huge.write_text("".join(small.read_text().splitlines(keepends=True)[:first_huge]
                            + [f"w{i} 1e308 -1e308 1e308\n" for i in range(first_huge, 16)]))
    relations = ["synonym", "antonym"]
    train.write_text("".join(f"w{i}\tw{i + 1}\t{relations[i // 2 % 2]}\n" for i in range(0, 8, 2)))
    test.write_text("".join(f"w{i}\tw{i + 1}\t{relations[i // 2 % 2]}\n" for i in range(8, 16, 2)))
    tables = {"--raw": small, "--new": small, "--concat": small, flag: huge}
    assert run(["eval-classifiers", *[str(a) for kv in tables.items() for a in kv],
                "--train-pairs", str(train), "--test-pairs", str(test), "--rounds", "2",
                "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"input-error: {flag} {huge}: "
                                       f"a {side} pair's u + v overflows\n")


def test_type_error_while_an_input_is_open_propagates(fixtures, tmp_path, monkeypatch):
    """Only a ValueError names the input and exits 2; a TypeError is a bug."""
    def broken(*args, **kwargs):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(cli, "parse_embedding_text", broken)
    with pytest.raises(TypeError, match="a bug, not bad input"):
        run(["downstream", "--raw", str(fixtures["embeddings"]),
             "--concat", str(fixtures["embeddings"]), "--data", str(fixtures["corpus"]),
             "--out", str(tmp_path / "out")])


def test_value_error_in_a_fit_is_a_bug_not_bad_input(fixtures, tmp_path, monkeypatch, capsys):
    """A bare ValueError, such as numpy's for mismatched shapes, propagates:
    it neither exits 2 nor blames the input that was open."""
    def broken(*args, **kwargs):
        raise ValueError("matmul: Input operand 1 has a mismatch")

    monkeypatch.setattr(contrastmap.downstream, "train_linear", broken)
    with pytest.raises(ValueError, match="matmul") as raised:
        run(["downstream", "--raw", str(fixtures["embeddings"]),
             "--concat", str(fixtures["embeddings"]), "--data", str(fixtures["corpus"]),
             "--out", str(tmp_path / "out")])
    assert type(raised.value) is ValueError and "--data" not in str(raised.value)
    assert "input-error" not in capsys.readouterr().err


def test_train_names_pairs_of_one_relation(fixtures, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("w00000\tw00001\tsynonym\nw00001\tw00002\tsynonym\n")
    assert run(["train", "--embeddings", str(fixtures["embeddings"]), "--pairs", str(pairs),
                "--dims", "20,4", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"input-error: --pairs {pairs}: no triplets\n"


def test_train_names_a_table_that_resolves_no_triplet(tmp_path, capsys):
    embeddings, pairs = tmp_path / "embeddings.txt", tmp_path / "pairs.tsv"
    embeddings.write_text("a 1 0\nb 0 1\nx 1 1\n")  # no "c"
    pairs.write_text("a\tb\tsynonym\na\tc\tantonym\n")
    assert run(["train", "--embeddings", str(embeddings), "--pairs", str(pairs),
                "--dims", "2,1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"input-error: --embeddings {embeddings}: "
                                       "no resolvable triplets\n")


def test_stats_names_pairs_that_all_conflict(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\tsynonym\nb\ta\tantonym\n")
    assert run(["stats", "--pairs", str(pairs), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"input-error: --pairs {pairs}: "
                                       "no pairs: every pair conflicts\n")


# the input flags of each command that reads a pair file
_PAIR_COMMANDS = {
    "split": ["--pairs"], "stats": ["--pairs"], "train": ["--embeddings", "--pairs"],
    "eval-distances": ["--embeddings", "--pairs"],
    "eval-shifts": ["--before", "--after", "--pairs"],
    "eval-extremes": ["--before", "--after", "--pairs"],
    "eval-classifiers": ["--raw", "--new", "--concat", "--train-pairs", "--test-pairs"],
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _PAIR_COMMANDS.items()
                                           for f in flags if f.endswith("pairs")])
def test_pair_file_whose_every_pair_conflicts_is_named(fixtures, tmp_path, capsys,
                                                       command, flag):
    conflicting = tmp_path / "conflicting.tsv"
    conflicting.write_text("w00000\tw00001\tsynonym\nw00001\tw00000\tantonym\n")
    args = [command, "--out", str(tmp_path / "out")]
    for f in _PAIR_COMMANDS[command]:
        valid = fixtures["pairs"] if f.endswith("pairs") else fixtures["embeddings"]
        args += [f, str(conflicting if f == flag else valid)]
    assert run(args) == 2
    assert capsys.readouterr().err == (f"input-error: {flag} {conflicting}: "
                                       "no pairs: every pair conflicts\n")
    assert not any((tmp_path / "out").iterdir())  # no split files, no manifest


@pytest.mark.parametrize("command", ["eval-shifts", "eval-extremes"])
def test_shift_commands_name_the_pairs_that_resolve_nowhere(tmp_path, capsys, command):
    before, after, pairs = (tmp_path / name for name in ("before.txt", "after.txt", "pairs.tsv"))
    before.write_text("a 1 0\nb 0 1\nc 1 1\n")
    after.write_text("x 1 0\na 0 1\n")  # "x" is kept as the first row, but is no pair's
    pairs.write_text("a\tb\tsynonym\nb\tc\tantonym\n")
    assert run([command, "--before", str(before), "--after", str(after),
                "--pairs", str(pairs), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"input-error: --pairs {pairs}: no resolvable pairs: "
                                       "--before holds 3 and --after 1 of its 3 words\n")


def _outputs(out):
    """name -> sha256 of every output in ``out``/run.json."""
    return {name: entry["sha256"]
            for name, entry in json.loads((out / "run.json").read_text())["outputs"].items()}


def test_byte_order_mark_on_inputs_changes_no_artifact(pipeline, tmp_path):
    out = pipeline["out"]
    fixtures = pipeline["fixtures"]
    headerless = tmp_path / "headerless.txt"  # the mark lands on the first word
    headerless.write_text(fixtures["embeddings"].read_text().split("\n", 1)[1])
    commands = [
        ["split", "--pairs", fixtures["pairs"]],
        ["transform", "--model", out / "train" / "model.json",
         "--embeddings", fixtures["embeddings"]],
        ["downstream", "--raw", headerless, "--concat", out / "transform" / "concat.txt",
         "--data", fixtures["corpus"]],
    ]
    for i, command in enumerate(commands):
        marked = list(command)
        (tmp_path / f"marked{i}").mkdir()
        for j in range(2, len(command), 2):  # same file names: downstream records one
            marked[j] = tmp_path / f"marked{i}" / command[j].name
            marked[j].write_bytes(b"\xef\xbb\xbf" + command[j].read_bytes())
        outputs = []
        for name, args in (("plain", command), ("bom", marked)):
            assert run([*map(str, args), "--out", str(tmp_path / f"{name}{i}"), "--quiet"]) == 0
            outputs.append(_outputs(tmp_path / f"{name}{i}"))
        assert outputs[0] == outputs[1]


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
    assert summary["skipped_lines"] == 0
    manifest = json.loads((out / "run.json").read_text())
    for entry in manifest["outputs"].values():
        assert _sha256(out / entry["path"].split("/")[-1]) == entry["sha256"]
    _assert_manifest(out, "split", {"pairs": str(fixtures["pairs"]), "test_every": 4,
                                    "seed": 0}, ["pairs"])
    # two malformed lines (bad arity, self-pair) are counted in both summaries
    probe = tmp_path / "probe.tsv"
    probe.write_text(fixtures["pairs"].read_text() + "a\tb\nx\tx\tsynonym\n")
    for command, name in (("split", "split.json"), ("stats", "stats.json")):
        assert run([command, "--pairs", str(probe), "--out", str(tmp_path / command),
                    "--quiet"]) == 0
        assert json.loads((tmp_path / command / name).read_text())["skipped_lines"] == 2


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


def _digests_at_blas_threads(args, out, threads):
    """Run the CLI with ``args`` in a fresh process at ``threads`` OpenBLAS
    threads, writing to ``out``; the sha256 of each output it records."""
    args = list(args)
    args[args.index("--out") + 1] = str(out)
    src = str(Path(contrastmap.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "contrastmap.cli", *args], env=env,
                   check=True, timeout=300)
    outputs = json.loads((out / "run.json").read_text())["outputs"]
    assert all(_sha256(out / name) == entry["sha256"] for name, entry in outputs.items())
    return {name: entry["sha256"] for name, entry in outputs.items()}


# at most two threads, so these tests never oversubscribe a two-core runner
@pytest.mark.parametrize("mode", ["baseline", "classifier-system"])
def test_train_artifacts_equal_across_blas_thread_counts(pipeline, tmp_path, mode):
    args = list(pipeline["train_args"])
    args[args.index("--mode") + 1] = mode
    digests = [_digests_at_blas_threads(args, tmp_path / f"threads{threads}", threads)
               for threads in ("1", "2")]
    expected = {"model.json", "report.json"} | ({"head.json"} if mode != "baseline" else set())
    assert set(digests[0]) == expected
    assert digests[0] == digests[1]


@pytest.fixture(scope="module")
def wide_downstream(tmp_path_factory):
    """Downstream inputs whose concat fit, 1,050 x 100 on 1,400 documents of a
    600-word, 60-d world, is wide enough that OpenBLAS splits it: the fitted
    weights differ in the last bits between one and two threads."""
    root = tmp_path_factory.mktemp("wide-downstream")
    world = planted_world(n_words=600, dim=60, seed=6)
    new = transform_vocabulary(init_params([60, 40], seed=7), world.table)
    for name, table in (("raw", world.table), ("concat", concat_embeddings(world.table, new))):
        with open(root / f"{name}.txt", "w", newline="\n") as f:
            write_embedding_text(table, f)
    with open(root / "corpus.csv", "w", newline="\n") as f:
        write_sentiment_csv(sentiment_corpus(world, n_documents=1400, seed=3), f)
    return ["--raw", root / "raw.txt", "--concat", root / "concat.txt",
            "--data", root / "corpus.csv"]


@pytest.mark.parametrize("case", ["eval-classifiers", "downstream", "downstream-wide"])
def test_linear_fit_artifacts_equal_across_blas_thread_counts(pipeline, tmp_path, request,
                                                              case):
    # both commands fit train_linear, whose Newton systems LAPACK solves
    out, fixtures = pipeline["out"], pipeline["fixtures"]
    command = case.removesuffix("-wide")
    args = {"eval-classifiers": ["--raw", fixtures["embeddings"],
                                 "--new", out / "transform" / "transformed.txt",
                                 "--concat", out / "transform" / "concat.txt",
                                 "--train-pairs", out / "split" / "train.tsv",
                                 "--test-pairs", out / "split" / "test.tsv",
                                 "--rounds", "5"],
            "downstream": ["--raw", fixtures["embeddings"],
                           "--concat", out / "transform" / "concat.txt",
                           "--data", fixtures["corpus"]]}[command]
    if case == "downstream-wide":
        args = request.getfixturevalue("wide_downstream")
    args = [command, *map(str, args), "--out", "", "--quiet"]
    digests = [_digests_at_blas_threads(args, tmp_path / f"threads{threads}", threads)
               for threads in ("1", "2")]
    assert set(digests[0]) == {"eval-classifiers": {"accuracy.json", "accuracy.txt"},
                               "downstream": {"downstream.json"}}[command]
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
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["left", "right", "relation", "d_before", "d_after", "shift"]
    assert len(rows) == len(report.records) + 1
    for fields, record in zip(rows[1:], report.records):
        assert len(fields) == 6
        assert fields[:3] == list(record[:3])
        assert [float(x) for x in fields[3:]] == list(record[3:])


def test_reports_over_one_relation_write_null(tmp_path, capsys):
    embeddings, pairs = tmp_path / "embeddings.txt", tmp_path / "pairs.tsv"
    embeddings.write_text("a 1 0\nb 0 1\nc 1 1\n")
    pairs.write_text("a\tb\tantonym\nb\tc\tantonym\n")  # no synonym pair
    assert run(["eval-distances", "--embeddings", str(embeddings), "--pairs", str(pairs),
                "--label", "raw", "--out", str(tmp_path / "dist")]) == 0
    assert "syn mean none" in capsys.readouterr().err
    assert run(["eval-shifts", "--before", str(embeddings), "--after", str(embeddings),
                "--pairs", str(pairs), "--out", str(tmp_path / "shift"), "--quiet"]) == 0
    distances = _strict_json(tmp_path / "dist" / "distances_raw.json")
    assert distances["syn_mean"] is None and distances["syn_std"] is None
    assert distances["ant_mean"] > 0.0 and distances["pair_count"] == 2
    shifts = _strict_json(tmp_path / "shift" / "shifts.json")
    assert shifts["syn_mean_shift"] is None and shifts["ant_mean_shift"] == 0.0


def test_shifts_csv_quotes_words_with_commas_and_quotes(tmp_path):
    before, after, pairs = (tmp_path / name for name in ("before.txt", "after.txt", "pairs.tsv"))
    before.write_text('a,b 1 0\ne"q 0 1\nc 1 1\n')
    after.write_text('a,b 1 2\ne"q 2 1\nc 1 1\n')
    pairs.write_text('a,b\te"q\tantonym\nc\ta,b\tsynonym\n')
    assert run(["eval-shifts", "--before", str(before), "--after", str(after),
                "--pairs", str(pairs), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    csv_path = tmp_path / "out" / "shifts.csv"
    assert csv_path.read_text().splitlines()[1].startswith('"a,b","e""q",antonym,')
    _assert_shifts_csv(csv_path, before, after, pairs)


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


def _traced_run(args):
    """Exit code and tracemalloc peak of one in-process CLI run."""
    tracemalloc.start()
    try:
        code = run([*map(str, args), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_transform_and_downstream_hold_one_table_at_a_time(tmp_path):
    world = planted_world(n_words=2000, dim=100, seed=2)
    files = {name: tmp_path / name for name in ("vectors.txt", "model.json", "corpus.csv")}
    with open(files["vectors.txt"], "w", newline="\n") as f:
        write_embedding_text(world.table, f)
    with open(files["model.json"], "w", newline="\n") as f:
        save_params(init_params([100, 16, 8], seed=1), f)
    with open(files["corpus.csv"], "w", newline="\n") as f:
        # every word occurs, so downstream parses both tables whole
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["text", "label"])
        for i in range(0, 2000, 10):
            writer.writerow([" ".join(world.table.words[i:i + 10]), (i // 10) % 2])
    code, transform_peak = _traced_run(["transform", "--model", files["model.json"],
                                        "--embeddings", files["vectors.txt"],
                                        "--out", tmp_path / "transform"])
    assert code == 0
    concat_path = tmp_path / "transform" / "concat.txt"
    code, downstream_peak = _traced_run(["downstream", "--raw", files["vectors.txt"],
                                         "--concat", concat_path,
                                         "--data", files["corpus.csv"],
                                         "--out", tmp_path / "downstream"])
    assert code == 0
    concat = parse_embedding_text(concat_path.read_text())
    assert len(concat) == 2000
    both = world.table.matrix.nbytes + concat.matrix.nbytes
    assert transform_peak < both
    assert downstream_peak < both


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_transform_writes_no_overflowed_rows(tmp_path):
    world = planted_world(n_words=100, dim=20, seed=3)
    params = init_params([20, 8, 4], seed=0)
    params.weights[-1][...] = 1e308
    with open(tmp_path / "vectors.txt", "w", newline="\n") as f:
        write_embedding_text(world.table, f)
    with open(tmp_path / "model.json", "w", newline="\n") as f:
        save_params(params, f)
    assert run(["transform", "--model", str(tmp_path / "model.json"),
                "--embeddings", str(tmp_path / "vectors.txt"),
                "--out", str(tmp_path / "out"), "--quiet"]) == 0
    new = parse_embedding_text((tmp_path / "out" / "transformed.txt").read_text())
    concat = parse_embedding_text((tmp_path / "out" / "concat.txt").read_text())
    assert new.skipped_rows == concat.skipped_rows == 0
    assert 0 < len(new) < 100 and concat.words == new.words
    assert new.matrix.tobytes() == transform_vocabulary(params, world.table).matrix.tobytes()


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


@pytest.mark.parametrize("demo, lines", [
    ("01_planted_pipeline.py", [f"{'space':<14}{'linear':>10}{'boosted':>10}", "raw ", "new ",
                                "concatenated "]),
    ("02_downstream_sentiment.py", ["corpus: 200 documents", "raw accuracy ",
                                    "concat accuracy ", "raw(+)raw control "]),
])
def test_python_demo_runs_from_a_checkout(tmp_path, demo, lines):
    """The library demos run as the README shows and print their tables."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, str(root / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    out = done.stdout.splitlines()
    assert lines[0] in out
    table = out[out.index(lines[0]):][:len(lines)]
    assert len(table) == len(lines) and all(map(str.startswith, table, lines)), done.stdout


def test_demo_03_runs_from_a_checkout(tmp_path):
    """The shell demo drives every stage through ``python3 -m contrastmap.cli``;
    any stage that fails, or prints a traceback, stops it."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run(["sh", str(root / "demos" / "03_cli_pipeline.sh")], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    table = done.stdout.split("accuracy table:\n", 1)[1]
    assert table.startswith(f"{'space':<14}{'linear':>10}{'boosted':>10}\n")
    assert [line.split()[0] for line in table.splitlines()[1:4]] == ["raw", "new",
                                                                      "concatenated"]
