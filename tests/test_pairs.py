"""Tests for pair loading, component statistics, the leakage-free split,
and triplet assembly."""
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastmap.embeddings import _as_lines
from contrastmap.pairs import (ANTONYM, RELATIONS, SYNONYM, LabeledPair, PairParseError,
                               PairSet, Triplet, _valid_token, build_triplets, component_stats,
                               load_pairs, split_pairs, write_pairs)


def _syn(a, b):
    return LabeledPair(a, b, SYNONYM)


def _ant(a, b):
    return LabeledPair(a, b, ANTONYM)


def test_load_unordered_dedup():
    ps = load_pairs("a\tb\tsynonym\nb\ta\tsynonym")
    assert len(ps) == 1
    assert ps.dropped_duplicates == 1


def test_load_conflict_drops_both():
    ps = load_pairs("a\tb\tsynonym\na\tb\tantonym")
    assert len(ps) == 0
    assert ps.dropped_conflicts == 2


def test_load_comments_and_malformed():
    stream = "# header comment\na\tb\tsynonym\nbadline\nc\td\tANTONYM\nx\tx\tsynonym\n"
    ps = load_pairs(stream)
    assert [p.relation for p in ps] == [SYNONYM, ANTONYM]
    assert ps.skipped_lines == 2  # bad arity + self-pair


def _reference_load_pairs(stream):
    # the loader before one insertion-ordered dict replaced its seen/order/conflicted
    seen, conflicted, order = {}, set(), []
    dropped_duplicates = dropped_conflicts = skipped = 0
    for raw_line in _as_lines(stream):
        line = raw_line.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            skipped += 1
            continue
        left, right, relation = cols[0], cols[1], cols[2].strip().lower()
        if relation not in RELATIONS or not _valid_token(left) \
                or not _valid_token(right) or left == right:
            skipped += 1
            continue
        pair = LabeledPair(left, right, relation)
        key = pair.key()
        if key in conflicted:
            dropped_conflicts += 1
            continue
        prev = seen.get(key)
        if prev is None:
            seen[key] = pair
            order.append(key)
            continue
        if prev.relation == relation:
            dropped_duplicates += 1
        else:
            conflicted.add(key)
            dropped_conflicts += 2
    pairs = [seen[k] for k in order if k not in conflicted]
    if not pairs and not conflicted:
        raise PairParseError("no pairs")
    return PairSet(pairs=pairs, dropped_duplicates=dropped_duplicates,
                   dropped_conflicts=dropped_conflicts, skipped_lines=skipped)


_pair_line = st.one_of(
    st.tuples(st.sampled_from("abc"), st.sampled_from("abc"),
              st.sampled_from(["synonym", "antonym", " ANTONYM", "Synonym\r", "other"])
              ).map("\t".join),
    st.sampled_from(["", "# comment", "a\tb", "a\tb\tsynonym\tx", "a b\tc\tsynonym",
                     "\tc\tantonym"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_pair_line, max_size=25))
def test_load_pairs_matches_reference_loader(lines):
    text = "\n".join(lines)
    try:
        want = _reference_load_pairs(text)
    except PairParseError as exc:
        with pytest.raises(PairParseError, match=str(exc)):
            load_pairs(text)
        return
    assert load_pairs(text) == want


def test_load_empty_errors():
    with pytest.raises(PairParseError, match="no pairs"):
        load_pairs("# nothing here\n")


def test_write_round_trip():
    ps = load_pairs("a\tb\tsynonym\nc\td\tantonym")
    out = io.StringIO()
    write_pairs(ps, out)
    again = load_pairs(out.getvalue())
    assert list(again) == list(ps)


def test_component_stats():
    stats = component_stats(PairSet(pairs=[_syn("a", "b"), _syn("b", "c"), _syn("d", "e")]))
    assert stats == {"words": 5, "component_count": 2, "giant_share_of_pairs": 2 / 3}


def test_component_stats_disjoint_edges():
    stats = component_stats(PairSet(pairs=[_syn("a", "b"), _syn("c", "d")]))
    assert stats == {"words": 4, "component_count": 2, "giant_share_of_pairs": 0.5}


def test_component_stats_merges_components():
    # the last pair joins the two components found so far
    pairs = [_syn("a", "b"), _ant("c", "d"), _syn("e", "c"), _ant("b", "e"), _syn("x", "y")]
    stats = component_stats(PairSet(pairs=pairs))
    assert stats == {"words": 7, "component_count": 2, "giant_share_of_pairs": 4 / 5}


def test_component_stats_single_edge():
    stats = component_stats(PairSet(pairs=[_syn("a", "b")]))
    assert stats == {"words": 2, "component_count": 1, "giant_share_of_pairs": 1.0}


def test_component_stats_empty_errors():
    # a pair file whose every record conflicts loads as an empty set
    with pytest.raises(ValueError, match="empty graph"):
        component_stats(load_pairs("a\tb\tsynonym\na\tb\tantonym\n"))


def test_split_hand_fixture_cycle():
    ps = PairSet(pairs=[_syn("a", "b"), _syn("c", "d"), _syn("e", "f"),
                        _syn("g", "h"), _syn("a", "x"), _syn("g", "y")])
    result = split_pairs(ps)
    assert [(p.left, p.right) for p in result.train] == [
        ("a", "b"), ("c", "d"), ("e", "f"), ("a", "x")]
    assert [(p.left, p.right) for p in result.test] == [("g", "h"), ("g", "y")]
    assert result.dropped_spanning == 0


def test_split_hand_fixture_spanning_drop():
    ps = PairSet(pairs=[_syn("a", "b"), _syn("c", "d"), _syn("e", "f"),
                        _syn("g", "h"), _syn("a", "g")])
    result = split_pairs(ps)
    assert result.dropped_spanning == 1
    spanning = LabeledPair("a", "g", SYNONYM)
    assert spanning not in result.train.pairs and spanning not in result.test.pairs
    assert "a" in result.train.vocabulary()
    assert "g" in result.test.vocabulary()


def test_split_determinism():
    ps = PairSet(pairs=[_syn(f"w{i}", f"w{i + 100}") for i in range(50)])
    r1 = split_pairs(ps)
    r2 = split_pairs(ps)
    assert list(r1.train) == list(r2.train)
    assert list(r1.test) == list(r2.test)
    assert r1.dropped_spanning == r2.dropped_spanning


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(100, 600), st.integers(30, 400))
def test_split_invariants_random(seed, n_pairs, vocab_size):
    rng = np.random.default_rng(seed)
    pairs = []
    seen = set()
    for _ in range(n_pairs):
        i, j = rng.integers(0, vocab_size, size=2)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        rel = SYNONYM if rng.random() < 0.5 else ANTONYM
        pairs.append(LabeledPair(f"w{i}", f"w{j}", rel))
    if not pairs:
        return
    ps = PairSet(pairs=pairs)
    result = split_pairs(ps)
    assert not (result.train.vocabulary() & result.test.vocabulary())
    assert len(result.train) + len(result.test) + result.dropped_spanning == len(ps)


def test_split_independent_pairs_exact_ratio():
    ps = PairSet(pairs=[_syn(f"a{i}", f"b{i}") for i in range(400)])
    result = split_pairs(ps)
    assert len(result.train) == 300
    assert len(result.test) == 100


def test_build_triplets_cross_product():
    train = PairSet(pairs=[_syn("w", "s1"), _syn("w", "s2"), _ant("w", "a1")])
    triplets = build_triplets(train, seed=0)
    got = {(t.anchor, t.synonym, t.antonym) for t in triplets}
    assert got == {("w", "s1", "a1"), ("w", "s2", "a1")}


def test_build_triplets_cap_and_determinism():
    train = PairSet(pairs=[_syn("w", f"s{i}") for i in range(5)]
                    + [_ant("w", f"a{i}") for i in range(5)])
    t1 = build_triplets(train, cap_per_anchor=20, seed=3)
    t2 = build_triplets(train, cap_per_anchor=20, seed=3)
    anchored_w = [t for t in t1 if t.anchor == "w"]
    assert len(anchored_w) == 20  # 25 combinations sampled down to the cap
    assert t1 == t2


def test_build_triplets_no_antonyms():
    with pytest.raises(ValueError, match="no triplets"):
        build_triplets(PairSet(pairs=[_syn("a", "b"), _syn("b", "c")]), seed=0)


def test_build_triplets_membership():
    rng = np.random.default_rng(5)
    pairs = []
    for i in range(60):
        a, b = rng.integers(0, 30, size=2)
        if a == b:
            continue
        rel = SYNONYM if rng.random() < 0.5 else ANTONYM
        pairs.append(LabeledPair(f"w{a}", f"w{b}", rel))
    train = split_pairs(load_pairs(
        "".join(f"{p.left}\t{p.right}\t{p.relation}\n" for p in pairs))).train
    syn_keys = {p.key() for p in train.by_relation(SYNONYM)}
    ant_keys = {p.key() for p in train.by_relation(ANTONYM)}
    for t in build_triplets(train, seed=0):
        assert LabeledPair(t.anchor, t.synonym, SYNONYM).key() in syn_keys
        assert LabeledPair(t.anchor, t.antonym, ANTONYM).key() in ant_keys


def test_both_orientations_anchor():
    # s has a synonym (w) and an antonym (z), so s must anchor a triplet too
    train = PairSet(pairs=[_syn("w", "s"), _ant("w", "a"), _ant("s", "z")])
    anchors = {t.anchor for t in build_triplets(train, seed=0)}
    assert anchors == {"w", "s"}


@settings(max_examples=500)
@given(st.text() | st.text(st.characters(whitelist_categories=["Zs", "Zl", "Zp", "Cc", "Cf"])))
def test_valid_token_matches_per_character_check(tok):
    # the per-character check _valid_token replaced
    assert _valid_token(tok) == (bool(tok) and not any(c.isspace() for c in tok))



def test_pairs_and_triplets_carry_no_instance_dict():
    # a world or a pair file holds tens of thousands of them
    for record in (LabeledPair("a", "b", SYNONYM), Triplet("a", "b", "c")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, "z")
