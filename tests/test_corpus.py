import json

import pytest

from rumourlens.corpus import (
    EventCorpus,
    Label,
    Role,
    Tweet,
    load_jsonl,
    load_pheme_tree,
    partition,
    propagate_labels,
    save_jsonl,
    validate_corpus,
)
from rumourlens.errors import DuplicateId, MissingField, OrphanReaction, ParseError
from rumourlens.features import FeatureTable
from rumourlens.pipeline import _usable_events
from rumourlens.report import read_features_csv
from tests.conftest import GOLDENS


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def jl(id, role, label, parent_id=None, event="e", text="some text"):
    return {"id": id, "text": text, "event": event, "role": role, "label": label,
            "parent_id": parent_id}


class TestPhemeTree:
    def test_fixture_counts_match_manifest(self, mini_pheme_dir, mini_pheme_manifest):
        corpora = load_pheme_tree(mini_pheme_dir)
        assert {c.event for c in corpora} == set(mini_pheme_manifest)
        for corpus in corpora:
            counts = partition(corpus).counts()
            expected = mini_pheme_manifest[corpus.event]
            assert counts.nr_src == expected["nr_src"]
            assert counts.r_src == expected["r_src"]
            assert counts.nr_re == expected["nr_re"]
            assert counts.r_re == expected["r_re"]

    def test_counts_match_independent_directory_walk(self, mini_pheme_dir):
        # oracle: raw file walk, no loader involvement
        corpora = {c.event: c for c in load_pheme_tree(mini_pheme_dir)}
        for event_dir in mini_pheme_dir.iterdir():
            n_src = len(list(event_dir.glob("*/*/source-tweets/*.json")))
            n_re = len(list(event_dir.glob("*/*/reactions/*.json")))
            corpus = corpora[event_dir.name]
            assert len(corpus.sources) == n_src
            assert len(corpus.reactions) == n_re

    def test_empty_event_dir(self, tmp_path):
        (tmp_path / "quietday").mkdir()
        corpora = load_pheme_tree(tmp_path)
        assert len(corpora) == 1
        assert len(corpora[0]) == 0
        counts = partition(corpora[0]).counts()
        assert counts.total == 0

    def test_missing_text_field(self, tmp_path):
        thread = tmp_path / "e" / "rumours" / "1" / "source-tweets"
        thread.mkdir(parents=True)
        (thread / "1.json").write_text('{"id_str": "1"}')
        with pytest.raises(MissingField):
            load_pheme_tree(tmp_path)

    def test_thread_without_source(self, tmp_path):
        thread = tmp_path / "e" / "rumours" / "1"
        (thread / "reactions").mkdir(parents=True)
        (thread / "reactions" / "2.json").write_text('{"id_str": "2", "text": "hi"}')
        with pytest.raises(OrphanReaction):
            load_pheme_tree(tmp_path)

    def test_duplicate_id(self, tmp_path):
        for thread_id in ("1", "2"):
            d = tmp_path / "e" / "rumours" / thread_id / "source-tweets"
            d.mkdir(parents=True)
            (d / "x.json").write_text('{"id_str": "77", "text": "hi"}')
        with pytest.raises(DuplicateId):
            load_pheme_tree(tmp_path)

    def test_reaction_labels_propagated(self, mini_pheme_dir):
        for corpus in load_pheme_tree(mini_pheme_dir):
            labels = {t.id: t.label for t in corpus.sources}
            for r in corpus.reactions:
                assert r.label is labels[r.parent_id]


class TestJsonl:
    def test_two_line_thread(self, tmp_path):
        path = tmp_path / "two.jsonl"
        write_jsonl(path, [
            jl("1", "source", "rumour"),
            jl("2", "reaction", "non-rumour", parent_id="1"),
        ])
        corpora = load_jsonl(path)
        assert len(corpora) == 1
        assert len(corpora[0].sources) == 1
        assert len(corpora[0].reactions) == 1
        # reply label follows its source
        assert corpora[0].reactions[0].label is Label.RUMOUR

    def test_reaction_without_parent(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        write_jsonl(path, [jl("2", "reaction", "rumour")])
        with pytest.raises(OrphanReaction):
            load_jsonl(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "text": "x", "event": "e", "role": "source", "label": "rumour", "parent_id": null}\nnot json\n')
        with pytest.raises(ParseError) as err:
            load_jsonl(path)
        assert err.value.line == 2

    def test_round_trip_matches_tree_loader(self, mini_pheme_dir, mini_pheme_jsonl, tmp_path):
        tree = load_pheme_tree(mini_pheme_dir)
        jsonl = load_jsonl(mini_pheme_jsonl)
        assert [c.event for c in tree] == [c.event for c in jsonl]
        for a, b in zip(tree, jsonl):
            pa, pb = partition(a), partition(b)
            for pop in ("r_src", "nr_src", "r_re", "nr_re"):
                ids_a = sorted(t.id for t in getattr(pa, pop))
                ids_b = sorted(t.id for t in getattr(pb, pop))
                assert ids_a == ids_b
        # and a save/load cycle preserves everything
        out = tmp_path / "cycle.jsonl"
        save_jsonl(tree, out)
        again = load_jsonl(out)
        for a, b in zip(tree, again):
            assert [t.id for t in a.sources] == [t.id for t in b.sources]
            assert [t.text for t in a.reactions] == [t.text for t in b.reactions]


class TestPartition:
    def test_disjoint_exhaustive(self, mini_pheme_dir):
        for corpus in load_pheme_tree(mini_pheme_dir):
            part = partition(corpus)
            counts = part.counts()
            assert counts.total == len(corpus)
            ids = [t.id for bucket in (part.r_src, part.nr_src, part.r_re, part.nr_re) for t in bucket]
            assert len(ids) == len(set(ids)) == len(corpus)

    def test_sources_only(self):
        corpus = EventCorpus(
            event="e",
            sources=[Tweet("1", "x", "e", Role.SOURCE, Label.RUMOUR)],
            reactions=[],
        )
        part = partition(corpus)
        assert part.r_re == [] and part.nr_re == []
        assert part.counts().r_src == 1


class TestPropagation:
    def corpus(self):
        return EventCorpus(
            event="e",
            sources=[Tweet("1", "x", "e", Role.SOURCE, Label.RUMOUR)],
            reactions=[Tweet("2", "y", "e", Role.REACTION, Label.NONRUMOUR, parent_id="1")],
        )

    def test_propagation_fixes_label(self):
        fixed = propagate_labels(self.corpus())
        assert fixed.reactions[0].label is Label.RUMOUR

    def test_idempotent(self):
        once = propagate_labels(self.corpus())
        twice = propagate_labels(once)
        assert once == twice

    def test_validate_rejects_mismatched_label(self):
        with pytest.raises(OrphanReaction):
            validate_corpus(self.corpus())


class TestAggregateAndUsability:
    # usability is decided on the feature table the compare, train and
    # explain stages read
    def test_zero_rumour_event_flagged(self):
        # a rumour reply does not stand in for the missing rumour source
        table = FeatureTable.from_columns(
            ["WC"],
            tweet_id=["1", "2", "3", "4"],
            event=["onesided", "onesided", "both", "both"],
            role=["source", "reaction", "source", "source"],
            label=["non-rumour", "rumour", "rumour", "non-rumour"],
            empty_text=[False] * 4,
            X=[[1.0]] * 4,
        )
        with pytest.warns(UserWarning, match="onesided"):
            assert _usable_events(table) == ["both"]

    def test_balanced_event_usable(self, mini_pheme_dir):
        table = read_features_csv(GOLDENS / "fixture_run" / "features.csv")
        events = sorted(c.event for c in load_pheme_tree(mini_pheme_dir))
        assert _usable_events(table) == events
