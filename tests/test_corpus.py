import json
import tracemalloc

import pytest

from rumourlens.corpus import (
    AGGREGATED_EVENT,
    EventCorpus,
    Label,
    Role,
    Tweet,
    load_jsonl,
    load_pheme_tree,
    partition,
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

    def test_tree_without_events_rejected(self, tmp_path):
        # a directory holding no event: nothing would be compared or trained
        with pytest.raises(ParseError) as err:
            load_pheme_tree(tmp_path)
        assert str(err.value) == f"{tmp_path}: no events"

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
        with pytest.raises(DuplicateId) as err:
            load_pheme_tree(tmp_path)
        assert str(err.value) == f"{tmp_path / 'e'}: event 'e': duplicate tweet id '77'"

    def test_event_named_like_the_pooled_event_rejected(self, tmp_path):
        thread = tmp_path / AGGREGATED_EVENT / "rumours" / "1" / "source-tweets"
        thread.mkdir(parents=True)
        (thread / "1.json").write_text('{"id_str": "1", "text": "hi"}')
        with pytest.raises(ParseError) as err:
            load_pheme_tree(tmp_path)
        assert str(err.value) == (
            f"{tmp_path / AGGREGATED_EVENT}: event 'aggregated' takes the reserved name 'aggregated' "
            "of the pooled pseudo-event"
        )

    @pytest.mark.parametrize(
        "content, want",
        [
            (b'{"id_str": "1", "text": "caf\xe9"}', "line 1: not UTF-8: invalid continuation byte"),
            (b'[{"id_str": "1", "text": "hi"}]', "a tweet must be a JSON object, got list"),
            (b'"hi"', "a tweet must be a JSON object, got str"),
            (b'{"id_str": "1", "text": null}', "tweet 1: text is not a string but None"),
            (b'{"id_str": "1", "text": ["hi"]}', "tweet 1: text is not a string but ['hi']"),
        ],
        ids=["not-utf8", "list", "string", "null-text", "list-text"],
    )
    def test_malformed_tweet_file_named(self, tmp_path, content, want):
        thread = tmp_path / "e" / "rumours" / "1" / "source-tweets"
        thread.mkdir(parents=True)
        (thread / "1.json").write_bytes(content)
        with pytest.raises(ParseError) as err:
            load_pheme_tree(tmp_path)
        assert str(err.value).startswith(f"{thread / '1.json'}: {want}")

    @pytest.mark.parametrize("fmt", ["tree", "jsonl"])
    def test_replies_answer_a_source_of_their_event(self, mini_pheme_dir, mini_pheme_jsonl, fmt):
        # what either loader returns: sources have no parent, and every
        # reply answers a source of its own event and carries its label
        corpora = load_pheme_tree(mini_pheme_dir) if fmt == "tree" else load_jsonl(mini_pheme_jsonl)
        for corpus in corpora:
            assert all(t.role is Role.SOURCE and t.parent_id is None for t in corpus.sources)
            labels = {t.id: t.label for t in corpus.sources}
            assert corpus.reactions
            for r in corpus.reactions:
                assert r.role is Role.REACTION and r.event == corpus.event
                assert r.label is labels[r.parent_id]


class TestJsonl:
    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank lines"])
    def test_file_without_events_rejected(self, tmp_path, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_jsonl(path)
        assert str(err.value) == f"{path}: no events"

    @pytest.mark.parametrize("other_label", [False, True], ids=["same-labels", "relabelled-replies"])
    def test_memory_is_bounded_by_the_corpus(self, tmp_path, other_label):
        # the file streams through the loader, so the traced peak is the
        # corpus built plus a line, not the file's text on top of it
        # (reading the file whole put the peak at 6.1x its size); replies
        # labelled unlike their source are relabelled without a copy of
        # the event
        path = tmp_path / "big.jsonl"
        words = "police said a man was seen near the station after reports of shots fired".split()
        records, i = [], 0
        while sum(map(len, records)) < 2_200_000:
            text = " ".join(words[(i + k) % len(words)] for k in range(18))
            source = jl(str(580000000000 + i), "source", "rumour", event=f"event{i % 5}", text=text)
            records.append(json.dumps(source) + "\n")
            for k in range(4):
                label = "non-rumour" if other_label and k % 2 else "rumour"
                reply = jl(str(590000000000 + 10 * i + k), "reaction", label, parent_id=source["id"],
                           event=source["event"], text=text[k:])
                records.append(json.dumps(reply) + "\n")
            i += 1
        path.write_text("".join(records))
        del records
        size = path.stat().st_size
        assert size >= 2 * 2**20
        tracemalloc.start()
        try:
            corpora = load_jsonl(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, corpora)) == 5 * i
        assert all(t.label is Label.RUMOUR for c in corpora for t in c.reactions)
        assert peak <= 2.5 * size, f"peak {peak / size:.2f}x the file's {size} bytes"

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

    def test_replies_take_their_sources_label(self, tmp_path):
        path = tmp_path / "relabel.jsonl"
        write_jsonl(path, [
            jl("1", "source", "rumour"),
            jl("2", "source", "non-rumour"),
            jl("3", "reaction", "non-rumour", parent_id="1"),
            jl("4", "reaction", "rumour", parent_id="2"),
            jl("5", "reaction", "rumour", parent_id="1"),
        ])
        [corpus] = load_jsonl(path)
        assert [(t.id, t.label) for t in corpus.reactions] == [
            ("3", Label.RUMOUR), ("4", Label.NONRUMOUR), ("5", Label.RUMOUR)
        ]

    # an event is checked once it is whole, so its errors name the file,
    # the event and the tweet id, but no line

    def test_reaction_with_unknown_parent(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        write_jsonl(path, [jl("1", "source", "rumour"), jl("2", "reaction", "rumour", parent_id="9")])
        with pytest.raises(OrphanReaction) as err:
            load_jsonl(path)
        assert str(err.value) == f"{path}: event 'e': reaction '2' refers to unknown source '9'"

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "twice.jsonl"
        write_jsonl(path, [jl("1", "source", "rumour"), jl("1", "reaction", "rumour", parent_id="1")])
        with pytest.raises(DuplicateId) as err:
            load_jsonl(path)
        assert str(err.value) == f"{path}: event 'e': duplicate tweet id '1'"

    def test_event_named_like_the_pooled_event_rejected(self, tmp_path):
        path = tmp_path / "pooled.jsonl"
        write_jsonl(path, [jl("1", "source", "rumour"), jl("2", "source", "rumour", event=AGGREGATED_EVENT)])
        with pytest.raises(ParseError) as err:
            load_jsonl(path)
        assert str(err.value) == (
            f"{path}: event 'aggregated' takes the reserved name 'aggregated' of the pooled pseudo-event"
        )

    @pytest.mark.parametrize("event", ["a/b", "a\0b"], ids=["slash", "nul"])
    def test_event_name_that_cannot_name_run_files_rejected(self, tmp_path, event):
        path = tmp_path / "names.jsonl"
        write_jsonl(path, [jl("1", "source", "rumour"), jl("2", "source", "rumour", event=event)])
        with pytest.raises(ParseError) as err:
            load_jsonl(path)
        assert str(err.value) == f"{path}: event {event!r}: a name holding '/' or NUL cannot name run files"

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "text": "x", "event": "e", "role": "source", "label": "rumour", "parent_id": null}\nnot json\n')
        with pytest.raises(ParseError) as err:
            load_jsonl(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_not_utf8_named(self, tmp_path, newline):
        # far enough down that the decoder has read past it before the
        # loader reaches the line above it
        good = json.dumps(jl("1", "source", "rumour")) + newline
        filler = [json.dumps(jl(str(i), "reaction", "rumour", parent_id="1")) + newline for i in range(2, 200)]
        path = tmp_path / "bad.jsonl"
        path.write_bytes((good + "".join(filler)).encode() + b'{"id": "x", "text": "caf\xe9"}' + newline.encode())
        with pytest.raises(ParseError) as err:
            load_jsonl(path)
        assert str(err.value) == f"{path}: line 200: not UTF-8: invalid continuation byte"
        assert err.value.line == 200

    @pytest.mark.parametrize(
        "line, want",
        [
            ('["1", "hi"]', "line 2: a tweet must be a JSON object, got list"),
            ("7", "line 2: a tweet must be a JSON object, got int"),
            ('{"id": "2", "text": null, "event": "e", "role": "source", "label": "rumour"}',
             "line 2: tweet '2': text is not a string but None"),
            ('{"id": "2", "text": 5, "event": "e", "role": "source", "label": "rumour"}',
             "line 2: tweet '2': text is not a string but 5"),
            ('{"id": "2", "text": "x", "event": null, "role": "source", "label": "rumour"}',
             "line 2: tweet '2': event is not a string but None"),
            ('{"id": "2", "text": "x", "event": 5, "role": "source", "label": "rumour"}',
             "line 2: tweet '2': event is not a string but 5"),
            ('{"id": {"x": 1}, "text": "x", "event": "e", "role": "source", "label": "rumour"}',
             "line 2: id is neither a string nor an integer but {'x': 1}"),
            ('{"id": true, "text": "x", "event": "e", "role": "source", "label": "rumour"}',
             "line 2: id is neither a string nor an integer but True"),
            ('{"id": 2.5, "text": "x", "event": "e", "role": "source", "label": "rumour"}',
             "line 2: id is neither a string nor an integer but 2.5"),
        ],
        ids=["list", "number", "null-text", "number-text", "null-event", "number-event", "object-id", "bool-id", "float-id"],
    )
    def test_malformed_tweet_line_named(self, tmp_path, line, want):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(jl("1", "source", "rumour")) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_jsonl(path)
        assert str(err.value) == f"{path}: {want}" and err.value.line == 2

    def test_integer_id_is_kept_as_its_digits(self, tmp_path):
        path = tmp_path / "int.jsonl"
        path.write_text(json.dumps({**jl("1", "source", "rumour"), "id": 17}) + "\n", encoding="utf-8")
        assert load_jsonl(path)[0].sources[0].id == "17"

    def test_round_trip_matches_tree_loader(self, mini_pheme_dir, mini_pheme_jsonl):
        tree = load_pheme_tree(mini_pheme_dir)
        jsonl = load_jsonl(mini_pheme_jsonl)
        assert [c.event for c in tree] == [c.event for c in jsonl]
        for a, b in zip(tree, jsonl):
            pa, pb = partition(a), partition(b)
            for pop in ("r_src", "nr_src", "r_re", "nr_re"):
                ids_a = sorted(t.id for t in getattr(pa, pop))
                ids_b = sorted(t.id for t in getattr(pb, pop))
                assert ids_a == ids_b


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
            assert _usable_events(table, "compare") == ["both"]

    def test_balanced_event_usable(self, mini_pheme_dir):
        table = read_features_csv(GOLDENS / "fixture_run" / "features.csv")
        events = sorted(c.event for c in load_pheme_tree(mini_pheme_dir))
        assert _usable_events(table, "compare") == events
