import csv
import io
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from rumourlens import readability, report, textprep
from rumourlens.corpus import EventCorpus, Label, PartitionCounts, Role, Tweet, load_pheme_tree
from rumourlens.emotions import POPULATIONS, LexiconFallbackProvider, emotion_table
from rumourlens.errors import EmptyText, ParseError
from rumourlens.features import (
    ALLPUNCT_FEATURE,
    EMOTION_FEATURES,
    WC_FEATURE,
    FeatureTable,
    Featurizer,
    feature_names,
)
from rumourlens.lexicon import score
from rumourlens.readability import SCORE_NAMES
from rumourlens.senticnet import DIMENSIONS, sentic_features
from rumourlens.textprep import TokenKind, clean_for_readability, is_negation, text_stats, tokenize
from tests.conftest import ROOT


@pytest.fixture()
def featurizer(demo_lexicon, demo_sentic_table):
    return Featurizer(demo_lexicon, demo_sentic_table, emotion_provider=LexiconFallbackProvider())


def toy_corpus():
    src = Tweet("1", "Terrified crowds run from the park fire. So scary!", "e", Role.SOURCE, Label.RUMOUR)
    empty = Tweet("2", "   ", "e", Role.REACTION, Label.RUMOUR, parent_id="1")
    punct = Tweet("3", "?!?!", "e", Role.REACTION, Label.RUMOUR, parent_id="1")
    return EventCorpus(event="e", sources=[src], reactions=[empty, punct])


class TestFeaturizer:
    def test_feature_name_layout(self, demo_lexicon):
        names = feature_names(demo_lexicon)
        assert names[0] == "WC"
        assert "allpunct" in names
        assert set(SCORE_NAMES) <= set(names)
        assert set(DIMENSIONS) <= set(names)
        assert set(EMOTION_FEATURES) <= set(names)
        assert len(names) == len(set(names)) == 33

    def test_rows_cover_all_tweets(self, featurizer):
        table = featurizer.featurize_corpus(toy_corpus())
        assert len(table) == 3
        assert table.tweet_id.tolist() == ["1", "2", "3"]
        assert table.role.tolist() == ["source", "reaction", "reaction"]
        assert table.X.shape == (3, len(featurizer.names))

    def test_empty_text_row_flagged_and_absent(self, featurizer):
        table = featurizer.featurize_corpus(toy_corpus())
        assert table.empty_text.tolist() == [False, True, False]
        assert table.X[1, table.names.index("WC")] == 0.0
        assert math.isnan(table.X[1, table.names.index("function")])
        for name in SCORE_NAMES:
            assert math.isnan(table.X[1, table.names.index(name)])

    def test_punctuation_only_readability_absent(self, featurizer):
        table = featurizer.featurize_corpus(toy_corpus())
        assert table.X[2, table.names.index("WC")] == 0.0
        assert math.isnan(table.X[2, table.names.index("flesch_score")])

    def test_emotion_scores_attached(self, featurizer):
        table = featurizer.featurize_corpus(toy_corpus())
        scores = table.X[0, [table.names.index(lab) for lab in EMOTION_FEATURES]]
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)
        shares = emotion_table(scores.reshape(1, -1), {"r_src": np.array([True])})
        assert shares["r_src"]["fear"] == 100.0

    def test_emotion_argmax_ties_and_absence(self):
        # the earlier label wins a tie; a row without scores is not counted
        scores = np.array([[0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0], [np.nan] * 7, [1 / 7] * 7])
        masks = {"all": np.ones(3, dtype=bool), "absent": np.array([False, True, False])}
        anger = {lab: 100.0 if lab == "anger" else 0.0 for lab in EMOTION_FEATURES}
        assert emotion_table(scores, masks) == {"all": anger}
        assert emotion_table(np.empty((0, 7)), {"all": np.zeros(0, dtype=bool)}) == {}

    def test_no_provider_means_no_emotion_columns(self, demo_lexicon, demo_sentic_table):
        f = Featurizer(demo_lexicon, demo_sentic_table, emotion_provider=None)
        table = f.featurize_corpus(toy_corpus())
        assert "anger" not in f.names
        assert table.names == f.names
        assert table.X.shape == (3, len(f.names))


def oracle_text_features(featurizer, text):
    """The dict-based row builder the Featurizer's row writer replaced:
    each family tokenizes the raw text itself, and a feature left out of
    the map, or mapped to None, is absent."""
    tokens = tokenize(text)
    profile = score(tokens, featurizer.lexicon)
    values = {WC_FEATURE: float(profile.word_count)}
    if profile.word_count:
        for cat in featurizer.lexicon.top_level():
            if cat.lower() not in {"wc", "allpunct"}:
                values[cat] = profile.percentages[cat]
        values[ALLPUNCT_FEATURE] = profile.punctuation["all_punct"]

    try:
        stats = text_stats(clean_for_readability(text), featurizer.easy_words)
        r = readability.all_scores(stats)
        values.update(zip(SCORE_NAMES, (r.flesch, r.flesch_kincaid, r.gunning_fog, r.smog, r.dale_chall)))
    except EmptyText:
        pass

    lemmas = []
    for tok in tokenize(text):
        if tok.kind is not TokenKind.WORD:
            continue
        w = tok.surface.lower()
        if is_negation(w):
            lemmas.append(w)
            continue
        if w in featurizer.stopwords:
            continue
        lemmas.append(featurizer.lemmatizer.lemmatize(w))
    values.update(zip(DIMENSIONS, sentic_features(lemmas, featurizer.sentic_table) or ()))
    return values


def oracle_matrix(featurizer, corpus):
    tweets = list(corpus.sources) + list(corpus.reactions)
    rows = [oracle_text_features(featurizer, t.text) for t in tweets]
    if featurizer.emotion_provider is not None:
        dists = featurizer.emotion_provider.classify([t.text for t in tweets])
        for row, dist in zip(rows, dists):
            row.update({lab: dist.scores[lab] for lab in EMOTION_FEATURES})
    X = [[row.get(name) for name in featurizer.names] for row in rows]
    return np.array(X, dtype=np.float64).reshape(len(tweets), len(featurizer.names))


ORACLE_PIECES = [
    "@user", "#fire", "#Hoax", "http://t.co/x", "www.example.com", "\U0001f631", "\U0001f525", "\u2600",
    "3.5", "1,000", "42", "don't", "isn't", "o'clock", "can't", "!", "?", ".", "...", ",", ";", "(", ")", "'",
    "not", "never", "no", "the", "is", "a", "extraordinary", "circumstances", "happened", "considered",
    "Awww..", "@userhttp://x", "don'http://x",
]
# empty, punctuation-only, emoji-only and markup-only replies
ORACLE_SPECIAL = ["", "   ", "?!?!", "...", "\U0001f631\U0001f525", "\U0001f631 \u2600", "@a @b", "http://x #tag"]


def random_corpus(demo_lexicon, demo_sentic_table, n=300, seed=5):
    """n seeded texts mixing lexicon and concept words with tweet markup,
    numbers, inner apostrophes, glued tokens and word-less replies."""
    rng = random.Random(seed)
    lexicon_words = sorted({w for c in demo_lexicon.categories.values() for w in c.literals})
    concept_words = sorted({w for c in demo_sentic_table.entries for w in c.split("_")})
    pool = lexicon_words + concept_words + ORACLE_PIECES * 8
    texts = []
    for i in range(n):
        if i % 10 == 0:
            texts.append(ORACLE_SPECIAL[(i // 10) % len(ORACLE_SPECIAL)])
            continue
        text = ""
        for _ in range(rng.randrange(1, 25)):
            w = rng.choice(pool)
            text += rng.choice([" ", " ", " ", "", ". ", "! "]) + rng.choice([w, w.upper(), w.capitalize()])
        texts.append(text)
    return corpus_of_texts(texts)


def corpus_of_texts(texts):
    """One rumour thread: the first text is the source, the rest replies."""
    src = Tweet("0", texts[0], "r", Role.SOURCE, Label.RUMOUR)
    reactions = [
        Tweet(str(i), text, "r", Role.REACTION, Label.RUMOUR, parent_id="0") for i, text in enumerate(texts) if i
    ]
    return EventCorpus(event="r", sources=[src], reactions=reactions)


def assert_bitwise_equal(got, expected):
    assert got.shape == expected.shape
    diff = np.argwhere(got.view(np.uint64) != expected.view(np.uint64))
    assert diff.size == 0, f"first differing (row, column): {diff[0].tolist()}"


def count_tokenize_calls(monkeypatch) -> list:
    """Route every rumourlens module's `tokenize` through a counter."""
    calls = []
    original = textprep.tokenize

    def counted(text):
        calls.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if name == "rumourlens" or name.startswith("rumourlens."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestRowWriter:
    @pytest.mark.parametrize("provider", [None, LexiconFallbackProvider()], ids=["no-provider", "fallback"])
    def test_rows_bitwise_equal_to_dict_oracle(self, demo_lexicon, demo_sentic_table, mini_pheme_dir, provider):
        featurizer = Featurizer(demo_lexicon, demo_sentic_table, emotion_provider=provider)
        corpora = load_pheme_tree(mini_pheme_dir) + [random_corpus(demo_lexicon, demo_sentic_table)]
        for corpus in corpora:
            expected = oracle_matrix(featurizer, corpus)
            assert_bitwise_equal(featurizer.featurize_corpus(corpus).X, expected)

    def test_random_corpus_has_values_and_absences_in_every_family(self, demo_lexicon, demo_sentic_table):
        featurizer = Featurizer(demo_lexicon, demo_sentic_table)
        X = featurizer.featurize_corpus(random_corpus(demo_lexicon, demo_sentic_table)).X
        for name in (ALLPUNCT_FEATURE, SCORE_NAMES[0], DIMENSIONS[0]):
            present = ~np.isnan(X[:, featurizer.names.index(name)])
            assert 0 < present.sum() < len(X), name

    @pytest.mark.parametrize("provider", [None, LexiconFallbackProvider()], ids=["no-provider", "fallback"])
    def test_tokenize_calls_per_tweet(self, demo_lexicon, demo_sentic_table, mini_pheme_dir, monkeypatch, provider):
        # one call per tweet, and one more for each text whose URL the
        # readability cleaner removes
        featurizer = Featurizer(demo_lexicon, demo_sentic_table, emotion_provider=provider)
        corpora = load_pheme_tree(mini_pheme_dir)
        calls = count_tokenize_calls(monkeypatch)
        tweets = [t for c in corpora for t in c.sources + c.reactions]
        with_url = [t for t in tweets if "://" in t.text or "www" in t.text]
        assert sum(len(featurizer.featurize_corpus(c)) for c in corpora) == len(tweets) == 121
        assert 0 < len(with_url) < len(tweets)
        assert len(calls) == len(tweets) + len(with_url)
        assert sorted(calls) == sorted([t.text for t in tweets] + [clean_for_readability(t.text) for t in with_url])

    @pytest.mark.parametrize("provider", [None, LexiconFallbackProvider()], ids=["no-provider", "fallback"])
    def test_one_tokenize_call_per_tweet_without_urls(
        self, demo_lexicon, demo_sentic_table, monkeypatch, provider
    ):
        featurizer = Featurizer(demo_lexicon, demo_sentic_table, emotion_provider=provider)
        base = random_corpus(demo_lexicon, demo_sentic_table)
        # the random texts with their URL schemes and www prefixes broken
        texts = [t.text.replace("://", ": //").replace("www", "w w w") for t in base.sources + base.reactions]
        corpus = corpus_of_texts(texts)
        calls = count_tokenize_calls(monkeypatch)
        featurizer.featurize_corpus(corpus)
        assert calls == texts

    def test_lexicon_profiles_only_the_feature_categories(
        self, demo_lexicon, demo_sentic_table, mini_pheme_dir, monkeypatch
    ):
        from rumourlens import features

        profiled = []
        original = features.score

        def recorded(*args, **kwargs):
            profile = original(*args, **kwargs)
            profiled.append(list(profile.percentages))
            return profile

        monkeypatch.setattr(features, "score", recorded)
        featurizer = Featurizer(demo_lexicon, demo_sentic_table)
        for corpus in load_pheme_tree(mini_pheme_dir):
            featurizer.featurize_corpus(corpus)
        wanted = features.lexicon_feature_names(demo_lexicon)[1:-1]
        assert len(wanted) == 14 and len(demo_lexicon.categories) == 74
        assert len(profiled) == 121
        assert all(p in ([], wanted) for p in profiled) and wanted in profiled

    def test_word_lists_load_once_per_featurizer(self, demo_lexicon, demo_sentic_table, mini_pheme_dir, monkeypatch):
        loads = {"load_stopwords": 0, "load_easy_words": 0}
        for name in loads:
            original = getattr(textprep, name)

            def counted(*args, _name=name, _original=original):
                loads[_name] += 1
                return _original(*args)

            monkeypatch.setattr(textprep, name, counted)
        for _ in range(2):
            featurizer = Featurizer(demo_lexicon, demo_sentic_table)
            for corpus in load_pheme_tree(mini_pheme_dir):
                featurizer.featurize_corpus(corpus)
        assert loads == {"load_stopwords": 2, "load_easy_words": 2}


def small_table(X, names=("a", "b")):
    n = len(X)
    return FeatureTable.from_columns(
        names,
        tweet_id=[f"t{i}" for i in range(n)],
        event=["e"] * n,
        role=["source", "reaction"] * (n // 2) + ["source"] * (n % 2),
        label=["rumour"] * n,
        empty_text=[False] * n,
        X=X,
    )


def same_table(a: FeatureTable, b: FeatureTable) -> bool:
    return (
        a.names == b.names
        and all(
            getattr(a, c).tolist() == getattr(b, c).tolist()
            for c in ("tweet_id", "event", "role", "label", "empty_text")
        )
        and a.X.shape == b.X.shape
        and np.array_equal(a.X, b.X, equal_nan=True)
    )


class TestFeaturesCsv:
    def test_round_trip_preserves_absence(self, featurizer, tmp_path):
        table = featurizer.featurize_corpus(toy_corpus())
        path = tmp_path / "features.csv"
        report.write_features_csv(path, table)
        loaded = report.read_features_csv(path)
        assert loaded.names == featurizer.names
        assert len(loaded) == 3
        assert math.isnan(loaded.X[1, loaded.names.index("function")])
        assert loaded.X[0, loaded.names.index("WC")] == table.X[0, table.names.index("WC")]
        assert loaded.empty_text.tolist() == [False, True, False]

    def test_header_carries_absence_sentinels(self, featurizer, tmp_path):
        path = tmp_path / "features.csv"
        report.write_features_csv(path, FeatureTable.from_columns(featurizer.names, [], [], [], [], [], []))
        header = path.read_text().splitlines()[0].split(",")
        assert "flesch_score" in header and "flesch_score__absent" in header

    def test_nan_is_written_as_the_absence_flag(self, tmp_path):
        path = tmp_path / "features.csv"
        report.write_features_csv(path, small_table([[1.5, np.nan], [np.nan, np.nan]]))
        assert path.read_text().splitlines() == [
            "tweet_id,event,role,label,empty_text,a,a__absent,b,b__absent",
            "t0,e,source,rumour,false,1.5,false,,true",
            "t1,e,reaction,rumour,false,,true,,true",
        ]

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "features.csv"
        report.write_features_csv(path, small_table([]))
        assert path.read_text() == "tweet_id,event,role,label,empty_text,a,a__absent,b,b__absent\n"
        loaded = report.read_features_csv(path)
        assert len(loaded) == 0 and loaded.X.shape == (0, 2)
        assert same_table(loaded, small_table([]))

    @pytest.mark.parametrize(
        "column, cell, want",
        [
            (2, "Source", "role 'Source' is neither 'source' nor 'reaction'"),
            (3, "Rumour", "label 'Rumour' is neither 'rumour' nor 'non-rumour'"),
            (4, "", "empty_text '' is neither 'true' nor 'false'"),
        ],
        ids=["role", "label", "empty_text"],
    )
    def test_meta_cell_outside_its_words_rejected(self, tmp_path, column, cell, want):
        # the first record's id holds a line break, so the bad record, the
        # third, ends on line 5
        table = FeatureTable.from_columns(
            ["a", "b"], ["line\nbreak", "t1", "t2"], ["e"] * 3, ["source", "reaction", "reaction"],
            ["rumour"] * 3, [False] * 3, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        )
        path = tmp_path / "features.csv"
        report.write_features_csv(path, table)
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
        records[3][column] = cell
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(records)
        with pytest.raises(ParseError) as err:
            report.read_features_csv(path)
        assert str(err.value) == f"{path}: line 5: {want}"
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "damage, line, want",
        [
            (lambda text: "", 1, "no header"),
            (lambda text: text.replace("\nt1,e,", "\nt1,e,x,"), 3, "10 cells, expected 9"),
            (lambda text: text.replace("3.5,false", "n/a,false"), 3, "could not convert string to float: 'n/a'"),
            (
                lambda text: text.replace("3.5,false", "inf,false"),
                3,
                "feature 'a' holds 'inf', which is not finite, but is not flagged absent",
            ),
        ],
        ids=["no header", "cell count", "not a number", "not finite"],
    )
    def test_record_errors_carry_their_line(self, tmp_path, damage, line, want):
        path = tmp_path / "features.csv"
        report.write_features_csv(path, small_table([[1.5, 2.0], [3.5, np.nan]]))
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            report.read_features_csv(path)
        assert str(err.value) == f"{path}: line {line}: {want}"
        assert err.value.line == line

    @pytest.mark.parametrize(
        "damage",
        [
            lambda lines: ["a,b"] + lines[1:],
            lambda lines: [line.rsplit(",", 1)[0] for line in lines],  # the last flag column dropped
            lambda lines: [lines[0].replace(",b,b__absent", ",a,a__absent")] + lines[1:],
        ],
        ids=["foreign header", "flag column dropped", "feature named twice"],
    )
    def test_malformed_header_rejected_on_line_1(self, tmp_path, damage):
        path = tmp_path / "features.csv"
        report.write_features_csv(path, small_table([[1.5, 2.0], [3.5, np.nan]]))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(damage(lines)) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            report.read_features_csv(path)
        want = "header is not tweet_id,event,role,label,empty_text, then a value and a flag per feature"
        assert str(err.value) == f"{path}: line 1: {want}, each feature named once"
        assert err.value.line == 1

    def test_feature_named_like_an_absence_flag_round_trips(self, tmp_path):
        # names are read by position, so a feature may end in `__absent`
        table = small_table([[1.5, np.nan], [np.nan, 4.0]], names=("x__absent", "b"))
        path = tmp_path / "features.csv"
        report.write_features_csv(path, table)
        loaded = report.read_features_csv(path)
        assert loaded.names == ["x__absent", "b"]
        assert same_table(loaded, table)

    def test_round_trip_equals_quantized_table(self, tmp_path):
        # on-disk values keep 10 significant digits: reading a written
        # table back gives the table with every value so rounded
        rng = np.random.default_rng(7)
        X = rng.normal(0.0, 1e3, size=(25, 2))
        X[rng.random((25, 2)) < 0.3] = np.nan
        X[3] = np.nan  # a row whose every feature is absent
        table = small_table(X)
        path = tmp_path / "features.csv"
        report.write_features_csv(path, table)
        quantized = small_table([[float(report.fnum(v)) for v in row] for row in X.tolist()])
        assert same_table(report.read_features_csv(path), quantized)
        # a second round trip is exact
        again = tmp_path / "again.csv"
        report.write_features_csv(again, report.read_features_csv(path))
        assert again.read_bytes() == path.read_bytes()

    def test_row_formatter_equals_fnum_per_cell(self):
        rng = np.random.default_rng(3)
        specials = [0.0, -0.0, 5e-324, 1e-300, 2.5e-18, 1e300, 100.0 / 3, 1 / 3, math.inf, -math.inf, math.nan]
        for _ in range(50):
            row = (rng.normal(0.0, 1.0, 30) * 10.0 ** rng.integers(-30, 30, 30)).tolist() + specials
            assert report.fnums(row) == [report.fnum(v) for v in row]
        assert report.fnums([]) == []

    def test_row_template_writes_what_the_csv_writer_writes(self, tmp_path):
        # plain rows, rows with absent values and rows whose meta cells need
        # quoting, against the csv writer with `fnum` per cell
        rng = np.random.default_rng(11)
        specials = [0.0, -0.0, 5e-324, 1e-300, 1e16, 100.0 / 3, math.inf, -math.inf]
        n = 60
        X = (rng.normal(0.0, 1.0, (n, 8)) * 10.0 ** rng.integers(-30, 30, (n, 8))).tolist()
        X[0] = specials
        for i in range(3, n, 7):
            X[i][i % 8] = math.nan
        ids = [f"t{i}" for i in range(n)]
        ids[1], ids[2], ids[4], ids[5], ids[6] = 'a,b', 'say "x"', "line\nbreak", "cr\rx", "x,\n"
        table = FeatureTable.from_columns(
            [f"f{k}" for k in range(8)], ids, ["e"] * n, ["source"] * n, ["rumour"] * n,
            [i % 2 == 0 for i in range(n)], X,
        )
        path = tmp_path / "features.csv"
        report.write_features_csv(path, table)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["tweet_id", "event", "role", "label", "empty_text"] + [
            cell for k in range(8) for cell in (f"f{k}", f"f{k}__absent")
        ])
        for i, row in enumerate(X):
            record = [ids[i], "e", "source", "rumour", "true" if i % 2 == 0 else "false"]
            for v in row:
                record += ["", "true"] if math.isnan(v) else [report.fnum(v), "false"]
            writer.writerow(record)
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_concat_keeps_row_order(self):
        a, b = small_table([[1.0, 2.0]]), small_table([[3.0, np.nan], [5.0, 6.0]])
        both = FeatureTable.concat(["a", "b"], [a, b])
        assert both.tweet_id.tolist() == ["t0", "t0", "t1"]
        assert np.array_equal(both.X, np.vstack([a.X, b.X]), equal_nan=True)
        assert same_table(both.take(np.array([1, 2])), b)


class TestTableSchemas:
    def test_partitions_round_trip(self, tmp_path):
        # the counts and their total come back as the text the report shows
        counts = [PartitionCounts("e1", 5, 4, 10, 20), PartitionCounts("e2", 0, 0, 0, 0)]
        path = tmp_path / "partitions.csv"
        report.write_partitions_csv(path, counts)
        assert [list(row.values()) for row in report.read_csv_rows(path)] == [
            ["e1", "5", "4", "10", "20", "39"],
            ["e2", "0", "0", "0", "0", "0"],
        ]
        assert path.read_text().splitlines()[0] == "event,nr_src,r_src,nr_re,r_re,total"

    def test_ks_csv_schema(self, tmp_path):
        from rumourlens.stats import significance_matrix

        columns = {"wc": np.array([1.0, 2.0, 3.0, 4.0])}
        rumour = np.array([True, True, False, False])
        ks_rows = significance_matrix(
            columns, {"e1": np.ones(4, dtype=bool)}, rumour, alpha=0.05, population_pair="sources"
        )
        path = tmp_path / "ks.csv"
        report.write_ks_csv(path, ks_rows)
        rows = report.read_csv_rows(path)
        assert list(rows[0]) == report.KS_HEADER
        assert rows[0]["population_pair"] == "sources"

    def test_emotions_round_trip(self, tmp_path):
        table = {
            "r_src": {lab: (100.0 if lab == "fear" else 0.0) for lab in EMOTION_FEATURES},
            "nr_re": {lab: 100.0 / 7 for lab in EMOTION_FEATURES},
        }
        path = tmp_path / "emotions.csv"
        report.write_emotions_csv(path, table)
        rows = {row["label"]: row for row in report.read_csv_rows(path)}
        assert list(rows) == list(EMOTION_FEATURES)
        assert rows["fear"]["r_src"] == "100"
        assert float(rows["joy"]["nr_re"]) == pytest.approx(100.0 / 7)
        # a population without tweets is written as empty cells
        assert {row["r_re"] for row in rows.values()} == {""}
        assert path.read_text().splitlines()[0] == "label,r_src,nr_src,r_re,nr_re"

    def test_means_and_metrics_headers_stable(self, tmp_path):
        report.write_means_csv(tmp_path / "means.csv", [])
        assert (tmp_path / "means.csv").read_text().splitlines()[0] == (
            "feature,population,mean,n,absent"
        )
        report.write_metrics_csv(tmp_path / "metrics.csv", [])
        assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == (
            ",".join(report.METRICS_HEADER)
        )


    def test_shap_points_write_phi_below_the_floor_as_zero(self, tmp_path):
        path = tmp_path / "shap_e.csv"
        phi = np.array([[-0.0, 1e-13, -1e-12, 1e-12]])
        names = ["a", "b", "c", "d"]
        report.write_shap_points_csv(path, names, [("reactions", ["t1"], np.ones((1, 4)), phi, phi > 0)])
        written = [row["phi"] for row in report.read_csv_rows(path)]
        assert written == ["0", "0", "-1e-12", "1e-12"]

    def test_shap_rankings_written_to_ten_digits_in_their_own_order(self, tmp_path):
        # 0.0016875 summed in two orders: the last bits differ, the written
        # values do not, so the tie goes to the feature name
        ranking = [("surprise", 0.0016875000000000002), ("affect", 0.0016874999999999998), ("wc", 0.3)]
        entries = report.ranking_entries(ranking)
        assert entries == [
            {"rank": 1, "feature": "wc", "mean_abs_phi": 0.3},
            {"rank": 2, "feature": "affect", "mean_abs_phi": 0.0016875},
            {"rank": 3, "feature": "surprise", "mean_abs_phi": 0.0016875},
        ]
        path = tmp_path / "shap_rankings.json"
        report.write_json(path, {"e": {"sources": entries}})
        assert '"mean_abs_phi": 0.0016875,' in path.read_text()
        assert report.ranking_entries([("x", 1 / 3)])[0]["mean_abs_phi"] == 0.3333333333


# writes 20,000 rows, says so once most of them have reached the temp file,
# then stalls until it is killed
KILLED_WRITER = """
import sys, time
from rumourlens import report

def rows():
    for i in range(20000):
        yield [i, "x" * 40]
    print("writing", flush=True)
    time.sleep(60)
    yield ["never written"]

report.write_csv(sys.argv[1], ["i", "pad"], rows())
"""


class TestRunFiles:
    @pytest.mark.parametrize("previous", [b"i,pad\n0,old\n", None])
    def test_killed_write_leaves_previous_file_whole(self, tmp_path, previous):
        path = tmp_path / "table.csv"
        if previous is not None:
            path.write_bytes(previous)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        child = subprocess.Popen(
            [sys.executable, "-c", KILLED_WRITER, str(path)], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            assert child.stdout.readline() == "writing\n"
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdout.close()
        if previous is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == previous
        # the rows written before the kill sit beside the target; the next
        # write of the file replaces them
        assert (tmp_path / "table.csv.tmp").stat().st_size > 100_000
        report.write_csv(path, ["i"], [[1]])
        assert path.read_bytes() == b"i\n1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]

    def test_failed_write_removes_temp_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"i\n0\n")

        def rows():
            yield [1]
            raise ValueError("row 2 cannot be formatted")

        with pytest.raises(ValueError, match="row 2"):
            report.write_csv(path, ["i"], rows())
        assert path.read_bytes() == b"i\n0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]

    def test_json_and_text_writers(self, tmp_path):
        report.write_json(tmp_path / "a.json", {"b": [1, 2], "a": None})
        assert (tmp_path / "a.json").read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'
        assert report.read_json(tmp_path / "a.json") == {"a": None, "b": [1, 2]}
        report.write_text(tmp_path / "r.md", "# \u2713\nline\r\n")
        assert (tmp_path / "r.md").read_bytes() == "# \u2713\nline\r\n".encode("utf-8")

    @pytest.mark.parametrize("text", ['{"stages": ', "", "\udcff"])
    def test_read_json_names_the_file(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: "):
            report.read_json(path)


def ks_row(feature, event, pair, p_value, significant):
    """One KS row as `stats.significance_matrix` gives it."""
    return [feature, event, pair, 5, 5, 0.5, p_value, 1.0, 2.0, significant]


def write_run(out, ks=(), emotions=True, metrics=(), rankings=None):
    """A run directory holding compare's files (`ks` rows in
    ks_sources.csv, emotions.csv unless `emotions` is false) and, where
    given, train's `metrics` rows and explain's `rankings`."""
    report.write_partitions_csv(out / report.PARTITIONS_CSV, [PartitionCounts("e1", 1, 2, 3, 4)])
    report.write_ks_csv(out / report.KS_SOURCES_CSV, list(ks))
    report.write_ks_csv(out / report.KS_REACTIONS_CSV, [])
    report.write_ks_csv(out / report.KS_AGGREGATED_CSV, [])
    report.write_means_csv(out / report.MEANS_CSV, [["wc", pop, 1.5, 3, 0] for pop in POPULATIONS])
    if emotions:
        shares = {"r_src": {lab: (100.0 if lab == "fear" else 0.0) for lab in EMOTION_FEATURES}}
        report.write_emotions_csv(out / report.EMOTIONS_CSV, shares)
    if metrics:
        report.write_metrics_csv(out / report.METRICS_CSV, list(metrics))
    if rankings is not None:
        report.write_json(out / report.SHAP_RANKINGS_JSON, rankings)


COMPARED = {stage: True for stage in ("ingest", "featurize", "compare")}
ALL_DONE = {**COMPARED, "train": True, "explain": True}


class TestMarkdown:
    def test_skipped_sections_named(self, tmp_path):
        # no emotion table, train and explain not marked: their files, if
        # any, are not read
        write_run(tmp_path, emotions=False, metrics=[["e1", "sources", 8, 2, 4, 0.5, 0.1, 1, 1, 1, 1]])
        text = report.render_markdown(tmp_path, 0.05, COMPARED)
        assert "_skipped: no emotion provider_" in text
        assert "_skipped: training stage not run_" in text
        assert "_skipped: explain stage not run_" in text
        assert "| e1 | sources |" not in text

    def test_empty_sections_named(self, tmp_path):
        write_run(tmp_path, rankings={})
        report.write_metrics_csv(tmp_path / report.METRICS_CSV, [])
        text = report.render_markdown(tmp_path, 0.05, ALL_DONE)
        assert "(no trainable events)" in text
        assert "(no explanations computed)" in text
        assert "(no comparable cells)" in text

    def test_significance_marks(self, tmp_path):
        ks = [ks_row("wc", "e1", "sources", 0.001, True), ks_row("wc", "e2", "sources", 0.9, False)]
        write_run(tmp_path, ks=ks)
        report.write_ks_csv(
            tmp_path / report.KS_AGGREGATED_CSV, [ks_row("wc", "aggregated", "sources", 0.04, True)]
        )
        text = report.render_markdown(tmp_path, 0.05, COMPARED)
        # the pooled column comes last, whatever the event names
        assert "| feature | e1 | e2 | aggregated |" in text
        assert "| wc | 0.001 ✓ | 0.9 ✗ | 0.04 ✓ |" in text

    def test_marks_follow_the_printed_alpha(self, tmp_path):
        # compare flagged the cells at its own alpha; the report marks them
        # at the alpha it prints
        ks = [
            ks_row("wc", "e1", "sources", 0.00005, True),
            ks_row("wc", "e2", "sources", 0.001, True),
            ks_row("wc", "e3", "sources", 0.08, False),
        ]
        write_run(tmp_path, ks=ks)
        text = report.render_markdown(tmp_path, 0.0001, COMPARED)
        assert "Significance threshold: p < 0.0001 " in text
        assert "| wc | 5e-05 ✓ | 0.001 ✗ | 0.08 ✗ |" in text
        text = report.render_markdown(tmp_path, 0.1, COMPARED)
        assert "| wc | 5e-05 ✓ | 0.001 ✓ | 0.08 ✓ |" in text

    def test_render_is_deterministic(self, tmp_path):
        metrics = [["e1", "sources", 8, 2, 4, 0.75, 0.25, 0.5, 0.25, 0.5, 1 / 3]]
        rankings = {"e1": {"sources": report.ranking_entries([("wc", 0.3), ("affect", 1 / 7)])}}
        ks = [ks_row("wc", "e1", "sources", 0.5, False)]
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            write_run(tmp_path / name, ks=ks, metrics=metrics, rankings=rankings)
        text = report.render_markdown(tmp_path / "a", 0.05, ALL_DONE)
        assert text == report.render_markdown(tmp_path / "b", 0.05, ALL_DONE)
        assert "| e1 | sources | 0.50 | 0.25 | 0.50 | 0.33 | 0.75±0.25 |" in text
        assert "### e1 (sources)\n\n| rank | feature | mean |phi| |\n| --- | --- | --- |\n| 1 | wc | 0.3 |\n" in text
        assert "| fear | 100.00% | — | — | — |" in text
