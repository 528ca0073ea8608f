"""Regression pins against checked-in golden resources, each built once
from a reviewed run and verified here by an independent recomputation
where one exists."""

import json
import math
from collections import Counter

import pytest

from rumourlens import report
from rumourlens.corpus import Label, Role, load_pheme_tree, partition
from rumourlens.emotions import CassetteProvider
from rumourlens.readability import flesch
from rumourlens.textprep import clean_for_readability, load_easy_words, text_stats, tokenize
from tests.conftest import GOLDENS, RESOURCES, texts_emotion_table


@pytest.fixture(scope="module")
def textprep_golden():
    with open(RESOURCES / "textprep_golden.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestTokenizationGolden:
    def test_token_kind_counts(self, mini_pheme_dir, textprep_golden):
        for corpus in load_pheme_tree(mini_pheme_dir):
            for t in corpus.sources + corpus.reactions:
                kinds = Counter(tok.kind.value for tok in tokenize(t.text))
                assert dict(kinds) == textprep_golden["tweets"][t.id]["kinds"], t.id

    def test_cleaned_text(self, mini_pheme_dir, textprep_golden):
        for corpus in load_pheme_tree(mini_pheme_dir):
            for t in corpus.sources + corpus.reactions:
                assert clean_for_readability(t.text) == textprep_golden["tweets"][t.id]["cleaned"], t.id

    def test_flesch_mean_over_rumour_sources(self, mini_pheme_dir, textprep_golden):
        # recomputed with the independently coded Decimal reference,
        # then compared to the frozen value
        from tests.test_readability import reference_scores

        values = []
        easy_words = load_easy_words()
        for corpus in load_pheme_tree(mini_pheme_dir):
            for t in corpus.sources:
                if t.label is Label.RUMOUR:
                    stats = text_stats(clean_for_readability(t.text), easy_words)
                    values.append((flesch(stats), reference_scores(stats)[0]))
        lib_mean = sum(v for v, _ in values) / len(values)
        ref_mean = sum(r for _, r in values) / len(values)
        assert lib_mean == pytest.approx(ref_mean, abs=1e-6)
        assert lib_mean == pytest.approx(textprep_golden["flesch_mean_rumour_sources"], abs=1e-9)


class TestMeansAggregationOracle:
    def test_means_csv_matches_plain_recomputation(self):
        # independent aggregation: group the golden feature matrix by
        # population and average with plain python sums
        table = report.read_features_csv(GOLDENS / "fixture_run" / "features.csv")
        sums: dict = {}
        for label, role, values in zip(table.label.tolist(), table.role.tolist(), table.X.tolist()):
            side = "r" if label == "rumour" else "nr"
            kind = "src" if role == "source" else "re"
            pop = f"{side}_{kind}"
            for name, value in zip(table.names, values):
                bucket = sums.setdefault((name, pop), [0.0, 0, 0])
                if math.isnan(value):
                    bucket[2] += 1
                else:
                    bucket[0] += value
                    bucket[1] += 1
        means_rows = report.read_csv_rows(GOLDENS / "fixture_run" / "means.csv")
        assert means_rows
        for row in means_rows:
            total, n, absent = sums[(row["feature"], row["population"])]
            assert int(row["n"]) == n
            assert int(row["absent"]) == absent
            if row["mean"] == "":
                assert n == 0
            else:
                assert float(row["mean"]) == pytest.approx(total / n, rel=1e-9)


class TestEmotionCassetteReplay:
    def test_replayed_table_matches_golden(self, mini_pheme_dir):
        populations = {"r_src": [], "nr_src": [], "r_re": [], "nr_re": []}
        for corpus in load_pheme_tree(mini_pheme_dir):
            part = partition(corpus)
            for pop in populations:
                populations[pop].extend(t.text for t in getattr(part, pop))
        provider = CassetteProvider(RESOURCES / "emotion_cassette.jsonl")
        table = texts_emotion_table(populations, provider)
        with open(RESOURCES / "emotion_cassette_table.json", encoding="utf-8") as fh:
            golden = json.load(fh)
        assert set(table) == set(golden)
        for pop in golden:
            for label, value in golden[pop].items():
                assert table[pop][label] == pytest.approx(value, abs=1e-9)
            assert sum(table[pop].values()) == pytest.approx(100.0, abs=0.01)
