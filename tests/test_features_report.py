import math

import numpy as np
import pytest

from rumourlens import report
from rumourlens.corpus import EventCorpus, Label, PartitionCounts, Role, Tweet
from rumourlens.emotions import LexiconFallbackProvider
from rumourlens.features import (
    EMOTION_FEATURES,
    FeatureTable,
    Featurizer,
    emotion_argmax,
    feature_names,
)
from rumourlens.readability import SCORE_NAMES
from rumourlens.senticnet import DIMENSIONS


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
        assert table.column("WC")[1] == 0.0
        assert math.isnan(table.column("function")[1])
        for name in SCORE_NAMES:
            assert math.isnan(table.column(name)[1])

    def test_punctuation_only_readability_absent(self, featurizer):
        table = featurizer.featurize_corpus(toy_corpus())
        assert table.column("WC")[2] == 0.0
        assert math.isnan(table.column("flesch_score")[2])

    def test_emotion_scores_attached(self, featurizer):
        table = featurizer.featurize_corpus(toy_corpus())
        scores = table.X[0, [table.names.index(lab) for lab in EMOTION_FEATURES]]
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)
        assert EMOTION_FEATURES[emotion_argmax(scores.reshape(1, -1))[0]] == "fear"

    def test_emotion_argmax_ties_and_absence(self):
        scores = np.array([[0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0], [np.nan] * 7, [1 / 7] * 7])
        assert emotion_argmax(scores).tolist() == [0, -1, 0]
        assert emotion_argmax(np.empty((0, 7))).tolist() == []

    def test_no_provider_means_no_emotion_columns(self, demo_lexicon, demo_sentic_table):
        f = Featurizer(demo_lexicon, demo_sentic_table, emotion_provider=None)
        table = f.featurize_corpus(toy_corpus())
        assert "anger" not in f.names
        assert table.names == f.names
        assert table.X.shape == (3, len(f.names))


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
        assert math.isnan(loaded.column("function")[1])
        assert loaded.column("WC")[0] == table.column("WC")[0]
        assert loaded.empty_text.tolist() == [False, True, False]

    def test_header_carries_absence_sentinels(self, featurizer, tmp_path):
        path = tmp_path / "features.csv"
        report.write_features_csv(path, FeatureTable.concat(featurizer.names, []))
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

    def test_concat_keeps_row_order(self):
        a, b = small_table([[1.0, 2.0]]), small_table([[3.0, np.nan], [5.0, 6.0]])
        both = FeatureTable.concat(["a", "b"], [a, b])
        assert both.tweet_id.tolist() == ["t0", "t0", "t1"]
        assert np.array_equal(both.X, np.vstack([a.X, b.X]), equal_nan=True)
        assert same_table(both.take(np.array([1, 2])), b)


class TestTableSchemas:
    def test_partitions_round_trip(self, tmp_path):
        counts = [PartitionCounts("e1", 5, 4, 10, 20), PartitionCounts("e2", 0, 0, 0, 0)]
        path = tmp_path / "partitions.csv"
        report.write_partitions_csv(path, counts)
        assert report.read_partitions_csv(path) == counts
        assert path.read_text().splitlines()[0] == "event,nr_src,r_src,nr_re,r_re,total"

    def test_ks_csv_schema(self, tmp_path):
        from rumourlens.stats import significance_matrix

        samples = {"wc": {"e1": ([1.0, 2.0], [3.0, 4.0])}}
        m = significance_matrix(samples, alpha=0.05, population_pair="sources")
        path = tmp_path / "ks.csv"
        report.write_ks_csv(path, [m])
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
        loaded = report.read_emotions_csv(path)
        assert loaded["r_src"]["fear"] == 100.0
        assert loaded["nr_re"]["joy"] == pytest.approx(100.0 / 7)
        assert "r_re" not in loaded
        assert path.read_text().splitlines()[0] == "label,r_src,nr_src,r_re,nr_re"

    def test_means_and_metrics_headers_stable(self, tmp_path):
        report.write_means_csv(tmp_path / "means.csv", {})
        assert (tmp_path / "means.csv").read_text().splitlines()[0] == (
            "feature,population,mean,n,absent"
        )
        report.write_metrics_csv(tmp_path / "metrics.csv", [])
        assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == (
            ",".join(report.METRICS_HEADER)
        )


class TestMarkdown:
    def test_skipped_sections_named(self):
        analysis = report.AnalysisReport(
            partitions=[PartitionCounts("e1", 1, 1, 1, 1)],
            skipped={"emotions": "no emotion provider", "train": "training stage not run",
                     "explain": "explain stage not run", "compare": "not run"},
        )
        text = report.render_markdown(analysis)
        assert "skipped: no emotion provider" in text
        assert "skipped: training stage not run" in text

    def test_significance_marks(self):
        rows = [
            {"feature": "wc", "event": "e1", "population_pair": "sources", "n1": "5",
             "n2": "5", "d_stat": "1", "p_value": "0.001", "mean_rumour": "1",
             "mean_nonrumour": "2", "significant": "true"},
            {"feature": "wc", "event": "e2", "population_pair": "sources", "n1": "5",
             "n2": "5", "d_stat": "0.2", "p_value": "0.9", "mean_rumour": "1",
             "mean_nonrumour": "1", "significant": "false"},
        ]
        analysis = report.AnalysisReport(ks_rows=rows)
        text = report.render_markdown(analysis)
        assert "0.001 ✓" in text
        assert "0.9 ✗" in text

    def test_render_is_deterministic(self):
        analysis = report.AnalysisReport(partitions=[PartitionCounts("e1", 1, 2, 3, 4)])
        assert report.render_markdown(analysis) == report.render_markdown(analysis)
