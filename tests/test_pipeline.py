import json
import threading
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from rumourlens import classify, pipeline, report, shapley, textprep
from rumourlens.config import RunConfig, build_config, parse_config_file
from rumourlens.emotions import CassetteProvider, LexiconFallbackProvider, RemoteProvider
from rumourlens.errors import AdditivityError, FeatureMismatch, MissingArtifact, ParseError
from rumourlens.pipeline import make_emotion_provider
from rumourlens.senticnet import fetch_concepts, load_sentic_table
from tests.conftest import ROOT


class TestProviderSelection:
    def test_none(self):
        cfg = RunConfig(dataset="x", emotion_provider="none")
        assert make_emotion_provider(cfg) is None

    def test_fallback(self):
        cfg = RunConfig(dataset="x", emotion_provider="fallback")
        assert isinstance(make_emotion_provider(cfg), LexiconFallbackProvider)

    def test_cassette(self, tmp_path):
        tape = tmp_path / "tape.jsonl"
        tape.write_text("")
        cfg = RunConfig(dataset="x", emotion_provider="cassette", emotion_cassette=str(tape))
        assert isinstance(make_emotion_provider(cfg), CassetteProvider)

    def test_remote(self):
        cfg = RunConfig(dataset="x", emotion_provider="remote", emotion_url="http://h")
        provider = make_emotion_provider(cfg)
        assert isinstance(provider, RemoteProvider)
        assert provider.max_in_flight == 4


class _SenticHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        concept = self.path.rsplit("/", 1)[-1]
        if concept == "unknownword":
            self.send_response(404)
            self.end_headers()
            return
        body = json.dumps(
            {
                "pleasantness": 0.25,
                "attention": -0.1,
                "sensitivity": 0.0,
                "aptitude": 0.5,
                "polarity": 0.3,
            }
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestSenticFetcher:
    def test_fetch_and_cache(self, tmp_path):
        server = HTTPServer(("127.0.0.1", 0), _SenticHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{server.server_port}"
            cache = tmp_path / "table.csv"
            table = fetch_concepts(url, ["good_news", "unknownword", "calm"], cache_path=cache)
            assert set(table.entries) == {"good_news", "calm"}
            reloaded = load_sentic_table(cache)
            assert reloaded.entries["good_news"][0] == pytest.approx(0.25)
        finally:
            server.shutdown()
            server.server_close()


class TestAdditivityCheck:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory, mini_pheme_dir):
        cfg = RunConfig(
            dataset=str(mini_pheme_dir),
            seed=42,
            threads=1,
            n_trees=10,
            k_folds=3,
            out_dir=str(tmp_path_factory.mktemp("out")),
            run_id="t",
        )
        pipeline.stage_ingest(cfg)
        pipeline.stage_featurize(cfg)
        pipeline.stage_train(cfg)
        return cfg

    def test_fixture_run_passes(self, trained):
        written = pipeline.stage_explain(trained)
        assert [p.name for p in written] == [
            "shap_ferrydelay.csv", "shap_parkfire.csv", "shap_rankings.json", "shap_statuegift.csv",
        ]

    def test_perturbed_phi_raises(self, trained, monkeypatch):
        explain_rows = shapley.TreeShapExplainer.explain_rows

        def perturbed(self, X):
            phi = explain_rows(self, X)
            phi[0, 0] += 1e-6
            return phi

        monkeypatch.setattr(shapley.TreeShapExplainer, "explain_rows", perturbed)
        message = r"stage 'explain', event 'ferrydelay', scope 'sources': tweet '\d+' .* = 1e-06,"
        with pytest.raises(AdditivityError, match=message):
            pipeline.stage_explain(trained)


def fixture_config(tmp_path, **overrides):
    """The fixture config, writing under `tmp_path`."""
    fixture = parse_config_file(ROOT / "configs" / "fixture.conf")
    fixture["dataset"] = str(ROOT / fixture["dataset"])
    return build_config(fixture, env={}, overrides={"out_dir": str(tmp_path), **overrides})


def test_every_run_file_is_written_through_the_opener(tmp_path, monkeypatch):
    # a whole run with textprep's one opener recorded: every file in the run
    # directory went through it, and no temp file is left behind
    opened = []
    open_run_file = textprep.open_run_file

    def recorded(path):
        opened.append(path.name)
        return open_run_file(path)

    monkeypatch.setattr(textprep, "open_run_file", recorded)
    cfg = fixture_config(tmp_path, n_trees=2, k_folds=3, run_id="opener")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
        pipeline.stage_all(cfg)
    files = sorted(p.name for p in cfg.run_dir().iterdir())
    assert files == sorted(set(opened))
    assert {"run_config.json", "manifest.json", "model_parkfire_sources.json", "report.md"} <= set(files)


def test_stage_all_returns_every_declared_file_in_stage_order(tmp_path):
    cfg = fixture_config(tmp_path, n_trees=2, k_folds=3, run_id="all")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
        written = pipeline.stage_all(cfg)
    events = ("ferrydelay", "parkfire", "statuegift")
    assert [p.name for p in written] == [
        "partitions.csv", "run_config.json",
        "features.csv",
        "emotions.csv", "ks_aggregated.csv", "ks_reactions.csv", "ks_sources.csv", "means.csv",
        "metrics.csv", *(f"model_{event}_{scope}.json" for event in events for scope in ("reactions", "sources")),
        "shap_ferrydelay.csv", "shap_parkfire.csv", "shap_rankings.json", "shap_statuegift.csv",
        "report.md",
    ]
    assert {p.name for p in cfg.run_dir().iterdir()} == {p.name for p in written} | {pipeline.MANIFEST}


def test_threads_setting_does_not_change_models(tmp_path):
    # a whole fixture run in process and with two workers: every run file
    # but the config is byte-identical, and the same warnings come in the
    # same order, each train warning named by its model. Every model is
    # explained in a worker too. Two reply texts, each under a rumour and a
    # non-rumour source, make identical rows of both classes, which the
    # fits warn of in the workers; 10 folds are more than the smaller
    # populations hold, which the stage warns of; 10 trees keep it short
    dataset = tmp_path / "twins.jsonl"
    lines = (ROOT / "fixtures" / "mini-pheme.jsonl").read_text(encoding="utf-8").splitlines()
    for i, (parent, label) in enumerate([("580000007", "rumour"), ("580000096", "non-rumour")] * 2):
        tweet = {"id": f"9{i}", "text": "same words again", "event": "parkfire", "role": "reaction"}
        lines.append(json.dumps({**tweet, "label": label, "parent_id": parent}))
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    runs, warned = {}, {}
    for threads in (1, 2):
        cfg = fixture_config(
            tmp_path, dataset=str(dataset), dataset_format="jsonl", threads=threads, n_trees=10, k_folds=10,
            run_id=f"threads-{threads}",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pipeline.stage_all(cfg)
        runs[threads] = {
            p.name: p.read_bytes() for p in cfg.run_dir().iterdir() if p.name != pipeline.RUN_CONFIG_JSON
        }
        warned[threads] = [(w.category, str(w.message), w.filename) for w in caught]
    assert len([name for name in runs[1] if name.startswith("model_")]) == 6  # 3 events x 2 scopes
    assert len([name for name in runs[1] if name.startswith("shap_")]) == 4
    assert runs[1] == runs[2]
    assert warned[1] == warned[2]
    messages = [message for _, message, _ in warned[1]]
    assert "parkfire/sources: reducing folds from 10 to 4" in messages
    assert "parkfire/reactions: unsplittable node with mixed labels (identical rows); majority leaf used" in messages


def test_exclusion_warning_names_the_stage(tmp_path):
    # the fixture plus an event with rumour sources only; each stage that
    # drops it says so, at the stage's caller
    dataset = tmp_path / "onesided.jsonl"
    lines = (ROOT / "fixtures" / "mini-pheme.jsonl").read_text(encoding="utf-8").splitlines()
    for i in range(3):
        tweet = {"id": f"9{i}", "text": "smoke over the bridge", "event": "onesided"}
        lines.append(json.dumps({**tweet, "role": "source", "label": "rumour", "parent_id": None}))
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = fixture_config(
        tmp_path, dataset=str(dataset), dataset_format="jsonl", n_trees=2, k_folds=3,
        run_id="onesided",
    )
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)
    for stage in ("compare", "train", "explain"):
        message = rf"^{stage}: event 'onesided' lacks a rumour or non-rumour source .*; excluded$"
        with pytest.warns(UserWarning, match=message) as caught:
            getattr(pipeline, f"stage_{stage}")(cfg)
        excluded = [w for w in caught if "onesided" in str(w.message)]
        assert len(excluded) == 1
        assert excluded[0].filename == __file__


def test_fold_reduction_warning_names_the_model(tmp_path):
    # each event has 4 training sources of its minority class, so 10 folds
    # become 4; the warning points at the caller of stage_train
    cfg = fixture_config(tmp_path, n_trees=2, run_id="folds")
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)
    message = r"^(ferrydelay|parkfire|statuegift)/sources: reducing folds from 10 to 4$"
    with pytest.warns(UserWarning, match=message) as caught:
        pipeline.stage_train(cfg)
    folds = [w for w in caught if "reducing folds" in str(w.message)]
    assert {str(w.message).split(":")[0] for w in folds} == {
        "ferrydelay/sources", "parkfire/sources", "statuegift/sources",
    }
    assert {w.filename for w in folds} == {__file__}


def test_final_fit_warning_names_the_model(tmp_path):
    # every source of the event has the same text under both labels, so no
    # node can split: cross-validation and the final fit both warn, and
    # each warning names the model and points at the caller of stage_train
    dataset = tmp_path / "twins.jsonl"
    lines = []
    for i in range(12):
        label = "rumour" if i % 2 else "non-rumour"
        tweet = {"id": f"7{i}", "text": "smoke over the bridge", "event": "twins"}
        lines.append(json.dumps({**tweet, "role": "source", "label": label, "parent_id": None}))
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = fixture_config(
        tmp_path, dataset=str(dataset), dataset_format="jsonl", scope="sources", n_trees=2,
        k_folds=3, run_id="twins",
    )
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pipeline.stage_train(cfg)
    unsplittable = [w for w in caught if "unsplittable node" in str(w.message)]
    # 3 folds and the final fit, one warning per tree
    assert len(unsplittable) == 4 * 2
    for w in unsplittable:
        assert str(w.message).startswith("twins/sources: unsplittable node with mixed labels")
        assert w.filename == __file__


def test_explain_rejects_renamed_feature_column(tmp_path):
    # a features.csv whose header no longer matches the trained models:
    # explain names the model file and the first column that differs
    cfg = fixture_config(tmp_path, n_trees=2, k_folds=3, run_id="renamed")
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
        pipeline.stage_train(cfg)
    features = cfg.run_dir() / "features.csv"
    header, rest = features.read_text(encoding="utf-8").split("\n", 1)
    features.write_text(header.replace(",WC,", ",renamed,") + "\n" + rest, encoding="utf-8")
    message = (
        r"^stage 'explain', event 'ferrydelay', scope 'sources': feature column 0 is 'WC' "
        r"in model_ferrydelay_sources\.json but 'renamed' in features\.csv$"
    )
    with pytest.raises(FeatureMismatch, match=message):
        pipeline.stage_explain(cfg)
    assert not (cfg.run_dir() / "shap_ferrydelay.csv").exists()


def test_explain_rejects_a_cyclic_model(tmp_path):
    # a model file whose first tree sends node 0 back to itself: explain
    # stops before routing any row and names the model file
    cfg = fixture_config(tmp_path, n_trees=2, k_folds=3, run_id="cyclic")
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
        pipeline.stage_train(cfg)
    path = cfg.run_dir() / "model_parkfire_reactions.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["trees"][0]["left"][0] = 0
    path.write_text(json.dumps(payload), encoding="utf-8")
    message = (
        r"^stage 'explain', event 'parkfire', scope 'reactions': model_parkfire_reactions\.json: "
        r"tree 0: node 0: left child 0 not in \(0, \d+\)$"
    )
    with pytest.raises(ParseError, match=message):
        pipeline.stage_explain(cfg)


def test_explain_reads_every_model_before_it_walks_any(tmp_path, monkeypatch):
    # after a complete run, the last of six model files is cut short:
    # explain stops with the ParseError that names it, before any model is
    # walked, and leaves no shap_* file
    cfg = fixture_config(tmp_path, n_trees=2, k_folds=3, run_id="malformed")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
        pipeline.stage_all(cfg)
    out = cfg.run_dir()
    assert len(list(out.glob("model_*.json"))) == 6
    path = out / "model_statuegift_sources.json"
    path.write_text(path.read_text(encoding="utf-8")[:-1], encoding="utf-8")
    walked = []
    monkeypatch.setattr(shapley, "explain_block", lambda *job: walked.append(job))
    message = (
        r"^stage 'explain', event 'statuegift', scope 'sources': model_statuegift_sources\.json: "
        r"invalid JSON: Expecting ',' delimiter: "
    )
    with pytest.raises(ParseError, match=message):
        pipeline.stage_explain(cfg)
    assert walked == []
    assert not list(out.glob("shap_*"))


def test_feature_check_names_a_missing_column(tmp_path):
    model = classify.fit_forest(np.eye(2), np.arange(2), ("a", "b"), classify.ForestConfig(n_trees=1))
    pipeline._check_model_features(model, ["a", "b"], tmp_path / "m.json", "e", "sources")
    message = r"feature column 1 is 'b' in m\.json but absent in features\.csv$"
    with pytest.raises(FeatureMismatch, match=message):
        pipeline._check_model_features(model, ["a"], tmp_path / "m.json", "e", "sources")


def test_train_leaves_no_stale_model(tmp_path):
    # a train at a split ratio that leaves too few sources to split skips
    # the sources models: the ones an earlier run wrote are removed, so the
    # run directory holds a model file for exactly the models in
    # metrics.csv and explain ranks only those; with the reactions models
    # left out too, no event keeps the points file of an earlier explain
    cfg = fixture_config(tmp_path, n_trees=5, k_folds=2, run_id="stale")
    narrow = fixture_config(tmp_path, n_trees=5, k_folds=2, run_id="stale", split_ratio=0.3)
    sources = fixture_config(
        tmp_path, n_trees=5, k_folds=2, run_id="stale", split_ratio=0.3, scope="sources"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # skipped models, fewer folds, unsplittable nodes
        pipeline.stage_all(cfg)
        assert len(list(cfg.run_dir().glob("model_*.json"))) == 6
        pipeline.stage_train(narrow)
        pipeline.stage_explain(narrow)
    metrics = report.read_csv_rows(cfg.run_dir() / report.METRICS_CSV)
    trained = {(row["event"], row["scope"]) for row in metrics}
    assert trained == {(event, "reactions") for event in ("ferrydelay", "parkfire", "statuegift")}
    models = {p.name for p in cfg.run_dir().glob("model_*.json")}
    assert models == {f"model_{event}_{scope}.json" for event, scope in trained}
    rankings = report.read_json(cfg.run_dir() / report.SHAP_RANKINGS_JSON)
    assert {(event, scope) for event in rankings for scope in rankings[event]} == trained
    assert {p.name for p in cfg.run_dir().glob("shap_*.csv")} == {
        f"shap_{event}.csv" for event, _scope in trained
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # skipped models
        pipeline.stage_train(sources)
        pipeline.stage_explain(sources)
    assert not list(cfg.run_dir().glob("model_*.json"))
    assert not list(cfg.run_dir().glob("shap_*.csv"))
    assert report.read_json(cfg.run_dir() / report.SHAP_RANKINGS_JSON) == {}


def test_failed_explain_leaves_nothing_to_report(tmp_path):
    # a complete explain, then one that writes the points files of the
    # first two events and stops at the third with FeatureMismatch: none of
    # explain's files is left, and report lists explain as skipped
    cfg = fixture_config(tmp_path, n_trees=2, k_folds=3, run_id="failed")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
        pipeline.stage_all(cfg)
    out = cfg.run_dir()
    assert len(list(out.glob("shap_*.csv"))) == 3
    path = out / "model_statuegift_reactions.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    # the model file stays whole: its medians are keyed by its own names
    payload["medians"]["renamed"] = payload["medians"].pop(payload["feature_names"][0])
    payload["feature_names"][0] = "renamed"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FeatureMismatch, match=r"^stage 'explain', event 'statuegift', scope 'reactions'"):
        pipeline.stage_explain(cfg)
    assert not list(out.glob("shap_*"))
    assert "explain" not in json.loads((out / pipeline.MANIFEST).read_text(encoding="utf-8"))["stages"]
    pipeline.stage_report(cfg)
    text = (out / report.REPORT_MD).read_text(encoding="utf-8")
    assert "_skipped: explain stage not run_" in text
    assert "### ferrydelay" not in text


def test_refused_stage_deletes_nothing(tmp_path):
    # explain before train is refused before it clears anything, even
    # files that match its declared outputs
    cfg = fixture_config(tmp_path, run_id="refused")
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)
    out = cfg.run_dir()
    (out / "shap_ferrydelay.csv").write_text("earlier points\n", encoding="utf-8")
    (out / report.SHAP_RANKINGS_JSON).write_text("{}\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(MissingArtifact, match="^stage 'explain' needs train to run first"):
        pipeline.stage_explain(cfg)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_stage_drops_the_marks_of_the_stages_that_need_it(tmp_path, monkeypatch):
    # a complete run, a featurize rerun that succeeds and keeps every mark
    # downstream but report's, then a train stopped midway: explain, which
    # needs train, loses its mark and its files with train's, so report
    # lists both as skipped; compare, which does not need train, keeps its
    cfg = fixture_config(tmp_path, n_trees=2, k_folds=3, run_id="interrupted")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
        pipeline.stage_all(cfg)
    out = cfg.run_dir()
    every = {stage: True for stage in pipeline.STAGES if stage != "report"}
    pipeline.stage_featurize(cfg)
    assert json.loads((out / pipeline.MANIFEST).read_text(encoding="utf-8"))["stages"] == every
    pipeline.stage_report(cfg)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(classify, "fit_balanced", interrupted)
    with pytest.raises(KeyboardInterrupt):
        pipeline.stage_train(cfg)
    stages = json.loads((out / pipeline.MANIFEST).read_text(encoding="utf-8"))["stages"]
    assert stages == {stage: True for stage in ("ingest", "featurize", "compare")}
    assert not list(out.glob("model_*.json")) and not list(out.glob("shap_*"))
    assert not (out / report.METRICS_CSV).exists() and not (out / report.REPORT_MD).exists()
    pipeline.stage_report(cfg)
    text = (out / report.REPORT_MD).read_text(encoding="utf-8")
    assert "_skipped: training stage not run_" in text
    assert "_skipped: explain stage not run_" in text
    assert "### " not in text


def test_stage_rerun_drops_the_report(tmp_path):
    # report.md renders every other stage's files, so a compare that
    # succeeds after a full run leaves no report behind, nor report's mark
    cfg = fixture_config(tmp_path, n_trees=2, k_folds=3, run_id="rerun")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fewer folds, unsplittable nodes
        pipeline.stage_all(cfg)
    out = cfg.run_dir()
    assert (out / report.REPORT_MD).exists()
    pipeline.stage_compare(cfg)
    stages = json.loads((out / pipeline.MANIFEST).read_text(encoding="utf-8"))["stages"]
    assert stages == {stage: True for stage in pipeline.STAGES if stage != "report"}
    assert not (out / report.REPORT_MD).exists()


def test_downstream_stages_follow_the_table():
    assert pipeline._downstream("ingest") == list(pipeline.STAGES)
    assert pipeline._downstream("featurize") == ["featurize", "compare", "train", "explain", "report"]
    assert pipeline._downstream("compare") == ["compare", "report"]
    assert pipeline._downstream("train") == ["train", "explain"]
    assert pipeline._downstream("report") == ["report"]
