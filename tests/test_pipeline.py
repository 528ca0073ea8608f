import json
import threading
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from rumourlens import classify, pipeline, shapley
from rumourlens.config import RunConfig, build_config, parse_config_file
from rumourlens.emotions import CassetteProvider, LexiconFallbackProvider, RemoteProvider
from rumourlens.errors import AdditivityError, FeatureMismatch
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
            "shap_ferrydelay.csv", "shap_parkfire.csv", "shap_statuegift.csv", "shap_rankings.json",
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


def test_threads_setting_does_not_change_models(tmp_path):
    # the fixture config at each threads setting; a 10-tree, 3-fold forest
    # keeps the two training runs short
    models = {}
    for threads in (1, 2):
        cfg = fixture_config(
            tmp_path, threads=threads, n_trees=10, k_folds=3, run_id=f"threads-{threads}"
        )
        pipeline.stage_ingest(cfg)
        pipeline.stage_featurize(cfg)
        pipeline.stage_train(cfg)
        models[threads] = {p.name: p.read_bytes() for p in cfg.run_dir().glob("model_*.json")}
    assert len(models[1]) == 6  # 3 events x 2 scopes
    assert models[1] == models[2]


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


def test_feature_check_names_a_missing_column(tmp_path):
    model = classify.RandomForestModel(
        trees=[], config=classify.ForestConfig(), seed=0, feature_names=("a", "b"), medians={}
    )
    pipeline._check_model_features(model, ["a", "b"], tmp_path / "m.json", "e", "sources")
    message = r"feature column 1 is 'b' in m\.json but absent in features\.csv$"
    with pytest.raises(FeatureMismatch, match=message):
        pipeline._check_model_features(model, ["a"], tmp_path / "m.json", "e", "sources")
