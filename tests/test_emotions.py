import json
import random
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from rumourlens.emotions import (
    LABELS,
    CassetteProvider,
    LexiconFallbackProvider,
    RecordingProvider,
    RemoteProvider,
    load_emotion_lexicon,
)
from rumourlens.errors import MalformedResponse, ParseError, ProviderUnavailable
from tests.conftest import texts_emotion_table


class TestFallback:
    def test_single_hit_puts_all_mass_on_fear(self):
        dist = LexiconFallbackProvider().classify(["terrified"])[0]
        assert dist.label == "fear"
        assert dist.scores["fear"] == 1.0
        assert all(dist.scores[lab] == 0.0 for lab in LABELS if lab != "fear")

    def test_no_hits_uniform_tie_to_anger(self):
        dist = LexiconFallbackProvider().classify(["zzz qqq"])[0]
        assert dist.low_confidence
        assert dist.label == "anger"
        for lab in LABELS:
            assert dist.scores[lab] == pytest.approx(1 / 7)

    def test_deterministic(self):
        provider = LexiconFallbackProvider()
        texts = ["so terrified and sad", "great happy news", "what a surprise!"]
        assert provider.classify(texts) == provider.classify(texts)

    def test_mixed_counts_normalized(self):
        dist = LexiconFallbackProvider().classify(["terrified terrified happy"])[0]
        assert dist.scores["fear"] == pytest.approx(2 / 3)
        assert dist.scores["joy"] == pytest.approx(1 / 3)
        assert dist.label == "fear"

    def test_string_word_list_rejected(self, tmp_path):
        # a string is not split into one-letter words
        path = tmp_path / "emotions.json"
        path.write_text('{"anger": "furious"}')
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: label 'anger': the word list "):
            load_emotion_lexicon(path)

    def test_normalization_property(self):
        lexicon = load_emotion_lexicon()
        vocab = sorted(set().union(*lexicon.values())) + ["zzz", "and", "the"]
        rng = random.Random(3)
        provider = LexiconFallbackProvider(lexicon)
        for _ in range(300):
            text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 12)))
            dist = provider.classify([text])[0]
            assert sum(dist.scores.values()) == pytest.approx(1.0, abs=1e-6)
            assert dist.label == max(LABELS, key=lambda lab: dist.scores[lab])


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    calls = 0

    def do_POST(self):
        _Handler.calls += 1
        length = int(self.headers["Content-Length"])
        texts = json.loads(self.rfile.read(length))["texts"]
        if _Handler.behavior == "flaky" and _Handler.calls == 1:
            self.send_response(503)
            self.end_headers()
            return
        if _Handler.behavior == "garbage":
            body = b"not json"
        else:
            results = []
            for text in texts:
                scores = {lab: 0.0 for lab in LABELS}
                scores["fear" if "fear" in text else "neutral"] = 1.0
                results.append({"label": max(scores, key=scores.get), "scores": scores})
            body = json.dumps(results).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behavior = "ok"
    _Handler.calls = 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestRemote:
    def test_round_trip(self, http_server):
        provider = RemoteProvider(http_server, retries=0, backoff=0)
        dists = provider.classify(["pure fear here", "calm report"])
        assert [d.label for d in dists] == ["fear", "neutral"]
        assert all(sum(d.scores.values()) == pytest.approx(1.0, abs=1e-6) for d in dists)

    def test_retry_on_5xx(self, http_server):
        _Handler.behavior = "flaky"
        provider = RemoteProvider(http_server, retries=2, backoff=0)
        dists = provider.classify(["calm report"])
        assert dists[0].label == "neutral"
        assert _Handler.calls == 2

    def test_unavailable_after_retries(self):
        provider = RemoteProvider("http://127.0.0.1:9", timeout=0.2, retries=1, backoff=0)
        with pytest.raises(ProviderUnavailable):
            provider.classify(["hello"])

    def test_malformed_response(self, http_server):
        _Handler.behavior = "garbage"
        provider = RemoteProvider(http_server, retries=0, backoff=0)
        with pytest.raises(MalformedResponse):
            provider.classify(["hello"])

    def test_order_preserved_across_batches(self, http_server):
        provider = RemoteProvider(http_server, retries=0, backoff=0, batch_size=2, max_in_flight=3)
        texts = [f"calm {i}" for i in range(7)] + ["fear now"]
        dists = provider.classify(texts)
        assert [d.label for d in dists] == ["neutral"] * 7 + ["fear"]


class TestCassette:
    def test_record_then_replay(self, http_server, tmp_path):
        cassette = tmp_path / "tape.jsonl"
        remote = RemoteProvider(http_server, retries=0, backoff=0)
        recorded = RecordingProvider(remote, cassette).classify(["fear here", "ok"])
        replayed = CassetteProvider(cassette).classify(["fear here", "ok"])
        assert [d.label for d in recorded] == [d.label for d in replayed]
        assert [d.scores for d in recorded] == [d.scores for d in replayed]

    def test_missing_entry(self, tmp_path):
        cassette = tmp_path / "tape.jsonl"
        cassette.write_text("")
        with pytest.raises(ProviderUnavailable):
            CassetteProvider(cassette).classify(["never recorded"])

    def test_line_that_is_not_json(self, tmp_path):
        cassette = tmp_path / "tape.jsonl"
        cassette.write_text('{"key": "k", "response": []}\nnot json\n')
        with pytest.raises(ParseError, match=rf"^{re.escape(str(cassette))}: line 2: "):
            CassetteProvider(cassette)

    @pytest.mark.parametrize("record", ['{"key": "k"}', '{"response": []}', '["k", []]'])
    def test_record_without_key_or_response(self, tmp_path, record):
        cassette = tmp_path / "tape.jsonl"
        cassette.write_text(record + "\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(cassette))}: line 1: not an object holding"):
            CassetteProvider(cassette)


class TestEmotionTable:
    def test_single_tweet_population(self):
        table = texts_emotion_table({"r_src": ["terrified!"]}, LexiconFallbackProvider())
        assert table["r_src"]["fear"] == 100.0

    def test_columns_sum_to_100(self):
        populations = {
            "r_src": ["terrified crowd", "sad loss", "no emotion words"],
            "nr_src": ["official report confirms", "happy celebration"],
            "r_re": ["what a surprise", "furious rage", "crying"],
            "nr_re": ["update scheduled", "joyful smile", "shocking twist", "fine"],
        }
        table = texts_emotion_table(populations, LexiconFallbackProvider())
        for pop, column in table.items():
            assert sum(column.values()) == pytest.approx(100.0, abs=0.01)

    def test_empty_population_omitted(self):
        table = texts_emotion_table({"r_src": [], "nr_src": ["ok"]}, LexiconFallbackProvider())
        assert "r_src" not in table
        assert "nr_src" in table

    def test_provider_swap_keeps_shape(self, http_server):
        populations = {"r_src": ["fear fear", "calm"], "nr_re": ["fine day"]}
        fallback = texts_emotion_table(populations, LexiconFallbackProvider())
        remote = texts_emotion_table(
            populations, RemoteProvider(http_server, retries=0, backoff=0)
        )
        assert set(fallback) == set(remote)
        for pop in fallback:
            assert set(fallback[pop]) == set(remote[pop]) == set(LABELS)
            assert sum(remote[pop].values()) == pytest.approx(100.0, abs=0.01)
