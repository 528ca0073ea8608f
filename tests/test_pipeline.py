import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from rumourlens.config import RunConfig
from rumourlens.emotions import CassetteProvider, LexiconFallbackProvider, RemoteProvider
from rumourlens.pipeline import make_emotion_provider
from rumourlens.senticnet import fetch_concepts, load_sentic_table


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
