"""Per-tweet emotion distributions via pluggable providers.

Fixed label set: anger, disgust, fear, joy, neutral, sadness, surprise.
Every provider returns one distribution per input text, summing to 1;
argmax ties break by the fixed label order above.

Providers:

* ``RemoteProvider`` speaks the minimal HTTP contract
  ``POST /classify {"texts": [...]} ->
  [{"label": "...", "scores": {"anger": ..., ...}}, ...]``
  with configurable timeout, retries and bounded request parallelism.
* ``LexiconFallbackProvider`` counts hits in per-label word lists and
  normalizes; with no hits the distribution is uniform and flagged
  low-confidence.
* ``CassetteProvider`` replays recorded remote responses from a JSONL
  cassette keyed by a hash of the request batch, for offline runs and
  tests; ``RecordingProvider`` writes such cassettes.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

from .errors import MalformedResponse, ProviderUnavailable
from .textprep import TokenKind, tokenize

LABELS = ("anger", "disgust", "fear", "joy", "neutral", "sadness", "surprise")

POPULATIONS = ("r_src", "nr_src", "r_re", "nr_re")


@dataclass(frozen=True)
class EmotionDist:
    scores: dict[str, float]
    label: str
    low_confidence: bool = False


def _to_dist(scores: dict[str, float], low_confidence: bool = False) -> EmotionDist:
    total = sum(scores.values())
    normed = {lab: scores[lab] / total for lab in LABELS}
    label = max(LABELS, key=lambda lab: normed[lab])  # max() keeps first on ties
    return EmotionDist(scores=normed, label=label, low_confidence=low_confidence)


def load_emotion_lexicon(path=None) -> dict[str, set[str]]:
    """JSON map of label -> word list covering the seven labels."""
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = json.loads(
            resources.files("rumourlens.data").joinpath("emotion_lexicon.json").read_text("utf-8")
        )
    return {lab: {w.lower() for w in raw.get(lab, [])} for lab in LABELS}


class LexiconFallbackProvider:
    """Deterministic word-list provider used when no model endpoint is
    available. Scores are normalized per-label hit counts."""

    def __init__(self, lexicon: dict[str, set[str]] | None = None):
        self.lexicon = lexicon if lexicon is not None else load_emotion_lexicon()

    def classify(self, texts: list[str]) -> list[EmotionDist]:
        return [self._one(t) for t in texts]

    def _one(self, text: str) -> EmotionDist:
        words = [t.surface.lower() for t in tokenize(text) if t.kind is TokenKind.WORD]
        counts = {lab: 0 for lab in LABELS}
        for w in words:
            for lab in LABELS:
                if w in self.lexicon[lab]:
                    counts[lab] += 1
        if sum(counts.values()) == 0:
            return _to_dist(dict.fromkeys(LABELS, 1.0), low_confidence=True)
        return _to_dist({lab: float(c) for lab, c in counts.items()})


class RemoteProvider:
    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        retries: int = 2,
        batch_size: int = 32,
        max_in_flight: int = 4,
        backoff: float = 0.5,
    ):
        self.url = url.rstrip("/") + "/classify"
        self.timeout = timeout
        self.retries = retries
        self.batch_size = batch_size
        self.max_in_flight = max_in_flight
        self.backoff = backoff

    def classify(self, texts: list[str]) -> list[EmotionDist]:
        batches = [texts[i : i + self.batch_size] for i in range(0, len(texts), self.batch_size)]
        if not batches:
            return []
        # bounded parallelism; results reassembled in input order
        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            results = list(pool.map(self._post_batch, batches))
        return [dist for batch in results for dist in batch]

    def _post_batch(self, batch: list[str]) -> list[EmotionDist]:
        body = json.dumps({"texts": batch}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt and self.backoff:
                time.sleep(self.backoff * attempt)
            req = urllib.request.Request(
                self.url, data=body, headers={"Content-Type": "application/json"}
            )
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    raw = resp.read().decode("utf-8")
                return parse_response(raw, expected=len(batch))
            except urllib.error.HTTPError as exc:
                exc.close()  # the error is also the response: release its socket
                if exc.code >= 500:
                    last_error = exc
                    continue
                raise MalformedResponse(f"provider returned HTTP {exc.code}") from exc
            except (urllib.error.URLError, TimeoutError, OSError) as exc:
                last_error = exc
                continue
        raise ProviderUnavailable(f"emotion endpoint failed after {self.retries + 1} attempts: {last_error}")


def parse_response(raw: str, expected: int) -> list[EmotionDist]:
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedResponse(f"invalid JSON from provider: {exc}") from exc
    if not isinstance(payload, list) or len(payload) != expected:
        raise MalformedResponse(f"expected {expected} results, got {payload!r:.120}")
    out = []
    for item in payload:
        scores = item.get("scores") if isinstance(item, dict) else None
        if not isinstance(scores, dict) or set(scores) != set(LABELS):
            raise MalformedResponse(f"bad result item: {item!r:.120}")
        values = {lab: float(scores[lab]) for lab in LABELS}
        if any(v < 0 for v in values.values()) or sum(values.values()) <= 0:
            raise MalformedResponse(f"non-normalizable scores: {values}")
        out.append(_to_dist(values))
    return out


def _batch_key(batch: list[str]) -> str:
    return hashlib.sha256(json.dumps(batch, ensure_ascii=False).encode("utf-8")).hexdigest()


class CassetteProvider:
    """Replays recorded responses; raises if a batch was never recorded."""

    def __init__(self, path, batch_size: int = 32):
        self.batch_size = batch_size
        self._store: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                self._store[rec["key"]] = json.dumps(rec["response"])

    def classify(self, texts: list[str]) -> list[EmotionDist]:
        out = []
        for i in range(0, len(texts), self.batch_size):
            batch = texts[i : i + self.batch_size]
            key = _batch_key(batch)
            if key not in self._store:
                raise ProviderUnavailable(f"no cassette entry for batch hash {key[:12]}...")
            out.extend(parse_response(self._store[key], expected=len(batch)))
        return out


class RecordingProvider:
    """Wraps another provider and appends its raw responses to a cassette."""

    def __init__(self, inner, path, batch_size: int = 32):
        self.inner = inner
        self.path = path
        self.batch_size = batch_size

    def classify(self, texts: list[str]) -> list[EmotionDist]:
        out = []
        with open(self.path, "a", encoding="utf-8") as fh:
            for i in range(0, len(texts), self.batch_size):
                batch = texts[i : i + self.batch_size]
                dists = self.inner.classify(batch)
                response = [
                    {"label": d.label, "scores": {lab: d.scores[lab] for lab in LABELS}}
                    for d in dists
                ]
                fh.write(json.dumps({"key": _batch_key(batch), "response": response}) + "\n")
                out.extend(dists)
        return out


def classify(texts: list[str], provider) -> list[EmotionDist]:
    """One distribution per text, in input order."""
    dists = provider.classify(list(texts))
    if len(dists) != len(texts):
        raise MalformedResponse(f"provider returned {len(dists)} results for {len(texts)} texts")
    return dists


def emotion_table(
    populations: dict[str, list[str]], provider
) -> dict[str, dict[str, float]]:
    """Argmax-percentage table: population -> label -> % of tweets whose
    argmax emotion is that label. Empty populations are omitted."""
    table = {}
    for pop, texts in populations.items():
        if not texts:
            continue
        dists = classify(texts, provider)
        counts = {lab: 0 for lab in LABELS}
        for d in dists:
            counts[d.label] += 1
        table[pop] = {lab: 100.0 * counts[lab] / len(dists) for lab in LABELS}
    return table
