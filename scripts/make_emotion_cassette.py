#!/usr/bin/env python3
"""Record a deterministic emotion cassette for the mini corpus
(tests/resources/emotion_cassette.jsonl) plus the argmax table it
produces (tests/resources/emotion_cassette_table.json).

The recorded "model" is a stand-in with hash-derived scores, so the
cassette exercises the record/replay path without any network or model
dependency. The frozen table is the replay oracle: replaying the
cassette must reproduce it exactly.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from rumourlens.corpus import load_pheme_tree, partition
from rumourlens.emotions import LABELS, RecordingProvider, emotion_table

ROOT = Path(__file__).resolve().parent.parent
CASSETTE = ROOT / "tests" / "resources" / "emotion_cassette.jsonl"
TABLE = ROOT / "tests" / "resources" / "emotion_cassette_table.json"


class HashModelProvider:
    """Deterministic pseudo-model: scores derived from a text digest."""

    def classify(self, texts):
        from rumourlens.emotions import _to_dist

        out = []
        for text in texts:
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            raw = {lab: 1 + digest[i] for i, lab in enumerate(LABELS)}
            out.append(_to_dist({k: float(v) for k, v in raw.items()}))
        return out


def main() -> None:
    corpora = load_pheme_tree(ROOT / "fixtures" / "mini-pheme")
    populations = {"r_src": [], "nr_src": [], "r_re": [], "nr_re": []}
    for corpus in corpora:
        part = partition(corpus)
        for pop in populations:
            populations[pop].extend(t.text for t in getattr(part, pop))
    CASSETTE.write_text("")
    provider = RecordingProvider(HashModelProvider(), CASSETTE)
    # one classify call per population, so each recorded batch is keyed by
    # that population's texts
    dists = {pop: provider.classify(texts) for pop, texts in populations.items()}
    scores = np.array([[d.scores[lab] for lab in LABELS] for pop in dists for d in dists[pop]])
    rows = np.array([pop for pop in dists for _ in dists[pop]])
    table = emotion_table(scores, {pop: rows == pop for pop in dists})
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CASSETTE} and {TABLE}")


if __name__ == "__main__":
    main()
