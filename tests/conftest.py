import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESOURCES = Path(__file__).resolve().parent / "resources"
GOLDENS = Path(__file__).resolve().parent / "goldens"
FIXTURES = ROOT / "fixtures"
DATA = ROOT / "src" / "rumourlens" / "data"


def texts_emotion_table(populations, provider):
    """emotions.emotion_table on the scores `provider` gives each
    population's texts, classified one population per call (the batches a
    recorded cassette is keyed by)."""
    import numpy as np

    from rumourlens.emotions import LABELS, emotion_table

    dists = {pop: provider.classify(texts) for pop, texts in populations.items()}
    scores = [[d.scores[lab] for lab in LABELS] for pop in dists for d in dists[pop]]
    owner = np.array([pop for pop in dists for _ in dists[pop]], dtype=str)
    return emotion_table(
        np.array(scores).reshape(-1, len(LABELS)), {pop: owner == pop for pop in dists}
    )


@pytest.fixture(scope="session")
def mini_pheme_dir():
    return FIXTURES / "mini-pheme"


@pytest.fixture(scope="session")
def mini_pheme_jsonl():
    return FIXTURES / "mini-pheme.jsonl"


@pytest.fixture(scope="session")
def mini_pheme_manifest():
    with open(FIXTURES / "mini-pheme.manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def demo_lexicon():
    from rumourlens.lexicon import load_lexicon

    return load_lexicon(DATA / "demo_lexicon.json")


@pytest.fixture(scope="session")
def demo_sentic_table():
    from rumourlens.senticnet import load_sentic_table

    return load_sentic_table(DATA / "sentic_demo.csv")


@pytest.fixture(scope="session")
def syllable_reference():
    rows = []
    with open(RESOURCES / "syllable_reference.tsv", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            word, count = line.split("\t")
            rows.append((word, int(count)))
    return rows


@pytest.fixture(scope="session")
def ks_reference():
    with open(RESOURCES / "ks_reference.json", encoding="utf-8") as fh:
        return json.load(fh)["cases"]
