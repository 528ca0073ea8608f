"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (run with `pytest -s tests/test_acceptance.py`
to see them). Criterion 7 needs a locally downloaded full corpus and is
skipped unless RUMOURLENS_PHEME_DIR is set; it is documented as an
offline reproduction recipe, not a CI gate.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rumourlens import readability
from rumourlens.classify import (
    ForestConfig,
    evaluate,
    fit_forest,
    model_to_json,
    oversample,
    split_train_test,
    stratified_folds,
)
from rumourlens.emotions import LABELS, LexiconFallbackProvider, emotion_table
from rumourlens.lexicon import build_lexicon, score
from rumourlens.shapley import brute_shapley, tree_shap
from rumourlens.stats import ks_two_sample
from rumourlens.textprep import TextStats, tokenize

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "goldens" / "fixture_run"

GOLDEN_ARTIFACTS = [
    "partitions.csv",
    "features.csv",
    "ks_sources.csv",
    "ks_reactions.csv",
    "ks_aggregated.csv",
    "means.csv",
    "emotions.csv",
    "metrics.csv",
    "shap_ferrydelay.csv",
    "shap_parkfire.csv",
    "shap_statuegift.csv",
    "shap_rankings.json",
    "report.md",
]


def report_pass(number, name, started):
    print(f"\nACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - started:.2f}s)")


def stats_of(words, sentences, syllables, poly=0, complex_words=0, difficult=0):
    return TextStats(words, sentences, syllables, poly, complex_words, difficult)


def test_criterion_1_readability_formulas():
    started = time.perf_counter()
    checks = [
        (readability.flesch(stats_of(10, 1, 10)), 112.085),
        (readability.flesch(stats_of(20, 2, 30)), 69.785),
        (readability.flesch_kincaid(stats_of(10, 1, 10)), 0.11),
        (readability.flesch_kincaid(stats_of(5, 1, 5)), -1.84),
        (readability.gunning_fog(stats_of(10, 1, 10)), 4.0),
        (readability.gunning_fog(stats_of(10, 1, 10, complex_words=5)), 24.0),
        (readability.smog(stats_of(10, 1, 10, poly=0)), 3.1291),
        (readability.smog(stats_of(300, 30, 400, poly=30)), 1.0430 * math.sqrt(30.0) + 3.1291),
        (readability.dale_chall(stats_of(10, 1, 10)), 0.496),
        (readability.dale_chall(stats_of(10, 1, 10, difficult=2)), 7.2905),
    ]
    for got, expected in checks:
        assert abs(got - expected) < 1e-9

    # 50-document agreement with an independently coded reference
    from tests.test_readability import make_stats, reference_scores

    rng = random.Random(51)
    for _ in range(50):
        words = rng.randrange(3, 120)
        s = make_stats(
            words,
            rng.randrange(1, max(2, words // 4)),
            words + rng.randrange(0, 2 * words),
            rng.randrange(0, words + 1),
            rng.randrange(0, words + 1),
            rng.randrange(0, words + 1),
        )
        got = readability.all_scores(s)
        for value, ref in zip(
            (got.flesch, got.flesch_kincaid, got.gunning_fog, got.smog, got.dale_chall),
            reference_scores(s),
        ):
            assert abs(value - ref) < 1e-6

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(1, "readability formula suite", started)


def test_criterion_2_ks_correctness(ks_reference):
    started = time.perf_counter()
    from tests.test_stats import brute_force_d

    assert len(ks_reference) == 40
    for case in ks_reference:
        r = ks_two_sample(case["a"], case["b"])
        assert abs(r.d_stat - brute_force_d(case["a"], case["b"])) < 1e-12
        assert abs(r.p_value - case["p"]) < 1e-6
        swapped = ks_two_sample(case["b"], case["a"])
        assert swapped.d_stat == r.d_stat and swapped.p_value == r.p_value

    same = ks_two_sample([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert same.d_stat == 0.0 and same.p_value == 1.0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(2, "Kolmogorov-Smirnov correctness", started)


def test_criterion_3_shapley_oracle_equivalence():
    started = time.perf_counter()
    from tests.test_shapley import random_rows

    cases = 0
    seed = 0
    while cases < 100:
        seed += 1
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        names = [f"f{j}" for j in range(d)]
        X, y = random_rows(rng, int(rng.integers(8, 26)), d)
        if len(set(y.tolist())) < 2:
            continue
        model = fit_forest(X, y, names, ForestConfig(n_trees=int(rng.integers(1, 6))), seed=seed)
        background, _ = random_rows(rng, int(rng.integers(1, 21)), d)
        instance = random_rows(rng, 1, d)[0][0]
        fast = tree_shap(model, instance, background)
        brute = brute_shapley(model, instance, background)
        for name in names:
            assert abs(fast.phi[name] - brute[name]) < 1e-9
        assert fast.additivity_gap() < 1e-9
        cases += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report_pass(3, f"Shapley oracle equivalence ({cases} forests)", started)


def test_criterion_4_classifier_sanity(mini_pheme_dir, demo_lexicon, demo_sentic_table):
    started = time.perf_counter()
    # separable blobs with a pinned seed
    rng = np.random.default_rng(12345)
    X = np.vstack([rng.normal(cls * 6.0, 1.0, size=(100, 2)) for cls in (0, 1)])
    y = np.repeat([0, 1], 100)
    train, test = split_train_test(y, ratio=0.8, seed=12345)
    balanced = train[oversample(y[train], seed=12345)]
    model = fit_forest(X[balanced], y[balanced], ["f0", "f1"], seed=12345)
    assert evaluate(model, X[test], y[test]).accuracy >= 0.95

    # determinism: identical JSON for an identical seed
    again = fit_forest(X[balanced], y[balanced], ["f0", "f1"], seed=12345)
    assert model_to_json(model) == model_to_json(again)

    # leakage on every fixture fold (duplicates included)
    from rumourlens.emotions import LexiconFallbackProvider as Fallback
    from rumourlens.corpus import load_pheme_tree
    from rumourlens.features import Featurizer

    featurizer = Featurizer(demo_lexicon, demo_sentic_table, emotion_provider=Fallback())
    for corpus in load_pheme_tree(mini_pheme_dir):
        table = featurizer.featurize_corpus(corpus)
        for role in ("source", "reaction"):
            ids = table.tweet_id[table.role == role]
            labels = table.classes()[table.role == role]
            tr, _te = split_train_test(labels, seed=1)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # fold reduction on tiny events
                folds = stratified_folds(labels[tr], k=10, seed=1)
            for fold_no, test_idx in enumerate(folds):
                test_ids = set(ids[tr[test_idx]].tolist())
                fold_train = tr[np.setdiff1d(np.arange(len(tr)), test_idx)]
                balanced = fold_train[oversample(labels[fold_train], seed=fold_no)]
                assert not test_ids & set(ids[balanced].tolist())

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_pass(4, "classifier sanity", started)


def test_criterion_5_lexicon_engine():
    started = time.perf_counter()
    from tests.test_lexicon import random_lexicon, random_text

    # hand-counted examples, exact
    lex = build_lexicon({"pronoun": {"patterns": ["i"]}, "affect": {"patterns": ["happ*"]}})
    profile = score(tokenize("I am happy today."), lex)
    assert profile.word_count == 4
    assert profile.percentages["pronoun"] == 25.0
    assert profile.percentages["affect"] == 25.0
    assert profile.punctuation["period"] == 25.0
    stems = build_lexicon({"c": {"patterns": ["run*"]}})
    assert score(tokenize("running run prune"), stems).percentages["c"] == pytest.approx(200 / 3)

    # >= 1000 generated property cases
    rng = random.Random(424242)
    cases = 0
    while cases < 1000:
        lexicon = random_lexicon(rng)
        tokens = tokenize(random_text(rng))
        profile = score(tokens, lexicon)
        cases += 1
        if profile.word_count == 0:
            assert profile.percentages == {}
            continue
        for name, pct in profile.percentages.items():
            assert 0.0 <= pct <= 100.0
            parent = lexicon.categories[name].parent
            if parent is not None:
                assert pct <= profile.percentages[parent] + 1e-9
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        assert score(shuffled, lexicon).percentages == profile.percentages

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report_pass(5, f"lexicon engine ({cases} generated cases)", started)


def test_criterion_6_end_to_end_fixture(tmp_path):
    started = time.perf_counter()
    conf = tmp_path / "fixture.conf"
    conf.write_text(
        "\n".join(
            [
                f"dataset = {ROOT / 'fixtures' / 'mini-pheme'}",
                "dataset_format = pheme",
                "emotion_provider = fallback",
                "seed = 42",
                "threads = 1",
                f"out_dir = {tmp_path / 'out'}",
                "run_id = fixture",
            ]
        )
        + "\n"
    )
    # the CLI child imports the package from the source tree, as pytest does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rumourlens.cli", "all", "--config", str(conf)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    out = tmp_path / "out" / "fixture"
    for name in GOLDEN_ARTIFACTS:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{name} differs from golden"
    report_pass(6, "end-to-end fixture run, byte-identical", started)


def test_criterion_7_table1_reproduction_recipe():
    pheme_dir = os.environ.get("RUMOURLENS_PHEME_DIR")
    if not pheme_dir:
        pytest.skip("set RUMOURLENS_PHEME_DIR to a PHEME-9 download to run (see README)")
    started = time.perf_counter()
    from rumourlens.corpus import load_pheme_tree, partition

    reported = {  # published per-event distribution (nr_src, r_src, nr_re, r_re)
        "charliehebdo": (1621, 458, 29302, 68887),
        "germanwings": (231, 238, 1764, 2256),
        "sydneysiege": (699, 522, 14621, 8154),
        "putinmissing": (112, 126, 236, 361),
        "prince": (4, 229, 3, 666),
        "ottawashooting": (420, 470, 5428, 5966),
        "gurlitt": (77, 61, 15, 26),
        "ferguson": (859, 284, 16837, 6195),
    }
    corpora = {c.event.split("-")[0]: c for c in load_pheme_tree(pheme_dir)}
    for key, (nr_src, r_src, nr_re, r_re) in reported.items():
        match = [c for name, c in corpora.items() if name.startswith(key)]
        assert match, f"event {key} not found in {pheme_dir}"
        counts = partition(match[0]).counts()
        assert (counts.nr_src, counts.r_src, counts.nr_re, counts.r_re) == (
            nr_src, r_src, nr_re, r_re,
        ), key
    report_pass(7, "published distribution reproduction", started)


def test_criterion_8_emotion_normalization(mini_pheme_dir):
    started = time.perf_counter()
    provider = LexiconFallbackProvider()

    # fixture texts
    from rumourlens.corpus import load_pheme_tree, partition

    populations = {"r_src": [], "nr_src": [], "r_re": [], "nr_re": []}
    for corpus in load_pheme_tree(mini_pheme_dir):
        part = partition(corpus)
        for pop in populations:
            populations[pop].extend(t.text for t in getattr(part, pop))
    for texts in populations.values():
        for dist in provider.classify(texts):
            assert abs(sum(dist.scores.values()) - 1.0) < 1e-6
    table = emotion_table(populations, provider)
    for pop, column in table.items():
        assert abs(sum(column.values()) - 100.0) < 0.01
        assert set(column) == set(LABELS)

    # generated inputs
    rng = random.Random(88)
    vocab = ["terrified", "sad", "happy", "report", "what", "furious", "zzz", "the"]
    generated = {
        "r_src": [" ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 9))) for _ in range(60)],
        "nr_re": [" ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 9))) for _ in range(60)],
    }
    for dist in provider.classify(generated["r_src"] + generated["nr_re"]):
        assert abs(sum(dist.scores.values()) - 1.0) < 1e-6
    for column in emotion_table(generated, provider).values():
        assert abs(sum(column.values()) - 100.0) < 0.01

    report_pass(8, "emotion normalization", started)
