"""The compare stage against the per-cell sample lists it replaced.

The oracle below is the earlier compare path, kept whole: per-feature,
per-event sample lists (`oracle_ks_samples`) feeding a grid of cell
objects (`oracle_significance_matrix`) that an events-filtering writer
turns into the three ks_*.csv files, nested per-population value lists
for the means, and the argmax shares computed in the stage itself.
`stage_compare` must write every file byte for byte as it does.
"""

import builtins
import csv
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from rumourlens import pipeline, report, stats
from rumourlens.config import RunConfig, build_config, parse_config_file
from rumourlens.corpus import AGGREGATED_EVENT
from rumourlens.emotions import POPULATIONS
from rumourlens.features import EMOTION_FEATURES, FeatureTable
from rumourlens.stats import KsResult, ks_two_sample
from tests.conftest import GOLDENS, ROOT

COMPARE_FILES = (
    report.KS_SOURCES_CSV,
    report.KS_REACTIONS_CSV,
    report.KS_AGGREGATED_CSV,
    report.MEANS_CSV,
    report.EMOTIONS_CSV,
)


# ---------------------------------------------------------------------------
# oracle: the sample-list compare path


def oracle_mean(values) -> float:
    # added left to right by hand, as sum() did before 3.12 compensated
    # float sums
    total, n = 0.0, 0
    for v in values:
        total += v
        n += 1
    return total / n if n else float("nan")


@dataclass(frozen=True)
class OracleCell:
    ks: KsResult
    mean_rumour: float
    mean_nonrumour: float
    significant: bool


def oracle_ks_samples(table, role, usable, features):
    """samples[feature][event] = (rumour values, non-rumour values)."""
    in_role = table.role == role
    groups = {event: in_role & (table.event == event) for event in usable}
    groups[AGGREGATED_EVENT] = in_role
    rumour = table.label == "rumour"
    samples = {}
    for feature in features:
        col = table.X[:, table.names.index(feature)]
        defined = ~np.isnan(col)
        samples[feature] = {
            event: (col[group & defined & rumour].tolist(), col[group & defined & ~rumour].tolist())
            for event, group in groups.items()
        }
    return samples


def oracle_significance_matrix(samples, alpha, population_pair, feature_order, event_order):
    cells = {}
    for feature in feature_order:
        for event in event_order:
            rum, non = samples.get(feature, {}).get(event, ([], []))
            if not rum or not non:
                cells[(feature, event)] = None
                continue
            ks = ks_two_sample(rum, non)
            cells[(feature, event)] = OracleCell(
                ks, oracle_mean(rum), oracle_mean(non), ks.p_value < alpha
            )
    return population_pair, tuple(feature_order), tuple(event_order), cells


def oracle_write_ks_csv(path, matrices, events):
    rows = []
    for pair, features, matrix_events, cells in matrices:
        for feature in features:
            for event in matrix_events:
                if event not in events:
                    continue
                cell = cells[(feature, event)]
                if cell is None:
                    continue
                rows.append(
                    [
                        feature,
                        event,
                        pair,
                        cell.ks.n1,
                        cell.ks.n2,
                        report.fnum(cell.ks.d_stat),
                        report.fnum(cell.ks.p_value),
                        report.fnum(cell.mean_rumour),
                        report.fnum(cell.mean_nonrumour),
                        str(cell.significant).lower(),
                    ]
                )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(report.KS_HEADER)
        w.writerows(rows)


def oracle_mean_report(samples):
    """feature -> population -> (mean or None, n, absent)."""
    out = {}
    for feature, populations in samples.items():
        out[feature] = {}
        for pop, values in populations.items():
            defined = [v for v in values if not math.isnan(v)]
            mean = oracle_mean(defined) if defined else None
            out[feature][pop] = (mean, len(defined), len(values) - len(defined))
    return out


def oracle_write_means_csv(path, means):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["feature", "population", "mean", "n", "absent"])
        for feature in sorted(means):
            for pop in POPULATIONS:
                if pop not in means[feature]:
                    continue
                mean, n, absent = means[feature][pop]
                w.writerow([feature, pop, "" if mean is None else report.fnum(mean), n, absent])


def oracle_compare(table, alpha, out):
    """The earlier stage_compare body, from the table read back from
    features.csv to the written files."""
    sources = table.role == "source"
    usable = [
        event
        for event in sorted(set(table.event[sources].tolist()))
        if set(table.label[sources & (table.event == event)].tolist()) >= {"rumour", "non-rumour"}
    ]
    table = table.take(np.isin(table.event, usable))
    ks_features = [f for f in table.names if f not in EMOTION_FEATURES]
    rumour = table.label == "rumour"
    source = table.role == "source"
    by_population = {
        "r_src": rumour & source,
        "nr_src": ~rumour & source,
        "r_re": rumour & ~source,
        "nr_re": ~rumour & ~source,
    }
    matrices = [
        oracle_significance_matrix(
            oracle_ks_samples(table, role, usable, ks_features),
            alpha,
            pair,
            ks_features,
            usable + [AGGREGATED_EVENT],
        )
        for pair, role in (("sources", "source"), ("reactions", "reaction"))
    ]
    oracle_write_ks_csv(out / report.KS_SOURCES_CSV, [matrices[0]], usable)
    oracle_write_ks_csv(out / report.KS_REACTIONS_CSV, [matrices[1]], usable)
    oracle_write_ks_csv(out / report.KS_AGGREGATED_CSV, matrices, [AGGREGATED_EVENT])

    mean_samples = {
        feature: {
            pop: table.X[:, table.names.index(feature)][rows].tolist()
            for pop, rows in by_population.items()
        }
        for feature in table.names
    }
    oracle_write_means_csv(out / report.MEANS_CSV, oracle_mean_report(mean_samples))

    if any(f in table.names for f in EMOTION_FEATURES):
        scores = table.X[:, [table.names.index(lab) for lab in EMOTION_FEATURES]]
        top = np.where(np.isnan(scores).any(axis=1), -1, np.argmax(scores, axis=1))
        shares = {}
        for pop, rows in by_population.items():
            labelled = top[rows & (top >= 0)]
            if not labelled.size:
                continue
            shares[pop] = {
                lab: 100.0 * int(np.count_nonzero(labelled == k)) / labelled.size
                for k, lab in enumerate(EMOTION_FEATURES)
            }
        report.write_emotions_csv(out / report.EMOTIONS_CSV, shares)


# ---------------------------------------------------------------------------
# seeded feature tables

# event -> (source labels, reaction labels) drawn from
EVENT_KINDS = {
    "balanced": ("both", "both"),
    "rumour-only-replies": ("both", "rumour"),
    "nonrumour-only-replies": ("both", "non-rumour"),
    "no-replies": ("both", "none"),
    "rumour-only-sources": ("rumour", "both"),  # excluded
    "nonrumour-only-sources": ("non-rumour", "both"),  # excluded
}

# column order differs from sorted order; WC sorts before lowercase names
TEXT_FEATURES = ["zeta", "WC", "Affect", "allpunct", "ari_score", "Social", "b2", "pleasantness"]


def _labels(rng, kind, n):
    if kind == "both":
        return ["rumour", "non-rumour"] + rng.choice(["rumour", "non-rumour"], n - 2).tolist()
    return [kind] * n if kind != "none" else []


def random_table(seed):
    """A feature table with NaN cells, features absent on one side of an
    event, single-class and excluded events, one-class replies, tied
    values and (for most seeds) an emotion block with absent rows and
    tied top scores; columns in shuffled order."""
    rng = np.random.default_rng(seed)
    with_emotions = seed % 4 != 3
    names = TEXT_FEATURES + (list(EMOTION_FEATURES) if with_emotions else [])
    names = [names[j] for j in rng.permutation(len(names))]
    kinds = list(EVENT_KINDS)
    events = [kinds[j] for j in rng.choice(len(kinds), size=int(rng.integers(2, 7)), replace=False)]
    if "balanced" not in events:
        events.append("balanced")
    ids, event, role, label = [], [], [], []
    for ev in events:
        src_kind, re_kind = EVENT_KINDS[ev]
        sizes = (int(rng.integers(3, 12)), int(rng.integers(3, 30)))
        for r, kind, n in zip(("source", "reaction"), (src_kind, re_kind), sizes):
            for lab in _labels(rng, kind, n):
                ids.append(f"t{len(ids)}")
                event.append(ev)
                role.append(r)
                label.append(lab)
    order = rng.permutation(len(ids))  # events interleave in row order
    ids, event, role, label = ([c[i] for i in order] for c in (ids, event, role, label))

    n = len(ids)
    X = np.empty((n, len(names)))
    for j, name in enumerate(names):
        if name in EMOTION_FEATURES:
            continue
        kind = rng.random()
        if kind < 0.3:
            X[:, j] = rng.integers(0, 4, n)  # many ties
        elif kind < 0.5:
            # cancelling magnitudes: a sum in any other order than row
            # order moves the printed mean
            X[:, j] = rng.choice([1e16, -1e16, 1.0, 2.5], n)
        else:
            X[:, j] = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), n)
        X[rng.random(n) < 0.2, j] = np.nan
    # a feature absent on the rumour side of one event
    ev = events[int(rng.integers(len(events)))]
    rows = (np.array(event) == ev) & (np.array(label) == "rumour")
    X[rows, int(rng.integers(len(names)))] = np.nan
    if with_emotions:
        cols = [names.index(lab) for lab in EMOTION_FEATURES]
        scores = rng.dirichlet(np.ones(7), n)
        ties = rng.random(n) < 0.2
        scores[ties] = np.round(scores[ties] * 2) / 2  # equal top scores
        scores[ties & (scores.sum(axis=1) == 0)] = 1 / 7
        scores[rng.random(n) < 0.15] = np.nan  # no provider result
        X[:, cols] = scores
    return FeatureTable.from_columns(names, ids, event, role, label, [False] * n, X)


def run_compare(tmp_path, table, alpha, run_id="compare"):
    cfg = RunConfig(dataset="unused", out_dir=str(tmp_path), run_id=run_id, alpha=alpha)
    out = cfg.run_dir()
    out.mkdir(parents=True)
    report.write_features_csv(out / report.FEATURES_CSV, table)
    manifest = {"stages": {"ingest": True, "featurize": True}}
    (out / pipeline.MANIFEST).write_text(json.dumps(manifest), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # excluded events
        pipeline.stage_compare(cfg)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_compare_matches_sample_list_oracle(tmp_path, seed):
    table = random_table(seed)
    alpha = (0.05, 0.5)[seed % 2]
    out = run_compare(tmp_path, table, alpha)
    expected = tmp_path / "oracle"
    expected.mkdir()
    oracle_compare(report.read_features_csv(out / report.FEATURES_CSV), alpha, expected)
    written = sorted(p.name for p in out.iterdir() if p.name in COMPARE_FILES)
    assert written == sorted(p.name for p in expected.iterdir())
    assert len(written) == (5 if EMOTION_FEATURES[0] in table.names else 4)
    for name in written:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


def test_oracle_tables_cover_the_edge_cases():
    # what the seeds above exercise, so a change to the generator cannot
    # quietly drop a case
    seen = Counter()
    for seed in range(12):
        table = random_table(seed)
        for ev in set(table.event.tolist()):
            in_event = table.event == ev
            for r in ("source", "reaction"):
                labels = set(table.label[in_event & (table.role == r)].tolist())
                seen[(r, len(labels))] += 1
        seen["nan"] += int(np.isnan(table.X).any())
        seen["emotions"] += EMOTION_FEATURES[0] in table.names
        seen["wc_not_first"] += table.names[0] != "WC"
    assert seen[("source", 1)] and seen[("reaction", 1)] and seen[("reaction", 0)]
    assert seen["nan"] == 12 and 0 < seen["emotions"] < 12 and seen["wc_not_first"]


def test_compare_calls_the_traced_layers(tmp_path, monkeypatch):
    # perfbench times compare through these two functions: compare must
    # keep calling them
    calls = Counter()
    for name in ("significance_matrix", "mean_report"):
        real = getattr(stats, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(stats, name, counted)
    run_compare(tmp_path, random_table(0), 0.05)
    assert calls["significance_matrix"] >= 2
    assert calls["mean_report"] == 1


def compensated_sum(iterable, start=0):
    """CPython 3.12's sum(): float and int terms are added with Neumaier's
    compensation (other terms add plainly), so a float sum can differ in
    its last bits from adding left to right."""
    items = iter(iterable)
    total = start
    if type(total) is not float:
        for item in items:
            total = total + item
            if type(total) is float:
                break
        else:
            return total
    compensation = 0.0
    for item in items:
        if type(item) not in (float, int):
            total = total + compensation + item
            for item in items:
                total = total + item
            return total
        x = float(item)
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compare_goldens_hold_under_a_compensated_sum(tmp_path, monkeypatch):
    # sum() compensates float sums from Python 3.12 on; compare must write
    # the fixture goldens byte for byte under either sum
    fixture = parse_config_file(ROOT / "configs" / "fixture.conf")
    fixture["dataset"] = str(ROOT / fixture["dataset"])
    cfg = build_config(fixture, env={}, overrides={"out_dir": str(tmp_path)})
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)
    with monkeypatch.context() as patched:
        patched.setattr(builtins, "sum", compensated_sum)
        written = pipeline.stage_compare(cfg)
    assert sorted(p.name for p in written) == sorted(COMPARE_FILES)
    for path in written:
        assert path.read_bytes() == (GOLDENS / "fixture_run" / path.name).read_bytes(), path.name
