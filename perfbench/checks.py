"""Output checks computed apart from the program.

Nothing here imports rumourlens. Expected values come from the
generator's own record of what it wrote (tally, word and punctuation
tokens, planted marker), from plain recounts with numpy over the written
tables, and from a walk of the model JSON. No check compares against a
stored copy of an earlier run's output.

`run_checks(...)` returns a list of failure messages; empty means every
check passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

EMOTIONS = ("anger", "disgust", "fear", "joy", "neutral", "sadness", "surprise")
POPULATIONS = ("r_src", "nr_src", "r_re", "nr_re")
ENGINE_CATEGORIES = {"wc", "allpunct"}
AGGREGATED = "aggregated"
TOL = 1e-9


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_features(path: Path) -> tuple[list[dict], list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = header[5::2]
        rows = []
        for rec in reader:
            values = {}
            for k, name in enumerate(names):
                raw, absent = rec[5 + 2 * k], rec[6 + 2 * k]
                values[name] = None if absent == "true" else float(raw)
            rows.append({"id": rec[0], "event": rec[1], "role": rec[2], "label": rec[3], "values": values})
    return rows, names


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _population(row: dict) -> str:
    return ("r" if row["label"] == "rumour" else "nr") + ("_src" if row["role"] == "source" else "_re")


def usable_events(rows: list[dict]) -> list[str]:
    labels: dict[str, set] = {}
    for r in rows:
        if r["role"] == "source":
            labels.setdefault(r["event"], set()).add(r["label"])
    return sorted(e for e, labs in labels.items() if labs >= {"rumour", "non-rumour"})


# ---------------------------------------------------------------------------
# individual checks


def check_partitions(run: Path, tally: dict) -> list[str]:
    got = {
        r["event"]: {k: int(r[k]) for k in ("nr_src", "r_src", "nr_re", "r_re", "total")}
        for r in _read_csv(run / "partitions.csv")
    }
    want = {e: dict(c, total=sum(c.values())) for e, c in tally.items()}
    return [] if got == want else [f"partitions.csv {got} != expected tally {want}"]


def _lexicon_matchers(lexicon_path: Path) -> dict[str, tuple[set, list, set]]:
    cats = json.loads(lexicon_path.read_text(encoding="utf-8"))["categories"]
    out = {}
    for name, spec in cats.items():
        if spec.get("parent") is not None or name.lower() in ENGINE_CATEGORIES:
            continue
        pats = [p.lower() for p in spec["patterns"]]
        stems = [p[:-1] for p in pats if p.endswith("*")]
        plain = [p for p in pats if not p.endswith("*")]
        literals = {p for p in plain if any(ch.isalpha() for ch in p)}
        puncts = {p for p in plain if p and not any(ch.isalpha() for ch in p)}
        out[name] = (literals, stems, puncts)
    return out


def check_lexicon_recount(rows: list[dict], tweets: dict, lexicon_path: Path) -> list[str]:
    """WC, every top-level category percentage and allpunct, recounted by
    plain literal/prefix matching over the generator's tokens."""
    matchers = _lexicon_matchers(lexicon_path)
    word_hits: dict[str, set[str]] = {}

    def categories(word: str) -> set[str]:
        if word not in word_hits:
            word_hits[word] = {
                name for name, (literals, stems, _) in matchers.items()
                if word in literals or any(word.startswith(s) for s in stems)
            }
        return word_hits[word]

    errors = []
    for r in rows:
        tw = tweets[r["id"]]
        words = [w.lower() for w in tw["words"]]
        wc = len(words)
        vals = r["values"]
        if vals["WC"] != wc:
            errors.append(f"{r['id']}: WC {vals['WC']} != {wc}")
            continue
        expected = {}
        if wc:
            for name, (_, _, puncts) in matchers.items():
                hits = sum(1 for w in words if name in categories(w))
                hits += sum(1 for p in tw["puncts"] if p in puncts)
                expected[name] = 100.0 * hits / wc
            n_punct = len(tw["puncts"]) + sum(w.count("'") for w in words)
            expected["allpunct"] = 100.0 * n_punct / wc
        else:
            expected = dict.fromkeys(list(matchers) + ["allpunct"])
        for name, want in expected.items():
            got = vals[name]
            if (got is None) != (want is None) or (want is not None and not _close(got, want)):
                errors.append(f"{r['id']}: {name} {got} != recount {want}")
    return errors


def check_emotions(rows: list[dict]) -> list[str]:
    errors = []
    for r in rows:
        scores = [r["values"][lab] for lab in EMOTIONS]
        if any(s is None for s in scores) or abs(sum(scores) - 1.0) > 1e-8:
            errors.append(f"{r['id']}: emotion scores {scores} do not sum to 1")
    return errors


def ecdf_d(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.sort(a), np.sort(b)
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def check_ks(run: Path, rows: list[dict], names: list[str], alpha: float) -> list[str]:
    usable = usable_events(rows)
    rows = [r for r in rows if r["event"] in usable]
    ks_features = [f for f in names if f not in EMOTIONS]
    expected = {}
    for pair, role in (("sources", "source"), ("reactions", "reaction")):
        for event in usable + [AGGREGATED]:
            sel = [r for r in rows if r["role"] == role and (event == AGGREGATED or r["event"] == event)]
            for f in ks_features:
                rum = np.array([r["values"][f] for r in sel if r["label"] == "rumour" and r["values"][f] is not None])
                non = np.array([r["values"][f] for r in sel if r["label"] != "rumour" and r["values"][f] is not None])
                if rum.size and non.size:
                    expected[(f, event, pair)] = (rum, non)
    errors = []
    seen = set()
    files = {"ks_sources.csv": "sources", "ks_reactions.csv": "reactions", "ks_aggregated.csv": None}
    for fname, pair in files.items():
        for row in _read_csv(run / fname):
            key = (row["feature"], row["event"], row["population_pair"])
            if pair is not None and (row["population_pair"] != pair or row["event"] == AGGREGATED):
                errors.append(f"{fname}: misplaced row {key}")
            if pair is None and row["event"] != AGGREGATED:
                errors.append(f"{fname}: misplaced row {key}")
            seen.add(key)
            if key not in expected:
                errors.append(f"{fname}: unexpected row {key}")
                continue
            rum, non = expected[key]
            d = ecdf_d(rum, non)
            if int(row["n1"]) != rum.size or int(row["n2"]) != non.size:
                errors.append(f"{fname} {key}: n1/n2 {row['n1']}/{row['n2']} != {rum.size}/{non.size}")
            if abs(float(row["d_stat"]) - d) > TOL:
                errors.append(f"{fname} {key}: D {row['d_stat']} != ECDF {d}")
            if not (_close(float(row["mean_rumour"]), float(rum.mean()))
                    and _close(float(row["mean_nonrumour"]), float(non.mean()))):
                errors.append(f"{fname} {key}: means differ from plain averages")
            if (row["significant"] == "true") != (float(row["p_value"]) < alpha):
                errors.append(f"{fname} {key}: significant={row['significant']} but p={row['p_value']}")
    missing = set(expected) - seen
    if missing:
        errors.append(f"ks tables lack {len(missing)} cells, e.g. {sorted(missing)[:3]}")
    return errors


def check_means(run: Path, rows: list[dict], names: list[str]) -> list[str]:
    usable = set(usable_events(rows))
    rows = [r for r in rows if r["event"] in usable]
    errors = []
    got = {(m["feature"], m["population"]): m for m in _read_csv(run / "means.csv")}
    if len(got) != len(names) * len(POPULATIONS):
        errors.append(f"means.csv has {len(got)} cells, expected {len(names) * len(POPULATIONS)}")
    for f in names:
        for pop in POPULATIONS:
            values = [r["values"][f] for r in rows if _population(r) == pop]
            defined = [v for v in values if v is not None]
            cell = got.get((f, pop))
            if cell is None:
                errors.append(f"means.csv lacks {f}/{pop}")
                continue
            if int(cell["n"]) != len(defined) or int(cell["absent"]) != len(values) - len(defined):
                errors.append(f"means.csv {f}/{pop}: n/absent {cell['n']}/{cell['absent']} wrong")
            want = sum(defined) / len(defined) if defined else None
            if (cell["mean"] == "") != (want is None) or (want is not None and not _close(float(cell["mean"]), want)):
                errors.append(f"means.csv {f}/{pop}: mean {cell['mean']} != {want}")
    return errors


def _walk(tree: dict, x: np.ndarray) -> float:
    node = 0
    feature, threshold = tree["feature"], tree["threshold"]
    while feature[node] != -1:
        node = tree["left"][node] if x[feature[node]] <= threshold[node] else tree["right"][node]
    counts = tree["counts"][node]
    return counts[1] / (counts[0] + counts[1])


def check_models_and_shap(run: Path, rows: list[dict], n_trees: int, scopes: tuple[str, ...]) -> tuple[list[str], dict]:
    """Model tree counts, SHAP additivity against our own tree walk,
    phi = 0 for unused features, and rankings recomputed from the points.
    Returns (errors, rankings as read)."""
    errors = []
    usable = usable_events(rows)
    by_id = {r["id"]: r for r in rows}
    model_files = sorted(p.name for p in run.glob("model_*.json"))
    want_files = sorted(f"model_{e}_{s}.json" for e in usable for s in scopes)
    if model_files != want_files:
        errors.append(f"model files {model_files} != expected {want_files}")
    rankings = json.loads((run / "shap_rankings.json").read_text(encoding="utf-8"))
    if sorted(rankings) != usable:
        errors.append(f"shap_rankings.json events {sorted(rankings)} != usable {usable}")

    for event in usable:
        points: dict[str, dict[str, list]] = {}  # scope -> instance -> [(feature, value, phi)]
        for p in _read_csv(run / f"shap_{event}.csv"):
            points.setdefault(p["scope"], {}).setdefault(p["instance_id"], []).append(
                (p["feature"], float(p["value"]), float(p["phi"]))
            )
        for scope in scopes:
            path = run / f"model_{event}_{scope}.json"
            if not path.exists():
                continue
            model = json.loads(path.read_text(encoding="utf-8"))
            names = model["feature_names"]
            trees = model["trees"]
            if len(trees) != n_trees:
                errors.append(f"{path.name}: {len(trees)} trees, config says {n_trees}")
            used = {f for t in trees for f in t["feature"] if f != -1}
            instances = points.get(scope, {})
            role = "source" if scope == "sources" else "reaction"
            want_ids = {r["id"] for r in rows if r["event"] == event and r["role"] == role}
            if set(instances) != want_ids:
                errors.append(f"shap_{event}.csv/{scope}: explained {len(instances)} rows, expected {len(want_ids)}")
            gaps = []
            abs_sums = np.zeros(len(names))
            for iid, feats in instances.items():
                if [f for f, _, _ in feats] != names:
                    errors.append(f"shap_{event}.csv/{scope}/{iid}: feature order differs from the model")
                    break
                # exact inputs: features.csv value, or the model's median where absent
                values = by_id[iid]["values"]
                x = np.array([model["medians"][n] if values[n] is None else values[n] for n in names])
                csv_x = np.array([v for _, v, _ in feats])
                if not all(_close(a, b) for a, b in zip(x, csv_x)):
                    errors.append(f"shap_{event}.csv/{scope}/{iid}: value column differs from features.csv")
                phi = np.array([ph for _, _, ph in feats])
                output = sum(_walk(t, x) for t in trees) / len(trees)
                gaps.append(float(phi.sum()) - output)
                abs_sums += np.abs(phi)
                unused = [names[j] for j in range(len(names)) if j not in used and phi[j] != 0.0]
                if unused:
                    errors.append(f"{event}/{scope}/{iid}: nonzero phi for unused features {unused}")
            if gaps and max(gaps) - min(gaps) > TOL:
                errors.append(f"{event}/{scope}: sum(phi) - output varies by {max(gaps) - min(gaps):.3g}")
            ranking = rankings.get(event, {}).get(scope)
            if ranking is None:
                errors.append(f"shap_rankings.json lacks {event}/{scope}")
                continue
            mean_abs = dict(zip(names, abs_sums / max(len(instances), 1)))
            if [e["rank"] for e in ranking] != list(range(1, len(names) + 1)):
                errors.append(f"shap_rankings.json {event}/{scope}: ranks not 1..{len(names)}")
            if sorted(e["feature"] for e in ranking) != sorted(names):
                errors.append(f"shap_rankings.json {event}/{scope}: features differ from the model")
                continue
            order = [(-e["mean_abs_phi"], e["feature"]) for e in ranking]
            if order != sorted(order):
                errors.append(f"shap_rankings.json {event}/{scope}: not sorted by mean |phi|")
            for e in ranking:
                if not math.isclose(e["mean_abs_phi"], mean_abs[e["feature"]], rel_tol=0, abs_tol=TOL):
                    errors.append(
                        f"shap_rankings.json {event}/{scope}/{e['feature']}: {e['mean_abs_phi']} "
                        f"!= recomputed {mean_abs[e['feature']]}"
                    )
    return errors, rankings


def check_marker(rankings: dict, category: str) -> list[str]:
    errors = []
    for event, scopes in sorted(rankings.items()):
        top = [e["feature"] for e in scopes.get("reactions", [])[:3]]
        if category not in top:
            errors.append(f"{event}: planted category {category!r} not in reactions top 3 {top}")
    return errors


def check_repeats(round_hashes: list[dict]) -> list[str]:
    first = round_hashes[0]
    return [f"round {k + 1}: artifacts differ from round 1" for k, h in enumerate(round_hashes) if h != first]


# ---------------------------------------------------------------------------


def run_checks(
    run: Path,
    *,
    tally: dict,
    tweets: dict,
    lexicon_path: Path,
    alpha: float,
    n_trees: int,
    scopes: tuple[str, ...],
    excluded_event: str | None,
    marker: str | None,
    worker: dict,
) -> list[str]:
    errors = check_partitions(run, tally)
    rows, names = read_features(run / "features.csv")
    if sorted(r["id"] for r in rows) != sorted(tweets):
        errors.append("features.csv rows differ from the generated tweets")
    else:
        errors += check_lexicon_recount(rows, tweets, lexicon_path)
    errors += check_emotions(rows)
    errors += check_ks(run, rows, names, alpha)
    errors += check_means(run, rows, names)
    shap_errors, rankings = check_models_and_shap(run, rows, n_trees, scopes)
    errors += shap_errors
    if marker is not None:
        errors += check_marker(rankings, marker)
    if excluded_event is not None:
        if excluded_event in usable_events(rows):
            errors.append(f"event {excluded_event!r} should lack non-rumour sources")
        if not any(excluded_event in w and "excluded" in w for w in worker["warnings"]):
            errors.append(f"no exclusion warning for event {excluded_event!r}")
    errors += check_repeats(worker["round_hashes"])
    return errors
