"""Table assembly and rendering.

Every pipeline table has one CSV schema, written and read here so the
formats stay stable, plus a human-readable markdown rendering where
significant cells are marked with a check/cross. All output is
deterministic: fixed column orders, fixed float formatting, no
timestamps.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

from .corpus import PartitionCounts
from .emotions import LABELS as EMOTION_LABELS
from .emotions import POPULATIONS
from .features import FeatureTable
from .stats import MeanCell, SignificanceMatrix

PARTITIONS_CSV = "partitions.csv"
FEATURES_CSV = "features.csv"
KS_SOURCES_CSV = "ks_sources.csv"
KS_REACTIONS_CSV = "ks_reactions.csv"
KS_AGGREGATED_CSV = "ks_aggregated.csv"
MEANS_CSV = "means.csv"
EMOTIONS_CSV = "emotions.csv"
METRICS_CSV = "metrics.csv"
SHAP_RANKINGS_JSON = "shap_rankings.json"
REPORT_MD = "report.md"

KS_HEADER = [
    "feature",
    "event",
    "population_pair",
    "n1",
    "n2",
    "d_stat",
    "p_value",
    "mean_rumour",
    "mean_nonrumour",
    "significant",
]

METRICS_HEADER = [
    "event",
    "scope",
    "n_train",
    "n_test",
    "cv_folds",
    "cv_accuracy_mean",
    "cv_accuracy_std",
    "accuracy",
    "precision",
    "recall",
    "f1",
]

POPULATION_TITLES = {
    "r_src": "Rumour Src",
    "nr_src": "Non-rumour Src",
    "r_re": "Rumour Re",
    "nr_re": "Non-rumour Re",
}


def fnum(x: float) -> str:
    return format(float(x), ".10g")


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# partitions


def write_partitions_csv(path, counts: list[PartitionCounts]) -> None:
    with _open_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["event", "nr_src", "r_src", "nr_re", "r_re", "total"])
        for c in counts:
            w.writerow([c.event, c.nr_src, c.r_src, c.nr_re, c.r_re, c.total])


def read_partitions_csv(path) -> list[PartitionCounts]:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                PartitionCounts(
                    event=row["event"],
                    nr_src=int(row["nr_src"]),
                    r_src=int(row["r_src"]),
                    nr_re=int(row["nr_re"]),
                    r_re=int(row["r_re"]),
                )
            )
    return out


# ---------------------------------------------------------------------------
# feature matrix (absence kept explicit, never a magic number)


def write_features_csv(path, table: FeatureTable) -> None:
    header = ["tweet_id", "event", "role", "label", "empty_text"]
    for name in table.names:
        header += [name, f"{name}__absent"]
    with _open_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        columns = (table.tweet_id, table.event, table.role, table.label, table.empty_text)
        for *meta, empty_text, values in zip(*(c.tolist() for c in columns), table.X):
            record = meta + [str(empty_text).lower()]
            for v in values.tolist():
                absent = math.isnan(v)
                record += ["" if absent else fnum(v), "true" if absent else "false"]
            w.writerow(record)


def read_features_csv(path) -> FeatureTable:
    """Absent values come back as NaN."""
    nan = math.nan
    meta: list[list[str]] = [[], [], [], [], []]  # tweet_id, event, role, label, empty_text
    X = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        feature_names = [h for h in header[5:] if not h.endswith("__absent")]
        for record in reader:
            for column, cell in zip(meta, record):
                column.append(cell)
            cells = zip(record[5::2], record[6::2])
            X.append([nan if absent == "true" else float(raw) for raw, absent in cells])
    tweet_id, event, role, label, empty_text = meta
    return FeatureTable.from_columns(
        feature_names, tweet_id, event, role, label, [e == "true" for e in empty_text], X
    )


# ---------------------------------------------------------------------------
# significance matrices


def write_ks_csv(path, matrices: list[SignificanceMatrix], events: list[str] | None = None) -> None:
    """Rows sorted by (feature, event, population_pair); absent cells are
    skipped (they have no numbers to report)."""
    rows = []
    for matrix in matrices:
        for feature in matrix.features:
            for event in matrix.events:
                if events is not None and event not in events:
                    continue
                cell = matrix.cells[(feature, event)]
                if cell is None:
                    continue
                rows.append(
                    [
                        feature,
                        event,
                        matrix.population_pair,
                        cell.ks.n1,
                        cell.ks.n2,
                        fnum(cell.ks.d_stat),
                        fnum(cell.ks.p_value),
                        fnum(cell.mean_rumour),
                        fnum(cell.mean_nonrumour),
                        str(cell.significant).lower(),
                    ]
                )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with _open_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(KS_HEADER)
        w.writerows(rows)


def read_ks_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# means


def write_means_csv(path, means: dict[str, dict[str, MeanCell]]) -> None:
    with _open_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["feature", "population", "mean", "n", "absent"])
        for feature in sorted(means):
            for pop in POPULATIONS:
                if pop not in means[feature]:
                    continue
                cell = means[feature][pop]
                w.writerow(
                    [
                        feature,
                        pop,
                        "" if cell.mean is None else fnum(cell.mean),
                        cell.n,
                        cell.absent,
                    ]
                )


def read_means_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# emotions


def write_emotions_csv(path, table: dict[str, dict[str, float]]) -> None:
    with _open_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["label"] + list(POPULATIONS))
        for label in EMOTION_LABELS:
            row = [label]
            for pop in POPULATIONS:
                row.append(fnum(table[pop][label]) if pop in table else "")
            w.writerow(row)


def read_emotions_csv(path) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            for pop in POPULATIONS:
                if row[pop] != "":
                    table.setdefault(pop, {})[row["label"]] = float(row[pop])
    return table


# ---------------------------------------------------------------------------
# metrics


def write_metrics_csv(path, rows: list[dict]) -> None:
    with _open_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(METRICS_HEADER)
        for r in sorted(rows, key=lambda r: (r["event"], r["scope"])):
            w.writerow(
                [
                    r["event"],
                    r["scope"],
                    r["n_train"],
                    r["n_test"],
                    r["cv_folds"],
                    fnum(r["cv_accuracy_mean"]),
                    fnum(r["cv_accuracy_std"]),
                    fnum(r["accuracy"]),
                    fnum(r["precision"]),
                    fnum(r["recall"]),
                    fnum(r["f1"]),
                ]
            )


def read_metrics_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# shap exports


def write_shap_points_csv(path, rows: list[dict]) -> None:
    """Per-point export: one file per event, scope column first."""
    with _open_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scope", "instance_id", "feature", "value", "phi", "above_median"])
        for r in rows:
            w.writerow(
                [
                    r["scope"],
                    r["instance_id"],
                    r["feature"],
                    fnum(r["value"]),
                    fnum(r["phi"]),
                    str(r["above_median"]).lower(),
                ]
            )


def write_shap_rankings_json(path, rankings: dict) -> None:
    """{event: {scope: [{rank, feature, mean_abs_phi}, ...]}}"""
    with _open_write(path) as fh:
        json.dump(rankings, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_shap_rankings_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# assembled report


@dataclass
class AnalysisReport:
    partitions: list[PartitionCounts] = field(default_factory=list)
    ks_rows: list[dict] = field(default_factory=list)  # merged rows of the three ks CSVs
    means: list[dict] = field(default_factory=list)
    emotion_table: dict[str, dict[str, float]] | None = None
    metrics: list[dict] = field(default_factory=list)
    shap_rankings: dict = field(default_factory=dict)
    alpha: float = 0.05
    skipped: dict[str, str] = field(default_factory=dict)  # section -> reason


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _ks_grid(ks_rows: list[dict], pair: str) -> list[str]:
    rows = [r for r in ks_rows if r["population_pair"] == pair]
    if not rows:
        return ["(no comparable cells)"]
    features = sorted({r["feature"] for r in rows})
    events = sorted({r["event"] for r in rows if r["event"] != "aggregated"})
    if any(r["event"] == "aggregated" for r in rows):
        events.append("aggregated")
    by_key = {(r["feature"], r["event"]): r for r in rows}
    body = []
    for feature in features:
        line = [feature]
        for event in events:
            cell = by_key.get((feature, event))
            if cell is None:
                line.append("—")
            else:
                mark = "✓" if cell["significant"] == "true" else "✗"
                line.append(f"{float(cell['p_value']):.3g} {mark}")
        body.append(line)
    return _md_table(["feature"] + events, body)


def render_markdown(report: AnalysisReport) -> str:
    lines = ["# Rumour analysis report", ""]
    lines.append(f"Significance threshold: p < {fnum(report.alpha)} (✓ significant, ✗ not).")
    lines.append("")

    lines.append("## Data distribution")
    lines.append("")
    if report.partitions:
        body = [
            [c.event, str(c.nr_src), str(c.r_src), str(c.nr_re), str(c.r_re), str(c.total)]
            for c in report.partitions
        ]
        lines += _md_table(["event", "NR src", "R src", "NR re", "R re", "total"], body)
    else:
        lines.append(f"_skipped: {report.skipped.get('partitions', 'not computed')}_")
    lines.append("")

    for pair, title in (("sources", "source tweets"), ("reactions", "reaction tweets")):
        lines.append(f"## Significance of features: rumour vs non-rumour {title}")
        lines.append("")
        if "compare" in report.skipped:
            lines.append(f"_skipped: {report.skipped['compare']}_")
        else:
            lines += _ks_grid(report.ks_rows, pair)
        lines.append("")

    lines.append("## Population means")
    lines.append("")
    if "compare" in report.skipped:
        lines.append(f"_skipped: {report.skipped['compare']}_")
    elif report.means:
        by_feature: dict[str, dict[str, str]] = {}
        for row in report.means:
            by_feature.setdefault(row["feature"], {})[row["population"]] = row["mean"]
        body = []
        for feature in sorted(by_feature):
            line = [feature]
            for pop in POPULATIONS:
                raw = by_feature[feature].get(pop, "")
                line.append(f"{float(raw):.4g}" if raw else "—")
            body.append(line)
        lines += _md_table(["feature"] + [POPULATION_TITLES[p] for p in POPULATIONS], body)
    else:
        lines.append("(no means computed)")
    lines.append("")

    lines.append("## Emotion distribution (% of tweets by argmax label)")
    lines.append("")
    if report.emotion_table is None:
        lines.append(f"_skipped: {report.skipped.get('emotions', 'no emotion provider')}_")
    else:
        body = []
        for label in EMOTION_LABELS:
            line = [label]
            for pop in POPULATIONS:
                if pop in report.emotion_table:
                    line.append(f"{report.emotion_table[pop][label]:.2f}%")
                else:
                    line.append("—")
            body.append(line)
        lines += _md_table(["emotion"] + [POPULATION_TITLES[p] for p in POPULATIONS], body)
    lines.append("")

    lines.append("## Classification (held-out test metrics)")
    lines.append("")
    if "train" in report.skipped:
        lines.append(f"_skipped: {report.skipped['train']}_")
    elif report.metrics:
        body = []
        for r in sorted(report.metrics, key=lambda r: (r["event"], r["scope"])):
            body.append(
                [
                    r["event"],
                    r["scope"],
                    f"{float(r['accuracy']):.2f}",
                    f"{float(r['precision']):.2f}",
                    f"{float(r['recall']):.2f}",
                    f"{float(r['f1']):.2f}",
                    f"{float(r['cv_accuracy_mean']):.2f}±{float(r['cv_accuracy_std']):.2f}",
                ]
            )
        lines += _md_table(["event", "scope", "Acc", "Pr", "Rec", "F1", "CV acc"], body)
    else:
        lines.append("(no trainable events)")
    lines.append("")

    lines.append("## Feature attribution (top 10 by mean |phi|)")
    lines.append("")
    if "explain" in report.skipped:
        lines.append(f"_skipped: {report.skipped['explain']}_")
    elif report.shap_rankings:
        for event in sorted(report.shap_rankings):
            for scope in sorted(report.shap_rankings[event]):
                ranking = report.shap_rankings[event][scope]
                lines.append(f"### {event} ({scope})")
                lines.append("")
                body = [
                    [str(item["rank"]), item["feature"], f"{item['mean_abs_phi']:.4g}"]
                    for item in ranking[:10]
                ]
                lines += _md_table(["rank", "feature", "mean |phi|"], body)
                lines.append("")
    else:
        lines.append("(no explanations computed)")
    lines.append("")

    return "\n".join(lines)
