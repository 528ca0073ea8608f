"""Run files: each table's writer and reader, and the markdown report.
Files go through `textprep`, the one way in and out, whose writers this
module re-exports. Each table's writer keeps only its header, row order
and cell formatting. Output is deterministic: fixed column orders, fixed
float formatting, no timestamps. The report is rendered from the run
files' rows as `read_csv_rows` and `read_json` give them, one per section.
"""

from __future__ import annotations

import csv
import math
import re
from itertools import repeat
from pathlib import Path

import numpy as np

from . import textprep
from .corpus import AGGREGATED_EVENT, Label, PartitionCounts, Role
from .emotions import LABELS as EMOTION_LABELS
from .emotions import POPULATIONS
from .errors import ParseError
from .features import FeatureTable
from .textprep import open_run_file, open_utf8, read_json, write_csv, write_json, write_text

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


def fnums(row: list[float]) -> list[str]:
    """`fnum` of each float in one row, without a Python call per cell.
    Writers format a row at a time, never whole columns up front, so a
    table's text is never all in memory at once."""
    return list(map(format, row, repeat(".10g")))


def read_csv_rows(path) -> list[dict]:
    """A table's rows as header -> cell string, in file order."""
    with open_utf8(path, newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# partitions


def write_partitions_csv(path, counts: list[PartitionCounts]) -> None:
    rows = ([c.event, c.nr_src, c.r_src, c.nr_re, c.r_re, c.total] for c in counts)
    write_csv(path, ["event", "nr_src", "r_src", "nr_re", "r_re", "total"], rows)


# ---------------------------------------------------------------------------
# feature matrix (absence kept explicit, never a magic number)


#: characters that make the csv writer quote a cell, or may (a lone "\r")
_CSV_SPECIAL = re.compile('[,"\r\n]')

#: the five cells that open a features.csv record, before the features
_META = ["tweet_id", "event", "role", "label", "empty_text"]


def write_features_csv(path, table: FeatureTable) -> None:
    """One record per row: the five meta cells, then each feature's value
    and absence flag. A row with no absent value and no meta cell to quote
    is formatted by one template, whose "%.10g" cells equal `fnum`; any
    other row goes through the csv writer."""
    header = list(_META)
    for name in table.names:
        header += [name, f"{name}__absent"]
    plain = "%s,%s,%s,%s,%s" + ",%.10g,false" * len(table.names) + "\n"
    columns = (table.tweet_id, table.event, table.role, table.label, table.empty_text)
    absent = np.isnan(table.X).any(axis=1).tolist()
    with textprep.open_run_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for *meta, empty_text, has_absent, values in zip(*(c.tolist() for c in columns), absent, table.X):
            empty_text = "true" if empty_text else "false"
            if has_absent or _CSV_SPECIAL.search("".join(meta)):
                writer.writerow(_feature_record(meta, empty_text, values.tolist()))
            else:
                fh.write(plain % (*meta, empty_text, *values.tolist()))


def _feature_record(meta: list[str], empty_text: str, values: list[float]) -> list[str]:
    """A features.csv record, NaN cells written as the empty cell flagged absent."""
    cells = fnums(values)
    flags = ["true" if c == "nan" else "false" for c in cells]  # NaN, and only NaN, formats as "nan"
    cells = ["" if c == "nan" else c for c in cells]
    record = [*meta, empty_text, *cells, *flags]
    record[5::2], record[6::2] = cells, flags  # value, flag, value, flag, ...
    return record


#: the words a features.csv `role` and `label` cell may hold
_ROLES = tuple(r.value for r in Role)
_LABELS = tuple(lab.value for lab in Label)


def read_features_csv(path) -> FeatureTable:
    """Absent values come back as NaN. ParseError is raised for a header
    not `_META` then a value and a flag per feature, each named once; a
    record of the wrong length; a `role`, `label` or `empty_text` cell
    outside its two words; a value that is not a number; and a non-finite
    value (nan, inf) not flagged absent."""
    nan = math.nan
    meta: list[list[str]] = [[], [], [], [], []]  # tweet_id, event, role, label, empty_text
    X = []
    absent = []  # count of absent flags per record
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("no header", line=1, path=path)
        feature_names = header[5::2]
        if header[:5] != _META or len(header[6::2]) != len(feature_names) or len(set(feature_names)) < len(feature_names):
            expected = f"{','.join(_META)}, then a value and a flag per feature, each feature named once"
            raise ParseError(f"header is not {expected}", line=1, path=path)
        for record in reader:
            if len(record) != len(header):
                raise ParseError(f"{len(record)} cells, expected {len(header)}", line=reader.line_num, path=path)
            for column, cell in zip(meta, record):
                column.append(cell)
            flags = record[6::2]
            absent.append(flags.count("true"))
            try:
                if absent[-1]:
                    X.append([nan if flag == "true" else float(raw) for raw, flag in zip(record[5::2], flags)])
                else:
                    X.append(list(map(float, record[5::2])))
            except ValueError as exc:
                raise ParseError(str(exc), line=reader.line_num, path=path) from exc
    tweet_id, event, role, label, empty_text = meta
    empty_text = np.array(empty_text, dtype=str)
    table = FeatureTable.from_columns(feature_names, tweet_id, event, role, label, empty_text == "true", X)
    del X  # the matrix holds the rows now; free them before the checks
    for name, cells, words in (("role", table.role, _ROLES), ("label", table.label, _LABELS),
                               ("empty_text", empty_text, ("true", "false"))):
        bad = np.flatnonzero(~np.isin(cells, words))
        if bad.size:
            cell, line = str(cells[bad[0]]), _record(path, int(bad[0]))[2]
            raise ParseError(f"{name} {cell!r} is neither {words[0]!r} nor {words[1]!r}", line=line, path=path)
    # an absent cell reads as NaN, so a record holds more non-finite values
    # than absent flags only where a value flagged present is nan or inf
    bad = np.count_nonzero(~np.isfinite(table.X), axis=1) != np.array(absent, dtype=np.int64)
    if bad.any():
        raise _non_finite_cell(path, int(bad.argmax()))
    return table


def _record(path, index: int) -> tuple[list[str], list[str], int]:
    """The header and the index-th record of a features CSV, and the line
    the record ends on; read again only to name a bad cell."""
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for _ in range(index + 1):
            record = next(reader)
    return header, record, reader.line_num


def _non_finite_cell(path, index: int) -> ParseError:
    """The ParseError naming the first value of the index-th record of a
    features CSV that is nan or inf but not flagged absent."""
    header, record, line = _record(path, index)
    name, raw = next(
        (name, raw)
        for name, raw, flag in zip(header[5::2], record[5::2], record[6::2])
        if flag != "true" and not math.isfinite(float(raw))
    )
    cause = f"feature {name!r} holds {raw!r}, which is not finite, but is not flagged absent"
    return ParseError(cause, line=line, path=path)


# ---------------------------------------------------------------------------
# significance matrices


def write_ks_csv(path, rows: list[list]) -> None:
    """KS rows as `stats.significance_matrix` gives them, sorted by
    (feature, event, population_pair)."""
    ordered = sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    write_csv(path, KS_HEADER, (r[:5] + [fnum(v) for v in r[5:9]] + [str(r[9]).lower()] for r in ordered))


# ---------------------------------------------------------------------------
# means


def write_means_csv(path, rows: list[list]) -> None:
    """Mean rows as `stats.mean_report` gives them, sorted by feature; the
    populations of a feature keep their order."""
    ordered = sorted(rows, key=lambda r: r[0])
    cells = ([f, pop, "" if mean is None else fnum(mean), n, absent] for f, pop, mean, n, absent in ordered)
    write_csv(path, ["feature", "population", "mean", "n", "absent"], cells)


# ---------------------------------------------------------------------------
# emotions


def write_emotions_csv(path, table: dict[str, dict[str, float]]) -> None:
    rows = ([lab] + [fnum(table[pop][lab]) if pop in table else "" for pop in POPULATIONS] for lab in EMOTION_LABELS)
    write_csv(path, ["label"] + list(POPULATIONS), rows)


# ---------------------------------------------------------------------------
# metrics


def write_metrics_csv(path, rows: list[list]) -> None:
    """One row per model, each a list in `METRICS_HEADER` order, sorted
    by (event, scope); the five counts as they are, the scores by `fnums`."""
    write_csv(path, METRICS_HEADER, (row[:5] + fnums(row[5:]) for row in sorted(rows, key=lambda r: r[:2])))


# ---------------------------------------------------------------------------
# shap exports


# |phi| below this is written as 0: the residue of adding terms that
# cancel, whose digits follow the order they are added in
PHI_FLOOR = 1e-12


def write_shap_points_csv(path, names: list[str], blocks: list[tuple]) -> None:
    """Per-point export: one file per event, scope column first. Each block
    is (scope, ids, values, phi, above_median), matrix row i being tweet
    ids[i] and column j feature names[j]; written block, row, column. A
    phi with |phi| < PHI_FLOOR is written as 0 (never -0)."""
    rows = (
        [scope, tweet_id, name, value, phi_j, "true" if above else "false"]
        for scope, ids, values, phi, above_median in blocks
        for tweet_id, row_values, row_phi, row_above in zip(
            ids, values.tolist(), np.where(np.abs(phi) < PHI_FLOOR, 0.0, phi).tolist(), above_median.tolist()
        )
        for name, value, phi_j, above in zip(names, fnums(row_values), fnums(row_phi), row_above)
    )
    write_csv(path, ["scope", "instance_id", "feature", "value", "phi", "above_median"], rows)


def ranking_entries(ranking) -> list[dict]:
    """(feature, mean |phi|) pairs as `shap_rankings.json` entries: each
    value kept to the 10 significant digits of `fnum`, ranked by (-value
    as written, feature), so the file agrees with its own order. The file
    holds {event: {scope: entries}}."""
    written = sorted(((float(fnum(v)), name) for name, v in ranking), key=lambda item: (-item[0], item[1]))
    return [{"rank": i + 1, "feature": name, "mean_abs_phi": v} for i, (v, name) in enumerate(written)]


# ---------------------------------------------------------------------------
# the report


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _section(title: str, body: list[str]) -> list[str]:
    return [f"## {title}", "", *body, ""]


def _ks_grid(ks_rows: list[dict], pair: str, alpha: float) -> list[str]:
    rows = [r for r in ks_rows if r["population_pair"] == pair]
    features = sorted({r["feature"] for r in rows})
    events = sorted({r["event"] for r in rows}, key=lambda event: (event == AGGREGATED_EVENT, event))
    by_key = {(r["feature"], r["event"]): r for r in rows}
    body = []
    for feature in features:
        line = [feature]
        for event in events:
            cell = by_key.get((feature, event))
            if cell is None:
                line.append("—")
            else:
                p = float(cell["p_value"])
                line.append(f"{p:.3g} {'✓' if p < alpha else '✗'}")
        body.append(line)
    return _md_table(["feature"] + events, body) if body else ["(no comparable cells)"]


def _means(out: Path) -> list[str]:
    by_feature: dict[str, dict[str, str]] = {}
    for row in read_csv_rows(out / MEANS_CSV):
        by_feature.setdefault(row["feature"], {})[row["population"]] = row["mean"]
    body = []
    for feature in sorted(by_feature):
        line = [feature]
        for pop in POPULATIONS:
            raw = by_feature[feature].get(pop, "")
            line.append(f"{float(raw):.4g}" if raw else "—")
        body.append(line)
    header = ["feature"] + [POPULATION_TITLES[p] for p in POPULATIONS]
    return _md_table(header, body)


def _emotions(out: Path) -> list[str]:
    if not (out / EMOTIONS_CSV).exists():
        return ["_skipped: no emotion provider_"]
    body = [
        [row["label"]] + [f"{float(row[pop]):.2f}%" if row[pop] else "—" for pop in POPULATIONS]
        for row in read_csv_rows(out / EMOTIONS_CSV)
    ]
    return _md_table(["emotion"] + [POPULATION_TITLES[p] for p in POPULATIONS], body)


def _metrics(out: Path, done: dict) -> list[str]:
    if not done.get("train"):
        return ["_skipped: training stage not run_"]
    body = []
    for r in read_csv_rows(out / METRICS_CSV):
        scores = [f"{float(r[name]):.2f}" for name in ("accuracy", "precision", "recall", "f1")]
        cv = f"{float(r['cv_accuracy_mean']):.2f}±{float(r['cv_accuracy_std']):.2f}"
        body.append([r["event"], r["scope"], *scores, cv])
    header = ["event", "scope", "Acc", "Pr", "Rec", "F1", "CV acc"]
    return _md_table(header, body) if body else ["(no trainable events)"]


def _rankings(out: Path, done: dict) -> list[str]:
    if not done.get("explain"):
        return ["_skipped: explain stage not run_"]
    rankings = read_json(out / SHAP_RANKINGS_JSON)
    lines = []
    for event in sorted(rankings):
        for scope in sorted(rankings[event]):
            body = [
                [str(item["rank"]), item["feature"], f"{item['mean_abs_phi']:.4g}"]
                for item in rankings[event][scope][:10]
            ]
            lines += [f"### {event} ({scope})", ""]
            lines += _md_table(["rank", "feature", "mean |phi|"], body)
            lines.append("")
    return lines or ["(no explanations computed)"]


def render_markdown(out: Path, alpha: float, done: dict) -> str:
    """The report of the run directory `out`, each section rendered from
    the rows of the run file it shows. `done` holds the manifest's stage
    marks; a mark stands for all of a stage's files as its latest run
    wrote them, so metrics and rankings are shown only when train and
    explain are marked. Compare writes `emotions.csv` only when the
    features hold emotion scores."""
    lines = ["# Rumour analysis report", ""]
    lines.append(f"Significance threshold: p < {fnum(alpha)} (✓ significant, ✗ not).")
    lines.append("")
    partitions = [list(row.values()) for row in read_csv_rows(out / PARTITIONS_CSV)]
    header = ["event", "NR src", "R src", "NR re", "R re", "total"]
    lines += _section("Data distribution", _md_table(header, partitions))
    ks_rows = []
    for name in (KS_SOURCES_CSV, KS_REACTIONS_CSV, KS_AGGREGATED_CSV):
        ks_rows += read_csv_rows(out / name)
    for pair, title in (("sources", "source tweets"), ("reactions", "reaction tweets")):
        lines += _section(f"Significance of features: rumour vs non-rumour {title}", _ks_grid(ks_rows, pair, alpha))
    lines += _section("Population means", _means(out))
    lines += _section("Emotion distribution (% of tweets by argmax label)", _emotions(out))
    lines += _section("Classification (held-out test metrics)", _metrics(out, done))
    lines += _section("Feature attribution (top 10 by mean |phi|)", _rankings(out, done))
    return "\n".join(lines)
