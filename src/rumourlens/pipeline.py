"""Stage implementations behind the CLI.

Stages communicate through files in the run directory and a manifest
recording which stages completed, so each command is idempotent and
later stages can refuse to run out of order. Events lacking one of the
two source populations are loaded and counted but excluded from the
compare, train and explain stages, each of which names them in a
warning prefixed with the stage's name.

Compare computes the KS grids, the population means and the emotion
share table from row masks over the feature matrix's columns.
"""

from __future__ import annotations

import json
import warnings
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import classify, emotions, lexicon, report, senticnet, shapley, stats, textprep
from .classify import ForestConfig, derive_seed
from .config import RunConfig, save_config
from .corpus import AGGREGATED_EVENT, load_jsonl, load_pheme_tree, partition
from .errors import AdditivityError, FeatureMismatch, MissingArtifact, TooFewSamples
from .features import EMOTION_FEATURES, FeatureTable, Featurizer

MANIFEST = "manifest.json"

STAGE_DEPS = {
    "ingest": (),
    "featurize": ("ingest",),
    "compare": ("featurize",),
    "train": ("featurize",),
    "explain": ("train",),
    "report": ("featurize", "compare"),
}

SCOPES = ("sources", "reactions")

# largest |base + sum(phi) - model output| an explained row may show
ADDITIVITY_TOLERANCE = 1e-9

_DATA_DIR = "rumourlens.data"


def _bundled(name: str) -> Path:
    from importlib import resources

    return Path(str(resources.files(_DATA_DIR).joinpath(name)))


def run_dir(cfg: RunConfig) -> Path:
    d = cfg.run_dir()
    d.mkdir(parents=True, exist_ok=True)
    return d


def _read_manifest(cfg: RunConfig) -> dict:
    path = run_dir(cfg) / MANIFEST
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"stages": {}}


def _mark_stage(cfg: RunConfig, stage: str) -> None:
    manifest = _read_manifest(cfg)
    manifest["stages"][stage] = True
    (run_dir(cfg) / MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def require_stages(cfg: RunConfig, stage: str) -> None:
    done = _read_manifest(cfg)["stages"]
    missing = [dep for dep in STAGE_DEPS[stage] if not done.get(dep)]
    if missing:
        raise MissingArtifact(
            f"stage {stage!r} needs {', '.join(missing)} to run first (run directory: {run_dir(cfg)})"
        )


def load_corpora(cfg: RunConfig):
    if cfg.dataset_format == "pheme":
        return load_pheme_tree(cfg.dataset)
    return load_jsonl(cfg.dataset)


def make_emotion_provider(cfg: RunConfig):
    if cfg.emotion_provider == "none":
        return None
    if cfg.emotion_provider == "fallback":
        path = cfg.emotion_lexicon_path or None
        return emotions.LexiconFallbackProvider(emotions.load_emotion_lexicon(path))
    if cfg.emotion_provider == "cassette":
        return emotions.CassetteProvider(cfg.emotion_cassette, batch_size=cfg.emotion_batch_size)
    return emotions.RemoteProvider(
        cfg.emotion_url,
        timeout=cfg.emotion_timeout,
        retries=cfg.emotion_retries,
        batch_size=cfg.emotion_batch_size,
        max_in_flight=cfg.emotion_parallel,
    )


def make_featurizer(cfg: RunConfig) -> Featurizer:
    lex = lexicon.load_lexicon(cfg.lexicon or _bundled("demo_lexicon.json"))
    table = senticnet.load_sentic_table(cfg.sentic_table or _bundled("sentic_demo.csv"))
    stopwords = textprep.load_stopwords(cfg.stopwords_path or None)
    easy = textprep.load_easy_words(cfg.easy_words_path or None)
    lemmatizer = textprep.RuleLemmatizer(
        textprep.load_lemma_exceptions(cfg.lemma_exceptions_path or None)
    )
    return Featurizer(
        lexicon=lex,
        sentic_table=table,
        emotion_provider=make_emotion_provider(cfg),
        stopwords=stopwords,
        lemmatizer=lemmatizer,
        easy_words=easy,
    )


def forest_config(cfg: RunConfig) -> ForestConfig:
    return ForestConfig(
        n_trees=cfg.n_trees,
        max_features=cfg.max_features,
        min_samples_split=cfg.min_samples_split,
        max_depth=cfg.max_depth or None,
    )


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: RunConfig) -> Path:
    out = run_dir(cfg)
    save_config(cfg, out / "run_config.json")
    corpora = load_corpora(cfg)
    counts = [partition(c).counts() for c in corpora]
    report.write_partitions_csv(out / report.PARTITIONS_CSV, counts)
    _mark_stage(cfg, "ingest")
    return out / report.PARTITIONS_CSV


def stage_featurize(cfg: RunConfig) -> Path:
    require_stages(cfg, "featurize")
    out = run_dir(cfg)
    corpora = load_corpora(cfg)
    featurizer = make_featurizer(cfg)
    table = FeatureTable.concat(featurizer.names, [featurizer.featurize_corpus(c) for c in corpora])
    report.write_features_csv(out / report.FEATURES_CSV, table)
    _mark_stage(cfg, "featurize")
    return out / report.FEATURES_CSV


def _usable_events(table: FeatureTable, stage: str) -> list[str]:
    """The events with both a rumour and a non-rumour source, sorted. Each
    other event is named in a warning prefixed with `stage` and filed at
    the caller of the stage function that asked."""
    sources = table.role == "source"
    usable = []
    for event in sorted(set(table.event[sources].tolist())):
        labels = set(table.label[sources & (table.event == event)].tolist())
        if labels >= {"rumour", "non-rumour"}:
            usable.append(event)
        else:
            warnings.warn(
                f"{stage}: event {event!r} lacks a rumour or non-rumour source population; excluded",
                stacklevel=3,
            )
    return usable


def stage_compare(cfg: RunConfig) -> list[Path]:
    require_stages(cfg, "compare")
    out = run_dir(cfg)
    table = report.read_features_csv(out / report.FEATURES_CSV)
    usable = _usable_events(table, "compare")
    table = table.take(np.isin(table.event, usable))

    # row masks keep the original row order, so sample order (and float
    # sums) do not depend on how the rows are grouped
    columns = {name: table.X[:, j] for j, name in enumerate(table.names)}
    rumour = table.label == "rumour"
    source = table.role == "source"
    populations = {
        "r_src": rumour & source,
        "nr_src": ~rumour & source,
        "r_re": rumour & ~source,
        "nr_re": ~rumour & ~source,
    }

    # emotion scores feed the emotion table, not the KS grids
    ks_columns = {f: col for f, col in columns.items() if f not in EMOTION_FEATURES}
    written, aggregated = [], []
    for pair, in_role, name in (
        ("sources", source, report.KS_SOURCES_CSV),
        ("reactions", ~source, report.KS_REACTIONS_CSV),
    ):
        per_event = {event: in_role & (table.event == event) for event in usable}
        rows = stats.significance_matrix(ks_columns, per_event, rumour, cfg.alpha, pair)
        report.write_ks_csv(out / name, rows)
        written.append(out / name)
        pooled = {AGGREGATED_EVENT: in_role}
        aggregated += stats.significance_matrix(ks_columns, pooled, rumour, cfg.alpha, pair)
    report.write_ks_csv(out / report.KS_AGGREGATED_CSV, aggregated)
    report.write_means_csv(out / report.MEANS_CSV, stats.mean_report(columns, populations))
    written += [out / report.KS_AGGREGATED_CSV, out / report.MEANS_CSV]

    if any(f in columns for f in EMOTION_FEATURES):
        scores = np.column_stack([columns[lab] for lab in EMOTION_FEATURES])
        shares = emotions.emotion_table(scores, populations)
        report.write_emotions_csv(out / report.EMOTIONS_CSV, shares)
        written.append(out / report.EMOTIONS_CSV)

    _mark_stage(cfg, "compare")
    return written


def _model_split(cfg: RunConfig, table: FeatureTable, event: str, scope: str):
    """(rows, y, seed, train, test) of one (event, scope) model: its row
    mask over `table`, class vector, seed and stratified train/test row
    indices. Train and explain both take them from here, so the two
    stages cannot disagree on which rows a model was fitted on."""
    role = "source" if scope == "sources" else "reaction"
    rows = (table.event == event) & (table.role == role)
    y = table.classes()[rows]
    seed = derive_seed(cfg.seed, event, scope)
    train, test = classify.split_train_test(y, ratio=cfg.split_ratio, seed=seed)
    return rows, y, seed, train, test


def _scopes(cfg: RunConfig) -> tuple[str, ...]:
    return SCOPES if cfg.scope == "both" else (cfg.scope,)


def _model_path(out: Path, event: str, scope: str) -> Path:
    return out / f"model_{event}_{scope}.json"


def _relay_warnings(caught, label: str) -> None:
    """Re-issue warnings recorded inside a stage (fewer folds, an
    unsplittable node) prefixed with the model they concern, filed at the
    caller of the stage function."""
    for w in caught:
        warnings.warn(f"{label}: {w.message}", w.category, stacklevel=3)


def stage_train(cfg: RunConfig) -> Path:
    require_stages(cfg, "train")
    out = run_dir(cfg)
    table = report.read_features_csv(out / report.FEATURES_CSV)
    usable = _usable_events(table, "train")
    config = forest_config(cfg)
    metrics_rows = []
    for event in usable:
        for scope in _scopes(cfg):
            label = f"{event}/{scope}"
            try:
                rows, y, seed, train, test = _model_split(cfg, table, event, scope)
                X = table.X[rows]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    fold_metrics = classify.cross_validate(
                        X[train],
                        y[train],
                        table.names,
                        k=cfg.k_folds,
                        config=config,
                        seed=seed,
                        averaging=cfg.averaging,
                    )
            except TooFewSamples as exc:
                warnings.warn(f"{label}: {exc}; model skipped", stacklevel=2)
                continue
            _relay_warnings(caught, label)
            medians = classify.compute_medians(X[train])
            balanced = train[classify.oversample(y[train], seed=seed)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = classify.fit_forest(
                    X[balanced],
                    y[balanced],
                    table.names,
                    config=config,
                    seed=seed,
                    medians=medians,
                )
            _relay_warnings(caught, label)
            fold_scores = [m.accuracy for m in fold_metrics]
            model.fold_scores = fold_scores
            final = classify.evaluate(model, X[test], y[test], averaging=cfg.averaging)
            _model_path(out, event, scope).write_text(
                classify.model_to_json(model), encoding="utf-8"
            )
            metrics_rows.append(
                {
                    "event": event,
                    "scope": scope,
                    "n_train": len(train),
                    "n_test": len(test),
                    "cv_folds": len(fold_scores),
                    "cv_accuracy_mean": float(np.mean(fold_scores)),
                    "cv_accuracy_std": float(np.std(fold_scores)),
                    "accuracy": final.accuracy,
                    "precision": final.precision,
                    "recall": final.recall,
                    "f1": final.f1,
                }
            )
    report.write_metrics_csv(out / report.METRICS_CSV, metrics_rows)
    _mark_stage(cfg, "train")
    return out / report.METRICS_CSV


def _check_model_features(model, names, model_path: Path, event: str, scope: str) -> None:
    """Raise FeatureMismatch, naming the first differing column, unless
    the model was trained on exactly the feature columns `names`."""
    for i, (want, got) in enumerate(zip_longest(model.feature_names, names)):
        if want != got:
            raise FeatureMismatch(
                f"stage 'explain', event {event!r}, scope {scope!r}: feature column {i} is "
                f"{'absent' if want is None else repr(want)} in {model_path.name} but "
                f"{'absent' if got is None else repr(got)} in {report.FEATURES_CSV}"
            )


def stage_explain(cfg: RunConfig) -> list[Path]:
    require_stages(cfg, "explain")
    out = run_dir(cfg)
    table = report.read_features_csv(out / report.FEATURES_CSV)
    usable = _usable_events(table, "explain")
    rankings: dict = {}
    written = []
    for event in usable:
        blocks = []
        for scope in _scopes(cfg):
            model_path = _model_path(out, event, scope)
            if not model_path.exists():
                continue
            model = classify.model_from_json(model_path.read_text(encoding="utf-8"))
            _check_model_features(model, table.names, model_path, event, scope)
            rows, _y, _seed, train, _test = _model_split(cfg, table, event, scope)
            X, ids = table.X[rows], table.tweet_id[rows].tolist()
            summary = shapley.shap_summary(
                model,
                X,
                background=X[train],
                background_limit=cfg.shap_background,
                seed=derive_seed(cfg.seed, event, scope, "background"),
            )
            gaps = np.abs(
                summary.base_value + summary.phi.sum(axis=1) - model.predict_proba(summary.values)
            )
            worst = int(np.argmax(gaps))
            if not gaps[worst] <= ADDITIVITY_TOLERANCE:
                raise AdditivityError(
                    f"stage 'explain', event {event!r}, scope {scope!r}: tweet {ids[worst]!r} "
                    f"has base + sum(phi) - output = {gaps[worst]:.3g}, "
                    f"beyond {ADDITIVITY_TOLERANCE:g}"
                )
            rankings.setdefault(event, {})[scope] = [
                {"rank": i + 1, "feature": name, "mean_abs_phi": value}
                for i, (name, value) in enumerate(summary.ranking)
            ]
            above_median = summary.values > np.median(summary.values, axis=0)
            blocks.append((scope, ids, summary.values, summary.phi, above_median))
        if blocks:
            path = out / f"shap_{event}.csv"
            report.write_shap_points_csv(path, table.names, blocks)
            written.append(path)
    report.write_shap_rankings_json(out / report.SHAP_RANKINGS_JSON, rankings)
    written.append(out / report.SHAP_RANKINGS_JSON)
    _mark_stage(cfg, "explain")
    return written


def stage_report(cfg: RunConfig) -> Path:
    require_stages(cfg, "report")
    out = run_dir(cfg)
    done = _read_manifest(cfg)["stages"]
    analysis = report.AnalysisReport(alpha=cfg.alpha)
    analysis.partitions = report.read_partitions_csv(out / report.PARTITIONS_CSV)
    for fname in (report.KS_SOURCES_CSV, report.KS_REACTIONS_CSV, report.KS_AGGREGATED_CSV):
        analysis.ks_rows.extend(report.read_csv_rows(out / fname))
    analysis.means = report.read_csv_rows(out / report.MEANS_CSV)
    if (out / report.EMOTIONS_CSV).exists():
        analysis.emotion_table = report.read_emotions_csv(out / report.EMOTIONS_CSV)
    else:
        analysis.skipped["emotions"] = "no emotion provider"
    if done.get("train") and (out / report.METRICS_CSV).exists():
        analysis.metrics = report.read_csv_rows(out / report.METRICS_CSV)
    else:
        analysis.skipped["train"] = "training stage not run"
    if done.get("explain") and (out / report.SHAP_RANKINGS_JSON).exists():
        analysis.shap_rankings = report.read_shap_rankings_json(out / report.SHAP_RANKINGS_JSON)
    else:
        analysis.skipped["explain"] = "explain stage not run"
    (out / report.REPORT_MD).write_text(report.render_markdown(analysis), encoding="utf-8")
    _mark_stage(cfg, "report")
    return out / report.REPORT_MD


def stage_all(cfg: RunConfig) -> Path:
    stage_ingest(cfg)
    stage_featurize(cfg)
    stage_compare(cfg)
    stage_train(cfg)
    stage_explain(cfg)
    return stage_report(cfg)
