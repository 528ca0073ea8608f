"""Stage implementations behind the CLI.

Stages communicate through files in the run directory, each written
whole through `report`, and a manifest marking the stages that completed.
`STAGES` declares what each stage needs and writes. A stage refuses to
run before the stages it needs; otherwise it drops its mark and deletes
its declared files before it writes, and marks itself only once it has
written them all, so no file of an earlier run of it survives. A stage
that raises leaves neither its mark nor part of its files behind, nor
the marks and files of the stages that need it. Each stage, starting or
failing, drops report's mark and `report.md`, which shows its files.

Events lacking one of the two source populations are loaded and
counted but excluded from the compare, train and explain stages, each of
which names them in a warning prefixed with the stage's name.

Compare computes the KS grids, the population means and the emotion
share table from row masks over the feature matrix's columns.

Train and explain run their work through `parallel.jobs`, in process at
`threads = 1` and in worker processes above. Each plans every model's
jobs before it reads any result, then writes its files in order: train
fits each CV fold and each final model as a job; explain reads and
checks every model file first, then walks each model as one job, or a
model whose walk costs more than its share of the stage's, total /
workers, as contiguous row blocks of about that share. Either way every
file and every warning is that of the in-process run.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass
from functools import partial
from itertools import groupby, zip_longest
from pathlib import Path

import numpy as np

from . import classify, emotions, lexicon, parallel, report, senticnet, shapley, stats, textprep
from .classify import ForestConfig, derive_seed
from .config import RunConfig
from .corpus import AGGREGATED_EVENT, load_jsonl, load_pheme_tree, partition
from .errors import AdditivityError, FeatureMismatch, MissingArtifact, ParseError, TooFewSamples, warn
from .features import EMOTION_FEATURES, FeatureTable, Featurizer

MANIFEST = "manifest.json"
RUN_CONFIG_JSON = "run_config.json"


@dataclass(frozen=True)
class Stage:
    needs: tuple[str, ...]  # stages marked done before this one may run
    writes: tuple[str, ...]  # run file names or glob patterns
    help: str


# the stages in run order; `stage_<name>` runs each
STAGES = {
    "ingest": Stage((), (RUN_CONFIG_JSON, report.PARTITIONS_CSV),
                    "load and validate the corpus; write partition counts"),
    "featurize": Stage(("ingest",), (report.FEATURES_CSV,), "extract the per-tweet feature matrix"),
    "compare": Stage(("featurize",), (report.KS_SOURCES_CSV, report.KS_REACTIONS_CSV, report.KS_AGGREGATED_CSV,
                                      report.MEANS_CSV, report.EMOTIONS_CSV),
                     "KS significance matrices, means and emotion table"),
    "train": Stage(("featurize",), ("model_*.json", report.METRICS_CSV),
                   "train per-event source/reply models; write metrics"),
    "explain": Stage(("train",), ("shap_*.csv", report.SHAP_RANKINGS_JSON),
                     "Shapley summaries for every trained model"),
    "report": Stage(("featurize", "compare"), (report.REPORT_MD,), "assemble the human-readable report"),
}

SCOPES = ("sources", "reactions")

# largest |base + sum(phi) - model output| an explained row may show
ADDITIVITY_TOLERANCE = 1e-9

def run_dir(cfg: RunConfig) -> Path:
    d = cfg.run_dir()
    d.mkdir(parents=True, exist_ok=True)
    return d


def _read_manifest(out: Path) -> dict:
    path = out / MANIFEST
    if not path.exists():
        return {"stages": {}}
    manifest = report.read_json(path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        raise ParseError("not an object holding a 'stages' object", path=path)
    return manifest


def _drop(out: Path, manifest: dict, stages: set[str]) -> None:
    """Drop the marks of `stages`, in one manifest write if one is there,
    and delete the files they declare."""
    done = manifest["stages"]
    if stages & done.keys():
        manifest["stages"] = {name: mark for name, mark in done.items() if name not in stages}
        report.write_json(out / MANIFEST, manifest)
    for name in stages:
        for pattern in STAGES[name].writes:
            for path in out.glob(pattern):
                path.unlink()


def _downstream(stage: str) -> list[str]:
    """`stage` and every stage that needs it, directly or through others."""
    found = [stage]
    for name, spec in STAGES.items():  # in run order, so needs come first
        if set(spec.needs) & set(found):
            found.append(name)
    return found


@contextmanager
def _stage(cfg: RunConfig, stage: str):
    """Run the body of `stage` in the run directory this yields: refuse,
    deleting nothing, unless the stages it needs are marked done; drop its
    own and report's marks and files; mark it once the body completes. If
    the body raises, also drop the marks and files of the stages that need
    it, directly or through others."""
    out = run_dir(cfg)
    manifest = _read_manifest(out)
    missing = [dep for dep in STAGES[stage].needs if not manifest["stages"].get(dep)]
    if missing:
        raise MissingArtifact(
            f"stage {stage!r} needs {', '.join(missing)} to run first (run directory: {out})"
        )
    # report.md renders every other stage's files, so each stage drops it
    _drop(out, manifest, {stage, "report"})
    try:
        yield out
    except BaseException:
        _drop(out, manifest, {*_downstream(stage), "report"})
        raise
    manifest["stages"][stage] = True
    report.write_json(out / MANIFEST, manifest)


def _written(cfg: RunConfig, stage: str) -> list[Path]:
    """The run files there that `stage` declares, sorted: what it wrote."""
    out = cfg.run_dir()
    return sorted(path for pattern in STAGES[stage].writes for path in out.glob(pattern))


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
    lex = lexicon.load_lexicon(cfg.lexicon or textprep.bundled("demo_lexicon.json"))
    table = senticnet.load_sentic_table(cfg.sentic_table or textprep.bundled("sentic_demo.csv"))
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


def stage_ingest(cfg: RunConfig) -> list[Path]:
    with _stage(cfg, "ingest") as out:
        report.write_json(out / RUN_CONFIG_JSON, asdict(cfg))
        corpora = load_corpora(cfg)
        counts = [partition(c).counts() for c in corpora]
        report.write_partitions_csv(out / report.PARTITIONS_CSV, counts)
    return _written(cfg, "ingest")


def stage_featurize(cfg: RunConfig) -> list[Path]:
    with _stage(cfg, "featurize") as out:
        corpora = load_corpora(cfg)
        featurizer = make_featurizer(cfg)
        table = FeatureTable.concat(featurizer.names, [featurizer.featurize_corpus(c) for c in corpora])
        report.write_features_csv(out / report.FEATURES_CSV, table)
    return _written(cfg, "featurize")


def _stage_inputs(out: Path, stage: str) -> tuple[FeatureTable, list[str]]:
    """(feature table, usable events) of a stage that reads `features.csv`."""
    table = report.read_features_csv(out / report.FEATURES_CSV)
    return table, _usable_events(table, stage)


def _usable_events(table: FeatureTable, stage: str) -> list[str]:
    """The events with both a rumour and a non-rumour source, sorted. Each
    other event is named in a warning prefixed with `stage`."""
    sources = table.role == "source"
    usable = []
    for event in sorted(set(table.event[sources].tolist())):
        labels = set(table.label[sources & (table.event == event)].tolist())
        if labels >= {"rumour", "non-rumour"}:
            usable.append(event)
        else:
            warn(f"{stage}: event {event!r} lacks a rumour or non-rumour source population; excluded")
    return usable


def stage_compare(cfg: RunConfig) -> list[Path]:
    with _stage(cfg, "compare") as out:
        table, usable = _stage_inputs(out, "compare")
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
        aggregated = []
        for pair, in_role, name in (
            ("sources", source, report.KS_SOURCES_CSV),
            ("reactions", ~source, report.KS_REACTIONS_CSV),
        ):
            per_event = {event: in_role & (table.event == event) for event in usable}
            rows = stats.significance_matrix(ks_columns, per_event, rumour, cfg.alpha, pair)
            report.write_ks_csv(out / name, rows)
            pooled = {AGGREGATED_EVENT: in_role}
            aggregated += stats.significance_matrix(ks_columns, pooled, rumour, cfg.alpha, pair)
        report.write_ks_csv(out / report.KS_AGGREGATED_CSV, aggregated)
        report.write_means_csv(out / report.MEANS_CSV, stats.mean_report(columns, populations))

        if any(f in columns for f in EMOTION_FEATURES):
            scores = np.column_stack([columns[lab] for lab in EMOTION_FEATURES])
            shares = emotions.emotion_table(scores, populations)
            report.write_emotions_csv(out / report.EMOTIONS_CSV, shares)
    return _written(cfg, "compare")


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


def stage_train(cfg: RunConfig) -> list[Path]:
    with _stage(cfg, "train") as out, parallel.jobs(cfg.threads, "train") as run:
        table, usable = _stage_inputs(out, "train")
        config = forest_config(cfg)
        # every model's fits are planned before any is read, so that a pool
        # fits them all while the models are written in order
        plans = []
        for event in usable:
            for scope in _scopes(cfg):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        rows, y, seed, train, test = _model_split(cfg, table, event, scope)
                        X = table.X[rows]
                        folds = classify.cross_validate(
                            X[train], y[train], table.names, cfg.k_folds, config, seed, cfg.averaging, map=run
                        )
                        final = run(partial(classify.fit_balanced, X, y, train, table.names, config, seed), [seed])
                        plans.append((event, scope, caught, (X[test], y[test], len(train), folds, final)))
                    except TooFewSamples as exc:
                        plans.append((event, scope, caught, exc))
        metrics_rows = []
        for event, scope, caught, fits in plans:
            label = f"{event}/{scope}"
            if isinstance(fits, TooFewSamples):
                warn(f"{label}: {fits}; model skipped")
                continue
            X_test, y_test, n_train, folds, final = fits
            with warnings.catch_warnings(record=True) as fitted:
                warnings.simplefilter("always")
                fold_metrics = list(folds)
                (model,) = final
            for w in caught + fitted:  # fewer folds, an unsplittable node: named by the model
                warn(f"{label}: {w.message}", w.category)
            model.fold_scores = [m.accuracy for m in fold_metrics]
            scores = classify.evaluate(model, X_test, y_test, averaging=cfg.averaging)
            report.write_text(_model_path(out, event, scope), classify.model_to_json(model))
            cv = [len(fold_metrics), float(np.mean(model.fold_scores)), float(np.std(model.fold_scores))]
            metrics_rows.append([event, scope, n_train, len(y_test), *cv, *astuple(scores)])
        report.write_metrics_csv(out / report.METRICS_CSV, metrics_rows)
    return _written(cfg, "train")


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
    with _stage(cfg, "explain") as out, parallel.jobs(cfg.threads, "explain") as run:
        table, usable = _stage_inputs(out, "explain")
        # every model is read and checked before any is explained, so that a
        # pool walks them all while the files are written in order
        plans, requests = [], []
        for event in usable:
            for scope in _scopes(cfg):
                model_path = _model_path(out, event, scope)
                if not model_path.exists():
                    continue
                with textprep.open_utf8(model_path) as fh:
                    text = fh.read()
                try:
                    model = classify.model_from_json(text)
                except ParseError as exc:
                    raise ParseError(
                        f"stage 'explain', event {event!r}, scope {scope!r}: {model_path.name}: {exc}"
                    ) from exc
                _check_model_features(model, table.names, model_path, event, scope)
                mask, _y, _seed, train, _test = _model_split(cfg, table, event, scope)
                rows = np.flatnonzero(mask)
                seed = derive_seed(cfg.seed, event, scope, "background")
                background = shapley.sample_background(model, table.X[rows[train]], cfg.shap_background, seed)
                plans.append((event, scope, table.tweet_id[rows].tolist()))
                requests.append((model, rows, background))
        summaries = shapley.shap_summaries(table.X, requests, run, parallel.workers(cfg.threads))
        rankings: dict = {}
        for event, explained in groupby(zip(plans, requests, summaries), key=lambda planned: planned[0][0]):
            blocks = []
            for (_event, scope, ids), (model, _rows, _background), summary in explained:
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
                rankings.setdefault(event, {})[scope] = report.ranking_entries(
                    zip(model.feature_names, summary.mean_abs)
                )
                above_median = summary.values > np.median(summary.values, axis=0)
                blocks.append((scope, ids, summary.values, summary.phi, above_median))
            report.write_shap_points_csv(out / f"shap_{event}.csv", table.names, blocks)
        report.write_json(out / report.SHAP_RANKINGS_JSON, rankings)
    return _written(cfg, "explain")


def stage_report(cfg: RunConfig) -> list[Path]:
    with _stage(cfg, "report") as out:
        done = _read_manifest(out)["stages"]
        report.write_text(out / report.REPORT_MD, report.render_markdown(out, cfg.alpha, done))
    return _written(cfg, "report")


def stage_all(cfg: RunConfig) -> list[Path]:
    """Every stage in run order; every file each wrote, in stage order."""
    return [path for stage in STAGES for path in globals()[f"stage_{stage}"](cfg)]
