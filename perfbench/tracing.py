"""Spans and counters recorded around the public functions of each
rumourlens module, from outside the package.

`install(tracer)` replaces each traced function with a wrapper that
records a span (name, start, end, parent). Functions imported by name
into other modules (``from .textprep import tokenize``) are rebound in
every rumourlens module that holds them, so every call site goes through
the wrapper. Spans stay in memory until the run writes them out.

`layer_metrics(spans, counters)` turns the spans of one round into the
per-layer metrics listed in BENCHMARK.json. Metrics named `*self_s` are
self times: the span's duration minus the time its child spans cover.
The other time metrics are inclusive: the time covered by the layer's
outermost spans.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# span name -> (module, attribute path) of the function it wraps
TRACED = {
    "corpus.load_pheme_tree": ("rumourlens.corpus", "load_pheme_tree"),
    "corpus.load_jsonl": ("rumourlens.corpus", "load_jsonl"),
    "textprep.tokenize": ("rumourlens.textprep", "tokenize"),
    "textprep.clean_for_readability": ("rumourlens.textprep", "clean_for_readability"),
    "textprep.clean_for_senticnet": ("rumourlens.textprep", "clean_for_senticnet"),
    "textprep.text_stats": ("rumourlens.textprep", "text_stats"),
    "readability.all_scores": ("rumourlens.readability", "all_scores"),
    "lexicon.score": ("rumourlens.lexicon", "score"),
    "senticnet.sentic_features": ("rumourlens.senticnet", "sentic_features"),
    "emotions.classify": ("rumourlens.emotions", "LexiconFallbackProvider.classify"),
    "features.featurize_corpus": ("rumourlens.features", "Featurizer.featurize_corpus"),
    "report.write_features_csv": ("rumourlens.report", "write_features_csv"),
    "report.read_features_csv": ("rumourlens.report", "read_features_csv"),
    "report.write_shap_points_csv": ("rumourlens.report", "write_shap_points_csv"),
    "stats.significance_matrix": ("rumourlens.stats", "significance_matrix"),
    "stats.mean_report": ("rumourlens.stats", "mean_report"),
    "pipeline.stage_ingest": ("rumourlens.pipeline", "stage_ingest"),
    "pipeline.stage_featurize": ("rumourlens.pipeline", "stage_featurize"),
    "pipeline.stage_compare": ("rumourlens.pipeline", "stage_compare"),
    "pipeline.stage_train": ("rumourlens.pipeline", "stage_train"),
    "pipeline.stage_explain": ("rumourlens.pipeline", "stage_explain"),
    "pipeline.stage_report": ("rumourlens.pipeline", "stage_report"),
    "classify.cross_validate": ("rumourlens.classify", "cross_validate"),
    "classify.fit_forest": ("rumourlens.classify", "fit_forest"),
    "classify.build_matrix": ("rumourlens.classify", "build_matrix"),
    "classify.model_to_json": ("rumourlens.classify", "model_to_json"),
    "classify.model_from_json": ("rumourlens.classify", "model_from_json"),
    "classify.predict_proba": ("rumourlens.classify", "RandomForestModel.predict_proba"),
    "classify.predict_prob": ("rumourlens.classify", "Tree.predict_prob"),
    "shapley.prepare": ("rumourlens.shapley", "TreeShapExplainer.__init__"),
    "shapley.explain_row": ("rumourlens.shapley", "TreeShapExplainer.explain_row"),
}


def _lexicon_counts(tracer, args, kwargs, result):
    lexicon = args[1] if len(args) > 1 else kwargs["lexicon"]
    used = tracer.used_categories(lexicon)
    tracer.counters["lexicon.categories_scored"] += len(result.percentages)
    tracer.counters["lexicon.categories_used"] += sum(1 for c in result.percentages if c in used)


def _featurize_counts(tracer, args, kwargs, result):
    tracer.counters["features.tweets"] += len(result)


def _predict_counts(tracer, args, kwargs, result):
    tracer.counters["classify.predict_rows"] += len(result)


def _explain_counts(tracer, args, kwargs, result):
    tracer.counters["shapley.row_trees"] += len(args[0].model.trees)


# span name -> counter hook(tracer, args, kwargs, result)
COUNTERS = {
    "lexicon.score": _lexicon_counts,
    "features.featurize_corpus": _featurize_counts,
    "classify.predict_prob": _predict_counts,
    "shapley.explain_row": _explain_counts,
}


class Tracer:
    """In-memory span store. A span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._used: dict[int, frozenset] = {}

    def used_categories(self, lexicon) -> frozenset:
        """Lexicon categories whose percentage becomes a feature column
        (the word count and punctuation columns come from elsewhere)."""
        key = id(lexicon)
        if key not in self._used:
            from rumourlens import features

            names = set(features.lexicon_feature_names(lexicon))
            self._used[key] = frozenset(names - {features.WC_FEATURE, features.ALLPUNCT_FEATURE})
        return self._used[key]

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED and rebind each name that refers to it."""
    import rumourlens.pipeline  # noqa: F401  (imports every traced module)

    modules = [m for n, m in sys.modules.items() if n == "rumourlens" or n.startswith("rumourlens.")]
    for name, (module_name, path) in TRACED.items():
        owner = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
            continue
        original = getattr(owner, path)
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics


def inclusive(spans: list[list], names: set[str], first: int = 0) -> float:
    """Time covered by spans in `names` that have no ancestor in `names`."""
    total = 0.0
    for i in range(first, len(spans)):
        s = spans[i]
        if s[0] not in names:
            continue
        p = s[3]
        while p >= first and spans[p][0] not in names:
            p = spans[p][3]
        if p < first:
            total += s[2] - s[1]
    return total


def self_time(spans: list[list], names: set[str], first: int = 0) -> float:
    """Duration of spans in `names` minus the time their direct children cover."""
    total = 0.0
    for i in range(first, len(spans)):
        s = spans[i]
        if s[0] in names:
            total += s[2] - s[1]
        p = s[3]
        if p >= first and spans[p][0] in names:
            total -= s[2] - s[1]
    return total


def count(spans: list[list], names: set[str], first: int = 0) -> int:
    return sum(1 for i in range(first, len(spans)) if spans[i][0] in names)


def layer_metrics(spans: list[list], counters: dict, first: int = 0) -> dict[str, float]:
    """Per-layer metrics over spans[first:] (one round) and its counters."""

    def inc(*names):
        return inclusive(spans, set(names), first)

    def own(*names):
        return self_time(spans, set(names), first)

    tweets = counters.get("features.tweets", 0)
    scored = counters.get("lexicon.categories_scored", 0)
    row_trees = counters.get("shapley.row_trees", 0)
    explain_row_s = inc("shapley.explain_row")
    return {
        "corpus.load_s": inc("corpus.load_pheme_tree", "corpus.load_jsonl"),
        "corpus.loads": count(spans, {"corpus.load_pheme_tree", "corpus.load_jsonl"}, first),
        "textprep.tokenize_s": inc("textprep.tokenize"),
        "textprep.tokenize_per_tweet": count(spans, {"textprep.tokenize"}, first) / tweets if tweets else 0.0,
        "textprep.clean_s": inc("textprep.clean_for_readability", "textprep.clean_for_senticnet"),
        "lexicon.score_s": inc("lexicon.score"),
        "lexicon.categories_used_share": counters.get("lexicon.categories_used", 0) / scored if scored else 0.0,
        "readability.score_s": inc("textprep.text_stats", "readability.all_scores"),
        "senticnet.match_s": inc("senticnet.sentic_features"),
        "emotions.classify_s": inc("emotions.classify"),
        "features.self_s": own("features.featurize_corpus"),
        "report.write_features_s": inc("report.write_features_csv"),
        "report.read_features_s": inc("report.read_features_csv"),
        "report.read_features_calls": count(spans, {"report.read_features_csv"}, first),
        "report.write_shap_s": inc("report.write_shap_points_csv"),
        "stats.matrix_s": inc("stats.significance_matrix"),
        "stats.mean_report_s": inc("stats.mean_report"),
        "pipeline.compare_self_s": own("pipeline.stage_compare"),
        "pipeline.train_self_s": own("pipeline.stage_train"),
        "pipeline.explain_self_s": own("pipeline.stage_explain"),
        "classify.cv_s": inc("classify.cross_validate"),
        "classify.fit_s": inc("classify.fit_forest"),
        "classify.build_matrix_s": inc("classify.build_matrix"),
        "classify.model_io_s": inc("classify.model_to_json", "classify.model_from_json"),
        "classify.predict_s": inc("classify.predict_proba", "classify.predict_prob"),
        "classify.predict_rows": counters.get("classify.predict_rows", 0),
        "shapley.prepare_s": inc("shapley.prepare"),
        "shapley.explain_row_s": explain_row_s,
        "shapley.us_per_row_tree": 1e6 * explain_row_s / row_trees if row_trees else 0.0,
    }


def write_spans(spans: list[list], path) -> None:
    """One span per line: name, start, end, parent index (-1: none)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
