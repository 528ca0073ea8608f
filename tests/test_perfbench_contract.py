"""The benchmark's traced mode wraps program functions by name from
outside the package (perfbench/tracing.py). A rename in the program
would break it only when a traced benchmark runs; this pins every name
it looks up, the way `install()` looks it up."""

import importlib
import importlib.util
import inspect

import numpy as np
import pytest

from rumourlens import pipeline
from rumourlens.features import Featurizer
from rumourlens.lexicon import score
from rumourlens.shapley import TreeShapExplainer
from rumourlens.textprep import tokenize
from tests.conftest import ROOT
from tests.test_features_report import toy_corpus
from tests.test_shapley import manual_model, stump


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def resolve(span):
    """The function `install()` wraps for a span, or None."""
    module_name, path = tracing.TRACED[span]
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name)).get(attr)
    return getattr(owner, path, None)


@pytest.mark.parametrize("span", sorted(tracing.TRACED))
def test_traced_target_resolves(span):
    assert callable(resolve(span)), f"{span}: {tracing.TRACED[span]} is missing"


def test_counter_hooks_name_traced_spans():
    assert set(tracing.COUNTERS) <= set(tracing.TRACED)


def one_call(demo_lexicon, demo_sentic_table):
    """Per counter hook: the arguments of one real call of the traced
    function, and the counter that call must move by how much."""
    model = manual_model([stump(0, 0.5, [3, 1], [1, 3]), stump(1, 0.0, [2, 2], [0, 4])], ["a", "b"])
    rows = np.array([[0.0, 1.0], [1.0, -1.0], [0.2, 0.3]])
    corpus = toy_corpus()
    tokens = tokenize(corpus.sources[0].text)
    featurizer = Featurizer(demo_lexicon, demo_sentic_table)
    return {
        "lexicon.score": ((tokens, demo_lexicon), "lexicon.categories_scored", len(demo_lexicon.categories)),
        "features.featurize_corpus": ((featurizer, corpus), "features.tweets", 3),
        "classify.predict_prob": ((model.trees[0], rows), "classify.predict_rows", 3),
        "shapley.explain_row": ((TreeShapExplainer(model, rows), rows[0]), "shapley.row_trees", 2),
    }


def test_counter_hooks_count_a_real_call(demo_lexicon, demo_sentic_table):
    # the hooks read call arguments and results by position; a change to
    # either would otherwise surface only in a traced benchmark run
    calls = one_call(demo_lexicon, demo_sentic_table)
    assert set(calls) == set(tracing.COUNTERS)
    for span, (args, counter, expected) in calls.items():
        tracer = tracing.Tracer()
        tracer.wrap(span, resolve(span))(*args)
        assert tracer.counters[counter] == expected, span


def test_lexicon_hook_counts_the_feature_categories(demo_lexicon):
    tracer = tracing.Tracer()
    tracer.wrap("lexicon.score", score)(tokenize(toy_corpus().sources[0].text), demo_lexicon)
    assert 0 < tracer.counters["lexicon.categories_used"] < tracer.counters["lexicon.categories_scored"]


def test_stages_take_one_positional_parameter():
    # the benchmark worker calls each stage as fn(cfg)
    stages = [name for name in vars(pipeline) if name.startswith("stage_")]
    assert "stage_featurize" in stages
    for name in stages:
        params = inspect.signature(getattr(pipeline, name)).parameters.values()
        positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        required = [p for p in params if p.default is p.empty]
        assert len(positional) == 1 and required == positional[:1], name
