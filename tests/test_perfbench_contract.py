"""The benchmark's traced mode wraps program functions by name from
outside the package (perfbench/tracing.py). A rename in the program
would break it only when a traced benchmark runs; this pins every name
it looks up, the way `install()` looks it up."""

import importlib
import importlib.util

import pytest

from tests.conftest import ROOT


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.TRACED))
def test_traced_target_resolves(span):
    module_name, path = tracing.TRACED[span]
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name)), f"{span}: {path} is not defined on {cls_name}"
    else:
        assert callable(getattr(owner, path, None)), f"{span}: {module_name}.{path} is missing"


def test_counter_hooks_name_traced_spans():
    assert set(tracing.COUNTERS) <= set(tracing.TRACED)
