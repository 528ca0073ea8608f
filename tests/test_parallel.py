"""Worker processes: how many a `threads` setting starts, and what comes
back from them, results, errors and warnings, as from a run in process."""

import json
import os
import warnings
from functools import partial

import concurrent.futures
import numpy as np
import pytest

from rumourlens import classify, parallel, pipeline, report
from rumourlens.classify import ForestConfig
from rumourlens.config import parse_config_file
from rumourlens.errors import ConfigError, NonFiniteValue, WorkerDied
from tests.test_pipeline import fixture_config


class Refused(Exception):
    pass


def test_threads_resolve_to_at_most_the_cpu_count(monkeypatch):
    # nothing is spawned: the executor class refuses to be built
    built = []

    def refuse(max_workers, **kwargs):
        built.append(max_workers)
        raise Refused

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(parallel, "_pool", None)
    assert [parallel.workers(t) for t in (0, 1, 3, 4, 64)] == [4, 1, 3, 4, 4]
    for threads in (0, 64):
        with pytest.raises(Refused), parallel.jobs(threads, "train") as run:
            run(abs, [-1])
    assert built == [4, 4]
    # one worker runs in process, through the builtin map
    with parallel.jobs(1, "train") as run:
        assert list(run(abs, [-1, 2])) == [1, 2]
    assert built == [4, 4]


def test_unknown_cpu_count_means_one_worker(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.workers(0) == parallel.workers(2) == 1


def errors_of(threads, fn, *args):
    with pytest.raises(Exception) as caught, parallel.jobs(threads, "train") as run:
        list(run(fn, *args))
    return caught.value


def test_a_worker_error_comes_back_whole(tmp_path):
    # a fit that meets an infinite feature value, and a config file error
    # that carries its line: each arrives as in process
    X = np.array([[0.0, 1.0], [1.0, np.inf], [0.5, 0.2], [0.7, 0.1]])
    fit = partial(classify.fit_balanced, X, np.array([0, 1, 0, 1]), np.arange(4), ["a", "b"], ForestConfig(2), 1)
    conf = tmp_path / "bad.conf"
    conf.write_text("seed = 1\nseed 2\n")
    for fn, args, kind in ((fit, [1], NonFiniteValue), (parse_config_file, [conf], ConfigError)):
        here, there = errors_of(1, fn, args), errors_of(2, fn, args)
        assert type(here) is type(there) is kind
        assert str(there) == str(here)
        assert there.line == here.line
    assert there.line == 2


def test_warnings_come_back_in_job_order():
    with pytest.warns(UserWarning) as caught, parallel.jobs(2, "train") as run:
        assert list(run(_warn_twice, ["a", "b", "c"])) == ["a", "b", "c"]
    assert [str(w.message) for w in caught] == ["a 1", "a 2", "b 1", "b 2", "c 1", "c 2"]


def _warn_twice(tag):
    classify.warn(f"{tag} 1")
    classify.warn(f"{tag} 2")
    return tag


def _die(*args):
    os._exit(3)


def test_a_dead_worker_fails_the_stage_and_drops_the_pool(tmp_path, monkeypatch):
    cfg = fixture_config(tmp_path, threads=2, n_trees=2, k_folds=3, run_id="died")
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)
    monkeypatch.setattr(classify, "_fold_metrics", _die)
    with pytest.raises(WorkerDied, match=r"^stage 'train': a worker process died"):
        pipeline.stage_train(cfg)
    assert parallel._pool is None
    out = cfg.run_dir()
    assert "train" not in json.loads((out / pipeline.MANIFEST).read_text(encoding="utf-8"))["stages"]
    assert not list(out.glob("model_*.json")) and not (out / report.METRICS_CSV).exists()
    # the next call starts a fresh pool
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # unsplittable nodes
        pipeline.stage_train(cfg)
    assert len(list(out.glob("model_*.json"))) == 6
