#!/usr/bin/env python3
"""Time one forest fit and explain on the largest reply population at K-fold scale.

    python3 scripts/time_fit_scale.py --scale 10 --trees 100
    python3 scripts/time_fit_scale.py --scale 10 --stages --threads 2

Run from the repository root. It builds perfbench's pheme-wide corpus
(generator seed `--seed`, default 7) with every event's `mean_reactions`
multiplied by K, in `--work` (default `.fit-scale-work/` at the
repository root, emptied first), and runs it with the pheme-wide config
at `scope = both`.

By default it ingests and featurizes the corpus once in a child process.
It then times one `classify.fit_balanced` of `--trees` trees on the
`citysiege` reactions model, as `rumourlens train` fits it (the same
split, seed and train side; the time covers the medians, the
oversampling and the fit), then explains the first `EXPLAIN_ROWS` rows
of that model as `rumourlens explain` does (`shapley.shap_summary`, the
background being the train side subsampled to `shap_background` rows
with the same seed). It prints one JSON line: rows (of the oversampled
train side), trees, `fit_s`, `explain_rows`, `explain_s`,
`us_per_row_bg_tree` (explain time per explained row, background row
and tree), `peak_rss_mib` (this process's peak resident memory, which
the featurizing child does not count) and the sha256 of the model file
`model_to_json` gives.

With `--stages` it instead times every `pipeline.stage_*`, in run order
in this process, with `threads = --threads` (default 1). It prints one
JSON line: scale, threads, `stage_s` (each stage's wall seconds; the
first stage that submits work to workers includes their start-up),
`peak_rss_mib` (this process's) and `workers_peak_rss_mib` (the largest
waited-for child's, `RUSAGE_CHILDREN`: the largest worker's, or, when no
worker ran, that of any child of a launcher that exec'd this interpreter,
such as a version manager's shim). `--trees` is then not used: the pheme-wide
config's 10 trees are fitted. perfbench's generator is only imported,
never changed.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import multiprocessing
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpusgen  # noqa: E402
import workloads  # noqa: E402

from rumourlens import classify, parallel, pipeline, report, shapley  # noqa: E402
from rumourlens.config import build_config  # noqa: E402

EVENT, SCOPE = "citysiege", "reactions"
EXPLAIN_ROWS = 300


def generate(work: Path, scale: int, seed: int) -> None:
    """Generate the scaled corpus under `work`."""
    spec = copy.deepcopy(workloads.spec("pheme-wide"))
    for event in spec["corpus"]["events"]:
        event["mean_reactions"] *= scale
    corpusgen.generate(spec["corpus"], seed, work / "input")


def featurize(work: Path, scale: int, seed: int) -> None:
    """Generate the scaled corpus under `work` and featurize it there."""
    generate(work, scale, seed)
    cfg = config(work)
    pipeline.stage_ingest(cfg)
    pipeline.stage_featurize(cfg)


def config(work: Path, threads: int = 1):
    """The pheme-wide run config with `scope = both` and `threads`, on the
    corpus that the generator writes under `work`."""
    dataset = work / "input" / "corpus"
    values = {**workloads.spec("pheme-wide")["config"], "scope": "both", "threads": threads}
    values = {k: str(v) for k, v in values.items()}
    return build_config(
        {**values, "dataset": str(dataset), "seed": str(workloads.PROGRAM_SEED), "out_dir": str(work / "out")},
        env={},
    )


def time_stages(work: Path, scale: int, seed: int, threads: int) -> dict:
    """Every stage's wall time on the scaled corpus, and the peak RSS of
    this process and of the largest worker."""
    generate(work, scale, seed)
    cfg = config(work, threads)
    stage_s = {}
    for stage in pipeline.STAGES:
        start = time.perf_counter()
        getattr(pipeline, f"stage_{stage}")(cfg)
        stage_s[stage] = round(time.perf_counter() - start, 3)
    parallel.shutdown()  # the workers count in RUSAGE_CHILDREN once they are waited for
    return {
        "scale": scale,
        "threads": threads,
        "stage_s": stage_s,
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "workers_peak_rss_mib": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, required=True, help="multiplier of every mean_reactions")
    parser.add_argument("--trees", type=int, help="trees of the timed fit (required without --stages)")
    parser.add_argument("--seed", type=int, default=7, help="corpus generator seed")
    parser.add_argument("--work", type=Path, default=ROOT / ".fit-scale-work")
    parser.add_argument("--stages", action="store_true", help="time every pipeline stage instead")
    parser.add_argument("--threads", type=int, default=1, help="the threads setting of --stages")
    args = parser.parse_args()
    if args.trees is None and not args.stages:
        parser.error("--trees is required without --stages")
    if args.scale < 1 or (args.trees or 1) < 1 or args.threads < 0:
        parser.error("--scale and --trees must be >= 1, --threads >= 0")
    if args.work.exists():
        shutil.rmtree(args.work)
    if args.stages:
        print(json.dumps(time_stages(args.work, args.scale, args.seed, args.threads)))
        return 0
    child = multiprocessing.get_context("spawn").Process(target=featurize, args=(args.work, args.scale, args.seed))
    child.start()
    child.join()
    if child.exitcode != 0:
        print(f"error: featurizing failed with exit code {child.exitcode}", file=sys.stderr)
        return 1
    cfg = config(args.work)
    table = report.read_features_csv(pipeline.run_dir(cfg) / report.FEATURES_CSV)
    rows, y, seed, train, _ = pipeline._model_split(cfg, table, EVENT, SCOPE)
    X = table.X[rows]
    forest = classify.ForestConfig(n_trees=args.trees)
    start = time.perf_counter()
    model = classify.fit_balanced(X, y, train, table.names, forest, seed, seed)
    fit_s = time.perf_counter() - start
    background, explained = X[train], X[:EXPLAIN_ROWS]
    start = time.perf_counter()
    shapley.shap_summary(
        model,
        explained,
        background=background,
        background_limit=cfg.shap_background,
        seed=classify.derive_seed(cfg.seed, EVENT, SCOPE, "background"),
    )
    explain_s = time.perf_counter() - start
    cells = len(explained) * min(len(background), cfg.shap_background) * args.trees
    print(
        json.dumps(
            {
                # oversampling evens the two classes out
                "rows": 2 * int(np.bincount(y[train]).max()),
                "trees": args.trees,
                "fit_s": round(fit_s, 3),
                "explain_rows": len(explained),
                "explain_s": round(explain_s, 3),
                "us_per_row_bg_tree": round(1e6 * explain_s / cells, 3),
                "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                "model_sha256": hashlib.sha256(classify.model_to_json(model).encode("utf-8")).hexdigest(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
