"""One measured run in a fresh process: as many whole rounds of stage
calls as fit in the time budget, then a JSON result file.

    python3 perfbench/worker.py --config FILE --work DIR --workload NAME \
        --seconds N --trace 0|1

The run directory is DIR/out/run and the result file DIR/worker.json.

Each round calls the public stage functions of rumourlens.pipeline in
order (ingest .. report, one pipeline pass), with a slot of the
workload's repeat calls of cheaper stages after some of the pass stages
(see workloads.py). A failed call is counted and the round goes on.
After every round the run directory is hashed, so the caller can check
that repeats reproduce the artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import refloop  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2


def hash_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    from rumourlens import pipeline
    from rumourlens.config import build_config, parse_config_file

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    cfg = build_config(
        parse_config_file(args.config), env={}, overrides={"out_dir": str(args.work / "out"), "run_id": "run"}
    )
    # a traced round is one pipeline pass, so layer counts read per pass
    slots = workloads.round_slots(None if tracer else args.workload)

    # stage -> one sample per slot that calls it: the median of that
    # slot's calls, which keeps a rare stall of one call out of the sample
    stage_times: dict[str, list[float]] = {s: [] for s in workloads.STAGES}
    pipeline_times: list[float] = []
    # the host's speed, gauged after every slot (see refloop.py)
    reference_times: list[float] = []
    round_hashes: list[dict[str, str]] = []
    round_layers: list[dict[str, float]] = []
    warning_messages: set[str] = set()
    attempted = failed = 0

    # whole rounds only, as many as fit in the budget at the pace so far
    start = time.perf_counter()
    while len(round_hashes) < MIN_ROUNDS or (
        (time.perf_counter() - start) * (len(round_hashes) + 1) / len(round_hashes) <= args.seconds
    ):
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.counters.clear()
        pass_time = 0.0
        pass_ok = True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for slot in slots:
                slot_times: dict[str, list[float]] = {}
                for stage, in_pass in slot:
                    fn = getattr(pipeline, f"stage_{stage}")  # looked up per call: tracing may rebind it
                    attempted += 1
                    t0 = time.perf_counter()
                    try:
                        fn(cfg)
                    except Exception:  # a failed stage call is counted, the round goes on
                        failed += 1
                        pass_ok = pass_ok and not in_pass
                        traceback.print_exc()
                        continue
                    elapsed = time.perf_counter() - t0
                    slot_times.setdefault(stage, []).append(elapsed)
                    if in_pass:
                        pass_time += elapsed
                for stage, times in slot_times.items():
                    stage_times[stage].append(statistics.median(times))
                reference_times.append(refloop.reference_seconds())
        if pass_ok:
            pipeline_times.append(pass_time)
        warning_messages.update(str(w.message) for w in caught)
        round_hashes.append(hash_dir(cfg.run_dir()))
        if tracer:
            round_layers.append(tracing.layer_metrics(tracer.spans, dict(tracer.counters), first_span))

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "rounds": len(round_hashes),
        "attempted": attempted,
        "failed": failed,
        "stage_times": stage_times,
        "pipeline_times": pipeline_times,
        "reference_times": reference_times,
        "peak_rss_mib": peak_rss_mib,
        "round_hashes": round_hashes,
        "warnings": sorted(warning_messages),
    }
    if tracer:
        result["layers"] = {
            name: statistics.median(r[name] for r in round_layers) for name in round_layers[0]
        }
        result["n_spans"] = len(tracer.spans)
        tracing.write_spans(tracer.spans, args.work / "out" / "spans.csv")
    (args.work / "worker.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
