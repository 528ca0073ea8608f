"""Stage-by-stage benchmark of the rumourlens pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: pheme-wide, reactions-model
(see perfbench/README.md). The run

1. generates the workload's corpus from --seed,
2. runs whole rounds of stage calls for up to --seconds in one fresh
   worker process, untraced (--trace 0) or traced (--trace 1),
3. untraced, times set-up in fresh processes before and after the worker,
4. checks the artifacts independently of the program,

and prints one JSON object as its last line: the end-to-end metrics
with --trace 0, with times scaled to a reference host speed (see
refloop.py; the plain wall times go to standard error), or the
per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import corpusgen
import refloop
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 10


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


def _read_config(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Make the inputs and the config file; return what the checks need."""
    spec = workloads.spec(workload)
    sidecar = corpusgen.generate(spec["corpus"], seed, work / "input")
    config_path = work / "bench.conf"
    _write_config(config_path, {"dataset": sidecar["dataset"], "seed": workloads.PROGRAM_SEED, **spec["config"]})
    return {
        "config": config_path,
        "tally": sidecar["tally"],
        "tweets": sidecar["tweets"],
        "marker": sidecar["marker"]["category"] if sidecar["marker"] else None,
        "excluded_event": spec["excluded_event"],
        "lexicon": ROOT / "src" / "rumourlens" / "data" / "demo_lexicon.json",
    }


def setup_samples(config: Path, n: int, warm_up: bool) -> list[tuple[float, float]]:
    """(set-up time, reference loop time) of n fresh processes, after one
    unmeasured warm-up (which lets Python write its bytecode caches) if
    asked."""
    samples = []
    for k in range(n + warm_up):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config)],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
        )
        if k or not warm_up:
            setup, reference = out.stdout.split()
            samples.append((float(setup), float(reference)))
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description="rumourlens stage benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "rumourlens" / "pipeline.py").is_file():
        print(f"rumourlens sources not found under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    clock = time.perf_counter()
    info = prepare(args.workload, args.seed, work)
    phases = {"inputs": time.perf_counter() - clock}

    # half the set-up probes run before the worker and half after, so
    # that their median does not rest on one moment of the run
    setup: list[tuple[float, float]] = []
    if not args.trace:
        clock = time.perf_counter()
        setup += setup_samples(info["config"], SETUP_SAMPLES // 2, warm_up=True)
        phases["setup probes"] = time.perf_counter() - clock

    clock = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--config", str(info["config"]), "--work", str(work),
         "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, check=True, timeout=170,
    )
    worker = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    phases["worker"] = time.perf_counter() - clock
    if not args.trace:
        clock = time.perf_counter()
        setup += setup_samples(info["config"], SETUP_SAMPLES - len(setup), warm_up=False)
        phases["setup probes"] += time.perf_counter() - clock
    clock = time.perf_counter()

    config = _read_config(info["config"])
    scope = config.get("scope", "both")
    errors = checks.run_checks(
        work / "out" / "run",
        tally=info["tally"],
        tweets=info["tweets"],
        lexicon_path=info["lexicon"],
        alpha=float(config.get("alpha", 0.05)),
        n_trees=int(config.get("n_trees", 100)),
        scopes=("sources", "reactions") if scope == "both" else (scope,),
        excluded_event=info["excluded_event"],
        marker=info["marker"],
        worker=worker,
    )
    phases["checks"] = time.perf_counter() - clock
    for e in errors[:50]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{worker['rounds']} rounds; " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()), file=sys.stderr)

    if args.trace:
        values = worker["layers"]
        print(f"traced pipeline_s {statistics.median(worker['pipeline_times'])}, {worker['n_spans']} spans")
    else:
        # the mean of the slot samples, not their median: the host's speed
        # flips between two states for seconds at a time, and a median
        # follows whichever state held most slots, while the mean follows
        # the share of time spent in each
        wall = {f"{stage}_s": statistics.fmean(worker["stage_times"][stage])
                for stage in workloads.STAGES if stage != "report"}
        wall["pipeline_s"] = statistics.fmean(worker["pipeline_times"])
        wall["setup_s"] = statistics.median(t for t, _ in setup)
        print("wall times: " + json.dumps(wall), file=sys.stderr)
        # the drift between runs moves every time of a run together; the
        # reference loop timed between the slots (in each set-up process
        # for set-up) measures it, and the times are scaled to the
        # reference speed
        reference = statistics.fmean(worker["reference_times"])
        scale = refloop.REFERENCE_S / reference
        print(f"reference loop {reference:.6f} s (mean of {len(worker['reference_times'])}), scale {scale:.4f}",
              file=sys.stderr)
        values = {name: t * scale for name, t in wall.items()}
        values["setup_s"] = statistics.median(t * refloop.REFERENCE_S / r for t, r in setup)
        values["peak_rss_mib"] = worker["peak_rss_mib"]
    units = _units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": not errors,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
