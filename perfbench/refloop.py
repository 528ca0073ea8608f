"""A fixed reference workload that gauges how fast the host runs right now.

The host these figures come from drifts in speed by a quarter and more,
for seconds to minutes at a time, and the drift moves every stage of a
run together (see README.md, "Noise"). `reference_seconds()` times a
fixed piece of pure-Python work of the same kind as the pipeline's
(regex tokenizing, dict counting, float arithmetic, sorting, small
function calls), with the garbage collector paused so that the program's
heap does not leak into it. It imports nothing from rumourlens, so no
change to the program can change its cost; only the host can.

The benchmark times it between the stage calls of a run, in the same
process, and scales the run's times by REFERENCE_S over its mean: the
times are reported in seconds on the host at the reference speed.
"""

from __future__ import annotations

import gc
import math
import re
import time

# the reference loop's time on the reference machine: the median of the
# run means in twelve trial runs of the two workloads, so scaled times
# read close to wall times there
REFERENCE_S = 0.0288

_TOKEN = re.compile(r"[#@]?\w+|[^\w\s]+")
_TEXT = " ".join(
    f"Word{i % 89} #tag{i % 11} @user{i % 7} {i * 0.25} and the {'!?'[i % 2]}"
    for i in range(120)
)


def _score(counts: dict[str, int]) -> float:
    total = sum(counts.values())
    return sum(c / total * math.log(c / total) for c in counts.values())


def _once() -> float:
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT.lower()):
        counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return _score(counts) + len(ranked)


def reference_seconds(repeats: int = 40) -> float:
    """Wall time of `repeats` fixed rounds of reference work."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            _once()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
