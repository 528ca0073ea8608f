"""Workload definitions: corpus shape, program configuration and the
stage calls that make up one measured round.

A round is one pass of the six stages in order (their summed time is
`pipeline_s`). After each pass stage named in the workload's `extra_after`,
a slot of its `extra` calls re-runs the cheaper stages (a re-run of a
single stage, as after changing a setting), so that they get samples
spread over the whole run rather than one burst. The calls are fixed per
workload, so every run attempts whole rounds of the same calls.
"""

from __future__ import annotations

STAGES = ("ingest", "featurize", "compare", "train", "explain", "report")

# program seed, fixed: --seed only changes the generated corpus
PROGRAM_SEED = 42

_REGULAR_EVENTS = ("ferrycrash", "bridgecollapse", "stadiumfire", "floodwarning",
                   "powercut", "trainderail", "hostagesiege")

GENERATED = {
    "pheme-wide": {
        "corpus": {
            "layout": "pheme",
            "events": (
                # one event holds most of the reactions, as in PHEME
                [{"name": "citysiege", "rumour_threads": 18, "nonrumour_threads": 18, "mean_reactions": 45}]
                + [{"name": n, "rumour_threads": 6, "nonrumour_threads": 6, "mean_reactions": 10}
                   for n in _REGULAR_EVENTS]
                # no non-rumour sources: excluded from compare/train/explain with a warning
                + [{"name": "outbreak", "rumour_threads": 6, "nonrumour_threads": 0, "mean_reactions": 8}]
            ),
        },
        "config": {
            "dataset_format": "pheme",
            "scope": "sources",
            "n_trees": 10,
            "k_folds": 3,
            "shap_background": 64,
            "threads": 1,
        },
        "excluded_event": "outbreak",
        "extra": (("ingest", 2), ("compare", 1), ("train", 1), ("explain", 1)),
        # the featurize call alone takes most of the round; a slot on each
        # side of it spreads the samples without lengthening the round much
        "extra_after": ("featurize", "explain"),
    },
    "reactions-model": {
        "corpus": {
            "layout": "jsonl",
            "events": [
                {"name": n, "rumour_threads": 3, "nonrumour_threads": 3, "mean_reactions": 4}
                for n in ("harbourblast", "museumgift", "schoolclosure")
            ],
            "marker": {"category": "language", "rumour_rate": 0.9, "nonrumour_rate": 0.0},
        },
        "config": {
            "dataset_format": "jsonl",
            "scope": "both",
            "threads": 2,
        },
        "excluded_event": None,
        "extra": (("ingest", 10), ("featurize", 1), ("compare", 5)),
        "extra_after": ("featurize", "compare", "train", "explain"),
    },
}

NAMES = tuple(GENERATED)


def spec(name: str) -> dict:
    return GENERATED[name]


def round_slots(workload: str | None) -> list[list[tuple[str, bool]]]:
    """The calls of one round, as (stage, is part of the ordered pass),
    grouped in slots: each pass call is a slot of its own, and each
    block of extra calls is one slot. Without a workload, one plain pass."""
    spec = GENERATED[workload] if workload else {"extra": (), "extra_after": ()}
    slots = []
    for stage in STAGES:
        slots.append([(stage, True)])
        # not after ingest: a re-run of compare would find no features yet
        if stage in spec["extra_after"]:
            slots.append([(e, False) for e, n in spec["extra"] for _ in range(n)])
    return slots
