"""Concept-level affective features from a SenticNet-format table.

The table maps a concept (lowercase words joined by '_') to five values in
[-1, +1]: pleasantness, attention, sensitivity, aptitude, polarity.
Multi-word concepts are matched greedily left to right, longest phrase
first (up to 4-grams); matched words are consumed, unmatched words are
skipped. Per-tweet features are the unweighted means over the matched
concepts' values (`sentic_features`), or None where no concept matched.
"""

from __future__ import annotations

import csv
import json
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from .errors import DuplicateConcept, OutOfRange, ParseError
from .textprep import open_utf8, write_csv

DIMENSIONS = ("pleasantness", "attention", "sensitivity", "aptitude", "polarity")

_HEADER = ("concept",) + DIMENSIONS

MAX_PHRASE_LEN = 4


@dataclass(frozen=True)
class SenticTable:
    entries: dict[str, tuple[float, float, float, float, float]]
    # derived from `entries` and so kept out of equality: each concept's
    # first word -> the most words (at most MAX_PHRASE_LEN) of a concept
    # starting with it
    _longest: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for concept in self.entries:
            first = concept.partition("_")[0]
            span = min(concept.count("_") + 1, MAX_PHRASE_LEN)
            if span > self._longest.get(first, 0):
                self._longest[first] = span

    def __len__(self) -> int:
        return len(self.entries)


def load_sentic_table(path) -> SenticTable:
    """The concept table in a CSV file with the `_HEADER` columns; every
    error names the file."""
    entries: dict[str, tuple[float, ...]] = {}
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty sentic table", path=path)
        if tuple(header) != _HEADER:
            raise ParseError(f"expected header {','.join(_HEADER)}, got {','.join(header)}", path=path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ParseError(f"expected 6 columns, got {len(row)}", line=lineno, path=path)
            concept = row[0].strip().lower()
            if not concept:
                raise ParseError("empty concept", line=lineno, path=path)
            if concept in entries:
                raise DuplicateConcept(f"concept {concept!r} repeated", line=lineno, path=path)
            try:
                values = tuple(float(v) for v in row[1:])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno, path=path) from exc
            for dim, v in zip(DIMENSIONS, values):
                if not -1.0 <= v <= 1.0:
                    raise OutOfRange(f"{dim}={v} outside [-1, 1]", line=lineno, path=path)
            entries[concept] = values
    return SenticTable(entries=entries)


def save_sentic_table(table: SenticTable, path) -> None:
    rows = ([concept] + [format(v, "g") for v in values] for concept, values in table.entries.items())
    write_csv(path, _HEADER, rows)


def match_concepts(lemmas: list[str], table: SenticTable) -> list[str]:
    """Greedy longest-phrase matching, up to 4-word concepts.

    At each position the 4-, 3-, 2- then 1-word join is tried; on a match
    those words are consumed, otherwise the position advances by one.
    Only joins no longer than the longest concept that starts with the
    position's first word can match, so only those are tried: a join of
    k lemmas has at least k words, and its first word is the lemma's.
    """
    entries, longest = table.entries, table._longest
    matched = []
    i = 0
    n = len(lemmas)
    while i < n:
        for span in range(min(longest.get(lemmas[i].partition("_")[0], 0), n - i), 0, -1):
            concept = "_".join(lemmas[i : i + span])
            if concept in entries:
                matched.append(concept)
                i += span
                break
        else:
            i += 1
    return matched


def sentic_features(lemmas: list[str], table: SenticTable) -> tuple[float, ...] | None:
    """The mean of each dimension over all matched concepts, in
    DIMENSIONS order; None when no concept matched."""
    concepts = match_concepts(lemmas, table)
    if not concepts:
        return None
    sums = [0.0] * 5
    for c in concepts:
        for k, v in enumerate(table.entries[c]):
            sums[k] += v
    return tuple(s / len(concepts) for s in sums)


def fetch_concepts(
    base_url: str,
    concepts: list[str],
    cache_path=None,
    timeout: float = 10.0,
) -> SenticTable:
    """Populate a table from a remote API (GET <base>/api/en/<concept>,
    JSON response holding the five dimension values) and optionally cache
    it to CSV. Concepts the API does not know are skipped.
    """
    entries: dict[str, tuple[float, ...]] = {}
    for concept in concepts:
        url = f"{base_url.rstrip('/')}/api/en/{concept}"
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                exc.close()
                continue
            raise
        values = tuple(float(payload[dim]) for dim in DIMENSIONS)
        for dim, v in zip(DIMENSIONS, values):
            if not -1.0 <= v <= 1.0:
                raise OutOfRange(f"{concept}: {dim}={v} outside [-1, 1]")
        entries[concept] = values
    table = SenticTable(entries=entries)
    if cache_path is not None:
        save_sentic_table(table, cache_path)
    return table
