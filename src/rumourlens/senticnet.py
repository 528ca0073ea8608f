"""Concept-level affective features from a SenticNet-format table.

The table maps a concept (lowercase words joined by '_') to five values in
[-1, +1]: pleasantness, attention, sensitivity, aptitude, polarity.
Multi-word concepts are matched greedily left to right, longest phrase
first (up to 4-grams); matched words are consumed, unmatched words are
skipped. Per-tweet features are the unweighted means over the matched
concepts' values.
"""

from __future__ import annotations

import csv
import json
import urllib.error
import urllib.request
from dataclasses import dataclass

from .errors import DuplicateConcept, OutOfRange, ParseError

DIMENSIONS = ("pleasantness", "attention", "sensitivity", "aptitude", "polarity")

_HEADER = ("concept",) + DIMENSIONS

MAX_PHRASE_LEN = 4


@dataclass(frozen=True)
class SenticTable:
    entries: dict[str, tuple[float, float, float, float, float]]

    def __len__(self) -> int:
        return len(self.entries)


def load_sentic_table(path) -> SenticTable:
    entries: dict[str, tuple[float, ...]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty sentic table") from None
        if tuple(header) != _HEADER:
            raise ParseError(f"expected header {','.join(_HEADER)}, got {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ParseError(f"expected 6 columns, got {len(row)}", line=lineno)
            concept = row[0].strip().lower()
            if not concept:
                raise ParseError("empty concept", line=lineno)
            if concept in entries:
                raise DuplicateConcept(f"line {lineno}: concept {concept!r} repeated")
            try:
                values = tuple(float(v) for v in row[1:])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            for dim, v in zip(DIMENSIONS, values):
                if not -1.0 <= v <= 1.0:
                    raise OutOfRange(f"line {lineno}: {dim}={v} outside [-1, 1]")
            entries[concept] = values
    return SenticTable(entries=entries)


def save_sentic_table(table: SenticTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for concept in table.entries:
            writer.writerow([concept] + [format(v, "g") for v in table.entries[concept]])


def match_concepts(lemmas: list[str], table: SenticTable) -> list[str]:
    """Greedy longest-phrase matching, up to 4-word concepts.

    At each position the 4-, 3-, 2- then 1-word join is tried; on a match
    those words are consumed, otherwise the position advances by one.
    """
    matched = []
    i = 0
    n = len(lemmas)
    while i < n:
        for span in range(min(MAX_PHRASE_LEN, n - i), 0, -1):
            concept = "_".join(lemmas[i : i + span])
            if concept in table.entries:
                matched.append(concept)
                i += span
                break
        else:
            i += 1
    return matched


@dataclass(frozen=True)
class SenticFeatures:
    pleasantness: float | None
    attention: float | None
    sensitivity: float | None
    aptitude: float | None
    polarity: float | None
    matched_concept_count: int

    def as_dict(self) -> dict[str, float | None]:
        return {
            "pleasantness": self.pleasantness,
            "attention": self.attention,
            "sensitivity": self.sensitivity,
            "aptitude": self.aptitude,
            "polarity": self.polarity,
        }


def sentic_features(lemmas: list[str], table: SenticTable) -> SenticFeatures:
    """Per-dimension mean over all matched concepts; absent with no match."""
    concepts = match_concepts(lemmas, table)
    if not concepts:
        return SenticFeatures(None, None, None, None, None, 0)
    sums = [0.0] * 5
    for c in concepts:
        for k, v in enumerate(table.entries[c]):
            sums[k] += v
    means = [s / len(concepts) for s in sums]
    return SenticFeatures(*means, matched_concept_count=len(concepts))


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
