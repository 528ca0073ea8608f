"""Five readability indices computed from TextStats.

Coefficients follow the canonical published definitions:

* Flesch Reading Ease:  206.835 - 1.015*(W/S) - 84.6*(Y/W)
* Flesch-Kincaid grade: 0.39*(W/S) + 11.8*(Y/W) - 15.59
* Gunning Fog:          0.4*[(W/S) + 100*(complex/W)]
* SMOG:                 1.0430*sqrt(poly*30/S) + 3.1291
* Dale-Chall:           0.1579*(100*difficult/W) + 0.0496*(W/S),
                        + 3.6365 when difficult/W > 5%

where W = words, S = sentences, Y = syllables. Scores are real-valued and
deliberately unclamped: degenerate tweets may push Flesch above 100 or a
grade below zero, and clamping would distort distribution comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyText
from .textprep import TextStats

SCORE_NAMES = (
    "flesch_score",
    "fleschkincaid_score",
    "gunningfog_score",
    "smog_score",
    "dalechall_score",
)


@dataclass(frozen=True)
class ReadabilityScores:
    flesch: float
    flesch_kincaid: float
    gunning_fog: float
    smog: float
    dale_chall: float

    def values(self) -> tuple[float, ...]:
        """The scores in SCORE_NAMES order."""
        return (self.flesch, self.flesch_kincaid, self.gunning_fog, self.smog, self.dale_chall)


def _check(stats: TextStats) -> None:
    if stats.words < 1 or stats.sentences < 1:
        raise EmptyText("readability undefined without words and sentences")


def flesch(stats: TextStats) -> float:
    _check(stats)
    return 206.835 - 1.015 * (stats.words / stats.sentences) - 84.6 * (stats.syllables / stats.words)


def flesch_kincaid(stats: TextStats) -> float:
    _check(stats)
    return 0.39 * (stats.words / stats.sentences) + 11.8 * (stats.syllables / stats.words) - 15.59


def gunning_fog(stats: TextStats) -> float:
    _check(stats)
    return 0.4 * ((stats.words / stats.sentences) + 100.0 * (stats.complex_words / stats.words))


def smog(stats: TextStats) -> float:
    _check(stats)
    return 1.0430 * math.sqrt(stats.polysyllables * 30.0 / stats.sentences) + 3.1291


def dale_chall(stats: TextStats) -> float:
    _check(stats)
    difficult_pct = 100.0 * stats.difficult_words / stats.words
    score = 0.1579 * difficult_pct + 0.0496 * (stats.words / stats.sentences)
    if difficult_pct > 5.0:
        score += 3.6365
    return score


def all_scores(stats: TextStats) -> ReadabilityScores:
    return ReadabilityScores(
        flesch=flesch(stats),
        flesch_kincaid=flesch_kincaid(stats),
        gunning_fog=gunning_fog(stats),
        smog=smog(stats),
        dale_chall=dale_chall(stats),
    )
