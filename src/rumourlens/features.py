"""Per-tweet feature assembly across the four feature families.

One row per tweet: the dictionary profile (word count, every top-level
lexicon category, punctuation), the five readability indices, the five
concept-affect dimensions and the seven emotion scores. Families that
are undefined for a tweet (no words, no matched concepts, no emotion
provider configured) are absent, not zero; downstream consumers decide
whether to exclude (distribution tests) or impute (classification).

A `Featurizer` tokenizes each tweet once (see `textprep`). The token
list goes to the lexicon, which profiles the feature categories only.
Each word token is then read from one record per distinct word surface,
worked out when the featurizer first meets the surface and kept for as
long as it lives, which in the pipeline is one featurize stage. The
record holds the word's readability counts, its concept lemma and the
labels it hits in the `fallback` emotion provider's word lists, so the
readability sums, the concept lemmas and the fallback's emotion scores
all come from the same records. The lexicon keeps its own memo of the
positions each surface hits, and the stage builds that lexicon afresh
too. A featurizer's word lists must not change once it has featurized.
Other emotion providers get the raw texts through `classify`.

Every stage holds the features as one `FeatureTable`: a float64 matrix
with one column per feature, in which NaN means absent, beside the
per-tweet id, event, role, label and empty-text columns. On disk
(`features.csv`) absence is the explicit `<name>__absent` flag instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import readability, senticnet, textprep
from .corpus import EventCorpus
from .errors import MalformedResponse, ParseError
from .lexicon import Lexicon, score
from .readability import SCORE_NAMES as READABILITY_FEATURES
from .senticnet import DIMENSIONS as SENTIC_FEATURES
from .emotions import LABELS as EMOTION_FEATURES, LexiconFallbackProvider
from .textprep import RuleLemmatizer, TextStats, TokenKind, WordStats, clean_for_readability, concept_lemma
from .textprep import count_sentences, tokenize, word_stats

WC_FEATURE = "WC"
ALLPUNCT_FEATURE = "allpunct"

#: lexicon categories folded into engine-computed columns
_ENGINE_CATEGORY_NAMES = {"wc", "allpunct"}


#: the feature families with fixed column names
_FIXED_FAMILIES = (
    ("readability", READABILITY_FEATURES),
    ("concept-affect", SENTIC_FEATURES),
    ("emotion", EMOTION_FEATURES),
)

_ABSENT_READABILITY = (math.nan,) * len(READABILITY_FEATURES)
_ABSENT_CONCEPTS = (math.nan,) * len(SENTIC_FEATURES)

_WORD = TokenKind.WORD


class WordRecord(NamedTuple):
    """What every family needs of one word surface: its readability
    counts, its concept lemma (None: a stopword) and the LABELS positions
    it hits in the fallback emotion provider's word lists (none without
    that provider)."""

    stats: WordStats
    lemma: str | None
    emotions: tuple[int, ...]


#: the FeatureTable fields that hold one entry per row, in field order
_ROW_COLUMNS = ("tweet_id", "event", "role", "label", "empty_text", "X")


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Per-tweet features in columns. Row i of every column describes the
    same tweet; `role` holds "source"/"reaction", `label` holds
    "rumour"/"non-rumour", and `X[:, j]` is feature `names[j]`, NaN where
    the value is absent."""

    names: list[str]
    tweet_id: np.ndarray
    event: np.ndarray
    role: np.ndarray
    label: np.ndarray
    empty_text: np.ndarray
    X: np.ndarray

    @classmethod
    def from_columns(cls, names, tweet_id, event, role, label, empty_text, X) -> FeatureTable:
        text = (np.array(c, dtype=str) for c in (tweet_id, event, role, label))
        X = np.array(X, dtype=np.float64).reshape(len(tweet_id), len(names))
        return cls(list(names), *text, np.array(empty_text, dtype=bool), X)

    @classmethod
    def concat(cls, names, tables: list[FeatureTable]) -> FeatureTable:
        columns = (np.concatenate([getattr(t, c) for t in tables]) for c in _ROW_COLUMNS)
        return cls(list(names), *columns)

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, rows) -> FeatureTable:
        """The rows selected by a boolean mask or an index array, in order."""
        return FeatureTable(self.names, *(getattr(self, c)[rows] for c in _ROW_COLUMNS))

    def classes(self) -> np.ndarray:
        """Class per row: 1 for rumour, 0 for non-rumour."""
        return (self.label == "rumour").astype(np.int64)


def lexicon_feature_names(lexicon: Lexicon) -> list[str]:
    cats = [c for c in lexicon.top_level() if c.lower() not in _ENGINE_CATEGORY_NAMES]
    return [WC_FEATURE] + cats + [ALLPUNCT_FEATURE]


def feature_names(lexicon: Lexicon, with_emotions: bool = True) -> list[str]:
    names = lexicon_feature_names(lexicon)
    names += list(READABILITY_FEATURES)
    names += list(SENTIC_FEATURES)
    if with_emotions:
        names += list(EMOTION_FEATURES)
    return names


class Featurizer:
    def __init__(
        self,
        lexicon: Lexicon,
        sentic_table: senticnet.SenticTable,
        emotion_provider=None,
        stopwords: set[str] | None = None,
        lemmatizer: RuleLemmatizer | None = None,
        easy_words: set[str] | None = None,
    ):
        self.lexicon = lexicon
        self.sentic_table = sentic_table
        self.emotion_provider = emotion_provider
        self.stopwords = stopwords if stopwords is not None else textprep.load_stopwords()
        self.lemmatizer = lemmatizer or RuleLemmatizer()
        self.easy_words = easy_words if easy_words is not None else textprep.load_easy_words()
        # a lexicon category becomes a column of its own name, which must
        # not be taken by another family whether or not that family is on
        for family, reserved in _FIXED_FAMILIES:
            for category in lexicon.top_level():
                if category in reserved:
                    raise ParseError(
                        f"lexicon category {category!r} clashes with the {family} "
                        "feature of that name"
                    )
        self.names = feature_names(lexicon, with_emotions=emotion_provider is not None)
        self._categories = tuple(lexicon_feature_names(lexicon)[1:-1])
        # the column where the emotion block starts
        self._emotions = len(feature_names(lexicon, with_emotions=False))
        # the fallback provider scores from the records; others from `classify`
        self._fallback = emotion_provider if isinstance(emotion_provider, LexiconFallbackProvider) else None
        # word surface -> its record under this featurizer's word lists
        self._words: dict[str, WordRecord] = {}

    def featurize_corpus(self, corpus: EventCorpus) -> FeatureTable:
        tweets = list(corpus.sources) + list(corpus.reactions)
        X = np.empty((len(tweets), len(self.names)))
        for row, tweet in zip(X, tweets):
            values = self._text_features(tweet.text)
            row[: len(values)] = values
        if self.emotion_provider is not None and self._fallback is None:
            dists = self.emotion_provider.classify([t.text for t in tweets])
            if len(dists) != len(tweets):
                raise MalformedResponse(
                    f"{corpus.event}: emotion provider returned {len(dists)} results "
                    f"for {len(tweets)} texts"
                )
            for row, dist in zip(X, dists):
                row[self._emotions :] = [dist.scores[lab] for lab in EMOTION_FEATURES]
        return FeatureTable.from_columns(
            self.names,
            tweet_id=[t.id for t in tweets],
            event=[t.event for t in tweets],
            role=[t.role.value for t in tweets],
            label=[t.label.value for t in tweets],
            empty_text=[t.is_empty_text() for t in tweets],
            X=X,
        )

    def _text_features(self, text: str) -> list[float]:
        """One tweet's features in `names` order: WC, the categories,
        allpunct, readability, concepts, then the emotions if the provider
        is the fallback (`featurize_corpus` asks any other provider for
        them). A family the tweet lacks is NaN, which means absent."""
        tokens = tokenize(text)
        profile = score(tokens, self.lexicon, self._categories)
        row = [profile.word_count]
        if profile.word_count:
            row += profile.percentages.values()
            row.append(profile.punctuation["all_punct"])
        else:
            row += [math.nan] * (len(self._categories) + 1)

        records = self._words
        words = [records.get(s) or self._record(s) for s, kind in tokens if kind is _WORD]
        stats, lemmas, emotions = zip(*words) if words else ((), (), ())
        cleaned = clean_for_readability(text)
        if "://" in text or "www" in text:
            # removing a URL can split, join or expose words, so readability
            # counts the cleaned text's words, as `text_stats` does
            stats = [(records.get(s) or self._record(s)).stats for s, kind in tokenize(cleaned) if kind is _WORD]
        if stats:
            # integer sums, so the order they run in cannot change them
            counts = TextStats(len(stats), count_sentences(cleaned), *map(sum, zip(*stats)))
            row += readability.all_scores(counts).values()
        else:
            row += _ABSENT_READABILITY  # nothing to score

        concepts = senticnet.sentic_features([w for w in lemmas if w is not None], self.sentic_table)
        row += concepts or _ABSENT_CONCEPTS
        if self._fallback is not None:
            row += self._fallback.from_hits(emotions).scores.values()  # in LABELS order
        return row

    def _record(self, surface: str) -> WordRecord:
        record = self._words[surface] = WordRecord(
            word_stats(surface, self.easy_words),
            concept_lemma(surface, self.stopwords, self.lemmatizer),
            self._fallback.label_hits(surface) if self._fallback is not None else (),
        )
        return record
