"""Per-tweet feature assembly across the four feature families.

One row per tweet: the dictionary profile (word count, every top-level
lexicon category, punctuation), the five readability indices, the five
concept-affect dimensions and the seven emotion scores. Families that
are undefined for a tweet (no words, no matched concepts, no emotion
provider configured) are absent, not zero; downstream consumers decide
whether to exclude (distribution tests) or impute (classification).

Every stage holds the features as one `FeatureTable`: a float64 matrix
with one column per feature, in which NaN means absent, beside the
per-tweet id, event, role, label and empty-text columns. On disk
(`features.csv`) absence is the explicit `<name>__absent` flag instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import readability, senticnet
from .corpus import EventCorpus, Tweet
from .errors import EmptyText
from .lexicon import Lexicon, score
from .readability import SCORE_NAMES as READABILITY_FEATURES
from .senticnet import DIMENSIONS as SENTIC_FEATURES
from .emotions import LABELS as EMOTION_FEATURES
from .textprep import RuleLemmatizer, clean_for_readability, clean_for_senticnet, text_stats, tokenize

WC_FEATURE = "WC"
ALLPUNCT_FEATURE = "allpunct"

#: lexicon categories folded into engine-computed columns
_ENGINE_CATEGORY_NAMES = {"wc", "allpunct"}


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
        # None (absent) becomes NaN
        X = np.array(X, dtype=np.float64).reshape(len(tweet_id), len(names))
        return cls(list(names), *text, np.array(empty_text, dtype=bool), X)

    @classmethod
    def concat(cls, names, tables: list[FeatureTable]) -> FeatureTable:
        if not tables:
            return cls.from_columns(names, [], [], [], [], [], [])
        columns = (np.concatenate([getattr(t, c) for t in tables]) for c in _ROW_COLUMNS)
        return cls(list(names), *columns)

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, rows) -> FeatureTable:
        """The rows selected by a boolean mask or an index array, in order."""
        return FeatureTable(self.names, *(getattr(self, c)[rows] for c in _ROW_COLUMNS))

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.names.index(name)]

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
        self.stopwords = stopwords
        self.lemmatizer = lemmatizer or RuleLemmatizer()
        self.easy_words = easy_words
        self.names = feature_names(lexicon, with_emotions=emotion_provider is not None)

    def featurize_corpus(self, corpus: EventCorpus) -> FeatureTable:
        tweets = list(corpus.sources) + list(corpus.reactions)
        rows = [self._text_features(t) for t in tweets]
        if self.emotion_provider is not None:
            dists = self.emotion_provider.classify([t.text for t in tweets])
            for row, dist in zip(rows, dists):
                row.update({lab: dist.scores[lab] for lab in EMOTION_FEATURES})
        return FeatureTable.from_columns(
            self.names,
            tweet_id=[t.id for t in tweets],
            event=[t.event for t in tweets],
            role=[t.role.value for t in tweets],
            label=[t.label.value for t in tweets],
            empty_text=[t.is_empty_text() for t in tweets],
            X=[[row.get(name) for name in self.names] for row in rows],
        )

    def _text_features(self, tweet: Tweet) -> dict[str, float | None]:
        """The text-derived features of one tweet; a feature left out of the
        returned map, or mapped to None, is absent."""
        tokens = tokenize(tweet.text)
        profile = score(tokens, self.lexicon)
        values: dict[str, float | None] = {WC_FEATURE: float(profile.word_count)}
        if profile.word_count:
            for cat in self.lexicon.top_level():
                if cat.lower() not in _ENGINE_CATEGORY_NAMES:
                    values[cat] = profile.percentages[cat]
            values[ALLPUNCT_FEATURE] = profile.punctuation["all_punct"]

        try:
            stats = text_stats(clean_for_readability(tweet.text), self.easy_words)
            values.update(readability.all_scores(stats).as_dict())
        except EmptyText:
            pass  # nothing to score: the readability family is absent

        lemmas = clean_for_senticnet(tweet.text, self.stopwords, self.lemmatizer)
        values.update(senticnet.sentic_features(lemmas, self.sentic_table).as_dict())
        return values


def emotion_argmax(scores: np.ndarray) -> np.ndarray:
    """Index into EMOTION_FEATURES of each row's top score, the earlier
    label winning ties; -1 where the emotion scores are absent. `scores`
    holds the EMOTION_FEATURES columns in that order."""
    return np.where(np.isnan(scores).any(axis=1), -1, np.argmax(scores, axis=1))
