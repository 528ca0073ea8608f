"""Tokenization, syllable counting and the cleaning pipelines.

A tweet's raw text is prepared three ways for the downstream feature
families:

* one raw token stream (``tokenize``) feeds both the dictionary engine,
  which needs every word and punctuation mark, and the concept lemmas:
  ``clean_for_senticnet`` lowercases, lemmatizes and drops stopwords from
  its word tokens while always preserving negation words.
* ``clean_for_readability`` keeps sentence punctuation (the period matters
  for sentence counting) while stripping tweet markup; ``text_stats``
  tokenizes that cleaned text again, because the cleaner's spans do not
  always fall on raw token boundaries.
* emotion providers receive the raw text itself.

Tokens are named tuples of (surface, kind). What a family derives from
one word depends only on the word and the family's word lists, so it is
worked out once per distinct word: ``concept_lemma`` and ``word_stats``
give a word's record, and ``clean_for_senticnet`` and ``text_stats``
take a memo of those records keyed by the word as written. The memo
belongs to whoever holds the word lists (the featurizer of one run), and
a call without one does each word's work afresh.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import EmptyText

VOWELS = set("aeiouy")

#: Negations survive every stopword filter.
NEGATIONS = {"not", "no", "never", "nor", "neither", "cannot", "n't"}


class TokenKind(Enum):
    WORD = "word"
    PUNCTUATION = "punctuation"
    HASHTAG = "hashtag"
    MENTION = "mention"
    URL = "url"
    EMOJI = "emoji"
    NUMBER = "number"


class Token(NamedTuple):
    surface: str
    kind: TokenKind


# Emoji coverage: Misc Symbols, Misc Symbols and Pictographs, Emoticons,
# Transport and Map, Supplemental Symbols and Pictographs.
_EMOJI_RANGES = "☀-⛿\U0001f300-\U0001f5ff\U0001f600-\U0001f64f\U0001f680-\U0001f6ff\U0001f900-\U0001f9ff"

_TOKEN_RE = re.compile(
    r"""
    (?P<url>https?://\S+|www\.\S+)
  | (?P<mention>@\w+)
  | (?P<hashtag>\#\w+)
  | (?P<emoji>[{emoji}])
  | (?P<number>\d+(?:[.,]\d+)*)
  | (?P<word>[^\W\d_]+(?:'[^\W\d_]+)*)
  | (?P<punct>[^\w\s])
    """.format(emoji=_EMOJI_RANGES),
    re.VERBOSE,
)

_GROUP_KIND = {
    "url": TokenKind.URL,
    "mention": TokenKind.MENTION,
    "hashtag": TokenKind.HASHTAG,
    "emoji": TokenKind.EMOJI,
    "number": TokenKind.NUMBER,
    "word": TokenKind.WORD,
    "punct": TokenKind.PUNCTUATION,
}


_new_tuple = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Split text into classified tokens. Total: never raises.

    URLs, mentions (@x), hashtags (#x) and emoji are recognised before
    words, so the kinds are mutually exclusive. Words are alphabetic runs
    with internal apostrophes; every other non-space character becomes a
    single punctuation token.
    """
    # tuple.__new__ builds the Token without the Python-level Token.__new__
    return [_new_tuple(Token, (m.group(), _GROUP_KIND[m.lastgroup])) for m in _TOKEN_RE.finditer(text)]


def count_syllables(word: str) -> int:
    """Heuristic syllable count: maximal vowel groups (aeiouy), with a
    silent trailing 'e' subtracted unless the word ends in consonant+'le'.
    Never below 1.
    """
    w = word.lower().strip("'")
    groups = re.findall(r"[aeiouy]+", w)
    n = len(groups)
    if w.endswith("e") and not (
        len(w) >= 3 and w.endswith("le") and w[-3] not in VOWELS
    ):
        # only a lone trailing 'e' is silent ("see" keeps its group)
        if re.search(r"[^aeiouy]e$", w):
            n -= 1
    return max(n, 1)


_URL_RE = re.compile(r"\b(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"\#\w+")
_EMOJI_RE = re.compile(f"[{_EMOJI_RANGES}]")
_SPACE_BEFORE_PUNCT_RE = re.compile(r"\s+([.!?,;:])")


def clean_for_readability(text: str) -> str:
    """Remove tweet markup (hashtags, mentions, URLs, emoji) but keep
    sentence punctuation.

    Not idempotent: the space before punctuation is dropped last, so it
    can join a bare URL scheme to the punctuation, and "http:// ,"
    cleans to "http://,", which a second pass removes as a URL."""
    out = _URL_RE.sub(" ", text)
    out = _MENTION_RE.sub(" ", out)
    out = _HASHTAG_RE.sub(" ", out)
    out = _EMOJI_RE.sub(" ", out)
    out = re.sub(r"\s+", " ", out)
    out = _SPACE_BEFORE_PUNCT_RE.sub(r"\1", out)
    return out.strip()


class RuleLemmatizer:
    """Suffix-stripping lemmatizer with an exceptions table.

    The exceptions table (irregular form -> lemma) is consulted first;
    the suffix rules cover regular plural/-ing/-ed inflection.
    """

    def __init__(self, exceptions: dict[str, str] | None = None):
        self.exceptions = exceptions if exceptions is not None else load_lemma_exceptions()

    def lemmatize(self, word: str) -> str:
        w = word.lower()
        if w in self.exceptions:
            return self.exceptions[w]
        return self._apply_rules(w)

    @staticmethod
    def _undouble(stem: str) -> str:
        if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in "lsz":
            return stem[:-1]
        return stem

    def _apply_rules(self, w: str) -> str:
        if len(w) > 5 and w.endswith("ing"):
            return self._undouble(w[:-3])
        if len(w) > 4 and w.endswith("ied"):
            return w[:-3] + "y"
        if len(w) > 4 and w.endswith("ed"):
            return self._undouble(w[:-2])
        if len(w) > 3 and w.endswith("ies"):
            return w[:-3] + "y"
        if len(w) > 3 and w.endswith(("ses", "xes", "zes", "ches", "shes", "oes")):
            return w[:-2]
        if len(w) > 3 and w.endswith("s") and not w.endswith(("ss", "us", "is")):
            return w[:-1]
        return w


def is_negation(word: str) -> bool:
    w = word.lower()
    return w in NEGATIONS or w.endswith("n't")


def concept_lemma(word: str, stopwords: set[str], lemmatizer: RuleLemmatizer) -> str | None:
    """A word token's concept lemma: the lowercased word if it is a
    negation, None if it is a stopword, else its lemma."""
    w = word.lower()
    if is_negation(w):
        return w
    if w in stopwords:
        return None
    return lemmatizer.lemmatize(w)


def clean_for_senticnet(
    tokens: list[Token], stopwords: set[str], lemmatizer: RuleLemmatizer, memo: dict | None = None
) -> list[str]:
    """Lowercased, lemmatized word tokens with stopwords removed.

    Negation words always survive the stopword filter. `memo` maps each
    word surface seen to its `concept_lemma` under these stopwords and
    this lemmatizer; a caller that keeps one memo for them does each
    distinct word's work once.
    """
    if memo is None:
        memo = {}
    out = []
    for tok in tokens:
        if tok.kind is TokenKind.WORD:
            w = tok.surface
            if w not in memo:
                memo[w] = concept_lemma(w, stopwords, lemmatizer)
            lemma = memo[w]
            if lemma is not None:
                out.append(lemma)
    return out


@dataclass(frozen=True)
class TextStats:
    words: int
    sentences: int
    syllables: int
    polysyllables: int
    complex_words: int
    difficult_words: int


_SENTENCE_END_RE = re.compile(r"[.!?]+(?:\s|$)")
_INFLECTION_RE = re.compile(r"(es|ed|ing)$")


def _is_complex(word: str, syllables: int) -> bool:
    # Gunning-Fog sense: three or more syllables (`syllables` is the
    # word's count), not counting words that only cross the threshold
    # through an -es/-ed/-ing suffix.
    if syllables < 3:
        return False
    stripped = _INFLECTION_RE.sub("", word.lower())
    if stripped != word.lower() and len(stripped) >= 2:
        return count_syllables(stripped) >= 3
    return True


class WordStats(NamedTuple):
    """One word's share of the TextStats counts: its syllables, and 1 or 0
    for each word class."""

    syllables: int
    polysyllables: int
    complex_words: int
    difficult_words: int


def word_stats(word: str, easy_words: set[str]) -> WordStats:
    syllables = count_syllables(word)
    return WordStats(
        syllables,
        int(syllables >= 3),
        int(_is_complex(word, syllables)),
        int(word.lower() not in easy_words),
    )


def text_stats(text: str, easy_words: set[str], memo: dict | None = None) -> TextStats:
    """Counts over readability-cleaned text.

    Sentence boundaries are ``[.!?]+`` runs followed by space or end of
    text; any text containing a word has at least one sentence. Raises
    EmptyText when no word is present. `memo` maps each word surface
    seen to its `word_stats` under these easy words; a caller that keeps
    one memo for them does each distinct word's work once.
    """
    words = [t.surface for t in tokenize(text) if t.kind is TokenKind.WORD]
    if not words:
        raise EmptyText("no words in text")
    if memo is None:
        memo = {}
    for w in words:
        if w not in memo:
            memo[w] = word_stats(w, easy_words)
    sentences = max(len(_SENTENCE_END_RE.findall(text)), 1)
    # integer sums, so the order they run in cannot change them
    return TextStats(len(words), sentences, *map(sum, zip(*map(memo.__getitem__, words))))


# ---------------------------------------------------------------------------
# bundled data files


def bundled(name: str) -> Path:
    """The path of a data file shipped in the package's `data` directory."""
    return Path(__file__).parent / "data" / name


def load_wordlist(path) -> set[str]:
    """One word per line; '#'-prefixed lines are comments."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return words


def load_stopwords(path=None) -> set[str]:
    return load_wordlist(bundled("stopwords.txt") if path is None else path)


def load_easy_words(path=None) -> set[str]:
    return load_wordlist(bundled("easy_words.txt") if path is None else path)


def load_lemma_exceptions(path=None) -> dict[str, str]:
    """TSV of irregular form -> lemma."""
    raw = Path(bundled("lemma_exceptions.tsv") if path is None else path).read_text(encoding="utf-8")
    table = {}
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        form, lemma = line.split("\t")
        table[form.lower()] = lemma.lower()
    return table
