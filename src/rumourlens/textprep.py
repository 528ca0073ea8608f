"""Tokenization, syllable counting and the cleaning pipelines.

A tweet's raw text is tokenized once (``tokenize``), and that one token
stream feeds every feature family:

* the dictionary engine reads every word and punctuation mark;
* the concept lemmas are its word tokens lowercased, lemmatized and
  stripped of stopwords, negation words always kept (``concept_lemma``
  for one word, ``clean_for_senticnet`` for a token list);
* readability counts its word tokens. Sentences are counted on the
  readability-cleaned text (``clean_for_readability``), which keeps
  sentence punctuation and strips tweet markup, because spaces the
  cleaner removes change where a sentence ends ("a .  ." has two raw
  sentence ends and one cleaned). The cleaner only changes which words
  there are around a URL, whose removal can split, join or expose words
  ("a'http://x", "1http://@x", "www .foo"), so only a text holding
  "://" or "www" tokenizes its cleaned text again for readability.
  Everywhere else it removes whole tokens (mentions, hashtags, emoji) or
  spaces, so the words stay as they were: no emoji character is a word
  character, so the raw text's words already end at an emoji;
* the ``fallback`` emotion provider counts the labels its word tokens hit.

Tokens are named tuples of (surface, kind). What a family derives from
one word depends only on the word and the family's word lists, so it is
worked out once per distinct word: ``word_stats`` and ``concept_lemma``
give a word's readability counts and concept lemma, which the featurizer
keeps in one record per word surface (see `features`). ``text_stats``
and ``clean_for_senticnet`` give the same counts and lemmas for one
text, working each word out afresh.

Every file the package reads is read here, through ``open_utf8`` (a
text handle that streams) or ``read_json`` (one JSON value); a byte that
is not UTF-8 raises ParseError as ``<path>: line N: not UTF-8: <reason>``.
Every file it writes is written here too, through ``open_run_file``, whole
or not at all (``write_csv``, ``write_json`` and ``write_text`` sit on it),
apart from the emotion cassette that a recording provider appends to.
"""

from __future__ import annotations

import csv
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import EmptyText, ParseError

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
_SPACE_BEFORE_PUNCT_RE = re.compile(r"\s+(?=[.!?,;:])")


def clean_for_readability(text: str) -> str:
    """Remove tweet markup (hashtags, mentions, URLs, emoji) but keep
    sentence punctuation.

    Not idempotent: the space before punctuation is dropped last, so it
    can join a bare URL scheme to the punctuation, and "http:// ,"
    cleans to "http://,", which a second pass removes as a URL."""
    out = text
    if "://" in out or "www." in out:  # a URL holds one of them
        out = _URL_RE.sub(" ", out)
    out = _MENTION_RE.sub(" ", out)
    out = _HASHTAG_RE.sub(" ", out)
    if not out.isascii():  # every emoji is outside ASCII
        out = _EMOJI_RE.sub(" ", out)
    # each whitespace run becomes one space, none left at either end
    out = " ".join(out.split())
    return _SPACE_BEFORE_PUNCT_RE.sub("", out)


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


def clean_for_senticnet(tokens: list[Token], stopwords: set[str], lemmatizer: RuleLemmatizer) -> list[str]:
    """Lowercased, lemmatized word tokens with stopwords removed.

    Negation words always survive the stopword filter.
    """
    lemmas = (concept_lemma(tok.surface, stopwords, lemmatizer) for tok in tokens if tok.kind is TokenKind.WORD)
    return [lemma for lemma in lemmas if lemma is not None]


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


def count_sentences(text: str) -> int:
    """Sentence ends in readability-cleaned text: ``[.!?]+`` runs followed
    by space or end of text, and at least one."""
    return max(len(_SENTENCE_END_RE.findall(text)), 1)


def text_stats(text: str, easy_words: set[str]) -> TextStats:
    """Counts over readability-cleaned text.

    Sentences are counted by ``count_sentences``. Raises
    EmptyText when no word is present.
    """
    words = [t.surface for t in tokenize(text) if t.kind is TokenKind.WORD]
    if not words:
        raise EmptyText("no words in text")
    stats = [word_stats(w, easy_words) for w in words]
    return TextStats(len(words), count_sentences(text), *map(sum, zip(*stats)))


# ---------------------------------------------------------------------------
# bundled data files


def bundled(name: str) -> Path:
    """The path of a data file shipped in the package's `data` directory."""
    return Path(__file__).parent / "data" / name


def _raise_not_utf8(path) -> None:
    """Raise ParseError naming `path` and the line of its first byte that
    is not UTF-8, found in the bytes read again (a streaming decoder counts
    from its chunk); return if the file decodes now, as it changed while read."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte; bytes break lines where text mode does
        line = len((data[: exc.start] + b"?").splitlines())
        raise ParseError(f"not UTF-8: {exc.reason}", line=line, path=path) from exc


@contextmanager
def open_utf8(path, newline=None):
    """`open(path, encoding="utf-8", newline=newline)`, read as it streams;
    a byte that is not UTF-8 raises ParseError naming the file and line."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            _raise_not_utf8(path)
            raise


def read_json(path, what="JSON", object_pairs_hook=None, top_object=False):
    """The one JSON value in `path`, an object if `top_object`; `what` names
    the kind of file in errors. A plain `open`: a corpus holds a file per
    tweet, and `open_utf8`'s context manager costs more than the parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh, object_pairs_hook=object_pairs_hook)
    except UnicodeDecodeError:
        _raise_not_utf8(path)
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid {what}: {exc}", path=path) from exc
    if top_object and not isinstance(value, dict):
        raise ParseError(f"the top level is not an object but {type(value).__name__}", path=path)
    return value


def read_json_lines(path):
    """(line number, value) of each line of `path` that is not blank, read
    as it streams; errors name the file and the line."""
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(str(exc), line=lineno, path=path) from exc
                yield lineno, value


@contextmanager
def open_run_file(path):
    """A text handle whose contents replace `path` only if the block
    completes; on an exception `path` is left as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, header, rows) -> None:
    """`header`, then each row of the iterable `rows`, consumed as written."""
    with open_run_file(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_json(path, obj) -> None:
    with open_run_file(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_text(path, text: str) -> None:
    with open_run_file(path) as fh:
        fh.write(text)


def load_wordlist(path) -> set[str]:
    """One word per line; '#'-prefixed lines are comments."""
    words = set()
    with open_utf8(path) as fh:
        for line in fh:
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
    path = bundled("lemma_exceptions.tsv") if path is None else path
    table = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.count("\t") != 1:
                raise ParseError(f"expected form<TAB>lemma, got {line!r:.40}", line=lineno, path=path)
            form, lemma = line.split("\t")
            table[form.lower()] = lemma.lower()
    return table
