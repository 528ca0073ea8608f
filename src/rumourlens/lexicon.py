"""Dictionary engine: per-category word percentages over tokenized text.

Categories hold literal words and/or stems (trailing '*' matches any word
with that prefix). A word may match any number of categories; matching is
case-insensitive. Percentages are relative to the word count. Punctuation
marks are tallied separately, also as a percentage of the word count (the
convention dictionary tools use), so punctuation percentages can exceed
100 on punctuation-heavy posts.

Lexicons are JSON::

    {"metadata": {"name": "...", "version": "..."},
     "categories": {"pronoun": {"parent": "function",
                                "patterns": ["i", "we", "happ*"]}}}

A converter for the classic ``.dic`` dictionary format (category header
block between '%' lines, then word/category-id rows) is provided as
``convert_dic``.

Matching is compiled: each ``Lexicon`` indexes its literals and its stems
(pattern → categories) when it is made, and looks each distinct word up
once, the literal index plus every prefix of the word in the stem index.
The result is memoised on the lexicon, so that memo grows with the
distinct vocabulary scored against it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .errors import BadPattern, CycleError, EmptyCategory, ParseError
from .textprep import Token, TokenKind

PUNCT_KEYS = (
    "period",
    "comma",
    "semicolon",
    "question",
    "exclam",
    "apostrophe",
    "parenthesis",
    "all_punct",
)

_PUNCT_BUCKET = {
    ".": "period",
    ",": "comma",
    ";": "semicolon",
    "?": "question",
    "!": "exclam",
    "'": "apostrophe",
    "’": "apostrophe",
    "(": "parenthesis",
    ")": "parenthesis",
}


@dataclass(frozen=True)
class Category:
    name: str
    patterns: tuple[str, ...]
    parent: str | None = None
    # compiled forms
    literals: frozenset[str] = field(default=frozenset())
    stems: tuple[str, ...] = field(default=())
    punct_literals: frozenset[str] = field(default=frozenset())


@dataclass(frozen=True)
class Lexicon:
    categories: dict[str, Category]
    name: str = ""
    version: str = ""
    # compiled forms, derived from `categories` and so kept out of
    # equality: pattern -> category positions (punctuation: -> names),
    # and the per-word memo
    _literal_index: dict[str, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _stem_index: dict[str, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _punct_index: dict[str, list[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _memo: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for pos, (cname, cat) in enumerate(self.categories.items()):
            for w in cat.literals:
                self._literal_index.setdefault(w, []).append(pos)
            for stem in cat.stems:
                self._stem_index.setdefault(stem, []).append(pos)
            for p in cat.punct_literals:
                self._punct_index.setdefault(p, []).append(cname)

    def top_level(self) -> list[str]:
        return [c.name for c in self.categories.values() if c.parent is None]

    def word_categories(self, word: str) -> tuple[str, ...]:
        """Categories a lower-cased word token matches, in `categories` order."""
        found = self._memo.get(word)
        if found is None:
            hits = set(self._literal_index.get(word, ()))
            stems = self._stem_index
            for i in range(len(word) + 1):  # prefix 0 is a bare '*'
                hits.update(stems.get(word[:i], ()))
            names = list(self.categories)
            found = self._memo[word] = tuple(names[pos] for pos in sorted(hits))
        return found

    def punct_categories(self, surface: str) -> list[str]:
        """Categories listing a punctuation token's surface as a literal."""
        return self._punct_index.get(surface, [])


def _compile_category(name: str, patterns: list[str], parent: str | None) -> Category:
    if not patterns:
        raise EmptyCategory(f"category {name!r} has no patterns")
    literals, stems, punct = set(), [], set()
    for p in patterns:
        p = p.lower()
        star = p.find("*")
        if star != -1 and star != len(p) - 1:
            raise BadPattern(f"category {name!r}: '*' must be terminal in {p!r}")
        if p.endswith("*"):
            stems.append(p[:-1])
        elif p and not any(ch.isalpha() for ch in p):
            punct.add(p)
        else:
            literals.add(p)
    return Category(
        name=name,
        patterns=tuple(patterns),
        parent=parent,
        literals=frozenset(literals),
        stems=tuple(sorted(set(stems))),
        punct_literals=frozenset(punct),
    )


def build_lexicon(
    categories: dict[str, dict], name: str = "", version: str = ""
) -> Lexicon:
    """Validate and compile a category map (see module docstring for shape)."""
    compiled: dict[str, Category] = {}
    for cname, spec in categories.items():
        compiled[cname] = _compile_category(
            cname, list(spec.get("patterns", [])), spec.get("parent")
        )
    for cname, cat in compiled.items():
        seen = {cname}
        cur = cat.parent
        while cur is not None:
            if cur not in compiled:
                raise ParseError(f"category {cname!r}: unknown parent {cur!r}")
            if cur in seen:
                raise CycleError(f"parent cycle through {cur!r}")
            seen.add(cur)
            cur = compiled[cur].parent
    return Lexicon(categories=compiled, name=name, version=version)


def load_lexicon(path) -> Lexicon:
    def no_dupes(pairs):
        d = {}
        for k, v in pairs:
            if k in d:
                raise ParseError(f"duplicate key {k!r} in lexicon file")
            d[k] = v
        return d

    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=no_dupes)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid lexicon JSON: {exc}") from exc
    meta = data.get("metadata", {})
    return build_lexicon(
        data.get("categories", {}),
        name=meta.get("name", ""),
        version=meta.get("version", ""),
    )


@dataclass(frozen=True)
class CategoryProfile:
    word_count: int
    percentages: dict[str, float]  # empty when word_count == 0
    punctuation: dict[str, float]  # empty when word_count == 0


def score(tokens: list[Token], lexicon: Lexicon) -> CategoryProfile:
    """Profile one tokenized text against a lexicon.

    With zero word tokens all percentage maps are empty (absent, not zero).
    Apostrophes inside word tokens count toward the apostrophe and
    all_punct buckets, matching how contraction-heavy text is scored by
    dictionary tools.
    """
    words = [t.surface.lower() for t in tokens if t.kind is TokenKind.WORD]
    wc = len(words)
    if wc == 0:
        return CategoryProfile(word_count=0, percentages={}, punctuation={})

    punct_counts = dict.fromkeys(PUNCT_KEYS, 0)
    punct_surfaces = []
    for t in tokens:
        if t.kind is TokenKind.PUNCTUATION:
            punct_surfaces.append(t.surface)
            punct_counts["all_punct"] += 1
            bucket = _PUNCT_BUCKET.get(t.surface)
            if bucket:
                punct_counts[bucket] += 1
    for w in words:
        inner = w.count("'")
        if inner:
            punct_counts["apostrophe"] += inner
            punct_counts["all_punct"] += inner

    hits = dict.fromkeys(lexicon.categories, 0)
    for w, n in Counter(words).items():
        for cname in lexicon.word_categories(w):
            hits[cname] += n
    for p in punct_surfaces:
        for cname in lexicon.punct_categories(p):
            hits[cname] += 1
    percentages = {cname: 100.0 * n / wc for cname, n in hits.items()}

    punctuation = {k: 100.0 * v / wc for k, v in punct_counts.items()}
    return CategoryProfile(word_count=wc, percentages=percentages, punctuation=punctuation)


def convert_dic(dic_path, json_path=None) -> Lexicon:
    """Convert a ``.dic`` dictionary file into the JSON lexicon format.

    The ``.dic`` layout: a '%'-delimited header of ``<id>\\t<name>`` rows,
    then ``<word>\\t<id> [<id>...]`` rows. The format carries no hierarchy,
    so all categories come out top-level.
    """
    with open(dic_path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0].strip() != "%":
        raise ParseError("missing '%' header block", line=1)
    names: dict[str, str] = {}
    body_start = None
    for i, ln in enumerate(lines[1:], start=2):
        if ln.strip() == "%":
            body_start = i
            break
        parts = ln.strip().split("\t")
        if len(parts) != 2:
            raise ParseError(f"bad category row {ln!r}", line=i)
        names[parts[0]] = parts[1]
    if body_start is None:
        raise ParseError("unterminated '%' header block")
    patterns: dict[str, list[str]] = {name: [] for name in names.values()}
    for i, ln in enumerate(lines[body_start:], start=body_start + 1):
        if not ln.strip():
            continue
        parts = ln.strip().split("\t")
        word, ids = parts[0], parts[1:]
        if not ids:
            raise ParseError(f"word {word!r} has no category ids", line=i)
        for cid in ids:
            if cid not in names:
                raise ParseError(f"unknown category id {cid!r}", line=i)
            patterns[names[cid]].append(word)
    categories = {
        name: {"patterns": pats} for name, pats in patterns.items() if pats
    }
    lex = build_lexicon(categories, name=str(dic_path))
    if json_path is not None:
        payload = {
            "metadata": {"name": lex.name, "version": ""},
            "categories": {
                n: {"patterns": list(c.patterns), **({"parent": c.parent} if c.parent else {})}
                for n, c in lex.categories.items()
            },
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return lex
