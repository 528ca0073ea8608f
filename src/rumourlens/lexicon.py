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

``build_lexicon`` checks that every parent covers its children's
patterns (parent ⊇ child), so a parent never scores below a child: a
child literal needs the same literal or a prefixing stem in the parent,
a child stem a prefixing stem, a punctuation mark the same mark.

Matching is compiled: each ``Lexicon`` indexes its literals and its stems
(pattern → categories) when it is made, and matches a word against the
literal index plus every prefix of the word in the stem index. ``score``
profiles the categories it is asked for, by default all of them, and
counts by position in that list: for each list of categories asked for,
the lexicon keeps the positions each word surface and punctuation mark
hits, so each distinct surface is matched once and that memo grows with
the distinct vocabulary scored against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadPattern, CycleError, EmptyCategory, ParseError
from .textprep import Token, TokenKind, open_utf8, read_json, write_json

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
    # and the per-surface memo of `_profile_index`
    _literal_index: dict[str, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _stem_index: dict[str, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _punct_index: dict[str, list[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _profiles: dict[tuple[str, ...], tuple[dict, dict]] = field(
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
        hits = set(self._literal_index.get(word, ()))
        stems = self._stem_index
        for i in range(len(word) + 1):  # prefix 0 is a bare '*'
            hits.update(stems.get(word[:i], ()))
        names = list(self.categories)
        return tuple(names[pos] for pos in sorted(hits))

    def punct_categories(self, surface: str) -> list[str]:
        """Categories listing a punctuation token's surface as a literal."""
        return self._punct_index.get(surface, [])

    def _profile_index(self, categories: tuple[str, ...]) -> tuple[dict, dict]:
        """(token surface -> the counters of a `categories` profile it adds
        to, category name -> its positions in `categories`); `score` fills
        the first as it meets surfaces. KeyError for an unknown name."""
        index = self._profiles.get(categories)
        if index is None:
            where: dict[str, list[int]] = {}
            for pos, name in enumerate(categories):
                if name not in self.categories:
                    raise KeyError(name)
                where.setdefault(name, []).append(pos)
            index = self._profiles[categories] = ({}, where)
        return index


def _compile_category(name: str, patterns: list[str], parent: str | None, path) -> Category:
    if not patterns:
        raise EmptyCategory(f"category {name!r} has no patterns", path=path)
    literals, stems, punct = set(), [], set()
    for p in patterns:
        p = p.lower()
        star = p.find("*")
        if star != -1 and star != len(p) - 1:
            raise BadPattern(f"category {name!r}: '*' must be terminal in {p!r}", path=path)
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
    categories: dict[str, dict], name: str = "", version: str = "", path=None
) -> Lexicon:
    """Validate and compile a category map (see module docstring for
    shape); errors name `path`, the file it came from, where given."""
    compiled: dict[str, Category] = {}
    for cname, spec in categories.items():
        compiled[cname] = _compile_category(
            cname, list(spec.get("patterns", [])), spec.get("parent"), path
        )
    for cname, cat in compiled.items():
        seen = {cname}
        cur = cat.parent
        while cur is not None:
            if cur not in compiled:
                raise ParseError(f"category {cname!r}: unknown parent {cur!r}", path=path)
            if cur in seen:
                raise CycleError(f"parent cycle through {cur!r}", path=path)
            seen.add(cur)
            cur = compiled[cur].parent
        if cat.parent is None:
            continue
        parent = compiled[cat.parent]
        uncovered = [w for w in cat.literals if w not in parent.literals and not w.startswith(parent.stems)]
        uncovered += [s + "*" for s in cat.stems if not s.startswith(parent.stems)]
        uncovered += [p for p in cat.punct_literals if p not in parent.punct_literals]
        if uncovered:
            raise ParseError(
                f"category {cname!r}: parent {cat.parent!r} does not cover {', '.join(sorted(uncovered))}",
                path=path,
            )
    return Lexicon(categories=compiled, name=name, version=version)


def load_lexicon(path) -> Lexicon:
    """The lexicon in a JSON file of `metadata` and `categories`, built by
    `build_lexicon`; every error names the file."""

    def no_dupes(pairs):
        d = {}
        for k, v in pairs:
            if k in d:
                raise ParseError(f"duplicate key {k!r} in lexicon file", path=path)
            d[k] = v
        return d

    data = read_json(path, "lexicon JSON", no_dupes, top_object=True)
    meta, categories = data.get("metadata", {}), data.get("categories", {})
    if not isinstance(meta, dict) or not isinstance(categories, dict):
        raise ParseError("metadata and categories must be objects", path=path)
    for cname, spec in categories.items():
        patterns = spec.get("patterns", []) if isinstance(spec, dict) else None
        # a string would be read as a list of one-letter patterns
        if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
            raise ParseError(f"category {cname!r}: patterns is not a list of strings", path=path)
        if not isinstance(spec.get("parent"), (str, type(None))):
            raise ParseError(f"category {cname!r}: parent is not a string", path=path)
    return build_lexicon(categories, name=meta.get("name", ""), version=meta.get("version", ""), path=path)


@dataclass(frozen=True)
class CategoryProfile:
    word_count: int
    percentages: dict[str, float]  # empty when word_count == 0
    punctuation: dict[str, float]  # empty when word_count == 0


_PUNCT_POSITION = {mark: PUNCT_KEYS.index(key) for mark, key in _PUNCT_BUCKET.items()}
_ALL_PUNCT = PUNCT_KEYS.index("all_punct")
_APOSTROPHE = PUNCT_KEYS.index("apostrophe")


def score(tokens: list[Token], lexicon: Lexicon, categories=None) -> CategoryProfile:
    """Profile one tokenized text against a lexicon.

    `categories` names the lexicon categories to profile, in the order
    `percentages` lists them; by default every category, in lexicon
    order. With zero word tokens all percentage maps are empty (absent,
    not zero). Apostrophes inside word tokens count toward the
    apostrophe and all_punct buckets, matching how contraction-heavy
    text is scored by dictionary tools.
    """
    names = tuple(lexicon.categories if categories is None else categories)
    slots, where = lexicon._profile_index(names)
    n = len(names)
    # one counter per category, then per PUNCT_KEYS bucket, then the words
    counts = [0] * (n + len(PUNCT_KEYS) + 1)
    for surface, kind in tokens:
        if kind is TokenKind.WORD or kind is TokenKind.PUNCTUATION:
            # a word and a punctuation mark never share a surface
            found = slots.get(surface)
            if found is None:
                found = slots[surface] = _token_slots(lexicon, surface, kind, where, n)
            for k in found:
                counts[k] += 1
    wc = counts[-1]
    if wc == 0:
        return CategoryProfile(word_count=0, percentages={}, punctuation={})
    # integer counts: the order they grew in cannot change them
    percentages = dict(zip(names, [100.0 * c / wc for c in counts[:n]]))
    punctuation = dict(zip(PUNCT_KEYS, [100.0 * c / wc for c in counts[n:-1]]))
    return CategoryProfile(word_count=wc, percentages=percentages, punctuation=punctuation)


def _token_slots(lexicon: Lexicon, surface: str, kind: TokenKind, where: dict[str, list[int]], n: int):
    """The counters of an n-category profile (see `score`) that one word
    or punctuation token adds 1 to, a counter listed once per 1 added."""
    if kind is TokenKind.WORD:
        matched = lexicon.word_categories(surface.lower())
        marks = (n + _APOSTROPHE, n + _ALL_PUNCT) * surface.count("'") + (n + len(PUNCT_KEYS),)
    else:
        matched = lexicon.punct_categories(surface)
        bucket = _PUNCT_POSITION.get(surface)
        marks = (n + _ALL_PUNCT,) if bucket is None else (n + _ALL_PUNCT, n + bucket)
    return tuple(pos for name in matched for pos in where.get(name, ())) + marks


def convert_dic(dic_path, json_path=None) -> Lexicon:
    """Convert a ``.dic`` dictionary file into the JSON lexicon format.

    The ``.dic`` layout: a '%'-delimited header of ``<id>\\t<name>`` rows,
    then ``<word>\\t<id> [<id>...]`` rows. The format carries no hierarchy,
    so all categories come out top-level.
    """
    with open_utf8(dic_path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0].strip() != "%":
        raise ParseError("missing '%' header block", line=1, path=dic_path)
    names: dict[str, str] = {}
    body_start = None
    for i, ln in enumerate(lines[1:], start=2):
        if ln.strip() == "%":
            body_start = i
            break
        parts = ln.strip().split("\t")
        if len(parts) != 2:
            raise ParseError(f"bad category row {ln!r}", line=i, path=dic_path)
        names[parts[0]] = parts[1]
    if body_start is None:
        raise ParseError("unterminated '%' header block", path=dic_path)
    patterns: dict[str, list[str]] = {name: [] for name in names.values()}
    for i, ln in enumerate(lines[body_start:], start=body_start + 1):
        if not ln.strip():
            continue
        parts = ln.strip().split("\t")
        word, ids = parts[0], parts[1:]
        if not ids:
            raise ParseError(f"word {word!r} has no category ids", line=i, path=dic_path)
        for cid in ids:
            if cid not in names:
                raise ParseError(f"unknown category id {cid!r}", line=i, path=dic_path)
            patterns[names[cid]].append(word)
    categories = {
        name: {"patterns": pats} for name, pats in patterns.items() if pats
    }
    lex = build_lexicon(categories, name=str(dic_path), path=dic_path)
    if json_path is not None:
        payload = {
            "metadata": {"name": lex.name, "version": ""},
            "categories": {
                n: {"patterns": list(c.patterns), **({"parent": c.parent} if c.parent else {})}
                for n, c in lex.categories.items()
            },
        }
        write_json(json_path, payload)
    return lex
