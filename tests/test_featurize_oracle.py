"""The featurizer against the per-tweet path it replaced.

The oracle below is that path, kept whole: frozen-dataclass tokens from
a fresh tokenization per family, a profile of every lexicon category,
readability counts recomputed for every word occurrence, concept lemmas
recomputed for every occurrence, the plain 4-3-2-1 concept scan, label
hits recomputed for every occurrence, and `fnum` per cell on the way to
`features.csv`. Only per-word primitives the change left alone (the
lexicon's word matcher, syllable counts, the lemmatizer, the cleaners and
the readability formulas) are shared with the program. The featurizer,
which does each family's per-word work once per distinct word, must
write the same `features.csv` bytes on every corpus.
"""

import csv
import math
import random
import re
from collections import Counter
from dataclasses import dataclass

import pytest

from rumourlens import readability, report
from rumourlens.corpus import EventCorpus, Label, Role, Tweet
from rumourlens.emotions import LABELS, LexiconFallbackProvider
from rumourlens.errors import EmptyText
from rumourlens.features import Featurizer, lexicon_feature_names
from rumourlens.lexicon import _PUNCT_BUCKET, PUNCT_KEYS, build_lexicon
from rumourlens.senticnet import SenticTable
from rumourlens.textprep import (
    _EMOJI_RANGES,
    _GROUP_KIND,
    _SENTENCE_END_RE,
    _TOKEN_RE,
    RuleLemmatizer,
    TextStats,
    TokenKind,
    _is_complex,
    clean_for_readability,
    count_syllables,
    is_negation,
    load_easy_words,
    load_stopwords,
    tokenize,
)

# ---------------------------------------------------------------------------
# the per-tweet oracle


@dataclass(frozen=True)
class OracleToken:
    surface: str
    kind: TokenKind


def oracle_tokenize(text):
    return [OracleToken(m.group(), _GROUP_KIND[m.lastgroup]) for m in _TOKEN_RE.finditer(text)]


def oracle_score(tokens, lexicon):
    """(word count, percentage of every category, punctuation percentages)."""
    words = [t.surface.lower() for t in tokens if t.kind is TokenKind.WORD]
    wc = len(words)
    if wc == 0:
        return 0, {}, {}
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
    return wc, percentages, {k: 100.0 * v / wc for k, v in punct_counts.items()}


def oracle_text_stats(text, easy_words):
    words = [t.surface for t in oracle_tokenize(text) if t.kind is TokenKind.WORD]
    if not words:
        raise EmptyText("no words in text")
    sentences = max(len(_SENTENCE_END_RE.findall(text)), 1)
    syllable_counts = [count_syllables(w) for w in words]
    return TextStats(
        words=len(words),
        sentences=sentences,
        syllables=sum(syllable_counts),
        polysyllables=sum(1 for c in syllable_counts if c >= 3),
        complex_words=sum(1 for w, c in zip(words, syllable_counts) if _is_complex(w, c)),
        difficult_words=sum(1 for w in words if w.lower() not in easy_words),
    )


def oracle_clean_for_senticnet(tokens, stopwords, lemmatizer):
    out = []
    for tok in tokens:
        if tok.kind is not TokenKind.WORD:
            continue
        w = tok.surface.lower()
        if is_negation(w):
            out.append(w)
            continue
        if w in stopwords:
            continue
        out.append(lemmatizer.lemmatize(w))
    return out


def plain_match_concepts(lemmas, table):
    """Try the 4-, 3-, 2- then 1-word join at every position."""
    matched = []
    i = 0
    n = len(lemmas)
    while i < n:
        for span in range(min(4, n - i), 0, -1):
            concept = "_".join(lemmas[i : i + span])
            if concept in table.entries:
                matched.append(concept)
                i += span
                break
        else:
            i += 1
    return matched


def oracle_sentic_means(lemmas, table):
    concepts = plain_match_concepts(lemmas, table)
    if not concepts:
        return None
    sums = [0.0] * 5
    for c in concepts:
        for k, v in enumerate(table.entries[c]):
            sums[k] += v
    return [s / len(concepts) for s in sums]


def oracle_emotion_scores(text, emotion_lexicon):
    words = [t.surface.lower() for t in oracle_tokenize(text) if t.kind is TokenKind.WORD]
    counts = {lab: 0 for lab in LABELS}
    for w in words:
        for lab in LABELS:
            if w in emotion_lexicon[lab]:
                counts[lab] += 1
    scores = dict.fromkeys(LABELS, 1.0) if sum(counts.values()) == 0 else {lab: float(c) for lab, c in counts.items()}
    total = sum(scores.values())
    return [scores[lab] / total for lab in LABELS]


def oracle_row(text, lexicon, sentic_table, stopwords, lemmatizer, easy_words):
    """One tweet's text features as feature name -> value (None: absent)."""
    tokens = oracle_tokenize(text)
    wc, percentages, punctuation = oracle_score(tokens, lexicon)
    names = lexicon_feature_names(lexicon)
    values = dict.fromkeys(names)
    values["WC"] = wc
    if wc:
        values.update({name: percentages[name] for name in names[1:-1]})
        values["allpunct"] = punctuation["all_punct"]
    try:
        scores = readability.all_scores(oracle_text_stats(clean_for_readability(text), easy_words)).values()
    except EmptyText:
        scores = [None] * len(readability.SCORE_NAMES)
    values.update(zip(readability.SCORE_NAMES, scores))
    means = oracle_sentic_means(oracle_clean_for_senticnet(tokens, stopwords, lemmatizer), sentic_table)
    values.update(zip(("pleasantness", "attention", "sensitivity", "aptitude", "polarity"), means or [None] * 5))
    return values


def oracle_features_csv(path, corpus, lexicon, sentic_table, stopwords, lemmatizer, easy_words, emotion_lexicon):
    """`features.csv` as the per-tweet path wrote it, `fnum` per cell."""
    tweets = list(corpus.sources) + list(corpus.reactions)
    rows = [oracle_row(t.text, lexicon, sentic_table, stopwords, lemmatizer, easy_words) for t in tweets]
    names = list(rows[0]) + list(LABELS)
    for row, tweet in zip(rows, tweets):
        row.update(zip(LABELS, oracle_emotion_scores(tweet.text, emotion_lexicon)))
    header = ["tweet_id", "event", "role", "label", "empty_text"]
    for name in names:
        header += [name, f"{name}__absent"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for tweet, row in zip(tweets, rows):
            record = [tweet.id, tweet.event, tweet.role.value, tweet.label.value, str(tweet.is_empty_text()).lower()]
            for name in names:
                v = row[name]
                absent = v is None or math.isnan(v)
                record += ["" if absent else report.fnum(v), "true" if absent else "false"]
            w.writerow(record)


# ---------------------------------------------------------------------------
# corpora

#: texts every corpus carries
EDGE_TEXTS = [
    "http:// ,",  # the readability cleaner joins the bare scheme to the comma
    "http:// , fire crews here",
    "Don't panic, it isn't over. 'Tis the season, o'clock 'quoted' words' rock'n'roll y'all'd",
    "can't won't shouldn't NOT never no nor neither cannot",
    "FIRE Fire fire fIrE fires FIRES",
    "the is a an The IS THE",
    "\U0001f631\U0001f525 ☀",
    "?!?! ... ( ! )",
    "",
    "   ",
    "@user #tag http://t.co/x www.example.com",
    "celebrate special occasion special occasion celebrate",
    "alpha beta gamma delta alpha beta gamma beta gamma delta",
    # removing the URL changes the words: readability counts the cleaned ones
    "@http://x",
    "#http://x y",
    "1http://@x",
    "a'http://x",
    "www .foo",
    # markup removed without changing the words
    "Wow!#tag ok",
    # two raw sentence ends, one once the cleaner drops the space before "."
    "a .  . b",
]

#: overlapping multi-word concepts, one with an empty part
OVERLAP_CONCEPTS = {
    "alpha": (0.1, 0.2, 0.3, 0.4, 0.5),
    "alpha_beta": (-0.5, 0.25, 0.0, 1.0, -1.0),
    "beta_gamma": (0.3, -0.3, 0.6, -0.6, 0.9),
    "alpha_beta_gamma_delta": (0.7, 0.1, -0.2, 0.05, 0.125),
    "gamma_delta": (-0.9, 0.8, -0.7, 0.6, -0.5),
    "delta": (0.0, 0.0, 0.0, 0.0, 0.01),
    "alpha__beta": (1.0, 1.0, 1.0, 1.0, 1.0),
}

PIECES = [
    "@user", "#fire", "#Hoax", "http://t.co/x", "http://", "www.example.com", "\U0001f631", "☀",
    "3.5", "1,000", "42", "don't", "isn't", "o'clock", "'tis", "can't", "rock'n'roll", "!", "?", ".", "...", ",", ";",
    "(", ")", "'", "not", "never", "no", "the", "is", "a", "alpha", "beta", "gamma", "delta", "extraordinary", "circumstances",
    "happened", "considered", "running", "ate", "children", "went", "www", "http", "://",
]


def random_texts(lexicon, sentic_table, seed, n=150):
    rng = random.Random(seed)
    lexicon_words = sorted({w for c in lexicon.categories.values() for w in c.literals})
    concept_words = sorted({w for c in sentic_table.entries for w in c.split("_") if w})
    stems = sorted({s + suffix for c in lexicon.categories.values() for s in c.stems for suffix in ("", "s", "ing")})
    pool = lexicon_words + concept_words + stems + PIECES * 6
    texts = list(EDGE_TEXTS)
    while len(texts) < n:
        text = ""
        for _ in range(rng.randrange(0, 20)):
            w = rng.choice(pool)
            text += rng.choice([" ", " ", " ", "", ". ", "! ", " , "]) + rng.choice([w, w, w.upper(), w.capitalize()])
        texts.append(text)
    rng.shuffle(texts)
    return texts


def corpus_of(texts, event="r"):
    src = Tweet("0", texts[0], event, Role.SOURCE, Label.RUMOUR)
    reactions = [Tweet(str(i), t, event, Role.REACTION, Label.NONRUMOUR, parent_id="0") for i, t in enumerate(texts) if i]
    return EventCorpus(event=event, sources=[src], reactions=reactions)


def punctuation_lexicon():
    """Top-level punctuation and bare-stem categories, a child category,
    and a category named like an engine column (folded out of features)."""
    return build_lexicon({
        "emph": {"patterns": ["!", "?", "wow", "omg*"]},
        "loud": {"parent": "emph", "patterns": ["!"]},
        "fire": {"patterns": ["fire*", "burn*", "blaze"]},
        "neg": {"patterns": ["not", "no", "never", "don't", "isn't", "can't"]},
        "Allpunct": {"patterns": [".", ","]},
        "any": {"patterns": ["*"]},
    })


def overlap_table(demo_sentic_table):
    return SenticTable(entries={**demo_sentic_table.entries, **OVERLAP_CONCEPTS})


# ---------------------------------------------------------------------------
# tests


def featurize_to_csv(featurizer, corpus, path):
    report.write_features_csv(path, featurizer.featurize_corpus(corpus))
    return path.read_bytes()


def oracle_bytes(featurizer, corpus, path):
    oracle_features_csv(
        path, corpus, featurizer.lexicon, featurizer.sentic_table, featurizer.stopwords,
        featurizer.lemmatizer, featurizer.easy_words, featurizer.emotion_provider.lexicon,
    )
    return path.read_bytes()


@pytest.mark.parametrize("lexicon", ["demo", "punctuation"])
@pytest.mark.parametrize("seed", range(4))
def test_features_csv_matches_the_per_tweet_oracle(demo_lexicon, demo_sentic_table, tmp_path, seed, lexicon):
    lexicon = demo_lexicon if lexicon == "demo" else punctuation_lexicon()
    table = overlap_table(demo_sentic_table)
    featurizer = Featurizer(lexicon, table, emotion_provider=LexiconFallbackProvider())
    # two corpora through one featurizer: the second meets a warm memo
    for k in range(2):
        corpus = corpus_of(random_texts(demo_lexicon, table, seed=100 * seed + k))
        got = featurize_to_csv(featurizer, corpus, tmp_path / f"got{k}.csv")
        assert got == oracle_bytes(featurizer, corpus, tmp_path / f"want{k}.csv")


def test_edge_texts_take_the_paths_they_pin(demo_lexicon, demo_sentic_table):
    table = overlap_table(demo_sentic_table)
    featurizer = Featurizer(demo_lexicon, table, emotion_provider=LexiconFallbackProvider())
    X = featurizer.featurize_corpus(corpus_of(EDGE_TEXTS)).X
    column = featurizer.names.index
    # "http:// ,": one raw word, but no readability word once cleaned
    assert X[0, column("WC")] == 1.0 and math.isnan(X[0, column("flesch_score")])
    # emoji-only, punctuation-only and empty texts: no words
    for row in (6, 7, 8, 9):
        assert X[row, column("WC")] == 0.0 and math.isnan(X[row, column("allpunct")])
    # overlapping concepts: the longest join wins at each position, so the
    # last text matches alpha_beta_gamma_delta, alpha_beta, beta_gamma, delta
    matched = ["alpha_beta_gamma_delta", "alpha_beta", "beta_gamma", "delta"]
    polarity = sum(OVERLAP_CONCEPTS[c][4] for c in matched) / len(matched)
    assert X[12, column("polarity")] == polarity


def test_memos_do_not_leak_between_featurizers(demo_lexicon, demo_sentic_table, tmp_path):
    # word lists that change each family's answer for the same words
    table = overlap_table(demo_sentic_table)
    default = Featurizer(demo_lexicon, table, emotion_provider=LexiconFallbackProvider())
    stopwords = (load_stopwords() - {"the", "a"}) | {"fire", "beta"}
    easy_words = (load_easy_words() | {"extraordinary", "circumstances"}) - {"fire", "the"}
    lemmatizer = RuleLemmatizer({"children": "kid", "ate": "alpha", "running": "delta", "went": "beta"})
    other = Featurizer(
        demo_lexicon, table, emotion_provider=LexiconFallbackProvider({lab: {"fire", "the"} for lab in LABELS}),
        stopwords=stopwords, lemmatizer=lemmatizer, easy_words=easy_words,
    )
    corpus = corpus_of(random_texts(demo_lexicon, table, seed=42))
    outputs = []
    for k, featurizer in enumerate((default, other, default, other)):
        got = featurize_to_csv(featurizer, corpus, tmp_path / f"got{k}.csv")
        assert got == oracle_bytes(featurizer, corpus, tmp_path / f"want{k}.csv")
        outputs.append(got)
    assert outputs[0] != outputs[1]
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]


def test_oracle_corpora_cover_the_edge_cases(demo_lexicon, demo_sentic_table):
    table = overlap_table(demo_sentic_table)
    texts = random_texts(demo_lexicon, table, seed=0)
    words = [m.group() for t in texts for m in re.finditer(r"\S+", t)]
    assert set(EDGE_TEXTS) <= set(texts)
    assert any(w.startswith("'") for w in words) and any("n't" in w for w in words)
    assert any(w.isupper() and len(w) > 1 for w in words)


# ---------------------------------------------------------------------------
# readability words: the raw text's unless a URL is removed


def raw_words(text):
    return [t.surface for t in tokenize(text) if t.kind is TokenKind.WORD]


def cleaned_words(text):
    return raw_words(clean_for_readability(text))


#: fragments that random strings join, often with no space between
FRAGMENTS = [
    "a", "Bc", "don't", "'", "''", "x'y", "@", "@u", "#", "#t", "http", "https", "://", ":", "/", "//", "www", ".",
    "www.", "w", "http://x", "www.x", "\U0001f631", "\u2600", "1", "2.5", "_", "-", "!", "?", ",", ";", " ", "  ",
    "\t", "\n", "(", ")", '"', "é", "ß",
]


def test_raw_words_are_the_readability_words_without_a_url():
    rng = random.Random(17)
    plain = 0
    for _ in range(5000):
        text = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randrange(1, 9)))
        if "://" in text or "www" in text:
            continue
        plain += 1
        assert raw_words(text) == cleaned_words(text), repr(text)
    assert plain > 1000


def test_the_url_edge_texts_change_their_words():
    for text in ("@http://x", "1http://@x", "a'http://x", "www .foo", "http:// ,"):
        assert raw_words(text) != cleaned_words(text), text


def test_no_emoji_is_a_word_character():
    # the premise that removing emoji cannot change which words a text holds
    assert len(_EMOJI_RANGES) % 3 == 0
    for i in range(0, len(_EMOJI_RANGES), 3):
        first, dash, last = _EMOJI_RANGES[i : i + 3]
        assert dash == "-"
        for cp in range(ord(first), ord(last) + 1):
            assert not re.match(r"\w", chr(cp)), hex(cp)
