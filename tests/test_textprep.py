import random
import re

import pytest

from rumourlens.errors import EmptyText, ParseError
from rumourlens.textprep import (
    NEGATIONS,
    RuleLemmatizer,
    TokenKind,
    clean_for_readability,
    clean_for_senticnet,
    count_syllables,
    is_negation,
    load_lemma_exceptions,
    load_stopwords,
    text_stats,
    tokenize,
)


class TestTokenize:
    def test_classifier_kinds(self):
        kinds = [t.kind for t in tokenize("BREAKING: @cnn says #hoax http://t.co/x")]
        assert kinds == [
            TokenKind.WORD,
            TokenKind.PUNCTUATION,
            TokenKind.MENTION,
            TokenKind.WORD,
            TokenKind.HASHTAG,
            TokenKind.URL,
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_emoji_number_apostrophe(self):
        toks = tokenize("don't panic 😱 at 3.5 km")
        assert [(t.surface, t.kind) for t in toks] == [
            ("don't", TokenKind.WORD),
            ("panic", TokenKind.WORD),
            ("\U0001f631", TokenKind.EMOJI),
            ("at", TokenKind.WORD),
            ("3.5", TokenKind.NUMBER),
            ("km", TokenKind.WORD),
        ]

    def test_totality_and_partition(self):
        # never fails, and every token has exactly one kind
        rng = random.Random(7)
        alphabet = "abz #@.!?'3🔥 :/wwhttp’\n\t"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            for tok in tokenize(text):
                assert isinstance(tok.kind, TokenKind)
                assert tok.surface

    def test_no_word_loss(self):
        text = "Fire crews battle huge blaze near mill"
        words = [t.surface for t in tokenize(text) if t.kind is TokenKind.WORD]
        assert words == text.split()


class TestSyllables:
    def test_single_vowel_group(self):
        assert count_syllables("cat") == 1

    def test_dictionary_checked_words(self):
        # reference counts from the pronunciation dictionary resource
        assert count_syllables("rumour") == 2
        assert count_syllables("people") == 2

    def test_silent_e(self):
        assert count_syllables("cake") == 1
        assert count_syllables("time") == 1

    def test_floor_is_one(self):
        assert count_syllables("the") == 1
        assert count_syllables("b") == 1

    def test_reference_agreement(self, syllable_reference):
        # the heuristic must agree with the dictionary oracle on >= 90%
        # of the 1000 most frequent words
        assert len(syllable_reference) == 1000
        agree = sum(1 for w, c in syllable_reference if count_syllables(w) == c)
        assert agree / len(syllable_reference) >= 0.90

    def test_every_word_at_least_one(self, syllable_reference):
        assert all(count_syllables(w) >= 1 for w, _ in syllable_reference)


class TestCleanForReadability:
    def test_markup_removed_period_kept(self):
        assert clean_for_readability("Fire at #Sydney. @user http://x") == "Fire at."

    def test_no_markup_unchanged(self):
        text = "The fire is out. Crews are leaving now."
        assert clean_for_readability(text) == text

    def test_url_pattern_starts_at_a_word_boundary(self):
        assert clean_for_readability("Awww.. so cute") == "Awww.. so cute"
        assert clean_for_readability("see www.example.com now") == "see now"
        # after a space, punctuation or emoji a URL is still stripped
        assert clean_for_readability("so cute!http://x wow😱www.example.com") == "so cute! wow"

    def test_idempotent(self):
        cases = [
            "Fire at #Sydney. @user http://x",
            "so scary 😱!! www.example.com #wow",
            "plain text already",
        ]
        for text in cases:
            once = clean_for_readability(text)
            assert clean_for_readability(once) == once

    def test_not_idempotent_when_a_url_scheme_meets_punctuation(self):
        # the space before the comma is dropped last, which joins the bare
        # scheme and the comma into a URL that only a second pass removes;
        # a fix would change readability inputs, so it must show up here
        once = clean_for_readability("http:// ,")
        assert once == "http://,"
        assert clean_for_readability(once) == ""


class TestLemmatizer:
    @pytest.mark.parametrize(
        "form,lemma",
        [
            ("running", "run"),
            ("cats", "cat"),
            ("boxes", "box"),
            ("carried", "carry"),
            ("cities", "city"),
            ("went", "go"),
            ("children", "child"),
            ("making", "make"),
            ("walked", "walk"),
            ("stopped", "stop"),
            ("away", "away"),
            ("glass", "glass"),
        ],
    )
    def test_rule_table(self, form, lemma):
        assert RuleLemmatizer().lemmatize(form) == lemma

    @pytest.mark.parametrize("line", ["ran run", "ran\trun\textra"])
    def test_exception_line_without_one_tab(self, tmp_path, line):
        path = tmp_path / "lemmas.tsv"
        path.write_text("# form\tlemma\nwent\tgo\n" + line + "\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 3: expected form<TAB>lemma"):
            load_lemma_exceptions(path)


@pytest.fixture(scope="module")
def stopwords():
    return load_stopwords()


class TestCleanForSenticnet:
    def test_negation_kept_stopwords_dropped(self, stopwords):
        lemmas = clean_for_senticnet(tokenize("He is not running away"), stopwords, RuleLemmatizer())
        assert lemmas == ["not", "run", "away"]

    def test_empty(self, stopwords):
        assert clean_for_senticnet(tokenize(""), stopwords, RuleLemmatizer()) == []

    def test_negation_survives_punctuation(self, stopwords):
        assert clean_for_senticnet(tokenize("No!!!"), stopwords, RuleLemmatizer()) == ["no"]

    def test_negation_preservation_property(self, stopwords):
        # any negation present before cleaning survives it
        lemmatizer = RuleLemmatizer()
        rng = random.Random(13)
        fillers = ["the", "crews", "fire", "is", "running", "a", "safe", "very"]
        for _ in range(200):
            words = [rng.choice(fillers) for _ in range(rng.randrange(0, 6))]
            neg = rng.choice(sorted(NEGATIONS - {"n't"}))
            words.insert(rng.randrange(0, len(words) + 1), neg)
            out = clean_for_senticnet(tokenize(" ".join(words)), stopwords, lemmatizer)
            assert neg in out

    def test_contracted_negation_kept(self, stopwords):
        assert is_negation("don't")
        assert "don't" in clean_for_senticnet(tokenize("don't panic"), stopwords, RuleLemmatizer())


class TestTextStats:
    def test_hand_count(self):
        s = text_stats("The cat sat.", easy_words={"the", "cat", "sat"})
        assert (s.words, s.sentences, s.syllables, s.polysyllables) == (3, 1, 3, 0)
        assert s.difficult_words == 0

    def test_polysyllables_match_syllable_oracle(self):
        text = "Extraordinary circumstances happened."
        words = ["Extraordinary", "circumstances", "happened"]
        expect_poly = sum(1 for w in words if count_syllables(w) >= 3)
        s = text_stats(text, easy_words=set())
        assert s.polysyllables == expect_poly
        # -ed/-es inflections alone do not make a word complex
        assert s.complex_words == 2

    def test_one_word_no_period_is_one_sentence(self):
        assert text_stats("Hello", easy_words=set()).sentences == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyText):
            text_stats("", easy_words=set())
        with pytest.raises(EmptyText):
            text_stats("?!?! 123", easy_words=set())

    def test_bounds_invariants(self):
        s = text_stats("Firefighters extinguished the extraordinary blaze quickly. Done.", easy_words=set())
        assert s.polysyllables <= s.words
        assert s.complex_words <= s.words
        assert s.difficult_words <= s.words
        assert s.syllables >= s.words
