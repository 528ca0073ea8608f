import json
import math
import random
import re

import pytest

from rumourlens import lexicon
from rumourlens.corpus import EventCorpus, Label, Role, Tweet
from rumourlens.errors import BadPattern, CycleError, EmptyCategory, ParseError
from rumourlens.features import WC_FEATURE, Featurizer, lexicon_feature_names
from rumourlens.lexicon import Lexicon, build_lexicon, convert_dic, load_lexicon, score
from rumourlens.textprep import TokenKind, tokenize

PAPER_SHAPE_TOP_LEVEL = {
    "wc", "function", "affect", "social", "cogproc", "percept", "bio", "drives",
    "relativ", "informal", "allpunct", "personal", "time", "grammar", "language", "summary",
}


class TestLoad:
    def test_demo_lexicon_shape(self, demo_lexicon):
        assert set(demo_lexicon.top_level()) == PAPER_SHAPE_TOP_LEVEL
        assert len(demo_lexicon.top_level()) == 16

    def test_parent_cycle(self):
        with pytest.raises(CycleError):
            build_lexicon(
                {
                    "a": {"parent": "b", "patterns": ["x"]},
                    "b": {"parent": "a", "patterns": ["x"]},
                }
            )

    def test_unknown_parent(self):
        with pytest.raises(ParseError):
            build_lexicon({"a": {"parent": "ghost", "patterns": ["x"]}})

    @pytest.mark.parametrize(
        "parent, child, uncovered",
        [
            (["bad"], ["bad", "awful"], "awful"),  # literal without a parent literal
            (["sad*"], ["sadly", "grief*"], "grief*"),  # stem without a prefixing parent stem
            (["happ*"], ["happier*", "hap*"], "hap*"),  # a child stem shorter than the parent's
            (["!"], ["!", "?"], "?"),  # punctuation without the same mark
        ],
    )
    def test_child_not_covered_by_parent(self, parent, child, uncovered):
        with pytest.raises(ParseError, match=rf"parent 'p' does not cover {re.escape(uncovered)}$"):
            build_lexicon({"p": {"patterns": parent}, "c": {"parent": "p", "patterns": child}})

    def test_child_covered_by_parent(self):
        lex = build_lexicon(
            {
                "p": {"patterns": ["bad", "sad*", "!"]},
                "c": {"parent": "p", "patterns": ["bad", "sadly", "sadd*", "!"]},
                "any": {"patterns": ["*"]},
                "c2": {"parent": "any", "patterns": ["x", "y*"]},
            }
        )
        assert lex.categories["c"].parent == "p"

    def test_demo_parent_scores_at_least_its_child(self, demo_lexicon):
        profile = score(tokenize("this is terrible and bad"), demo_lexicon)
        assert profile.percentages["negemo"] == 40.0
        assert profile.percentages["affect"] >= profile.percentages["negemo"]

    def test_interior_star_rejected(self):
        with pytest.raises(BadPattern):
            build_lexicon({"a": {"patterns": ["he*llo"]}})

    def test_empty_category_rejected(self):
        with pytest.raises(EmptyCategory):
            build_lexicon({"a": {"patterns": []}})

    def test_duplicate_json_key_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"categories": {"a": {"patterns": ["x"]}, "a": {"patterns": ["y"]}}}')
        with pytest.raises(ParseError):
            load_lexicon(path)

    def test_string_patterns_rejected(self, tmp_path):
        # a string is not split into one-letter patterns
        path = tmp_path / "lex.json"
        path.write_text('{"categories": {"posemo": {"patterns": "happy"}}}')
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: category 'posemo': patterns "):
            load_lexicon(path)

    def test_list_parent_rejected(self, tmp_path):
        path = tmp_path / "lex.json"
        path.write_text('{"categories": {"a": {"patterns": ["x"], "parent": ["b"]}, "b": {"patterns": ["x"]}}}')
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: category 'a': parent is not a string"):
            load_lexicon(path)

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "lex.json"
        path.write_text("[]")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: the top level is not an object"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "categories, error, message",
        [
            ({"a": {"patterns": []}}, EmptyCategory, "category 'a' has no patterns"),
            ({"a": {"patterns": ["he*llo"]}}, BadPattern, "category 'a': '*' must be terminal in 'he*llo'"),
            ({"a": {"patterns": ["x"], "parent": "b"}, "b": {"patterns": ["x"], "parent": "a"}},
             CycleError, "parent cycle through 'a'"),
            ({"a": {"patterns": ["x"], "parent": "z"}}, ParseError, "category 'a': unknown parent 'z'"),
            ({"a": {"patterns": ["x"]}, "b": {"patterns": ["q"], "parent": "a"}},
             ParseError, "category 'b': parent 'a' does not cover q"),
        ],
    )
    def test_build_errors_name_the_file(self, tmp_path, categories, error, message):
        path = tmp_path / "lex.json"
        path.write_text(json.dumps({"categories": categories}))
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"categories": {', "invalid lexicon JSON: Expecting property name enclosed in double quotes"),
            ('{"categories": {}, "categories": {}}', "duplicate key 'categories' in lexicon file"),
        ],
    )
    def test_json_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "lex.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_lexicon(path)


class TestScore:
    def test_all_pronouns(self):
        lex = build_lexicon({"pronoun": {"patterns": ["we"]}})
        profile = score(tokenize("we we we"), lex)
        assert profile.word_count == 3
        assert profile.percentages["pronoun"] == 100.0

    def test_hand_counted_sentence(self):
        # 4 words; 1 pronoun hit, 1 affect hit, 1 period
        lex = build_lexicon({"pronoun": {"patterns": ["i"]}, "affect": {"patterns": ["happ*"]}})
        profile = score(tokenize("I am happy today."), lex)
        assert profile.word_count == 4
        assert profile.percentages["pronoun"] == 25.0
        assert profile.percentages["affect"] == 25.0
        assert profile.punctuation["period"] == 25.0

    def test_zero_hits(self):
        lex = build_lexicon({"pronoun": {"patterns": ["we"]}})
        profile = score(tokenize("fire crews on scene"), lex)
        assert profile.percentages["pronoun"] == 0.0

    def test_empty_text_is_absent(self):
        lex = build_lexicon({"pronoun": {"patterns": ["we"]}})
        profile = score(tokenize("   "), lex)
        assert profile.word_count == 0
        assert profile.percentages == {}
        assert profile.punctuation == {}

    def test_stem_semantics(self):
        lex = build_lexicon({"run": {"patterns": ["run*"]}})
        hits = score(tokenize("running run prune"), lex)
        assert hits.percentages["run"] == pytest.approx(100.0 * 2 / 3)

    def test_case_insensitive(self):
        lex = build_lexicon({"a": {"patterns": ["fire"]}})
        assert score(tokenize("FIRE Fire fire"), lex).percentages["a"] == 100.0

    def test_multi_category_matching(self):
        lex = build_lexicon({"a": {"patterns": ["we"]}, "b": {"patterns": ["we"]}})
        profile = score(tokenize("we go"), lex)
        assert profile.percentages["a"] == profile.percentages["b"] == 50.0

    def test_named_categories_only_in_the_order_asked(self, demo_lexicon):
        tokens = tokenize("We can't stop! Terrified crowds, running from the fire... (again)")
        full = score(tokens, demo_lexicon)
        asked = ["social", "allpunct", "function", "pronoun"]
        narrowed = score(tokens, demo_lexicon, asked)
        assert list(narrowed.percentages) == asked
        assert narrowed.percentages == {c: full.percentages[c] for c in asked}
        assert (narrowed.word_count, narrowed.punctuation) == (full.word_count, full.punctuation)
        assert score(tokens, demo_lexicon, []).percentages == {}

    def test_unknown_named_category_raises(self, demo_lexicon):
        with pytest.raises(KeyError):
            score(tokenize("we go"), demo_lexicon, ["pronoun", "no-such-category"])


WORD_BANK = [
    "fire", "fires", "firefighter", "we", "they", "running", "run", "happy",
    "happened", "sad", "sadly", "report", "reported", "quick", "quickly",
    "attack", "prune", "park", "parks", "safety", "safe", "the", "and",
]


def random_lexicon(rng):
    """Random two-level lexicon whose child pattern sets are subsets of
    their parents, so the hierarchy-consistency property must hold."""
    categories = {}
    for p in range(rng.randrange(1, 4)):
        parent = f"parent{p}"
        parent_patterns = set()
        for c in range(rng.randrange(1, 3)):
            pats = set()
            for _ in range(rng.randrange(1, 5)):
                w = rng.choice(WORD_BANK)
                if rng.random() < 0.3 and len(w) > 2:
                    pats.add(w[: rng.randrange(2, len(w))] + "*")
                else:
                    pats.add(w)
            categories[f"cat{p}_{c}"] = {"parent": parent, "patterns": sorted(pats)}
            parent_patterns |= pats
        extra = {rng.choice(WORD_BANK)} if rng.random() < 0.5 else set()
        categories[parent] = {"patterns": sorted(parent_patterns | extra)}
    return build_lexicon(categories)


def random_text(rng):
    n = rng.randrange(0, 15)
    parts = [rng.choice(WORD_BANK + ["!", ".", "#tag", "@user", "?"]) for _ in range(n)]
    return " ".join(parts)


class TestProperties:
    def test_generated_battery(self):
        # bounds, hierarchy consistency and order-independence over
        # >= 1000 generated (lexicon, text) cases
        rng = random.Random(99)
        cases = 0
        while cases < 1000:
            lex = random_lexicon(rng)
            for _ in range(5):
                text = random_text(rng)
                tokens = tokenize(text)
                profile = score(tokens, lex)
                if profile.word_count == 0:
                    assert profile.percentages == {}
                    cases += 1
                    continue
                for name, pct in profile.percentages.items():
                    assert 0.0 <= pct <= 100.0
                    parent = lex.categories[name].parent
                    if parent is not None:
                        assert pct <= profile.percentages[parent] + 1e-9
                shuffled = tokens[:]
                rng.shuffle(shuffled)
                assert score(shuffled, lex).percentages == profile.percentages
                cases += 1

    def test_stem_vs_literal(self):
        lex = build_lexicon({"c": {"patterns": ["run*"]}})
        assert score(tokenize("running"), lex).percentages["c"] == 100.0
        assert score(tokenize("run"), lex).percentages["c"] == 100.0
        assert score(tokenize("prune"), lex).percentages["c"] == 0.0


ORACLE_WORDS = [
    "run", "runs", "running", "runner", "prune", "r", "fire", "fires", "firefighter",
    "we", "weird", "don't", "o'clock", "we're", "happy", "happened", "sad", "the",
]
ORACLE_PUNCT = [".", "!", "?", "'", "(", ")", ","]


def oracle_percentages(tokens, categories):
    """Brute-force reference: every word against every literal set and a
    `startswith` scan over every stem of every category."""
    words = [t.surface.lower() for t in tokens if t.kind is TokenKind.WORD]
    puncts = [t.surface for t in tokens if t.kind is TokenKind.PUNCTUATION]
    if not words:
        return {}
    out = {}
    for name, spec in categories.items():
        pats = [p.lower() for p in spec["patterns"]]
        stems = [p[:-1] for p in pats if p.endswith("*")]
        plain = [p for p in pats if not p.endswith("*")]
        literals = {p for p in plain if not p or any(ch.isalpha() for ch in p)}
        punct = set(plain) - literals
        hits = sum(1 for w in words if w in literals or any(w.startswith(s) for s in stems))
        hits += sum(1 for p in puncts if p in punct)
        out[name] = 100.0 * hits / len(words)
    return out


def random_oracle_categories(rng):
    """Flat lexicon mixing nested stems, words that are both a literal and
    a stem hit, a bare '*', punctuation literals and upper-case patterns."""
    categories = {}
    for c in range(rng.randrange(1, 7)):
        pats = set()
        for _ in range(rng.randrange(1, 6)):
            w = rng.choice(ORACLE_WORDS)
            roll = rng.random()
            if roll < 0.4:
                pats.add(w[: rng.randrange(1, len(w) + 1)] + "*")
            elif roll < 0.5:
                pats.add(rng.choice(ORACLE_PUNCT))
            elif roll < 0.6:
                pats.add(w.upper())
            else:
                pats.add(w)
        if rng.random() < 0.1:
            pats.add("*")
        categories[f"c{rng.randrange(100)}_{c}"] = {"patterns": sorted(pats)}
    return categories


def random_oracle_text(rng):
    parts = []
    for _ in range(rng.randrange(0, 12)):
        w = rng.choice(ORACLE_WORDS + ORACLE_PUNCT + ["#tag", "@user"])
        parts.append(rng.choice([w, w.upper(), w.capitalize()]))
    return " ".join(parts)


class TestCompiledLookup:
    def test_matches_brute_force_oracle(self):
        rng = random.Random(2112)
        for _ in range(300):
            categories = random_oracle_categories(rng)
            lex = build_lexicon(categories)
            for _ in range(5):
                tokens = tokenize(random_oracle_text(rng))
                percentages = score(tokens, lex).percentages
                assert percentages == oracle_percentages(tokens, categories)
                assert list(percentages) in ([], list(categories))

    def test_fixed_cases_match_oracle(self):
        categories = {
            "nested": {"patterns": ["run*", "runn*"]},
            "both": {"patterns": ["run", "ru*"]},
            "any": {"patterns": ["*"]},
            "marks": {"patterns": ["!", "'", "("]},
            "inner": {"patterns": ["don't", "o'*"]},
            "upper": {"patterns": ["FIRE", "Happ*"]},
        }
        lex = build_lexicon(categories)
        tokens = tokenize("RUNNING run Runner don't O'Clock FIRE happy (yes)! 'sad'")
        assert score(tokens, lex).percentages == oracle_percentages(tokens, categories)

    def test_word_categories_follow_category_order(self):
        # twelve categories, so that hit positions {1, 8, 10} do not come
        # out of a set in order by accident
        categories = {f"c{i}": {"patterns": ["zzz"]} for i in range(12)}
        categories["c1"] = {"patterns": ["run"]}
        categories["c8"] = {"patterns": ["ru*"]}
        categories["c10"] = {"patterns": ["*"]}
        lex = build_lexicon(categories)
        assert lex.word_categories("run") == ("c1", "c8", "c10")
        assert lex.word_categories("walk") == ("c10",)

    def test_memo_stays_out_of_equality(self):
        spec = {"p": {"patterns": ["we", "run*"]}, "q": {"patterns": ["!"]}}
        used, fresh = build_lexicon(spec), build_lexicon(spec)
        score(tokenize("we keep running!"), used)
        assert used == fresh


class TestPopulation:
    def test_identical_tweets(self):
        lex = build_lexicon({"p": {"patterns": ["we"]}})
        profiles = [score(tokenize("we are here"), lex) for _ in range(4)]
        assert profiles[0].percentages["p"] == pytest.approx(100.0 / 3)
        assert all(p.percentages == profiles[0].percentages for p in profiles)

    def test_two_tweet_mean(self):
        lex = build_lexicon({"p": {"patterns": ["we"]}})
        assert score(tokenize("fire fires"), lex).percentages["p"] == 0.0
        assert score(tokenize("we go"), lex).percentages["p"] == 50.0

    def test_zero_word_row_is_absent(self, demo_lexicon, demo_sentic_table):
        tweet = Tweet("1", "?!?! ...", "e", Role.SOURCE, Label.RUMOUR)
        featurizer = Featurizer(demo_lexicon, demo_sentic_table)
        table = featurizer.featurize_corpus(EventCorpus(event="e", sources=[tweet], reactions=[]))
        assert table.X[:, table.names.index(WC_FEATURE)].tolist() == [0.0]
        for name in lexicon_feature_names(demo_lexicon):
            if name != WC_FEATURE:
                assert math.isnan(table.X[:, table.names.index(name)][0])


class TestDicConverter:
    def test_round_trip(self, tmp_path):
        dic = tmp_path / "toy.dic"
        dic.write_text(
            "%\n1\tpronoun\n2\taffect\n%\n"
            "i\t1\nwe\t1\nhapp*\t2\nsad\t2\n"
        )
        out = tmp_path / "toy.json"
        lex = convert_dic(dic, out)
        assert set(lex.categories) == {"pronoun", "affect"}
        reloaded = load_lexicon(out)
        profile = score(tokenize("I am happy"), reloaded)
        assert profile.percentages["pronoun"] == pytest.approx(100.0 / 3)
        assert profile.percentages["affect"] == pytest.approx(100.0 / 3)

    def test_failed_write_leaves_the_previous_file(self, tmp_path, monkeypatch):
        # a lexicon whose name cannot be written as JSON: the write fails
        # after the categories, and the file holds what it held before
        dic = tmp_path / "toy.dic"
        dic.write_text("%\n1\tpronoun\n%\ni\t1\nwe\t1\n")
        out = tmp_path / "toy.json"
        out.write_bytes(b"previous\n")
        build = lexicon.build_lexicon
        monkeypatch.setattr(lexicon, "build_lexicon", lambda *a, **k: Lexicon(build(*a, **k).categories, object()))
        with pytest.raises(TypeError, match="not JSON serializable"):
            convert_dic(dic, out)
        assert out.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.dic", "toy.json"]

    def test_bad_header(self, tmp_path):
        dic = tmp_path / "bad.dic"
        dic.write_text("1\tpronoun\n%\ni\t1\n")
        with pytest.raises(ParseError):
            convert_dic(dic)

    def test_unknown_category_id(self, tmp_path):
        dic = tmp_path / "bad2.dic"
        dic.write_text("%\n1\tpronoun\n%\ni\t9\n")
        with pytest.raises(ParseError):
            convert_dic(dic)
