import random
import re

import pytest

from rumourlens.errors import DuplicateConcept, OutOfRange, ParseError
from rumourlens.senticnet import (
    SenticTable,
    load_sentic_table,
    match_concepts,
    save_sentic_table,
    sentic_features,
)

HEADER = "concept,pleasantness,attention,sensitivity,aptitude,polarity\n"


def write_table(tmp_path, rows, header=HEADER):
    path = tmp_path / "table.csv"
    path.write_text(header + "".join(rows))
    return path


def make_table(mapping):
    return SenticTable(entries={k: tuple(v) for k, v in mapping.items()})


class TestLoad:
    def test_three_rows(self, tmp_path):
        path = write_table(
            tmp_path,
            ["good,0.5,0.1,0,0.2,0.6\n", "bad,-0.5,0.2,0.1,-0.2,-0.7\n", "big_event,0,0,0,0,0.1\n"],
        )
        assert len(load_sentic_table(path)) == 3

    def test_out_of_range(self, tmp_path):
        path = write_table(tmp_path, ["good,0.5,0.1,0,0.2,1.5\n"])
        with pytest.raises(OutOfRange):
            load_sentic_table(path)

    def test_duplicate_concept(self, tmp_path):
        path = write_table(tmp_path, ["good,0,0,0,0,0\n", "good,0.1,0,0,0,0\n"])
        with pytest.raises(DuplicateConcept):
            load_sentic_table(path)

    def test_bad_header(self, tmp_path):
        path = write_table(tmp_path, ["good,0,0,0,0,0\n"], header="a,b,c,d,e,f\n")
        with pytest.raises(ParseError):
            load_sentic_table(path)

    @pytest.mark.parametrize(
        "body, error, message",
        [
            ("good,0,0\n", ParseError, "line 2: expected 6 columns, got 3"),
            ("good,0,0,0,0,0\ngood,0,0,0,0,0\n", DuplicateConcept, "line 3: concept 'good' repeated"),
            ("good,0.5,0.1,0,0.2,1.5\n", OutOfRange, "line 2: polarity=1.5 outside [-1, 1]"),
            ("good,zero,0,0,0,0\n", ParseError, "line 2: could not convert string to float: 'zero'"),
            (",0,0,0,0,0\n", ParseError, "line 2: empty concept"),
        ],
    )
    def test_errors_name_the_file(self, tmp_path, body, error, message):
        path = write_table(tmp_path, [body])
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_sentic_table(path)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("good,0,0\n", 2),
            ("good,0,0,0,0,0\ngood,0,0,0,0,0\n", 3),
            ("good,0.5,0.1,0,0.2,1.5\n", 2),
            ("good,zero,0,0,0,0\n", 2),
            ("good,0,0,0,0,0\n,0,0,0,0,0\n", 3),
        ],
        ids=["short row", "repeated", "out of range", "not a number", "empty concept"],
    )
    def test_errors_carry_the_line(self, tmp_path, body, line):
        # raised naming the file at the source, so no re-wrap loses `.line`
        with pytest.raises((ParseError, DuplicateConcept, OutOfRange)) as err:
            load_sentic_table(write_table(tmp_path, [body]))
        assert err.value.line == line

    @pytest.mark.parametrize("header, message", [("", "empty sentic table"), ("a,b\n", "expected header ")])
    def test_header_errors_name_the_file(self, tmp_path, header, message):
        path = write_table(tmp_path, [], header=header)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_sentic_table(path)

    def test_bad_float(self, tmp_path):
        path = write_table(tmp_path, ["good,zero,0,0,0,0\n"])
        with pytest.raises(ParseError):
            load_sentic_table(path)

    def test_demo_round_trip(self, demo_sentic_table, tmp_path):
        assert len(demo_sentic_table) == 500
        out = tmp_path / "copy.csv"
        save_sentic_table(demo_sentic_table, out)
        from tests.conftest import DATA

        assert out.read_bytes() == (DATA / "sentic_demo.csv").read_bytes()


class TestMatching:
    def test_trigram_preferred(self):
        table = make_table({
            "celebrate_special_occasion": [0.5, 0, 0, 0, 0.5],
            "celebrate": [0.4, 0, 0, 0, 0.4],
            "occasion": [0.1, 0, 0, 0, 0.1],
        })
        assert match_concepts(["celebrate", "special", "occasion"], table) == [
            "celebrate_special_occasion"
        ]

    def test_no_match(self):
        table = make_table({"good": [0.5, 0, 0, 0, 0.5]})
        assert match_concepts(["bad", "worse"], table) == []

    def test_bigram_beats_unigram(self):
        table = make_table({"heavy_rain": [0, 0, 0, 0, -0.2], "heavy": [0, 0, 0, 0, 0.1]})
        assert match_concepts(["heavy", "rain"], table) == ["heavy_rain"]

    def test_consumed_words_not_reused(self):
        table = make_table({"heavy_rain": [0, 0, 0, 0, 0], "rain": [0, 0, 0, 0, 0]})
        assert match_concepts(["heavy", "rain"], table) == ["heavy_rain"]

    def brute_force(self, lemmas, table):
        """Exhaustive leftmost-longest segmentation oracle."""
        out = []
        i = 0
        while i < len(lemmas):
            best = None
            for span in range(min(4, len(lemmas) - i), 0, -1):
                candidate = "_".join(lemmas[i : i + span])
                if candidate in table.entries:
                    best = (span, candidate)
                    break
            if best is None:
                i += 1
            else:
                out.append(best[1])
                i += best[0]
        return out

    def test_against_segmentation_oracle(self, demo_sentic_table):
        vocab = list(demo_sentic_table.entries)
        words = sorted({w for c in vocab for w in c.split("_")})
        rng = random.Random(4)
        for _ in range(300):
            lemmas = [rng.choice(words) for _ in range(rng.randrange(0, 12))]
            assert match_concepts(lemmas, demo_sentic_table) == self.brute_force(
                lemmas, demo_sentic_table
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_indexed_matcher_equals_the_plain_scan(self, seed):
        # 1- to 4-word concepts, a first word that is also a concept of its
        # own, an empty part, a 5-word concept, and lemmas that hold '_'
        table = make_table({c: [0.0] * 5 for c in (
            "a", "a_b", "a_b_c", "a_b_c_d", "b_c", "c_d_e", "d",
            "x__y", "e_f_g_h_i", "b", "f_g", "g_h",
        )})
        words = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "x", "y", "z", "", "a_b", "b_", "e_f", "_"]
        rng = random.Random(seed)
        for _ in range(400):
            lemmas = [rng.choice(words) for _ in range(rng.randrange(0, 14))]
            assert match_concepts(lemmas, table) == self.brute_force(lemmas, table), lemmas
        assert match_concepts(["x", "", "y", "a", "b", "c", "d", "c", "d", "e"], table) == ["x__y", "a_b_c_d", "c_d_e"]
        assert match_concepts(["e_f", "g", "h", "i"], table) == ["e_f_g_h_i"]
        assert match_concepts(["a_b", "c"], table) == ["a_b_c"]

    def test_determinism(self, demo_sentic_table):
        lemmas = ["fear", "celebrate", "special", "occasion", "panic"]
        first = match_concepts(lemmas, demo_sentic_table)
        assert all(
            match_concepts(lemmas, demo_sentic_table) == first for _ in range(5)
        )


class TestFeatures:
    def test_single_match_identity(self):
        table = make_table({"good": [0.4, 0.1, -0.1, 0.2, 0.3]})
        f = sentic_features(["good"], table)
        assert f.pleasantness == pytest.approx(0.4)
        assert f.matched_concept_count == 1

    def test_mean_of_two(self):
        table = make_table({"a": [0, 0.2, 0, 0, 0], "b": [0, -0.4, 0, 0, 0]})
        f = sentic_features(["a", "b"], table)
        assert f.attention == pytest.approx(-0.1)

    def test_zero_matches_absent(self):
        table = make_table({"good": [0.4, 0, 0, 0, 0]})
        f = sentic_features(["unknown"], table)
        assert f.matched_concept_count == 0
        assert f.pleasantness is None

    def test_output_bounds(self, demo_sentic_table):
        words = sorted({w for c in demo_sentic_table.entries for w in c.split("_")})
        rng = random.Random(11)
        for _ in range(200):
            lemmas = [rng.choice(words) for _ in range(rng.randrange(1, 10))]
            f = sentic_features(lemmas, demo_sentic_table)
            for v in f.values():
                if v is not None:
                    assert -1.0 <= v <= 1.0
