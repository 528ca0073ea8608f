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

    def test_failed_save_leaves_the_previous_file(self, tmp_path):
        # the second concept's values cannot be formatted: the write fails
        # after the first row, and the file holds what it held before
        out = tmp_path / "cache.csv"
        out.write_bytes(b"previous\n")
        table = SenticTable(entries={"calm": (0.5, 0.0, 0.0, 0.0, 0.5), "odd": ("x",) * 5})
        with pytest.raises(ValueError, match="Unknown format code 'g'"):
            save_sentic_table(table, out)
        assert out.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cache.csv"]


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
        assert sentic_features(["good"], table) == (0.4, 0.1, -0.1, 0.2, 0.3)

    def test_mean_of_two(self):
        table = make_table({"a": [0, 0.2, 0, 0, 0], "b": [0, -0.4, 0, 0, 0]})
        assert sentic_features(["a", "b"], table) == pytest.approx((0, -0.1, 0, 0, 0))

    def test_zero_matches_absent(self):
        table = make_table({"good": [0.4, 0, 0, 0, 0]})
        assert sentic_features(["unknown"], table) is None
        assert sentic_features([], table) is None

    # lemma lists drawn once from the demo table's words with a seeded rng,
    # with the means they gave when drawn: the sums' order must not change
    @pytest.mark.parametrize(
        "lemmas, means",
        [
            (
                ["fear", "celebrate", "special", "occasion", "panic"],
                (-0.31096666666666667, -0.0010000000000000102, -0.15966666666666665, 0.247, -0.03343333333333334),
            ),
            (
                ["sky", "website", "tears", "tears", "agreement"],
                (-0.320275, 0.20675000000000002, -0.054400000000000004, -0.116225, -0.41877499999999995),
            ),
            (
                ["week", "toxic", "fire"],
                (-0.29183333333333333, -0.39143333333333336, 0.4875, -0.041266666666666674, -0.3588),
            ),
            (
                ["witness", "plane", "follow", "sunshine", "watch", "count", "month", "good"],
                (0.046987499999999995, -0.10044999999999998, 0.2064, 0.21103750000000002, 0.197575),
            ),
            (
                ["bring", "party", "office", "goal", "honor", "glass", "create"],
                (0.18002857142857143, 0.050542857142857146, -0.17594285714285718, 0.0505, 0.20318571428571428),
            ),
            (["the", "agreement", "bright"], None),
        ],
    )
    def test_means_bit_for_bit(self, demo_sentic_table, lemmas, means):
        assert sentic_features(lemmas, demo_sentic_table) == means

    def test_output_bounds(self, demo_sentic_table):
        words = sorted({w for c in demo_sentic_table.entries for w in c.split("_")})
        rng = random.Random(11)
        for _ in range(200):
            lemmas = [rng.choice(words) for _ in range(rng.randrange(1, 10))]
            for v in sentic_features(lemmas, demo_sentic_table) or ():
                assert -1.0 <= v <= 1.0
