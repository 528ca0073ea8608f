import math
import random

import numpy as np
import pytest

from rumourlens.errors import EmptySample, NonFiniteValue
from rumourlens import stats
from rumourlens.report import KS_HEADER
from rumourlens.stats import (
    kolmogorov_p,
    ks_two_sample,
    mean_report,
    significance_matrix,
)


def brute_force_d(a, b):
    """|ECDF difference| evaluated over the union of sample points."""
    d = 0.0
    for x in sorted(set(a) | set(b)):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        d = max(d, abs(fa - fb))
    return d


def left_to_right_mean(values):
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


class TestKs:
    def test_identical_samples(self):
        r = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.d_stat == 0.0
        assert r.p_value == 1.0

    def test_disjoint_supports(self):
        r = ks_two_sample([1, 2, 3, 4], [5, 6, 7, 8])
        assert r.d_stat == 1.0

    def test_reference_battery(self, ks_reference):
        # 40 frozen randomized tie-containing pairs:
        # D against the brute-force ECDF oracle, p against the
        # checked-in reference values
        assert len(ks_reference) == 40
        for case in ks_reference:
            r = ks_two_sample(case["a"], case["b"])
            assert abs(r.d_stat - brute_force_d(case["a"], case["b"])) < 1e-12
            assert abs(r.d_stat - case["d"]) < 1e-12
            assert abs(r.p_value - case["p"]) < 1e-6

    def test_symmetry_exact(self, ks_reference):
        for case in ks_reference[:10]:
            ab = ks_two_sample(case["a"], case["b"])
            ba = ks_two_sample(case["b"], case["a"])
            assert ab.d_stat == ba.d_stat
            assert ab.p_value == ba.p_value

    def test_shift_sensitivity(self):
        rng = random.Random(5)
        a = [rng.gauss(0, 1) for _ in range(30)]
        for shift in (0.5, -2.0, 1e-3):
            r = ks_two_sample(a, [v + shift for v in a])
            assert r.d_stat > 0.0

    def test_p_monotone_in_d(self):
        n1, n2 = 25, 40
        previous = 1.1
        for d in [i / 20 for i in range(1, 21)]:
            p = kolmogorov_p(d, n1, n2)
            assert p <= previous + 1e-15
            previous = p

    def test_permutation_invariance(self):
        rng = random.Random(6)
        a = [rng.gauss(0, 1) for _ in range(20)]
        b = [rng.gauss(0.3, 1) for _ in range(25)]
        base = ks_two_sample(a, b)
        for _ in range(5):
            rng.shuffle(a)
            rng.shuffle(b)
            r = ks_two_sample(a, b)
            assert r.d_stat == base.d_stat and r.p_value == base.p_value

    def test_d_equals_brute_force_exactly(self):
        # seeded pairs drawn from a few values, so most hold ties within
        # and across samples
        rng = random.Random(19)
        for _ in range(2000):
            values = [rng.randint(-3, 3) / 2 for _ in range(rng.randint(1, 8))]
            a = [rng.choice(values) for _ in range(rng.randint(1, 25))]
            b = [rng.choice(values) + rng.choice((0.0, 0.25)) for _ in range(rng.randint(1, 25))]
            assert ks_two_sample(a, b).d_stat == brute_force_d(a, b)

    def test_p_in_unit_interval(self, ks_reference):
        for case in ks_reference:
            r = ks_two_sample(case["a"], case["b"])
            assert 0.0 < r.p_value <= 1.0
            assert 0.0 <= r.d_stat <= 1.0

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            ks_two_sample([1.0, float("nan")], [1.0])
        with pytest.raises(NonFiniteValue):
            ks_two_sample([1.0], [float("inf")])


def ks_cells(samples, alpha=0.05, population_pair="sources"):
    """significance_matrix on `samples[feature][event] = (rumour values,
    non-rumour values)`, laid out as one column per feature: each (event,
    side) is a block of rows, NaN where a feature has fewer values than
    the block. Returns {(feature, event): KS_HEADER field -> value}."""
    events = list(dict.fromkeys(e for per_event in samples.values() for e in per_event))
    columns = {f: [] for f in samples}
    owner, rumour = [], []
    for event in events:
        for side in (0, 1):
            sides = {f: samples[f].get(event, ([], []))[side] for f in samples}
            size = max(len(v) for v in sides.values())
            for f, values in sides.items():
                columns[f] += list(values) + [math.nan] * (size - len(values))
            owner += [event] * size
            rumour += [side == 0] * size
    owner = np.array(owner)
    rows = significance_matrix(
        {f: np.array(col) for f, col in columns.items()},
        {event: owner == event for event in events},
        np.array(rumour),
        alpha=alpha,
        population_pair=population_pair,
    )
    return {(r[0], r[1]): dict(zip(KS_HEADER, r)) for r in rows}


class TestSignificanceMatrix:
    def samples(self):
        rum = [1.0, 2.0, 3.0, 10.0, 11.0]
        non = [1.0, 2.0, 3.0, 4.0, 5.0]
        return {
            "wc": {"e1": (rum, non), "e2": (rum, rum), "aggregated": (rum + rum, non + rum)},
            "affect": {"e1": ([], non), "e2": (rum, non), "aggregated": (rum, non + non)},
        }

    def test_grid_complete_with_absent_cells(self):
        cells = ks_cells(self.samples(), alpha=0.05, population_pair="sources")
        grid = {(f, e) for f in ("affect", "wc") for e in ("e1", "e2", "aggregated")}
        assert set(cells) == grid - {("affect", "e1")}
        assert ("affect", "e1") not in cells  # empty rumour side
        assert cells[("wc", "e1")]["population_pair"] == "sources"

    def test_significance_flag_tracks_alpha(self):
        loose = ks_cells(self.samples(), alpha=0.9999)
        strict = ks_cells(self.samples(), alpha=1e-12)
        assert set(loose) == set(strict)
        for key, cell in loose.items():
            assert cell["significant"] == (cell["p_value"] < 0.9999)
            strict_cell = strict[key]
            # identical p-values, only the flag moves with alpha
            assert strict_cell["p_value"] == cell["p_value"]
            assert not strict_cell["significant"]

    def test_identical_population_cell(self):
        cell = ks_cells(self.samples())[("wc", "e2")]
        assert cell["d_stat"] == 0.0
        assert cell["p_value"] == 1.0
        assert not cell["significant"]

    def test_means_recorded_per_side(self):
        cell = ks_cells(self.samples())[("wc", "e1")]
        assert cell["mean_rumour"] == pytest.approx(5.4)
        assert cell["mean_nonrumour"] == pytest.approx(3.0)

    @pytest.mark.parametrize("grid_cells", [1, 7, 1 << 14])
    def test_cells_match_brute_force_in_any_block_size(self, monkeypatch, grid_cells):
        # the grid sorts GRID_CELLS cells at a time; every cell's D is the
        # brute-force one and every mean adds its side in row order, however
        # the columns are cut into blocks
        monkeypatch.setattr(stats, "GRID_CELLS", grid_cells)
        rng = np.random.default_rng(19)
        n = 60
        columns = {f"f{j}": rng.choice([0.0, 0.5, 1.0, 2.5, np.nan], n) for j in range(5)}
        events = rng.choice(["e1", "e2", "e3"], n)
        groups = {e: events == e for e in ("e1", "e2", "e3")}
        rumour = rng.random(n) < 0.4
        rows = significance_matrix(columns, groups, rumour, alpha=0.05, population_pair="sources")
        assert [(r[0], r[1]) for r in rows] == [(f, e) for f in columns for e in groups]
        for feature, event, _pair, n1, n2, d, p, mean_rum, mean_non, significant in rows:
            col = columns[feature][groups[event]]
            rum = [v for v in col[rumour[groups[event]]].tolist() if not math.isnan(v)]
            non = [v for v in col[~rumour[groups[event]]].tolist() if not math.isnan(v)]
            assert (n1, n2, d) == (len(rum), len(non), brute_force_d(rum, non))
            assert p == kolmogorov_p(d, n1, n2) and significant == (p < 0.05)
            assert (mean_rum, mean_non) == (left_to_right_mean(rum), left_to_right_mean(non))


def one_mean(values):
    """mean_report's row for one feature and one population of `values`."""
    rows = mean_report({"wc": np.array(values)}, {"r_src": np.ones(len(values), dtype=bool)})
    assert len(rows) == 1
    return rows[0]


class TestMeanReport:
    def test_constant_population(self):
        assert one_mean([4.0, 4.0, 4.0]) == ["wc", "r_src", 4.0, 3, 0]

    def test_absent_values_counted_not_averaged(self):
        _feature, _pop, mean, n, absent = one_mean([2.0, math.nan, 4.0])
        assert mean == pytest.approx(3.0)
        assert n == 2
        assert absent == 1

    def test_all_absent(self):
        assert one_mean([math.nan, math.nan])[2] is None
