import math
import random

import pytest

from rumourlens.errors import EmptySample, NonFiniteValue
from rumourlens.stats import (
    MeanCell,
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


class TestSignificanceMatrix:
    def samples(self):
        rum = [1.0, 2.0, 3.0, 10.0, 11.0]
        non = [1.0, 2.0, 3.0, 4.0, 5.0]
        return {
            "wc": {"e1": (rum, non), "e2": (rum, rum), "aggregated": (rum + rum, non + rum)},
            "affect": {"e1": ([], non), "e2": (rum, non), "aggregated": (rum, non + non)},
        }

    def test_grid_complete_with_absent_cells(self):
        m = significance_matrix(self.samples(), alpha=0.05, population_pair="sources")
        assert m.features == ("affect", "wc")
        assert m.events == ("e1", "e2", "aggregated")
        assert m.cell("affect", "e1") is None  # empty rumour side
        assert m.cell("wc", "e1") is not None

    def test_significance_flag_tracks_alpha(self):
        loose = significance_matrix(self.samples(), alpha=0.9999)
        strict = significance_matrix(self.samples(), alpha=1e-12)
        for key, cell in loose.cells.items():
            if cell is None:
                continue
            assert cell.significant == (cell.ks.p_value < 0.9999)
            strict_cell = strict.cells[key]
            # identical p-values, only the flag moves with alpha
            assert strict_cell.ks.p_value == cell.ks.p_value
            assert not strict_cell.significant

    def test_identical_population_cell(self):
        m = significance_matrix(self.samples())
        cell = m.cell("wc", "e2")
        assert cell.ks.d_stat == 0.0
        assert cell.ks.p_value == 1.0
        assert not cell.significant

    def test_means_recorded_per_side(self):
        m = significance_matrix(self.samples())
        cell = m.cell("wc", "e1")
        assert cell.mean_rumour == pytest.approx(5.4)
        assert cell.mean_nonrumour == pytest.approx(3.0)


class TestMeanReport:
    def test_constant_population(self):
        report = mean_report({"wc": {"r_src": [4.0, 4.0, 4.0]}})
        assert report["wc"]["r_src"] == MeanCell(mean=4.0, n=3, absent=0)

    def test_absent_values_counted_not_averaged(self):
        report = mean_report({"wc": {"r_src": [2.0, math.nan, 4.0]}})
        cell = report["wc"]["r_src"]
        assert cell.mean == pytest.approx(3.0)
        assert cell.n == 2
        assert cell.absent == 1

    def test_all_absent(self):
        report = mean_report({"wc": {"r_src": [math.nan, math.nan]}})
        assert report["wc"]["r_src"].mean is None
