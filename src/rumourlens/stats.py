"""Two-sample Kolmogorov-Smirnov testing, the KS grid and population means.

The D statistic is the supremum ECDF gap, computed by a merge scan over
the sorted samples: both ECDFs are advanced past every distinct value of
the pooled sample, so ties are handled exactly. The p-value uses the
asymptotic Kolmogorov distribution with the small-sample adjustment

    ne     = n1*n2 / (n1+n2)
    lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D
    p      = 2 * sum_{k>=1} (-1)^(k-1) * exp(-2 k^2 lambda^2)

with the series truncated once terms fall below 1e-12, and the result
clamped into (0, 1].

The KS grid and the population means are computed from row masks over
feature columns and come back as the rows of their CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, NonFiniteValue


@dataclass(frozen=True)
class KsResult:
    d_stat: float
    p_value: float
    n1: int
    n2: int


def _check_sample(name: str, sample) -> list[float]:
    values = [float(v) for v in sample]
    if not values:
        raise EmptySample(f"sample {name} is empty")
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteValue(f"sample {name} contains {v}")
    return values


def ks_statistic(a: list[float], b: list[float]) -> float:
    """Supremum |ECDF_a - ECDF_b| via merge scan with tie handling."""
    sa, sb = sorted(a), sorted(b)
    n1, n2 = len(sa), len(sb)
    i = j = 0
    d = 0.0
    while i < n1 or j < n2:
        if j >= n2 or (i < n1 and sa[i] <= sb[j]):
            v = sa[i]
        else:
            v = sb[j]
        while i < n1 and sa[i] == v:
            i += 1
        while j < n2 and sb[j] == v:
            j += 1
        gap = abs(i / n1 - j / n2)
        if gap > d:
            d = gap
    return d


def kolmogorov_p(d: float, n1: int, n2: int) -> float:
    """Asymptotic two-sided p-value for the two-sample statistic."""
    if d <= 0.0:
        return 1.0
    ne = n1 * n2 / (n1 + n2)
    sqrt_ne = math.sqrt(ne)
    lam = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d
    if lam < 1e-8:
        return 1.0
    total = 0.0
    for k in range(1, 100001):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(max(total, 5e-324), 1.0)


def ks_two_sample(a, b) -> KsResult:
    """Two-sample KS test; symmetric in sample order."""
    va = _check_sample("a", a)
    vb = _check_sample("b", b)
    d = ks_statistic(va, vb)
    return KsResult(d_stat=d, p_value=kolmogorov_p(d, len(va), len(vb)), n1=len(va), n2=len(vb))


def significance_matrix(
    columns: dict[str, np.ndarray],
    groups: dict[str, np.ndarray],
    rumour: np.ndarray,
    alpha: float,
    population_pair: str,
) -> list[list]:
    """The KS rows of one population pair, in `report.KS_HEADER` order.

    One cell per feature column (NaN = absent) and event row mask in
    `groups` compares its defined rumour and non-rumour values in row
    order; a cell with an empty side yields no row.
    """
    rows = []
    for feature, col in columns.items():
        defined = ~np.isnan(col)
        for event, group in groups.items():
            rum = col[group & defined & rumour].tolist()
            non = col[group & defined & ~rumour].tolist()
            if not rum or not non:
                continue
            ks = ks_two_sample(rum, non)
            rows.append(
                [
                    feature,
                    event,
                    population_pair,
                    ks.n1,
                    ks.n2,
                    ks.d_stat,
                    ks.p_value,
                    sum(rum) / len(rum),
                    sum(non) / len(non),
                    ks.p_value < alpha,
                ]
            )
    return rows


def mean_report(
    columns: dict[str, np.ndarray], populations: dict[str, np.ndarray]
) -> list[list]:
    """(feature, population, mean, n, absent) per feature column and
    population row mask: the mean of the defined values, summed left to
    right in row order (None if there are none), and the NaN count."""
    rows = []
    for feature, col in columns.items():
        for pop, mask in populations.items():
            values = col[mask]
            defined = values[~np.isnan(values)].tolist()
            mean = sum(defined) / len(defined) if defined else None
            rows.append([feature, pop, mean, len(defined), len(values) - len(defined)])
    return rows
