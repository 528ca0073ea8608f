"""Two-sample Kolmogorov-Smirnov testing, the KS grid and population means.

The D statistic is the supremum ECDF gap, read from running counts over
each sorted column, so ties are exact. The p-value uses the asymptotic
Kolmogorov distribution with the small-sample adjustment

    ne     = n1*n2 / (n1+n2)
    lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D
    p      = 2 * sum_{k>=1} (-1)^(k-1) * exp(-2 k^2 lambda^2)

with the series truncated once terms fall below 1e-12, and the result
clamped into (0, 1].

The KS grid and the population means, computed from row masks over
feature columns many columns at once, come back as CSV rows. A mean adds
in row order whatever the interpreter, so the CSVs keep their float bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, NonFiniteValue

# cells (rows x columns) the KS grid sorts at once, which bounds its temporaries
GRID_CELLS = 1 << 14


@dataclass(frozen=True)
class KsResult:
    d_stat: float
    p_value: float
    n1: int
    n2: int


def _check_sample(name: str, sample) -> np.ndarray:
    values = np.asarray(sample, dtype=float)
    if not values.size:
        raise EmptySample(f"sample {name} is empty")
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteValue(f"sample {name} contains {values[~finite][0]}")
    return values


def _ks_d(X: np.ndarray, first: np.ndarray) -> np.ndarray:
    """D of each column of X (NaN = absent) between its values in the rows
    `first` marks and in the others, neither side empty: both ECDFs are
    read, as count / n, at the last of each run of equal values."""
    order = np.argsort(X, axis=0)  # NaN last
    ordered = np.take_along_axis(X, order, axis=0)
    side, defined = first[order], ~np.isnan(ordered)
    a = (defined & side).cumsum(axis=0)
    b = (defined & ~side).cumsum(axis=0)
    last = np.ones_like(defined)
    last[:-1] = ordered[1:] != ordered[:-1]
    return np.where(last, abs(a / a[-1] - b / b[-1]), 0.0).max(axis=0)


def _means(X: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """The mean of each column of X over the rows `picks` marks, 0 if none,
    added left to right from 0.0 (a row left out adds 0.0) as sum() adds
    up to Python 3.11: 3.12's sum() compensates, np.add.reduce is pairwise."""
    sums = np.zeros((len(picks) + 1, picks.shape[1]))
    np.copyto(sums[1:], X, where=picks)
    return sums.cumsum(axis=0)[-1] / np.maximum(picks.sum(axis=0), 1)


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
    a, b = _check_sample("a", a), _check_sample("b", b)
    d = float(_ks_d(np.concatenate([a, b])[:, None], np.arange(a.size + b.size) < a.size)[0])
    return KsResult(d_stat=d, p_value=kolmogorov_p(d, a.size, b.size), n1=a.size, n2=b.size)


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
    order; a cell with an empty side yields no row."""
    cols, cells = list(columns.values()), {}
    for event, group in groups.items():
        first = rumour[group]
        width = max(1, GRID_CELLS // max(len(first), 1))
        for lo in range(0, len(cols), width):
            Xg = np.column_stack([col[group] for col in cols[lo : lo + width]])
            if np.isinf(Xg).any():
                raise NonFiniteValue(f"event {event}: a feature column holds an infinite value")
            defined = ~np.isnan(Xg)
            rum, non = defined & first[:, None], defined & ~first[:, None]
            n1, n2 = rum.sum(axis=0).tolist(), non.sum(axis=0).tolist()
            live = [j for j in range(Xg.shape[1]) if n1[j] and n2[j]]
            if live:
                Xg = Xg[:, live]
                means = zip(_means(Xg, rum[:, live]).tolist(), _means(Xg, non[:, live]).tolist())
                for j, d, (mean_rum, mean_non) in zip(live, _ks_d(Xg, first).tolist(), means):
                    p = kolmogorov_p(d, n1[j], n2[j])
                    cells[lo + j, event] = [n1[j], n2[j], d, p, mean_rum, mean_non, p < alpha]
    return [[f, e, population_pair, *cells[j, e]] for j, f in enumerate(columns) for e in groups if (j, e) in cells]


def mean_report(
    columns: dict[str, np.ndarray], populations: dict[str, np.ndarray]
) -> list[list]:
    """(feature, population, mean, n, absent) per feature column and
    population row mask: the mean of the defined values in row order
    (None if there are none), and the NaN count."""
    masks = np.array(list(populations.values()), dtype=bool).T
    size, rows = masks.sum(axis=0), []
    for feature, col in columns.items():
        picks = masks & ~np.isnan(col)[:, None]
        n = picks.sum(axis=0)
        means = _means(col[:, None], picks).tolist()
        for pop, mean, k, absent in zip(populations, means, n.tolist(), (size - n).tolist()):
            rows.append([feature, pop, mean if k else None, k, absent])
    return rows
