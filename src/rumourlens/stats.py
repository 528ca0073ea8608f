"""Two-sample Kolmogorov-Smirnov testing and significance matrices.

The D statistic is the supremum ECDF gap, computed by a merge scan over
the sorted samples: both ECDFs are advanced past every distinct value of
the pooled sample, so ties are handled exactly. The p-value uses the
asymptotic Kolmogorov distribution with the small-sample adjustment

    ne     = n1*n2 / (n1+n2)
    lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D
    p      = 2 * sum_{k>=1} (-1)^(k-1) * exp(-2 k^2 lambda^2)

with the series truncated once terms fall below 1e-12, and the result
clamped into (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptySample, NonFiniteValue

DEFAULT_ALPHA = 0.05


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


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


@dataclass(frozen=True)
class SignificanceCell:
    feature: str
    event: str
    population_pair: str
    ks: KsResult
    mean_rumour: float
    mean_nonrumour: float
    significant: bool


@dataclass(frozen=True)
class SignificanceMatrix:
    population_pair: str  # sources or reactions
    features: tuple[str, ...]
    events: tuple[str, ...]  # aggregated column included last when present
    cells: dict[tuple[str, str], SignificanceCell | None]
    alpha: float

    def cell(self, feature: str, event: str) -> SignificanceCell | None:
        return self.cells[(feature, event)]


def significance_matrix(
    samples: dict[str, dict[str, tuple[list[float], list[float]]]],
    alpha: float = DEFAULT_ALPHA,
    population_pair: str = "sources",
    feature_order: list[str] | None = None,
    event_order: list[str] | None = None,
) -> SignificanceMatrix:
    """Build the feature x event grid of KS comparisons.

    ``samples[feature][event]`` holds the (rumour, non-rumour) sample
    vectors for one cell. Cells with an empty side are emitted as absent
    (None), not as zeros.
    """
    features = tuple(feature_order if feature_order is not None else sorted(samples))
    all_events: set[str] = set()
    for per_event in samples.values():
        all_events.update(per_event)
    if event_order is not None:
        events = tuple(event_order)
    else:
        named = sorted(e for e in all_events if e != "aggregated")
        events = tuple(named + (["aggregated"] if "aggregated" in all_events else []))

    cells: dict[tuple[str, str], SignificanceCell | None] = {}
    for feature in features:
        for event in events:
            rum, non = samples.get(feature, {}).get(event, ([], []))
            if not rum or not non:
                cells[(feature, event)] = None
                continue
            ks = ks_two_sample(rum, non)
            cells[(feature, event)] = SignificanceCell(
                feature=feature,
                event=event,
                population_pair=population_pair,
                ks=ks,
                mean_rumour=mean(rum),
                mean_nonrumour=mean(non),
                significant=ks.p_value < alpha,
            )
    return SignificanceMatrix(
        population_pair=population_pair,
        features=features,
        events=events,
        cells=cells,
        alpha=alpha,
    )


@dataclass(frozen=True)
class MeanCell:
    mean: float | None
    n: int
    absent: int


def mean_report(
    samples: dict[str, dict[str, list[float]]]
) -> dict[str, dict[str, MeanCell]]:
    """Arithmetic means per feature and population over the defined values;
    the count of absent (NaN) values is carried alongside."""
    report: dict[str, dict[str, MeanCell]] = {}
    for feature, populations in samples.items():
        report[feature] = {}
        for pop, values in populations.items():
            defined = [v for v in values if not math.isnan(v)]
            report[feature][pop] = MeanCell(
                mean=(sum(defined) / len(defined)) if defined else None,
                n=len(defined),
                absent=len(values) - len(defined),
            )
    return report
