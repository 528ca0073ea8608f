"""The Shapley test oracle: exact values by full subset enumeration.

``brute_shapley`` evaluates the defining subset sum of the
interventional game directly, 2^d payoffs for d features, so it is only
run on small models; the explainer's walk must match it.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np

from rumourlens.classify import RandomForestModel
from rumourlens.errors import RumourLensError

BRUTE_FORCE_MAX_FEATURES = 12


class TooManyFeatures(RumourLensError):
    pass


def brute_shapley(
    model: RandomForestModel,
    instance: np.ndarray,
    background: np.ndarray,
) -> dict[str, float]:
    """Exact Shapley values by full subset enumeration (oracle path)."""
    d = len(model.feature_names)
    if d > BRUTE_FORCE_MAX_FEATURES:
        raise TooManyFeatures(f"{d} features exceeds the 2^d enumeration limit")
    x = model.impute(instance)
    bg = model.impute(background)

    def payoff(subset: tuple[int, ...]) -> float:
        Z = bg.copy()
        if subset:
            Z[:, list(subset)] = x[list(subset)]
        return float(model.predict_proba(Z).mean())

    v = {}
    for size in range(d + 1):
        for subset in combinations(range(d), size):
            v[subset] = payoff(subset)

    weights = {
        s: Fraction(factorial(s) * factorial(d - s - 1), factorial(d)) for s in range(d)
    }
    phi = {}
    for j in range(d):
        others = [f for f in range(d) if f != j]
        total = 0.0
        for size in range(d):
            w = float(weights[size])
            for subset in combinations(others, size):
                with_j = tuple(sorted(subset + (j,)))
                total += w * (v[with_j] - v[subset])
        phi[model.feature_names[j]] = total
    return phi
