"""Closed-form two-parameter (alpha, theta) formulas used as validation references.

The generalized-gamma model with r = theta/alpha reproduces the two-parameter
family, and the stable model reproduces the theta = 0 case for every r.  These
formulas never touch the quadrature code paths, which makes them independent
checks for the integral-based implementations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "pd_log_eppf",
    "pd_predictive",
    "pd_backward_ratio",
]


def _log_rising(x: float, m: int) -> float:
    """log of the rising factorial x (x+1) ... (x+m-1), for x > 0; 0 for m = 0."""
    return math.lgamma(x + m) - math.lgamma(x)


def pd_log_eppf(alpha: float, theta: float, counts: Sequence[int]) -> float:
    """log EPPF of the two-parameter family (theta = 0 allowed), summed in logs at any n."""
    out = sum(math.log(theta + i * alpha) for i in range(1, len(counts)))
    out += sum(_log_rising(1.0 - alpha, ni - 1) for ni in counts)
    return out - _log_rising(theta + 1.0, sum(counts) - 1)


def pd_predictive(alpha: float, theta: float, counts: Sequence[int]) -> np.ndarray:
    """Predictive probabilities (new cluster, block 1, ..., block k)."""
    k = len(counts)
    n = sum(counts)
    out = [(theta + k * alpha) / (theta + n)]
    out.extend((ni - alpha) / (theta + n) for ni in counts)
    return np.array(out)


def pd_backward_ratio(alpha: float, theta: float, counts: Sequence[int], i: int) -> float:
    """Normalized backward event weight for block i in the two-parameter family."""
    n = sum(counts)
    k = len(counts)
    ni = counts[i]
    if ni > 1:
        return ni * (ni - 1.0 - alpha) / (n * (theta + n - 1.0))
    return (theta + (k - 1.0) * alpha) / (n * (theta + n - 1.0))
