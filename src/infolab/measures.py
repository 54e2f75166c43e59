"""Two competing scalar information measures over discrete distributions.

Shannon entropy H(p) = -sum_i p_i log2 p_i and the quadratic
Brukner-Zeilinger (BZ) measure I(p) = N sum_i (p_i - 1/n)^2, where the
normalization N = n log2(n) / (n - 1) stretches the maximum of I to
k = log2 n bits.  Everything is in bits (log base 2); 0 log 0 = 0 by
continuity.

For an outcome count that is a power of two, n = 2^k, N reduces to
2^k k / (2^k - 1); the n log2(n) / (n - 1) form extends that consistently
to every n >= 2 (the n = 3 case, N = 3 log2(3) / 2, is what the
detector-efficiency analysis uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import ATOL, as_probdist


def shannon(p) -> float:
    """Shannon entropy of a distribution, in bits (0 log 0 = 0)."""
    probs = as_probdist(p).probs
    positive = probs[probs > 0.0]
    # terms are sorted before summing so reorderings give bit-identical results
    value = -float(np.sum(np.sort(positive * np.log2(positive))))
    return abs(value) if value == 0.0 else value  # avoid returning -0.0


def normalization_factor(n: int) -> float:
    """BZ normalization N = n log2(n) / (n - 1) for n >= 2 outcomes."""
    if n < 2:
        raise ValueError(f"need at least 2 outcomes, got {n}")
    return n * math.log2(n) / (n - 1)


def bz_measure(p) -> float:
    """Quadratic BZ information I(p) = N sum_i (p_i - 1/n)^2, in bits.

    Ranges over [0, log2 n]: 0 exactly for the uniform distribution and
    log2 n exactly when one outcome is certain.
    """
    dist = as_probdist(p)
    deviations = dist.probs - 1.0 / dist.n
    # sorted before summing: exact permutation invariance
    return normalization_factor(dist.n) * float(np.sum(np.sort(deviations * deviations)))


def bz_elementary(p1: float, p2: float) -> float:
    """BZ information of a dichotomic proposition: (p1 - p2)^2.

    Algebraically identical to bz_measure((p1, p2)); the pair must be a
    valid normalized distribution.
    """
    dist = as_probdist((p1, p2))
    diff = float(dist.probs[0] - dist.probs[1])
    return diff * diff


def binomial_uncertainty(p: float) -> float:
    """Per-trial binomial variance p (1 - p); the seed expression behind the
    quadratic measure.  Maximal (1/4) at p = 1/2."""
    if not -ATOL <= p <= 1.0 + ATOL:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    return p * (1.0 - p)


@dataclass(frozen=True)
class MeasureResult:
    """One measure evaluation: value in bits, plus the outcome count n
    and the capacity k = log2 n it is bounded by."""

    value: float
    measure_kind: str
    n: int
    k: float

    def __post_init__(self):
        if self.measure_kind not in ("shannon", "bz"):
            raise ValueError(f"unknown measure kind {self.measure_kind!r}")
        if not 0.0 <= self.value <= self.k + 1e-12:
            raise ValueError(
                f"{self.measure_kind} value {self.value!r} outside [0, {self.k!r}]"
            )


def evaluate_measure(kind: str, p) -> MeasureResult:
    """Evaluate "shannon" or "bz" on a distribution, packaged with n and k."""
    dist = as_probdist(p)
    if kind == "shannon":
        value = shannon(dist)
    elif kind == "bz":
        value = bz_measure(dist)
    else:
        raise ValueError(f"unknown measure kind {kind!r}")
    return MeasureResult(value=value, measure_kind=kind, n=dist.n, k=math.log2(dist.n))
