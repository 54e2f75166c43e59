"""Two competing information measures over discrete distributions, in bits.

Shannon entropy H(p) = -sum_i p_i log2 p_i (0 log 0 = 0 by continuity) and
the quadratic Brukner-Zeilinger (BZ) measure I(p) = N sum_i (p_i - 1/n)^2,
where N = n log2(n) / (n - 1) stretches the maximum of I to k = log2 n bits.
Each is one private kernel over the rows of a (..., n) array that passed
``ProbDist``'s rules, called by the scalar API and by ``verify``;
``bz_elementary`` and ``efficiency._closed_forms`` are the independent forms.

For n = 2^k outcomes N reduces to 2^k k / (2^k - 1); the n log2(n) / (n - 1)
form extends that to every n >= 2 (the n = 3 case, N = 3 log2(3) / 2, is
what the detector-efficiency analysis uses).
"""

from __future__ import annotations

import math

import numpy as np

from .states import _integer, as_probdist


def _shannon_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a (..., n) array of distributions."""
    terms = probs * np.log2(np.where(probs > 0.0, probs, 1.0))  # 0 log 0 = 0, unwarned
    terms.sort(axis=-1)  # terms are sorted before summing so reorderings give bit-identical results
    return 0.0 - terms.sum(axis=-1)  # never -0.0


def shannon(p) -> float:
    """Shannon entropy of a distribution, in bits (0 log 0 = 0)."""
    return float(_shannon_rows(as_probdist(p).probs))


def normalization_factor(n: int) -> float:
    """BZ normalization N = n log2(n) / (n - 1) for n >= 2 outcomes."""
    count = _integer(n, "number of outcomes", 2)
    return count * math.log2(count) / (count - 1)


def _bz_rows(probs: np.ndarray) -> np.ndarray:
    """Quadratic BZ information of each row of a (..., n) array of distributions."""
    deviations = probs - 1.0 / probs.shape[-1]
    squares = deviations * deviations
    squares.sort(axis=-1)  # sorted before summing: exact permutation invariance
    return normalization_factor(probs.shape[-1]) * squares.sum(axis=-1)


def bz_measure(p) -> float:
    """Quadratic BZ information I(p) = N sum_i (p_i - 1/n)^2, in bits.

    Ranges over [0, log2 n]: 0 exactly for the uniform distribution and
    log2 n exactly when one outcome is certain.
    """
    return float(_bz_rows(as_probdist(p).probs))


def bz_elementary(p1: float, p2: float) -> float:
    """BZ information of a dichotomic proposition: (p1 - p2)^2.

    Algebraically identical to bz_measure((p1, p2)); the pair must be a
    valid normalized distribution.
    """
    dist = as_probdist((p1, p2))
    diff = float(dist.probs[0] - dist.probs[1])
    return diff * diff
