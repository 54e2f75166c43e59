"""Tests for the Shannon and quadratic information measures."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from infolab.measures import (
    MeasureResult,
    binomial_uncertainty,
    bz_elementary,
    bz_measure,
    evaluate_measure,
    normalization_factor,
    shannon,
)

LOG2_3 = math.log2(3.0)
FIXTURE_DIR = Path(__file__).parent / "data"


def distributions(n: int):
    """Hypothesis strategy: valid probability vectors with n outcomes."""
    return st.lists(
        st.floats(min_value=1e-9, max_value=1.0), min_size=n, max_size=n
    ).map(lambda ws: [w / sum(ws) for w in ws])


class TestShannon:
    @pytest.mark.parametrize(
        "probs, expected",
        [
            ((0.5, 0.5), 1.0),
            ((1.0, 0.0), 0.0),
            ((1 / 3, 1 / 3, 1 / 3), LOG2_3),
        ],
    )
    def test_anchors(self, probs, expected):
        assert shannon(probs) == pytest.approx(expected, abs=1e-12)

    def test_zero_times_log_zero_is_zero(self):
        # 0 log 0 = 0 keeps distributions with empty outcomes finite
        assert shannon((0.5, 0.5, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_never_negative_zero(self):
        result = shannon((1.0, 0.0))
        assert result == 0.0 and math.copysign(1.0, result) == 1.0


class TestNormalizationFactor:
    def test_two_outcomes(self):
        assert normalization_factor(2) == 2.0

    def test_power_of_two_matches_capacity_form(self):
        # for n = 2^k the factor is 2^k k / (2^k - 1); k = 2 gives 8/3
        assert normalization_factor(4) == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_three_outcomes(self):
        assert normalization_factor(3) == pytest.approx(1.5 * LOG2_3, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="at least 2"):
            normalization_factor(1)


class TestBzMeasure:
    def test_certainty_is_one_bit(self):
        assert bz_measure((1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_is_zero_bits(self):
        assert bz_measure((0.5, 0.5)) == 0.0

    def test_three_outcome_certainty(self):
        # independent route: N = (3/2) log2 3 and sum (p - 1/3)^2 = 2/3,
        # so the measure is exactly log2 3
        oracle = (1.5 * LOG2_3) * ((2.0 / 3.0) ** 2 + 2 * (1.0 / 3.0) ** 2)
        assert oracle == pytest.approx(LOG2_3, abs=1e-15)
        assert bz_measure((1.0, 0.0, 0.0)) == pytest.approx(LOG2_3, abs=1e-15)

    @given(st.one_of(distributions(2), distributions(3), distributions(4), distributions(8)))
    @settings(max_examples=300, deadline=None)
    def test_bounds(self, probs):
        value = bz_measure(probs)
        assert -1e-12 <= value <= math.log2(len(probs)) + 1e-12

    @given(st.one_of(distributions(3), distributions(5)), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, probs, pyrandom):
        shuffled = list(probs)
        pyrandom.shuffle(shuffled)
        assert bz_measure(shuffled) == bz_measure(probs)
        assert shannon(shuffled) == shannon(probs)

    def test_extremes_coincide(self):
        for n in (2, 3, 4, 8):
            cap = math.log2(n)
            for hot in range(n):
                point = [0.0] * n
                point[hot] = 1.0
                assert bz_measure(point) == pytest.approx(cap, abs=1e-12)
                assert shannon(point) == 0.0
            # and conversely: away from the vertices neither extreme holds
            interior = [1.0 / n + (0.01 if i == 0 else -0.01 / (n - 1)) for i in range(n)]
            assert bz_measure(interior) < cap - 1e-6
            assert shannon(interior) > 1e-6


class TestBzElementary:
    @pytest.mark.parametrize(
        "p1, p2, expected",
        [(1.0, 0.0, 1.0), (0.5, 0.5, 0.0), (0.75, 0.25, 0.25)],
    )
    def test_anchors(self, p1, p2, expected):
        assert bz_elementary(p1, p2) == pytest.approx(expected, abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            bz_elementary(0.7, 0.7)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_general_measure(self, p1):
        pair = (p1, 1.0 - p1)
        assert abs(bz_elementary(*pair) - bz_measure(pair)) <= 1e-14


class TestBinomialUncertainty:
    @pytest.mark.parametrize("p, expected", [(0.0, 0.0), (0.5, 0.25), (0.75, 3.0 / 16.0)])
    def test_anchors(self, p, expected):
        assert binomial_uncertainty(p) == pytest.approx(expected, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_uncertainty(-0.1)
        with pytest.raises(ValueError):
            binomial_uncertainty(1.1)
        with pytest.raises(ValueError):
            binomial_uncertainty(math.nan)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_peak_at_half(self, p):
        assert binomial_uncertainty(p) <= 0.25 + 1e-15


class TestMeasureResult:
    def test_evaluate_shannon(self):
        result = evaluate_measure("shannon", (0.5, 0.5))
        assert result == MeasureResult(value=1.0, measure_kind="shannon", n=2, k=1.0)

    def test_evaluate_bz(self):
        result = evaluate_measure("bz", (0.5, 0.3, 0.2))
        assert result.n == 3 and result.k == pytest.approx(LOG2_3)
        assert result.value == pytest.approx(bz_measure((0.5, 0.3, 0.2)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            evaluate_measure("renyi", (0.5, 0.5))

    def test_value_above_capacity_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            MeasureResult(value=1.5, measure_kind="bz", n=2, k=1.0)


class TestOrderingDisagreement:
    def test_frozen_witness_still_disagrees(self):
        # regression fixture found by brute-force search over the 0.01 grid
        # on the 3-outcome simplex: Shannon says p is the more certain
        # distribution, the quadratic measure says p carries less information
        fixture = json.loads((FIXTURE_DIR / "ordering_witness.json").read_text())
        p, q = fixture["p"], fixture["q"]
        assert shannon(p) < shannon(q) - 1e-6
        assert bz_measure(p) < bz_measure(q) - 1e-6
