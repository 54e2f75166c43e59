"""Tests for the Shannon and quadratic information measures."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import infolab.cli as cli
from infolab.measures import bz_elementary, bz_measure, normalization_factor, shannon

LOG2_3 = math.log2(3.0)


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


def measure(capsys, *argv):
    # 17 decimals print a float in [1/16, 10) exactly, so values compare as before
    code = cli.parse_and_dispatch(["--precision", "17", "measure", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasureResult:
    """``infolab measure`` reports a value with its outcome count n and the
    capacity k = log2 n, and refuses a value outside [0, k]."""

    def test_evaluate_shannon(self, capsys):
        assert measure(capsys, "shannon", "--probs", "0.5,0.5") == (0, "1.0\n", "n=2 k=1.0\n")

    def test_evaluate_bz(self, capsys):
        code, out, err = measure(capsys, "bz", "--probs", "0.5,0.3,0.2")
        n, k = (field.split("=")[1] for field in err.split())
        assert code == 0 and int(n) == 3 and float(k) == pytest.approx(LOG2_3)
        assert float(out) == pytest.approx(bz_measure((0.5, 0.3, 0.2)))

    def test_unknown_kind(self, capsys):
        code, out, err = measure(capsys, "renyi", "--probs", "0.5,0.5")
        assert code == 2 and out == "" and "kind" in err

    def test_value_above_capacity_rejected(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "shannon", lambda dist: 1.5)
        code, out, err = measure(capsys, "shannon", "--probs", "0.5,0.5")
        assert code == 1 and out == "" and err == "error: shannon value 1.5 outside [0, 1.0]\n"
