"""Tests for the non-ideal (inefficient) spin measurement model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from infolab.efficiency import (
    EfficiencyModel,
    K_THREE,
    bz_components,
    bz_total_closed,
    ideal_bz_components,
    ideal_bz_total,
    outcome_probabilities,
    ratio_sweep,
    shannon_components,
    thresholds,
)
from infolab.measures import bz_measure

LOG2_3 = math.log2(3.0)


class TestOutcomeProbabilities:
    def test_perfect_efficiency(self):
        px, py, pz = outcome_probabilities(EfficiencyModel(1.0))
        np.testing.assert_allclose(px.probs, (1.0, 0.0, 0.0))
        np.testing.assert_allclose(py.probs, (0.5, 0.5, 0.0))
        np.testing.assert_allclose(pz.probs, (0.5, 0.5, 0.0))

    def test_zero_efficiency(self):
        for dist in outcome_probabilities(EfficiencyModel(0.0)):
            np.testing.assert_allclose(dist.probs, (0.0, 0.0, 1.0))

    def test_uniform_point_along_y(self):
        _, py, _ = outcome_probabilities(EfficiencyModel(2.0 / 3.0))
        np.testing.assert_allclose(py.probs, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_each_sums_to_one_exactly(self):
        for eta in np.linspace(0.0, 1.0, 37):
            for dist in outcome_probabilities(EfficiencyModel(float(eta))):
                assert float(dist.probs.sum()) == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EfficiencyModel(1.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EfficiencyModel(-0.1)


class TestBzComponents:
    def test_perfect_efficiency_values(self):
        # oracle: generic quadratic measure on (1,0,0) and (1/2,1/2,0)
        i1, i2, i3 = bz_components(EfficiencyModel(1.0))
        assert i1 == pytest.approx(bz_measure((1.0, 0.0, 0.0)), abs=1e-12)
        assert i2 == pytest.approx(bz_measure((0.5, 0.5, 0.0)), abs=1e-12)
        assert i1 == pytest.approx(LOG2_3, abs=1e-12)
        assert i2 == pytest.approx(LOG2_3 / 4.0, abs=1e-12)
        assert i2 == i3

    def test_zero_efficiency_certainty_everywhere(self):
        for component in bz_components(EfficiencyModel(0.0)):
            assert component == pytest.approx(LOG2_3, abs=1e-12)

    def test_uniform_point_kills_y_and_z(self):
        _, i2, i3 = bz_components(EfficiencyModel(2.0 / 3.0))
        assert abs(i2) <= 1e-12 and abs(i3) <= 1e-12


class TestBzTotal:
    def test_perfect_efficiency(self):
        model = EfficiencyModel(1.0)
        oracle = sum(bz_measure(d) for d in outcome_probabilities(model))
        assert bz_total_closed(model) == pytest.approx(oracle, abs=1e-12)
        assert bz_total_closed(model) == pytest.approx(1.5 * LOG2_3, abs=1e-12)

    def test_vertex_minimum(self):
        assert bz_total_closed(EfficiencyModel(0.6)) == pytest.approx(
            0.2 * 1.5 * LOG2_3, abs=1e-12
        )

    def test_zero_efficiency(self):
        model = EfficiencyModel(0.0)
        oracle = sum(bz_measure(d) for d in outcome_probabilities(model))
        assert bz_total_closed(model) == pytest.approx(oracle, abs=1e-12)
        assert bz_total_closed(model) == pytest.approx(3.0 * LOG2_3, abs=1e-12)


class TestShannonComponents:
    def test_half_efficiency_maximum_along_x(self):
        hx, _, _ = shannon_components(EfficiencyModel(0.5))
        assert hx == pytest.approx(1.0, abs=1e-15)

    def test_two_thirds_maximum_along_y(self):
        _, hy, hz = shannon_components(EfficiencyModel(2.0 / 3.0))
        assert hy == pytest.approx(LOG2_3, abs=1e-12)
        assert hz == hy

    def test_vanishing_efficiency_kills_all_uncertainty(self):
        for value in shannon_components(EfficiencyModel(1e-6)):
            assert value < 3e-5

    def test_offset_identity(self):
        for eta in np.linspace(0.0, 1.0, 101):
            hx, hy, hz = shannon_components(EfficiencyModel(float(eta)))
            assert hy == hz
            assert hy == pytest.approx(hx + eta, abs=1e-12)


class TestThresholds:
    def test_closed_form_values(self):
        lo, hi = thresholds()
        root = math.sqrt(21.0)
        assert lo == pytest.approx((9.0 - root) / 15.0, abs=1e-15)
        assert hi == pytest.approx((9.0 + root) / 15.0, abs=1e-15)
        assert round(lo, 2) == 0.29 and round(hi, 2) == 0.91

    def test_ratio_is_one_at_thresholds(self):
        for eta in thresholds():
            ratio = bz_total_closed(EfficiencyModel(eta)) / K_THREE
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_bisection_cross_check(self):
        # independent oracle: bisect ratio - 1 on brackets around each root
        def ratio(eta):
            return bz_total_closed(EfficiencyModel(eta)) / K_THREE - 1.0

        expected = thresholds()
        for bracket, target in zip(((0.1, 0.5), (0.7, 0.99)), expected):
            lo, hi = bracket
            assert ratio(lo) * ratio(hi) < 0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if ratio(lo) * ratio(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            assert 0.5 * (lo + hi) == pytest.approx(target, abs=1e-12)


class TestIdealMode:
    def test_ideal_components(self):
        assert ideal_bz_components() == (1.0, 0.0, 0.0)

    def test_headline_discontinuity(self):
        # switching from the 3-outcome model at eta = 1 to ideal 2-outcome
        # statistics changes the total from (3/2) log2 3 to exactly 1 bit
        assert ideal_bz_total() == 1.0
        three_outcome = bz_total_closed(EfficiencyModel(1.0))
        assert three_outcome == pytest.approx(1.5 * LOG2_3, abs=1e-12)
        assert three_outcome - ideal_bz_total() > 1.0


class TestRatioSweep:
    def test_grid_includes_endpoints(self):
        table = ratio_sweep(0.0, 1.0, 11)
        assert table.eta[0] == 0.0 and table.eta[-1] == 1.0
        assert len(table) == 11

    def test_anchor_ratios(self):
        table = ratio_sweep(0.0, 1.0, 11)
        assert table.ratio[-1] == pytest.approx(1.5, abs=1e-12)
        assert table.ratio[0] == pytest.approx(3.0, abs=1e-12)
        at_06 = table.ratio[np.argmin(np.abs(table.eta - 0.6))]
        assert at_06 == pytest.approx(0.3, abs=1e-12)

    def test_validate_passes_on_fresh_table(self):
        worst = ratio_sweep(0.0, 1.0, 51).validate()
        assert isinstance(worst, float) and 0.0 <= worst <= 1e-12

    def test_validate_catches_corruption(self):
        table = ratio_sweep(0.0, 1.0, 11)
        for name in ("hy", "i1"):
            broken = replace(table, **{name: getattr(table, name) + 1e-6})
            with pytest.raises(ValueError, match="row identity"):
                broken.validate()
        for name in ("eta", "i1", "i2", "i3", "i_total", "ratio", "hx", "hy", "hz"):
            column = getattr(table, name).copy()
            column[4] = np.nan
            with pytest.raises(ValueError, match="row identity"):
                replace(table, **{name: column}).validate()

    def test_usage_errors(self):
        with pytest.raises(ValueError, match="eta_min"):
            ratio_sweep(0.5, 0.2, 10)
        with pytest.raises(ValueError, match="steps"):
            ratio_sweep(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="eta_min"):
            ratio_sweep(-0.1, 1.0, 10)
