"""Tests for the non-ideal (inefficient) spin measurement model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from infolab.efficiency import (
    K_THREE,
    _closed_forms,
    bz_total_closed,
    ideal_bz_total,
    outcome_probabilities,
    ratio_sweep,
    thresholds,
)
from infolab.measures import bz_elementary, bz_measure, shannon

LOG2_3 = math.log2(3.0)


class TestOutcomeProbabilities:
    def test_perfect_efficiency(self):
        px, py, pz = outcome_probabilities(1.0)
        np.testing.assert_allclose(px.probs, (1.0, 0.0, 0.0))
        np.testing.assert_allclose(py.probs, (0.5, 0.5, 0.0))
        np.testing.assert_allclose(pz.probs, (0.5, 0.5, 0.0))

    def test_zero_efficiency(self):
        for dist in outcome_probabilities(0.0):
            np.testing.assert_allclose(dist.probs, (0.0, 0.0, 1.0))

    def test_uniform_point_along_y(self):
        _, py, _ = outcome_probabilities(2.0 / 3.0)
        np.testing.assert_allclose(py.probs, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_each_sums_to_one_exactly(self):
        for eta in np.linspace(0.0, 1.0, 37):
            for dist in outcome_probabilities(float(eta)):
                assert float(dist.probs.sum()) == 1.0

    def test_domain_error(self):
        cases = (
            (1.2, "efficiency must lie in [0, 1], got 1.2"),
            (-0.1, "efficiency must lie in [0, 1], got -0.1"),
            (float("nan"), "efficiency must be finite, got nan"),
        )
        for build in (outcome_probabilities, bz_total_closed):
            for eta, message in cases:
                with pytest.raises(ValueError) as err:
                    build(eta)
                assert str(err.value) == message, build.__name__

    def test_y_and_z_are_equal(self):
        for eta in np.linspace(0.0, 1.0, 37):
            _, py, pz = outcome_probabilities(float(eta))
            assert np.array_equal(py.probs, pz.probs)


class TestBzComponents:
    """The closed forms return one I2 = I3 value; the oracle checks it
    against the generic measure along y and along z."""

    def test_perfect_efficiency_values(self):
        # oracle: generic quadratic measure on (1,0,0) and (1/2,1/2,0)
        i1, i23, _, _, _ = _closed_forms(1.0)
        _, py, pz = outcome_probabilities(1.0)
        assert i1 == pytest.approx(bz_measure((1.0, 0.0, 0.0)), abs=1e-12)
        assert i23 == pytest.approx(bz_measure((0.5, 0.5, 0.0)), abs=1e-12)
        assert i1 == pytest.approx(LOG2_3, abs=1e-12)
        assert i23 == pytest.approx(LOG2_3 / 4.0, abs=1e-12)
        assert bz_measure(py) == bz_measure(pz)

    def test_zero_efficiency_certainty_everywhere(self):
        i1, i23, _, _, _ = _closed_forms(0.0)
        for component in (i1, i23):
            assert component == pytest.approx(LOG2_3, abs=1e-12)

    def test_uniform_point_kills_y_and_z(self):
        i23 = _closed_forms(2.0 / 3.0)[1]
        assert abs(i23) <= 1e-12


class TestBzTotal:
    def test_perfect_efficiency(self):
        oracle = sum(bz_measure(d) for d in outcome_probabilities(1.0))
        assert bz_total_closed(1.0) == pytest.approx(oracle, abs=1e-12)
        assert bz_total_closed(1.0) == pytest.approx(1.5 * LOG2_3, abs=1e-12)

    def test_vertex_minimum(self):
        assert bz_total_closed(0.6) == pytest.approx(
            0.2 * 1.5 * LOG2_3, abs=1e-12
        )

    def test_zero_efficiency(self):
        oracle = sum(bz_measure(d) for d in outcome_probabilities(0.0))
        assert bz_total_closed(0.0) == pytest.approx(oracle, abs=1e-12)
        assert bz_total_closed(0.0) == pytest.approx(3.0 * LOG2_3, abs=1e-12)


class TestShannonComponents:
    """The closed forms return one Hy = Hz value; Hy = Hz is checked on the
    generic measure along y and along z."""

    def test_half_efficiency_maximum_along_x(self):
        hx = _closed_forms(0.5)[3]
        assert hx == pytest.approx(1.0, abs=1e-15)

    def test_two_thirds_maximum_along_y(self):
        hyz = _closed_forms(2.0 / 3.0)[4]
        _, py, pz = outcome_probabilities(2.0 / 3.0)
        assert hyz == pytest.approx(LOG2_3, abs=1e-12)
        assert shannon(pz) == shannon(py)

    def test_vanishing_efficiency_kills_all_uncertainty(self):
        for value in _closed_forms(1e-6)[3:]:
            assert value < 3e-5

    def test_offset_identity(self):
        for eta in np.linspace(0.0, 1.0, 101):
            _, _, _, hx, hyz = _closed_forms(float(eta))
            _, py, pz = outcome_probabilities(float(eta))
            assert shannon(py) == shannon(pz)
            assert hyz == pytest.approx(hx + eta, abs=1e-12)


class TestThresholds:
    def test_closed_form_values(self):
        lo, hi = thresholds()
        root = math.sqrt(21.0)
        assert lo == pytest.approx((9.0 - root) / 15.0, abs=1e-15)
        assert hi == pytest.approx((9.0 + root) / 15.0, abs=1e-15)
        assert round(lo, 2) == 0.29 and round(hi, 2) == 0.91

    def test_ratio_is_one_at_thresholds(self):
        for eta in thresholds():
            ratio = bz_total_closed(eta) / K_THREE
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_bisection_cross_check(self):
        # independent oracle: bisect ratio - 1 on brackets around each root
        def ratio(eta):
            return bz_total_closed(eta) / K_THREE - 1.0

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
        # the two-outcome informations along x, y, z that ideal_bz_total sums
        components = bz_elementary(1.0, 0.0), bz_elementary(0.5, 0.5), bz_elementary(0.5, 0.5)
        assert components == (1.0, 0.0, 0.0)

    def test_headline_discontinuity(self):
        # switching from the 3-outcome model at eta = 1 to ideal 2-outcome
        # statistics changes the total from (3/2) log2 3 to exactly 1 bit
        assert ideal_bz_total() == 1.0
        three_outcome = bz_total_closed(1.0)
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
