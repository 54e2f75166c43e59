"""Tests for the invariant-suite runner and its CLI wiring."""

import numpy as np
import pytest

import infolab.cli as cli
import infolab.verify as verify
from infolab.measures import bz_measure, shannon
from infolab.verify import PropertyCheck, find_ordering_witness, run_all


def test_full_suite_passes(seed_42_results):
    failed = [check.name for check in seed_42_results if not check.passed]
    assert not failed, f"failing properties: {failed}"
    assert len(seed_42_results) >= 20
    assert all(check.detail for check in seed_42_results)


def test_results_do_not_depend_on_the_other_checks(monkeypatch, seed_42_results):
    names = [name for name, _ in verify.ALL_CHECKS]
    assert len(set(names)) == len(names), "a check's name keys its seed"
    dropped = "product-state-maximizer-bound"  # the slowest check
    reordered = tuple(entry for entry in reversed(verify.ALL_CHECKS) if entry[0] != dropped)
    monkeypatch.setattr(verify, "ALL_CHECKS", reordered)
    expected = {c.name: (c.passed, c.detail) for c in seed_42_results if c.name != dropped}
    assert {c.name: (c.passed, c.detail) for c in run_all(seed=42)} == expected


def test_value_error_is_a_failed_property(monkeypatch):
    def broken(rng):
        raise ValueError("row identity broken")

    monkeypatch.setattr(verify, "ALL_CHECKS", (("broken", broken),))
    assert run_all() == [PropertyCheck("broken", False, "row identity broken")]


def test_find_ordering_witness_margins():
    p, q = find_ordering_witness()
    assert shannon(p) < shannon(q) - 1e-6
    assert bz_measure(p) < bz_measure(q) - 1e-6
    assert abs(sum(p) - 1.0) <= 1e-9 and abs(sum(q) - 1.0) <= 1e-9


@pytest.mark.parametrize("kernel, name", [("_shannon_rows", "shannon"), ("_bz_rows", "bz")])
@pytest.mark.parametrize("excess, shown", [(1.0, "2.0"), (np.nan, "nan")])
def test_measure_bounds_names_the_worst_value(monkeypatch, kernel, name, excess, shown):
    # a kernel one bit above capacity (or NaN) on every row fails at the first n, 2
    monkeypatch.setattr(verify, kernel, lambda rows: np.full(len(rows), np.log2(rows.shape[-1]) + excess))
    with pytest.raises(AssertionError, match=rf"^{name} {shown} out of range, n=2$"):
        verify.check_measure_bounds(np.random.default_rng(0))


class TestVerifyCommand:
    def _patched(self, monkeypatch, results):
        calls = {}

        def fake_run_all(seed):
            calls["seed"] = seed
            return results

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        return calls

    def test_all_pass_exits_zero(self, monkeypatch, capsys):
        results = [PropertyCheck("alpha", True, "ok"), PropertyCheck("beta", True, "fine")]
        calls = self._patched(monkeypatch, results)
        code = cli.parse_and_dispatch(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS alpha: ok" in out and "PASS beta: fine" in out
        assert "2/2 properties passed" in out
        assert calls["seed"] == 42

    def test_failure_exits_one(self, monkeypatch, capsys):
        results = [PropertyCheck("alpha", True, "ok"), PropertyCheck("beta", False, "broke")]
        self._patched(monkeypatch, results)
        code = cli.parse_and_dispatch(["verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL beta: broke" in out
        assert "1/2 properties passed" in out

    def test_seed_flag_reaches_runner(self, monkeypatch, capsys):
        calls = self._patched(monkeypatch, [PropertyCheck("alpha", True, "ok")])
        assert cli.parse_and_dispatch(["--seed", "9", "verify"]) == 0
        capsys.readouterr()
        assert calls["seed"] == 9

    def test_env_seed_reaches_runner(self, monkeypatch, capsys):
        calls = self._patched(monkeypatch, [PropertyCheck("alpha", True, "ok")])
        monkeypatch.setenv("INFOLAB_SEED", "31415")
        assert cli.parse_and_dispatch(["verify"]) == 0
        capsys.readouterr()
        assert calls["seed"] == 31415
