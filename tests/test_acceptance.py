"""Acceptance suite: one test per exit criterion, each at its stated tolerance
and runtime budget, printing a PASS/FAIL line (visible with ``pytest -s`` or
in captured output).

Criteria 4-8 reach their properties through the ``infolab.verify`` check
functions, called with the criteria's own seeds and budgets, so each
property has one implementation.

Run with ``python3 -m pytest tests/test_acceptance.py -v``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from infolab.efficiency import (
    K_THREE,
    _closed_forms,
    outcome_probabilities,
    ratio_sweep,
    thresholds,
)
from infolab.entanglement import bell_state, i_corr
from infolab.measures import bz_measure, shannon
from infolab.states import X_DIR, Y_DIR
from infolab.verify import (
    check_measure_bounds,
    check_ordering_witness,
    check_product_state_maximizer_bound,
    check_triad_rotation_invariance,
    check_unitary_conservation,
    check_werner_crossing,
)

FIXTURE = Path(__file__).parent / "data" / "ordering_witness.json"


def _criterion(name: str, budget_s: float, body) -> None:
    start = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    if failure is not None:
        print(f"FAIL {name}: {failure}")
        raise failure
    if elapsed > budget_s:
        print(f"FAIL {name}: runtime {elapsed:.3f}s exceeds budget {budget_s}s")
        raise AssertionError(f"{name} exceeded runtime budget ({elapsed:.3f}s > {budget_s}s)")
    print(f"PASS {name} [{elapsed:.3f}s / budget {budget_s}s]")


def test_criterion_1_thresholds():
    def body():
        start = time.perf_counter()
        lo, hi = thresholds()
        elapsed = time.perf_counter() - start
        assert elapsed < 1e-3, f"thresholds took {elapsed * 1e3:.3f} ms"
        root = math.sqrt(21.0)
        assert abs(lo - (9.0 - root) / 15.0) <= 1e-9
        assert abs(hi - (9.0 + root) / 15.0) <= 1e-9
        assert round(lo, 2) == 0.29
        assert round(hi, 2) == 0.91

    _criterion("criterion-1-threshold-reproduction", 1e-2, body)


def test_criterion_2_figure1():
    def body():
        lo, hi = thresholds()
        table = ratio_sweep(0.0, 1.0, 201)  # the data behind the ratio figure
        assert len(table) == 201 and table.eta[0] == 0.0 and table.eta[-1] == 1.0
        for eta, ratio in zip(table.eta, table.ratio):
            closed_form = (1.5 * math.log2(3.0)) * (5 * eta * eta - 6 * eta + 2) / K_THREE
            assert abs(ratio - closed_form) <= 1e-12, f"closed form mismatch at {eta}"
            oracle = sum(bz_measure(d) for d in outcome_probabilities(eta)) / K_THREE
            assert abs(ratio - oracle) <= 1e-12, f"generic oracle mismatch at {eta}"
            outside = eta < lo or eta > hi
            assert (ratio > 1.0) == outside, f"sign pattern broken at {eta}"

    _criterion("criterion-2-figure1-reproduction", 0.1, body)


def test_criterion_3_figure2():
    def body():
        table = ratio_sweep(0.0, 1.0, 201)  # the data behind the Shannon figure
        etas, hx, hy, hz = table.eta, table.hx, table.hy, table.hz
        # H_x peaks at exactly eta = 1/2 with value 1 bit
        assert etas[int(np.argmax(hx))] == 0.5
        assert abs(_closed_forms(0.5)[3] - 1.0) <= 1e-12
        # H_y = H_z peaks at eta = 2/3 with value log2 3
        hy_peak = _closed_forms(2.0 / 3.0)[4]
        assert abs(hy_peak - math.log2(3.0)) <= 1e-12
        assert np.max(hy) <= hy_peak + 1e-12
        assert abs(etas[int(np.argmax(hy))] - 2.0 / 3.0) <= 0.005
        # identity H_y = H_x + eta holds grid-wide
        assert np.max(np.abs(hy - (hx + etas))) <= 1e-12
        assert np.max(np.abs(hy - hz)) <= 1e-12

    _criterion("criterion-3-figure2-reproduction", 0.1, body)


def test_criterion_4_bz_anchors_and_bounds():
    def body():
        assert bz_measure((1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
        assert bz_measure((0.5, 0.5)) == 0.0
        check_measure_bounds(np.random.default_rng(4))

    _criterion("criterion-4-bz-anchors-and-bounds", 0.2, body)


def test_criterion_5_conservation():
    def body():
        check_unitary_conservation(np.random.default_rng(5))

    _criterion("criterion-5-conservation-suite", 0.1, body)


def test_criterion_6_triad_rotation_invariance():
    def body():
        check_triad_rotation_invariance(np.random.default_rng(6))

    _criterion("criterion-6-triad-rotation-invariance", 0.5, body)


def test_criterion_7_entanglement_anchors():
    def body():
        assert abs(i_corr(bell_state("psi-"), X_DIR, Y_DIR).total_bits - 2.0) <= 1e-12
        # 10 x 100 = 1000 random products through the maximizer
        for seed in np.random.SeedSequence(7).spawn(10):
            check_product_state_maximizer_bound(np.random.default_rng(seed))
        check_werner_crossing(np.random.default_rng(7))

    _criterion("criterion-7-entanglement-anchors", 60.0, body)


def test_criterion_8_ordering_witness():
    def body():
        check_ordering_witness(np.random.default_rng(8))
        # the persisted regression fixture must still be a witness
        fixture = json.loads(FIXTURE.read_text())
        fp, fq = fixture["p"], fixture["q"]
        assert shannon(fp) < shannon(fq) - 1e-6
        assert bz_measure(fp) < bz_measure(fq) - 1e-6

    _criterion("criterion-8-ordering-witness", 0.1, body)
