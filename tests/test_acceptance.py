"""Acceptance suite: one test per exit criterion, each at its stated tolerance
and runtime budget, printing a PASS/FAIL line (visible with ``pytest -s`` or
in captured output).

Run with ``python3 -m pytest tests/test_acceptance.py -v``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from infolab.efficiency import (
    EfficiencyModel,
    K_THREE,
    outcome_probabilities,
    ratio_sweep,
    shannon_components,
    thresholds,
)
from infolab.entanglement import bell_state, max_i_corr, i_corr, product_state, werner_state
from infolab.infospace import (
    Hamiltonian,
    conservation_check,
    info_vector,
    rotate_triad,
    total_information,
)
from infolab.measures import bz_measure, shannon
from infolab.states import (
    CANONICAL_TRIAD,
    Direction,
    X_DIR,
    Y_DIR,
    density_from_bloch,
    random_triad,
)
from infolab.verify import find_ordering_witness

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


def _random_direction(rng) -> Direction:
    vec = rng.normal(size=3)
    return Direction(vec / np.linalg.norm(vec))


def _random_state(rng, pure: bool):
    direction = _random_direction(rng).vec
    return density_from_bloch(direction if pure else float(rng.random()) * direction)


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
            model = EfficiencyModel(float(eta))
            oracle = sum(bz_measure(d) for d in outcome_probabilities(model)) / K_THREE
            assert abs(ratio - oracle) <= 1e-12, f"generic oracle mismatch at {eta}"
            outside = eta < lo or eta > hi
            assert (ratio > 1.0) == outside, f"sign pattern broken at {eta}"

    _criterion("criterion-2-figure1-reproduction", 1.0, body)


def test_criterion_3_figure2():
    def body():
        table = ratio_sweep(0.0, 1.0, 201)  # the data behind the Shannon figure
        etas, hx, hy, hz = table.eta, table.hx, table.hy, table.hz
        # H_x peaks at exactly eta = 1/2 with value 1 bit
        assert etas[int(np.argmax(hx))] == 0.5
        assert abs(shannon_components(EfficiencyModel(0.5))[0] - 1.0) <= 1e-12
        # H_y = H_z peaks at eta = 2/3 with value log2 3
        hy_peak = shannon_components(EfficiencyModel(2.0 / 3.0))[1]
        assert abs(hy_peak - math.log2(3.0)) <= 1e-12
        assert np.max(hy) <= hy_peak + 1e-12
        assert abs(etas[int(np.argmax(hy))] - 2.0 / 3.0) <= 0.005
        # identity H_y = H_x + eta holds grid-wide
        assert np.max(np.abs(hy - (hx + etas))) <= 1e-12
        assert np.max(np.abs(hy - hz)) <= 1e-12

    _criterion("criterion-3-figure2-reproduction", 1.0, body)


def test_criterion_4_bz_anchors_and_bounds():
    def body():
        assert bz_measure((1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
        assert bz_measure((0.5, 0.5)) == 0.0
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 8):
            cap = math.log2(n)
            for probs in rng.dirichlet(np.ones(n), size=10_000):
                value = bz_measure(probs)
                assert -1e-12 <= value <= cap + 1e-12, f"bound violated: {value}, n={n}"

    _criterion("criterion-4-bz-anchors-and-bounds", 5.0, body)


def test_criterion_5_conservation():
    def body():
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 10.0, 50)
        worst_drift = 0.0
        for trial in range(100):
            pure = trial % 2 == 0
            state = _random_state(rng, pure=pure)
            h = Hamiltonian.from_pauli_coefficients(rng.normal(size=3) * 2.0)
            report = conservation_check(state, h, CANONICAL_TRIAD, times)
            worst_drift = max(worst_drift, report.max_drift)
            if pure:
                assert np.max(np.abs(report.i_total_values - 1.0)) <= 1e-12, (
                    "pure state total information left 1"
                )
        assert worst_drift < 1e-10, f"drift {worst_drift:.3e}"

    _criterion("criterion-5-conservation-suite", 1.0, body)


def test_criterion_6_triad_rotation_invariance():
    def body():
        rng = np.random.default_rng(6)
        worst = 0.0
        for trial in range(1000):
            state = _random_state(rng, pure=bool(rng.random() < 0.5))
            triad = random_triad(rng)
            rotated = rotate_triad(
                triad, _random_direction(rng), float(rng.uniform(0.0, 2.0 * np.pi))
            )
            before = total_information(info_vector(state, triad))
            after = total_information(info_vector(state, rotated))
            worst = max(worst, abs(after - before))
        assert worst < 1e-10, f"invariance violated by {worst:.3e}"

    _criterion("criterion-6-triad-rotation-invariance", 5.0, body)


def test_criterion_7_entanglement_anchors():
    def body():
        assert abs(i_corr(bell_state("psi-"), X_DIR, Y_DIR).total_bits - 2.0) <= 1e-12
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            state = product_state(
                _random_state(rng, pure=bool(rng.random() < 0.5)),
                _random_state(rng, pure=bool(rng.random() < 0.5)),
            )
            worst = max(worst, max_i_corr(state).total_bits)
        assert worst <= 1.0 + 1e-9, f"product state reached {worst!r}"
        # locate the w where max i_corr crosses 1 bit
        lo, hi = 0.5, 0.9
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if max_i_corr(werner_state(mid)).total_bits > 1.0:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert abs(crossing - 1.0 / math.sqrt(2.0)) <= 1e-4, f"crossing {crossing!r}"

    _criterion("criterion-7-entanglement-anchors", 60.0, body)


def test_criterion_8_ordering_witness():
    def body():
        witness = find_ordering_witness(step=0.01)
        assert witness is not None, "grid search found no ordering disagreement"
        p, q = witness
        assert shannon(p) < shannon(q) and bz_measure(p) < bz_measure(q)
        # the persisted regression fixture must still be a witness
        fixture = json.loads(FIXTURE.read_text())
        fp, fq = fixture["p"], fixture["q"]
        assert shannon(fp) < shannon(fq) - 1e-6
        assert bz_measure(fp) < bz_measure(fq) - 1e-6

    _criterion("criterion-8-ordering-witness", 10.0, body)
