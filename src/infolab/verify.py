"""Self-contained invariant suite behind the ``infolab verify`` subcommand.

Each check re-derives one of the library's contractual properties from
scratch (independent oracles where one exists) and either passes or raises
AssertionError (or a validating type's ValueError) with a diagnostic.
Randomized checks draw from a single seeded generator, so a run is
reproducible from its seed.  Acceptance criteria 4-8 call these checks with
their own seeds and runtime budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import efficiency as eff
from . import entanglement as ent
from .infospace import (
    Hamiltonian,
    conservation_check,
    evolve,
    info_vector,
    rotate_triad,
    rotation_matrix,
    total_information,
)
from .measures import bz_elementary, bz_measure, shannon
from .states import (
    CANONICAL_TRIAD,
    IDENTITY2,
    PAULIS,
    Direction,
    ProbDist,
    born_probabilities,
    density_from_bloch,
    random_direction,
    random_pure_state,
    random_qubit_state,
    random_triad,
)

DEFAULT_SEED = 42


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str


def _random_hamiltonian(rng) -> Hamiltonian:
    coeffs = rng.normal(size=3) * 2.0
    h = Hamiltonian.from_pauli_coefficients(coeffs)
    offset = float(rng.normal())  # trace part; must not affect any state
    return Hamiltonian(h.matrix + offset * np.eye(2))


def _simplex_grid(step: float = 0.01) -> np.ndarray:
    """All points of the n=3 probability simplex on a uniform grid."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    p1, p2 = np.meshgrid(ticks, ticks, indexing="ij")
    p3 = 1.0 - p1 - p2
    mask = p3 > -1e-9
    return np.stack([p1[mask], p2[mask], np.clip(p3[mask], 0.0, 1.0)], axis=1)


def find_ordering_witness(step: float = 0.01, margin: float = 1e-6):
    """Brute-force search for distributions p, q on the n=3 simplex with
    shannon(p) < shannon(q) but also bz(p) < bz(q).

    Since Shannon measures uncertainty and the quadratic measure measures
    information, an agreeing pair would have the orderings opposed; a pair
    with both orderings aligned is a witness that the two measures rank
    distributions differently.  Returns (p, q) or None.
    """
    grid = _simplex_grid(step)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(grid > 0.0, np.log2(np.where(grid > 0.0, grid, 1.0)), 0.0)
    h = -np.sum(grid * logs, axis=1)
    i = (3.0 * np.log2(3.0) / 2.0) * np.sum((grid - 1.0 / 3.0) ** 2, axis=1)
    order = np.argsort(h, kind="stable")
    h_sorted, i_sorted = h[order], i[order]
    # a witness pair exists iff some later (higher-H) point also has higher I
    running_min = np.minimum.accumulate(i_sorted)
    candidates = np.nonzero(
        (i_sorted[1:] > running_min[:-1] + margin)
        & (h_sorted[1:] > h_sorted[0] + margin)
    )[0]
    for pos in candidates:
        j = pos + 1
        earlier = np.nonzero(
            (h_sorted[:j] < h_sorted[j] - margin) & (i_sorted[:j] < i_sorted[j] - margin)
        )[0]
        if earlier.size:
            p = grid[order[earlier[0]]]
            q = grid[order[j]]
            return tuple(p.tolist()), tuple(q.tolist())
    return None


def check_born_probability_bounds(rng) -> str:
    for _ in range(1000):
        probs = born_probabilities(random_qubit_state(rng), random_direction(rng)).probs
        assert np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)
        assert abs(probs.sum() - 1.0) <= 1e-12
    return "1000 state/direction pairs"


def check_bloch_roundtrip(rng) -> str:
    worst = 0.0
    for _ in range(1000):
        state = random_qubit_state(rng)
        back = density_from_bloch(state.bloch)
        worst = max(worst, float(np.max(np.abs(back.rho - state.rho))))
    assert worst <= 1e-12, f"round-trip error {worst:.3e}"
    return f"1000 states, worst {worst:.2e}"


def check_pure_state_certainty(rng) -> str:
    for _ in range(200):
        state = random_pure_state(rng)
        probs = born_probabilities(state, Direction(state.bloch)).probs
        assert abs(probs[0] - 1.0) <= 1e-12 and abs(probs[1]) <= 1e-12
    return "200 pure states report certainty along their own axis"


def check_measure_bounds(rng) -> str:
    for n in (2, 3, 4, 8):
        cap = np.log2(n)
        dirichlet = rng.dirichlet(np.ones(n), size=10_000)
        for probs in dirichlet:
            dist = ProbDist(probs)  # validated once, shared by both measures
            h = shannon(dist)
            i = bz_measure(dist)
            assert -1e-12 <= h <= cap + 1e-12, f"shannon {h} out of range, n={n}"
            assert -1e-12 <= i <= cap + 1e-12, f"bz {i} out of range, n={n}"
    return "10^4 distributions per n in {2, 3, 4, 8}"


def check_measure_extremes(rng) -> str:
    for n in (2, 3, 4, 8):
        cap = np.log2(n)
        for hot in range(n):
            point = np.zeros(n)
            point[hot] = 1.0
            assert abs(bz_measure(point) - cap) <= 1e-12
            assert shannon(point) == 0.0
        uniform = np.full(n, 1.0 / n)
        assert abs(bz_measure(uniform)) <= 1e-12
        assert abs(shannon(uniform) - cap) <= 1e-12
        # strict interior: neither extreme is attained
        interior = rng.dirichlet(np.ones(n) * 5.0)
        if np.max(interior) < 1.0 - 1e-6 and np.ptp(interior) > 1e-6:
            assert 0.0 < bz_measure(interior) < cap
            assert 0.0 < shannon(interior) < cap
    return "certainty <-> maximal bz <-> zero shannon on boundary cases"


def check_bz_elementary_identity(rng) -> str:
    worst = 0.0
    for _ in range(1000):
        p1 = float(rng.random())
        pair = (p1, 1.0 - p1)
        worst = max(worst, abs(bz_elementary(*pair) - bz_measure(pair)))
    assert worst <= 1e-14, f"identity violated by {worst:.3e}"
    return f"1000 pairs, worst gap {worst:.2e}"


def check_ordering_witness(rng) -> str:
    witness = find_ordering_witness()
    assert witness is not None, "no ordering disagreement found on the grid"
    p, q = witness
    assert shannon(p) < shannon(q) and bz_measure(p) < bz_measure(q)
    return f"p={tuple(round(v, 2) for v in p)} q={tuple(round(v, 2) for v in q)}"


def check_triad_rotation_invariance(rng) -> str:
    worst = 0.0
    for _ in range(1000):
        state = random_qubit_state(rng)
        triad = random_triad(rng)
        rotated = rotate_triad(triad, random_direction(rng), float(rng.uniform(0, 2 * np.pi)))
        before = total_information(info_vector(state, triad))
        after = total_information(info_vector(state, rotated))
        worst = max(worst, abs(after - before))
    assert worst < 1e-10, f"invariance violated by {worst:.3e}"
    return f"1000 state/rotation pairs, worst drift {worst:.2e}"


def check_unitary_conservation(rng) -> str:
    times = np.linspace(0.0, 10.0, 50)
    worst = 0.0
    for _ in range(100):
        state = random_qubit_state(rng)
        h = _random_hamiltonian(rng)
        report = conservation_check(state, h, CANONICAL_TRIAD, times)
        worst = max(worst, report.max_drift)
        if state.is_pure():
            gap = float(np.max(np.abs(report.i_total_values - 1.0)))
            assert gap <= 1e-12, f"pure state total information left 1 by {gap:.3e}"
    assert worst < 1e-10, f"conservation violated by {worst:.3e}"
    return f"100 trajectories x 50 times, worst drift {worst:.2e}"


def check_picture_agreement(rng) -> str:
    """Evolving the state matches counter-rotating the triad."""
    worst = 0.0
    for _ in range(100):
        state = random_qubit_state(rng)
        coeffs = rng.normal(size=3)
        h = Hamiltonian.from_pauli_coefficients(coeffs)
        t = float(rng.uniform(0.0, 5.0))
        norm = float(np.linalg.norm(coeffs))
        if norm < 1e-6:
            continue
        axis = Direction(coeffs / norm)
        evolved = info_vector(evolve(state, h, t), CANONICAL_TRIAD).as_array()
        counter = info_vector(
            state, rotate_triad(CANONICAL_TRIAD, axis, -2.0 * norm * t)
        ).as_array()
        worst = max(worst, float(np.max(np.abs(evolved - counter))))
    assert worst <= 1e-10, f"pictures disagree by {worst:.3e}"
    return f"100 evolutions, worst component gap {worst:.2e}"


def check_total_information_radius(rng) -> str:
    worst = 0.0
    for _ in range(1000):
        state = random_qubit_state(rng)
        triad = random_triad(rng)
        total = total_information(info_vector(state, triad))
        radius_sq = float(np.dot(state.bloch, state.bloch))
        worst = max(worst, abs(total - radius_sq))
    assert worst <= 1e-12, f"radius identity violated by {worst:.3e}"
    return f"1000 state/triad pairs, worst gap {worst:.2e}"


def check_efficiency_oracle_equivalence(rng) -> str:
    worst = eff.ratio_sweep(0.0, 1.0, 1001).validate()
    return f"1001 grid points, worst gap {worst:.2e}"


def check_efficiency_hy_identity(rng) -> str:
    worst = 0.0
    for eta in np.linspace(0.0, 1.0, 1001):
        hx, hy, hz = eff.shannon_components(eff.EfficiencyModel(float(eta)))
        worst = max(worst, abs(hy - hz), abs(hy - (hx + eta)))
    assert worst <= 1e-12, f"Hy = Hx + eta violated by {worst:.3e}"
    return f"1001 grid points, worst gap {worst:.2e}"


def check_efficiency_ratio_sign(rng) -> str:
    lo, hi = eff.thresholds()
    for region, expect_above in (((0.0, lo), True), ((lo, hi), False), ((hi, 1.0), True)):
        etas = np.linspace(region[0], region[1], 102)[1:-1]
        for eta in etas:
            ratio = eff.bz_total_closed(eff.EfficiencyModel(float(eta))) / eff.K_THREE
            if expect_above:
                assert ratio > 1.0, f"ratio {ratio} not above 1 at eta={eta}"
            else:
                assert ratio <= 1.0, f"ratio {ratio} above 1 at eta={eta}"
    return "100 interior points per region"


def check_efficiency_monotonicity(rng) -> str:
    down = [eff.bz_total_closed(eff.EfficiencyModel(float(e))) for e in np.linspace(0.0, 0.6, 200)]
    up = [eff.bz_total_closed(eff.EfficiencyModel(float(e))) for e in np.linspace(0.6, 1.0, 200)]
    assert all(b < a for a, b in zip(down, down[1:])), "not decreasing on [0, 0.6]"
    assert all(b > a for a, b in zip(up, up[1:])), "not increasing on [0.6, 1]"
    return "strictly decreasing then increasing around the eta = 0.6 vertex"


def check_ideal_mode_discontinuity(rng) -> str:
    ideal = eff.ideal_bz_total()
    limit = eff.bz_total_closed(eff.EfficiencyModel(1.0))
    assert ideal == 1.0
    assert abs(limit - 1.5 * eff.K_THREE) <= 1e-12
    assert abs(limit - ideal) > 1.0
    return f"two-outcome total {ideal} vs three-outcome total {limit:.6f} at eta = 1"


def check_singlet_anticorrelation(rng) -> str:
    singlet = ent.bell_state("psi-")
    worst = 0.0
    for _ in range(100):
        d = random_direction(rng)
        worst = max(worst, abs(ent.correlation(singlet, d, d) + 1.0))
    assert worst <= 1e-12, f"anticorrelation violated by {worst:.3e}"
    return f"100 random directions, worst gap {worst:.2e}"


def _random_two_qubit_state(rng) -> ent.TwoQubitState:
    """Anisotropic mixture: two random products plus a little singlet."""
    weights = rng.dirichlet(np.ones(3))
    rho = (
        weights[0] * ent.product_state(random_qubit_state(rng), random_qubit_state(rng)).rho
        + weights[1] * ent.product_state(random_qubit_state(rng), random_qubit_state(rng)).rho
        + weights[2] * ent.bell_state("psi-").rho
    )
    return ent.TwoQubitState(rho)


def _su2_from_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    axis_sigma = np.einsum("k,kij->ij", axis, PAULIS)
    return np.cos(angle / 2.0) * IDENTITY2 - 1j * np.sin(angle / 2.0) * axis_sigma


def check_icorr_rotation_invariance(rng) -> str:
    worst = 0.0
    for _ in range(50):
        state = _random_two_qubit_state(rng)
        d1 = random_direction(rng)
        ortho = np.cross(d1.vec, random_direction(rng).vec)
        if np.linalg.norm(ortho) < 1e-6:
            continue
        d2 = Direction(ortho / np.linalg.norm(ortho))
        axis = random_direction(rng)
        angle = float(rng.uniform(0.0, 2 * np.pi))
        rot = rotation_matrix(axis, angle)
        u = _su2_from_rotation(axis.vec, angle)
        rotated_rho = np.kron(u, u) @ state.rho @ np.kron(u, u).conj().T
        rotated = ent.TwoQubitState(0.5 * (rotated_rho + rotated_rho.conj().T))
        before = ent.i_corr(state, d1, d2).total_bits
        after = ent.i_corr(rotated, Direction(rot @ d1.vec), Direction(rot @ d2.vec)).total_bits
        worst = max(worst, abs(after - before))
    assert worst <= 1e-10, f"rotation invariance violated by {worst:.3e}"
    return f"50 rotated scenarios, worst gap {worst:.2e}"


def check_product_state_bound(rng) -> str:
    worst = 0.0
    for _ in range(1000):
        state = ent.product_state(random_qubit_state(rng), random_qubit_state(rng))
        corr = ent.correlation_matrix(state)
        for _ in range(20):
            d1 = random_direction(rng)
            ortho = np.cross(d1.vec, random_direction(rng).vec)
            norm = float(np.linalg.norm(ortho))
            if norm < 1e-9:
                continue
            d2 = ortho / norm
            e1 = float(d1.vec @ corr @ d1.vec)
            e2 = float(d2 @ corr @ d2)
            worst = max(worst, e1 * e1 + e2 * e2)
    assert worst <= 1.0 + 1e-9, f"product state exceeded 1 bit: {worst!r}"
    return f"1000 products x 20 orthogonal pairs, max {worst:.6f}"


def check_product_state_maximizer_bound(rng) -> str:
    worst = 0.0
    for _ in range(100):
        state = ent.product_state(random_qubit_state(rng), random_qubit_state(rng))
        worst = max(worst, ent.max_i_corr(state).total_bits)
    assert worst <= 1.0 + 1e-9, f"maximized product value {worst!r} above 1"
    return f"100 products through the maximizer, max {worst:.6f}"


def check_singlet_max(rng) -> str:
    value = ent.max_i_corr(ent.bell_state("psi-")).total_bits
    assert abs(value - 2.0) <= 1e-6, f"singlet maximum {value!r} != 2"
    return f"max i_corr = {value:.9f}"


def check_werner_crossing(rng) -> str:
    lo, hi = 0.5, 0.9
    assert ent.max_i_corr(ent.werner_state(lo)).total_bits < 1.0
    assert ent.max_i_corr(ent.werner_state(hi)).total_bits > 1.0
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if ent.max_i_corr(ent.werner_state(mid)).total_bits > 1.0:
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    assert abs(crossing - 1.0 / np.sqrt(2.0)) <= 1e-4, f"crossing at {crossing!r}"
    return f"condition flips at w = {crossing:.5f} (expected 0.70711)"


ALL_CHECKS = (
    ("born-probability-bounds", check_born_probability_bounds),
    ("bloch-roundtrip", check_bloch_roundtrip),
    ("pure-state-certainty", check_pure_state_certainty),
    ("measure-bounds", check_measure_bounds),
    ("measure-extremes", check_measure_extremes),
    ("bz-elementary-identity", check_bz_elementary_identity),
    ("ordering-disagreement-witness", check_ordering_witness),
    ("triad-rotation-invariance", check_triad_rotation_invariance),
    ("unitary-conservation", check_unitary_conservation),
    ("picture-agreement", check_picture_agreement),
    ("total-information-radius", check_total_information_radius),
    ("efficiency-oracle-equivalence", check_efficiency_oracle_equivalence),
    ("efficiency-hy-identity", check_efficiency_hy_identity),
    ("efficiency-ratio-sign", check_efficiency_ratio_sign),
    ("efficiency-monotonicity", check_efficiency_monotonicity),
    ("ideal-mode-discontinuity", check_ideal_mode_discontinuity),
    ("singlet-anticorrelation", check_singlet_anticorrelation),
    ("icorr-rotation-invariance", check_icorr_rotation_invariance),
    ("product-state-bound", check_product_state_bound),
    ("product-state-maximizer-bound", check_product_state_maximizer_bound),
    ("singlet-max", check_singlet_max),
    ("werner-crossing", check_werner_crossing),
)


def run_all(seed: int = DEFAULT_SEED) -> list[PropertyCheck]:
    """Run every property check with a fresh generator per check."""
    results = []
    for index, (name, fn) in enumerate(ALL_CHECKS):
        rng = np.random.default_rng(seed + index)
        try:
            detail = fn(rng)
            results.append(PropertyCheck(name=name, passed=True, detail=detail))
        except (AssertionError, ValueError) as exc:
            results.append(PropertyCheck(name=name, passed=False, detail=str(exc)))
    return results
