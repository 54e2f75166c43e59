"""Self-contained invariant suite behind the ``infolab verify`` subcommand.

Each check re-derives one of the library's contractual properties from
scratch (independent oracles where one exists) and either passes or raises
AssertionError (or a validating type's ValueError) with a diagnostic.
Each randomized check draws from its own generator, seeded from the pair
(seed, check name): a check's draws depend on those two only, so adding,
removing or reordering checks changes no other check's result, and check
names must be unique.  Acceptance criteria 4-8 call these checks with their
own seeds and runtime budgets.  The measure checks hold a whole block of
distributions to ``ProbDist``'s rules once, then call the measures' kernels.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import efficiency as eff
from . import entanglement as ent
from .infospace import (
    Hamiltonian,
    _su2,
    conservation_check,
    evolve,
    info_vector,
    rotate_triad,
    rotation_matrix,
    total_information,
)
from .measures import _bz_rows, _shannon_rows, bz_elementary, bz_measure, shannon
from .states import (
    CANONICAL_TRIAD,
    Direction,
    _check_prob_rows,
    born_probabilities,
    density_from_bloch,
    random_bloch_vectors,
    random_direction,
    random_directions,
    random_qubit_state,
    random_triad,
)

DEFAULT_SEED = 42
_GRID_STEP = 0.01  # of the simplex grid searched for an ordering witness
_WITNESS_MARGIN = 1e-6  # by which a witness's orderings must hold


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


def _simplex_grid() -> np.ndarray:
    """All points of the n=3 probability simplex on a uniform grid."""
    ticks = np.arange(0.0, 1.0 + _GRID_STEP / 2, _GRID_STEP)
    p1, p2 = np.meshgrid(ticks, ticks, indexing="ij")
    p3 = 1.0 - p1 - p2
    mask = p3 > -1e-9
    return np.stack([p1[mask], p2[mask], np.clip(p3[mask], 0.0, 1.0)], axis=1)


def find_ordering_witness():
    """Brute-force search for distributions p, q on the n=3 simplex with
    shannon(p) < shannon(q) but also bz(p) < bz(q), both by more than 1e-6.

    Since Shannon measures uncertainty and the quadratic measure measures
    information, an agreeing pair would have the orderings opposed; a pair
    with both orderings aligned is a witness that the two measures rank
    distributions differently.  Returns (p, q) or None.
    """
    grid = _simplex_grid()
    h, i = _shannon_rows(grid), _bz_rows(grid)
    order = np.argsort(h, kind="stable")
    h_sorted, i_sorted = h[order], i[order]
    # a witness pair exists iff some later (higher-H) point also has higher I
    running_min = np.minimum.accumulate(i_sorted)
    candidates = np.nonzero(
        (i_sorted[1:] > running_min[:-1] + _WITNESS_MARGIN)
        & (h_sorted[1:] > h_sorted[0] + _WITNESS_MARGIN)
    )[0]
    for pos in candidates:
        j = pos + 1
        earlier = np.nonzero(
            (h_sorted[:j] < h_sorted[j] - _WITNESS_MARGIN)
            & (i_sorted[:j] < i_sorted[j] - _WITNESS_MARGIN)
        )[0]
        if earlier.size:
            p = grid[order[earlier[0]]]
            q = grid[order[j]]
            return tuple(p.tolist()), tuple(q.tolist())
    return None


def check_born_probability_bounds(rng) -> str:
    blochs, directions = random_bloch_vectors(rng, 1000), random_directions(rng, 1000)
    for r, d in zip(blochs, directions):
        probs = born_probabilities(density_from_bloch(r), d).probs
        assert np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)
        assert abs(probs.sum() - 1.0) <= 1e-12
    return "1000 state/direction pairs"


def check_bloch_roundtrip(rng) -> str:
    worst = 0.0
    for r in random_bloch_vectors(rng, 1000):
        state = density_from_bloch(r)
        back = density_from_bloch(state.bloch)
        worst = max(worst, float(np.max(np.abs(back.rho - state.rho))))
    assert worst <= 1e-12, f"round-trip error {worst:.3e}"
    return f"1000 states, worst {worst:.2e}"


def check_pure_state_certainty(rng) -> str:
    for r in random_bloch_vectors(rng, 200, pure=True):
        state = density_from_bloch(r)
        probs = born_probabilities(state, Direction(state.bloch)).probs
        assert abs(probs[0] - 1.0) <= 1e-12 and abs(probs[1]) <= 1e-12
    return "200 pure states report certainty along their own axis"


def check_measure_bounds(rng) -> str:
    for n in (2, 3, 4, 8):
        cap = np.log2(n)
        dirichlet = rng.dirichlet(np.ones(n), size=10_000)
        _check_prob_rows(dirichlet)  # validated once, shared by both measures
        for name, values in (("shannon", _shannon_rows(dirichlet)), ("bz", _bz_rows(dirichlet))):
            excess = np.maximum(-values, values - cap)
            worst = int(np.argmax(excess))  # the first NaN, if any, which fails too
            assert excess[worst] <= 1e-12, f"{name} {values[worst]} out of range, n={n}"
    return "10^4 distributions per n in {2, 3, 4, 8}"


def check_measure_extremes(rng) -> str:
    for n in (2, 3, 4, 8):
        cap = np.log2(n)
        certain = np.eye(n)  # one certain outcome per row
        assert np.all(np.abs(_bz_rows(certain) - cap) <= 1e-12)
        assert np.all(_shannon_rows(certain) == 0.0)
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
    for r in random_bloch_vectors(rng, 1000):
        state = density_from_bloch(r)
        triad = random_triad(rng)
        total = total_information(info_vector(state, triad))
        radius_sq = float(np.dot(state.bloch, state.bloch))
        worst = max(worst, abs(total - radius_sq))
    assert worst <= 1e-12, f"radius identity violated by {worst:.3e}"
    return f"1000 state/triad pairs, worst gap {worst:.2e}"


def check_efficiency_oracle_equivalence(rng) -> str:
    worst = eff.ratio_sweep(0.0, 1.0, 1001).validate()
    return f"1001 grid points, worst gap {worst:.2e}"


def check_efficiency_ratio_sign(rng) -> str:
    lo, hi = eff.thresholds()
    regions = ((0.0, lo, True), (lo, hi, False), (hi, 1.0, True))
    etas = np.concatenate([np.linspace(a, b, 102)[1:-1] for a, b, _ in regions])
    above = np.repeat([expect for _, _, expect in regions], 100)
    ratio = eff._closed_forms(etas)[2] / eff.K_THREE
    wrong = np.flatnonzero(~np.where(above, ratio > 1.0, ratio <= 1.0))  # NaN is wrong
    if wrong.size:
        i = int(wrong[0])
        side = "not above" if above[i] else "above"
        raise AssertionError(f"ratio {float(ratio[i])} {side} 1 at eta={etas[i]}")
    return "100 interior points per region"


def check_efficiency_monotonicity(rng) -> str:
    grid = np.concatenate([np.linspace(0.0, 0.6, 200), np.linspace(0.6, 1.0, 200)])
    totals = eff._closed_forms(grid)[2]
    down, up = totals[:200], totals[200:]
    assert np.all(down[1:] < down[:-1]), "not decreasing on [0, 0.6]"
    assert np.all(up[1:] > up[:-1]), "not increasing on [0.6, 1]"
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
    for d in random_directions(rng, 100):
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
        u = _su2(axis.vec, angle / 2.0)
        rotated_rho = np.kron(u, u) @ state.rho @ np.kron(u, u).conj().T
        rotated = ent.TwoQubitState(0.5 * (rotated_rho + rotated_rho.conj().T))
        before = ent.i_corr(state, d1, d2).total_bits
        after = ent.i_corr(rotated, Direction(rot @ d1.vec), Direction(rot @ d2.vec)).total_bits
        worst = max(worst, abs(after - before))
    assert worst <= 1e-10, f"rotation invariance violated by {worst:.3e}"
    return f"50 rotated scenarios, worst gap {worst:.2e}"


def check_product_state_bound(rng) -> str:
    pairs = random_bloch_vectors(rng, 2000).reshape(1000, 2, 3)
    corrs = np.stack([
        ent.correlation_matrix(ent.product_state(density_from_bloch(a), density_from_bloch(b)))
        for a, b in pairs
    ])
    d1, other = random_directions(rng, 40_000).reshape(2, 1000, 20, 3)
    ortho = np.cross(d1, other)
    norms = np.linalg.norm(ortho, axis=-1)
    kept = norms >= 1e-9
    d2 = ortho / np.where(kept, norms, 1.0)[..., None]
    e1 = np.einsum("pki,pij,pkj->pk", d1, corrs, d1)
    e2 = np.einsum("pki,pij,pkj->pk", d2, corrs, d2)
    worst = float(np.max(e1 * e1 + e2 * e2, where=kept, initial=0.0))
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
    """Run every property check, each with a fresh generator keyed by
    (seed, check name), so no check's draws depend on the others."""
    results = []
    for name, fn in ALL_CHECKS:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        try:
            detail = fn(rng)
            results.append(PropertyCheck(name=name, passed=True, detail=detail))
        except (AssertionError, ValueError) as exc:
            results.append(PropertyCheck(name=name, passed=False, detail=str(exc)))
    return results
