"""Tests for two-qubit correlation information and the entanglement condition."""

import re

import numpy as np
import pytest

from infolab.entanglement import (
    TwoQubitState,
    bell_state,
    correlation,
    correlation_matrix,
    i_corr,
    info_condition_entangled,
    max_i_corr,
    partial_trace,
    product_state,
    werner_state,
)
from infolab.states import (
    PAULIS,
    Direction,
    X_DIR,
    Y_DIR,
    Z_DIR,
    named_state,
    random_direction,
    random_qubit_state,
)
from infolab.verify import check_icorr_rotation_invariance

SINGLET_RHO = 0.5 * np.array(
    [
        [0, 0, 0, 0],
        [0, 1, -1, 0],
        [0, -1, 1, 0],
        [0, 0, 0, 0],
    ],
    dtype=complex,
)


def mixed_product(rng) -> TwoQubitState:
    first = random_qubit_state(rng, pure=False)
    return product_state(first, random_qubit_state(rng, pure=False))


def correlation_oracle(state, a, b) -> float:
    """Independent route: p_same - p_diff from explicit spin projectors."""
    def projectors(direction):
        sigma = np.einsum("k,kij->ij", direction.vec, PAULIS)
        return 0.5 * (np.eye(2) + sigma), 0.5 * (np.eye(2) - sigma)

    a_plus, a_minus = projectors(a)
    b_plus, b_minus = projectors(b)
    same = np.kron(a_plus, b_plus) + np.kron(a_minus, b_minus)
    diff = np.kron(a_plus, b_minus) + np.kron(a_minus, b_plus)
    rho = state.rho
    return float(np.real(np.trace(rho @ same) - np.trace(rho @ diff)))


class TestBellStates:
    def test_singlet_matches_explicit_matrix(self):
        np.testing.assert_allclose(bell_state("psi-").rho, SINGLET_RHO, atol=1e-15)

    def test_all_four_are_pure(self):
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            assert bell_state(kind).purity == pytest.approx(1.0, abs=1e-12)

    def test_marginals_are_maximally_mixed(self):
        singlet = bell_state("psi-")
        for keep in (0, 1):
            np.testing.assert_allclose(
                partial_trace(singlet, keep).rho, 0.5 * np.eye(2), atol=1e-12
            )

    def test_phi_plus_correlated_along_z(self):
        assert correlation(bell_state("phi+"), Z_DIR, Z_DIR) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("omega")


class TestTwoQubitState:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TwoQubitState(np.eye(4))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            TwoQubitState(np.diag([0.75, 0.75, -0.25, -0.25]))

    def test_partial_trace_keeps_the_named_qubit(self):
        # the factors differ, so tracing out the wrong qubit returns the other one
        first, second = named_state("plus-z"), named_state("plus-x")
        state = product_state(first, second)
        np.testing.assert_allclose(partial_trace(state, 0).rho, first.rho, atol=1e-12)
        np.testing.assert_allclose(partial_trace(state, 1).rho, second.rho, atol=1e-12)

    def test_partial_trace_keep_validation(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(bell_state("psi-"), 2)

    def test_werner_weight_validation(self):
        with pytest.raises(ValueError, match="Werner"):
            werner_state(1.2)


class TestCorrelation:
    def test_product_state_anchors(self):
        upz_upz = product_state(named_state("plus-z"), named_state("plus-z"))
        assert correlation(upz_upz, Z_DIR, Z_DIR) == pytest.approx(1.0, abs=1e-12)
        assert correlation(upz_upz, X_DIR, X_DIR) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_projector_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            state = mixed_product(rng)
            a, b = random_direction(rng), random_direction(rng)
            assert correlation(state, a, b) == pytest.approx(
                correlation_oracle(state, a, b), abs=1e-12
            )

    def test_correlation_matrix_reproduces_pairings(self):
        state = werner_state(0.6)
        corr = correlation_matrix(state)
        np.testing.assert_allclose(corr, -0.6 * np.eye(3), atol=1e-12)
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b = random_direction(rng), random_direction(rng)
            assert float(a.vec @ corr @ b.vec) == pytest.approx(
                correlation(state, a, b), abs=1e-12
            )
        # a product's T = r1 r2^T is not symmetric, so T and its transpose differ
        for _ in range(20):
            product = mixed_product(rng)
            corr = correlation_matrix(product)
            a, b = random_direction(rng), random_direction(rng)
            assert float(a.vec @ corr @ b.vec) == pytest.approx(
                correlation_oracle(product, a, b), abs=1e-12
            )


class TestICorr:
    def test_singlet_carries_two_bits(self):
        result = i_corr(bell_state("psi-"), X_DIR, Y_DIR)
        assert result.total_bits == pytest.approx(2.0, abs=1e-12)
        assert result.info_bits[0] == pytest.approx(1.0, abs=1e-12)

    def test_product_state_anchors(self):
        upz_upz = product_state(named_state("plus-z"), named_state("plus-z"))
        assert i_corr(upz_upz, X_DIR, Y_DIR).total_bits == pytest.approx(0.0, abs=1e-12)
        assert i_corr(upz_upz, Z_DIR, X_DIR).total_bits == pytest.approx(1.0, abs=1e-12)

    def test_parallel_directions_rejected(self):
        upz_upz = product_state(named_state("plus-z"), named_state("plus-z"))
        tilted = Direction.normalized((0.0, 0.1, 1.0))
        for state, d1, d2, overlap in (
            (bell_state("psi-"), X_DIR, X_DIR, "1.0"),
            (bell_state("psi-"), X_DIR, Direction((-1.0, 0.0, 0.0)), "1.0"),
            # a non-orthogonal pair would put this product state near 2 bits
            (upz_upz, Z_DIR, tilted, "0.9950371902099893"),
        ):
            message = f"d1 and d2 must be orthogonal, got |d1.d2| = {overlap}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                i_corr(state, d1, d2)

    def test_nearly_parallel_refused(self):
        # one rule, the triad's orthogonality tolerance: 1e-11 passes, 1e-9 does not
        singlet = bell_state("psi-")
        accepted = i_corr(singlet, X_DIR, Direction.normalized((1e-11, 1.0, 0.0)))
        assert accepted.total_bits == pytest.approx(2.0, abs=1e-12)
        for almost in ((1e-9, 1.0, 0.0), (1.0, 1e-5, 0.0)):
            with pytest.raises(ValueError, match="must be orthogonal"):
                i_corr(singlet, X_DIR, Direction.normalized(almost))

    def test_rotation_invariance(self):
        check_icorr_rotation_invariance(np.random.default_rng(19))

    def test_product_states_bounded_by_one_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            state = mixed_product(rng)
            d1 = random_direction(rng)
            ortho = np.cross(d1.vec, random_direction(rng).vec)
            norm = np.linalg.norm(ortho)
            if norm < 1e-9:
                continue
            d2 = Direction(ortho / norm)
            assert i_corr(state, d1, d2).total_bits <= 1.0 + 1e-9


class TestMaxICorr:
    def test_singlet_attains_two(self):
        result = max_i_corr(bell_state("psi-"))
        assert abs(result.total_bits - 2.0) <= 1e-6
        assert abs(float(np.dot(result.d1.vec, result.d2.vec))) <= 1e-9

    def test_aligned_product_attains_one(self):
        state = product_state(named_state("plus-z"), named_state("plus-z"))
        assert max_i_corr(state).total_bits == pytest.approx(1.0, abs=1e-9)

    def test_werner_value_is_two_w_squared(self):
        # analytic: E(d, d) = -w for every direction, so i_corr = 2 w^2;
        # cross-checked against the full matrix computation
        for w in (0.0, 0.3, 0.5, 1 / np.sqrt(2), 0.9, 1.0):
            result = max_i_corr(werner_state(w))
            assert result.total_bits == pytest.approx(2.0 * w * w, abs=1e-9)

    def test_deterministic(self):
        a = max_i_corr(werner_state(0.8))
        b = max_i_corr(werner_state(0.8))
        assert a.total_bits == b.total_bits
        np.testing.assert_array_equal(a.d1.vec, b.d1.vec)


class TestInfoCondition:
    def test_singlet_is_flagged(self):
        entangled, result = info_condition_entangled(bell_state("psi-"))
        assert entangled and result.total_bits == pytest.approx(2.0, abs=1e-6)

    def test_product_states_are_not_flagged(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = mixed_product(rng)
            entangled, _ = info_condition_entangled(state)
            assert not entangled

    def test_werner_half_not_flagged_despite_entanglement(self):
        # w = 0.5 is entangled (w > 1/3) yet scores only 2 w^2 = 0.5 bits:
        # the condition is sufficient-style, not a separability test
        entangled, result = info_condition_entangled(werner_state(0.5))
        assert not entangled
        assert result.total_bits == pytest.approx(0.5, abs=1e-9)

    def test_werner_crossing_near_inverse_sqrt2(self):
        assert info_condition_entangled(werner_state(0.72))[0]
        assert not info_condition_entangled(werner_state(0.70))[0]
