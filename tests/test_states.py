"""Tests for state containers, Bloch conversions, and Born probabilities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infolab.infospace import Hamiltonian, info_trajectory
from infolab.states import (
    ATOL,
    CANONICAL_TRIAD,
    PAULIS,
    Direction,
    MeasurementTriad,
    ProbDist,
    QubitState,
    X_DIR,
    Y_DIR,
    Z_DIR,
    born_probabilities,
    density_from_bloch,
    named_state,
    random_bloch_vectors,
    random_direction,
    random_directions,
    random_qubit_state,
    random_triad,
)
from infolab.states import _check_prob_rows, _cross

PLUS_X_RHO = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
PLUS_Y_RHO = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex)


class TestProbDist:
    def test_valid(self):
        dist = ProbDist((0.25, 0.75))
        assert dist.n == 2
        assert list(dist) == [0.25, 0.75]

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            ProbDist((0.5, 0.6))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="outside"):
            ProbDist((1.2, -0.2))

    def test_rejects_single_outcome(self):
        with pytest.raises(ValueError, match="outcomes"):
            ProbDist((1.0,))

    def test_tolerates_float_noise(self):
        ProbDist((0.1 + 1e-14, 0.9 - 1e-14))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("probs", [(1e308, 1e308), (np.inf, -np.inf)])
    def test_huge_entries_are_an_error_not_a_warning(self, probs):
        # the entries are range-checked before they are summed, so the sum cannot overflow
        with pytest.raises(ValueError, match="outside"):
            ProbDist(probs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [[0.7, 0.7], [-0.1, 1.1], [np.nan, 0.5], [1e308, 1e308], [0.5, 0.5 + 2e-12]])
    def test_block_check_gives_probdists_message(self, bad):
        rows = np.array([[0.25, 0.75], [0.5, 0.5], bad, [0.7, 0.7], [1.0, 0.0]])
        with pytest.raises(ValueError) as expected:
            ProbDist(bad)
        with pytest.raises(ValueError) as err:
            _check_prob_rows(rows)
        assert str(err.value) == str(expected.value)
        _check_prob_rows(np.delete(rows, [2, 3], axis=0))  # the valid rows pass

    def test_immutable(self):
        dist = ProbDist((0.5, 0.5))
        with pytest.raises(ValueError):
            dist.probs[0] = 0.7


class TestQubitState:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            QubitState(np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            QubitState(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            QubitState(np.diag([1.5, -0.5]))

    def test_purity_flags(self):
        assert named_state("plus-z").is_pure()
        assert not named_state("mixed").is_pure()
        assert named_state("mixed").purity == pytest.approx(0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
        excess=st.floats(-3e-12, 3e-12),
    )
    def test_unit_ball_rule_implies_eigenvalue_rule(self, direction, excess):
        # Hermitian unit-trace matrices on both sides of the positivity boundary
        r = (1.0 + excess) * np.array(direction) / np.linalg.norm(direction)
        smallest = float(np.min(np.linalg.eigvalsh(_rho(r))))  # the eigenvalue rule, as reference
        try:
            QubitState(_rho(r))
        except ValueError:
            assert smallest < 0.0  # no positive matrix is rejected
        else:
            assert smallest >= -ATOL


def _rho(r) -> np.ndarray:
    """(I + r . sigma) / 2, built without density_from_bloch's own check."""
    return 0.5 * (np.eye(2) + np.einsum("k,kij->ij", r, PAULIS))


PRECESSION = Hamiltonian.from_pauli_coefficients((0.3, -0.2, 0.5))
BLOCH_ROUTES = {
    "density_from_bloch": density_from_bloch,
    "QubitState": lambda r: QubitState(_rho(r)),
    "info_trajectory": lambda r: info_trajectory(_rho(r), PRECESSION, CANONICAL_TRIAD, [0.0, 1.0]),
}


ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def raw_density(draw):
    """Hermitian unit-trace 2x2 inside the unit ball, entry by entry, with
    either sign on every zero (so no einsum has shaped it)."""
    a = draw(st.floats(0.3, 0.7))
    x, y = draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))
    return np.array(
        [[complex(a, draw(ZERO)), complex(x, -y)], [complex(x, y), complex(1.0 - a, draw(ZERO))]]
    )


class TestClosedForms:
    """Each closed form is bit for bit the einsum or np.cross it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(raw_density())
    def test_bloch_matches_einsum(self, rho):
        expected = np.real(np.einsum("kij,ji->k", PAULIS, rho))
        assert QubitState(rho).bloch.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-10.0, 10.0)] * 4), ZERO, ZERO)
    def test_pauli_decomposition_matches_einsum(self, entries, zero0, zero1):
        p, w, x, y = entries
        h = Hamiltonian(np.array([[complex(p, zero0), complex(x, -y)], [complex(x, y), complex(w, zero1)]]))
        a0, a = h.pauli_decomposition()
        assert a0 == float(np.real(np.trace(h.matrix))) / 2.0
        assert a.tobytes() == (np.real(np.einsum("kij,ji->k", PAULIS, h.matrix)) / 2.0).tobytes()

    # a subnormal component can flip the sign of a zero imaginary part
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-0.57, 0.57, allow_subnormal=False)] * 3))
    def test_density_from_bloch_matches_einsum(self, r):
        expected = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", np.array(r), PAULIS))
        assert density_from_bloch(r).rho.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-1e3, 1e3)] * 3), st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    def test_cross_matches_numpy(self, p, q):
        # the cross product info_trajectory uses
        assert np.array(_cross(p, q)).tobytes() == np.cross(p, q).tobytes()

    def test_stored_arrays_are_read_only(self):
        rows = random_triad(11).matrix.copy()
        triad = MeasurementTriad(rows)
        assert triad.matrix.tobytes() == rows.tobytes() and rows.flags.writeable  # frozen copy
        state = random_qubit_state(11)
        _, a = Hamiltonian.from_pauli_coefficients((0.3, -0.2, 0.5)).pauli_decomposition()
        for arr in (triad.matrix, state.rho, state.bloch, a):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestUnitBallBound:
    """One bound, |r| <= 1 + ATOL, wherever a Bloch vector enters."""

    @pytest.mark.parametrize("route", sorted(BLOCH_ROUTES))
    def test_accepts_inside_and_rejects_outside(self, route):
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        BLOCH_ROUTES[route]((1.0 + 0.5e-12) * axis)
        with pytest.raises(ValueError, match="unit ball"):
            BLOCH_ROUTES[route]((1.0 + 1.5e-12) * axis)


class TestBlochConversions:
    @pytest.mark.parametrize(
        "rho, expected",
        [
            (np.diag([1.0, 0.0]), (0.0, 0.0, 1.0)),
            (0.5 * np.eye(2), (0.0, 0.0, 0.0)),
            (PLUS_X_RHO, (1.0, 0.0, 0.0)),
        ],
    )
    def test_bloch_from_density_anchors(self, rho, expected):
        np.testing.assert_allclose(QubitState(rho).bloch, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "r, expected_rho",
        [
            ((0.0, 0.0, 0.0), 0.5 * np.eye(2)),
            ((0.0, 0.0, 1.0), np.diag([1.0, 0.0])),
            ((0.0, 1.0, 0.0), PLUS_Y_RHO),
        ],
    )
    def test_density_from_bloch_anchors(self, r, expected_rho):
        np.testing.assert_allclose(density_from_bloch(r).rho, expected_rho, atol=1e-12)

    def test_rejects_vector_outside_ball(self):
        with pytest.raises(ValueError, match="unit ball"):
            density_from_bloch((0.8, 0.8, 0.8))

    def test_roundtrip_on_random_states(self):
        for r in random_bloch_vectors(0, 1000, pure=False):
            state = density_from_bloch(r)
            np.testing.assert_allclose(state.bloch, r, atol=1e-12)
            back = density_from_bloch(state.bloch)
            np.testing.assert_allclose(back.rho, state.rho, atol=1e-12)

    def test_pure_iff_unit_radius(self):
        assert density_from_bloch((0.0, 1.0, 0.0)).is_pure()
        mixed = density_from_bloch((0.0, 0.5, 0.0))
        assert mixed.purity == pytest.approx(0.5 * (1 + 0.25), abs=1e-12)


class TestBornProbabilities:
    @pytest.mark.parametrize(
        "state_name, direction, expected",
        [
            ("plus-z", Z_DIR, (1.0, 0.0)),
            ("mixed", Y_DIR, (0.5, 0.5)),
            ("plus-x", Z_DIR, (0.5, 0.5)),
        ],
    )
    def test_anchors(self, state_name, direction, expected):
        probs = born_probabilities(named_state(state_name), direction).probs
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    @given(seed=st.integers(0, 2**31), dir_seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_normalization(self, seed, dir_seed):
        state = random_qubit_state(seed, pure=False)
        probs = born_probabilities(state, random_direction(dir_seed)).probs
        assert np.all(probs >= -1e-12) and np.all(probs <= 1 + 1e-12)
        assert abs(probs.sum() - 1.0) <= 1e-12


class TestDirectionsAndTriads:
    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match="norm"):
            Direction((1.0, 1.0, 0.0))

    @pytest.mark.parametrize("vec", [(1e200, 0.0, 0.0), (1e154, 1e154, 1e154), (-1e308, 1e308, 0.0)])
    def test_huge_direction_is_an_error_not_a_warning(self, vec):
        # the squared norm of these finite vectors overflows a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="norm"):
                Direction(vec)

    def test_normalized_constructor(self):
        d = Direction.normalized((3.0, 0.0, 4.0))
        np.testing.assert_allclose(d.vec, (0.6, 0.0, 0.8))
        with pytest.raises(ValueError, match="zero"):
            Direction.normalized((0.0, 0.0, 0.0))

    def test_triad_rejects_non_orthogonal(self):
        d = Direction.normalized((1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="orthogonal"):
            MeasurementTriad([X_DIR.vec, d.vec, Z_DIR.vec])

    def test_triad_rejects_left_handed(self):
        with pytest.raises(ValueError, match="right-handed"):
            MeasurementTriad([Y_DIR.vec, X_DIR.vec, Z_DIR.vec])

    def test_canonical_triad_matrix(self):
        rows = np.stack([X_DIR.vec, Y_DIR.vec, Z_DIR.vec])
        assert CANONICAL_TRIAD.matrix.tobytes() == rows.tobytes() == np.eye(3).tobytes()

    def test_hand_typed_slack(self):
        # orthonormality tolerance is looser (1e-10) than the algebraic 1e-12
        v = 0.7071067811865476
        MeasurementTriad.from_matrix([[v, v, 0.0], [-v, v, 0.0], [0.0, 0.0, 1.0]])


class TestRandomSampling:
    def test_deterministic_for_fixed_seed(self):
        a, b = random_qubit_state(7, pure=True), random_qubit_state(7, pure=True)
        np.testing.assert_array_equal(a.rho, b.rho)
        ta, tb = random_triad(7), random_triad(7)
        np.testing.assert_array_equal(ta.matrix, tb.matrix)
        np.testing.assert_array_equal(random_direction(7).vec, random_direction(7).vec)
        for pure in (None, True, False):
            qa, qb = random_qubit_state(7, pure), random_qubit_state(7, pure)
            np.testing.assert_array_equal(qa.rho, qb.rho)

    def test_pure_states_are_pure(self):
        for seed in range(50):
            assert abs(random_qubit_state(seed, pure=True).purity - 1.0) <= 1e-12
            assert abs(np.linalg.norm(random_direction(seed).vec) - 1.0) <= 1e-12
            pure = random_qubit_state(seed, pure=True).bloch
            assert abs(np.linalg.norm(pure) - 1.0) <= 1e-12
            assert np.linalg.norm(random_qubit_state(seed, pure=False).bloch) < 1.0
        pure_radii = np.linalg.norm(random_bloch_vectors(0, 1000, pure=True), axis=1)
        assert np.all(np.abs(pure_radii - 1.0) <= 1e-12)
        assert np.all(np.linalg.norm(random_bloch_vectors(0, 1000, pure=False), axis=1) < 1.0)

    def test_passed_generator_continues_its_stream(self):
        rng = np.random.default_rng(3)
        state = random_qubit_state(rng, pure=False)
        direction = random_direction(rng)
        replay = np.random.default_rng(3)
        vec = replay.normal(size=3)
        radius = replay.random()
        expected = density_from_bloch(radius * (vec / np.linalg.norm(vec)))
        np.testing.assert_array_equal(state.rho, expected.rho)
        vec = replay.normal(size=3)
        np.testing.assert_array_equal(direction.vec, vec / np.linalg.norm(vec))
        # a batch is the same draws, bit for bit, as successive scalar calls
        batch_rng, scalar_rng, replay = (np.random.default_rng(5) for _ in range(3))
        batch = random_directions(batch_rng, 1000)
        scalar = np.array([random_direction(scalar_rng).vec for _ in range(1000)])
        reference = np.array([v / np.linalg.norm(v) for v in replay.normal(size=(1000, 3))])
        assert batch.tobytes() == scalar.tobytes() == reference.tobytes()
        assert batch_rng.random() == scalar_rng.random() == replay.random()

    def test_sphere_uniformity(self):
        # mean Bloch vector of uniform sphere samples concentrates near zero
        mean = random_bloch_vectors(2024, 10_000, pure=True).mean(axis=0)
        assert np.linalg.norm(mean) < 0.05

    def test_triads_are_valid_and_cover_orientations(self):
        z_components = [random_triad(seed).matrix[0, 2] for seed in range(200)]
        assert min(z_components) < -0.5 and max(z_components) > 0.5


class TestNamedStates:
    @pytest.mark.parametrize(
        "name, bloch",
        [
            ("plus-x", (1, 0, 0)),
            ("minus-y", (0, -1, 0)),
            ("plus-z", (0, 0, 1)),
            ("mixed", (0, 0, 0)),
        ],
    )
    def test_lookup(self, name, bloch):
        np.testing.assert_allclose(named_state(name).bloch, bloch, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown state"):
            named_state("sideways")
