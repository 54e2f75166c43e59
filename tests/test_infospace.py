"""Tests for information vectors, triad rotations, and unitary evolution."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infolab.entanglement import TwoQubitState
from infolab.infospace import (
    ConservationReport,
    Hamiltonian,
    InfoVector,
    _su2,
    _totals,
    conservation_check,
    evolve,
    evolve_euler,
    info_trajectory,
    info_vector,
    rotate_triad,
    rotation_matrix,
    total_information,
)
from infolab.states import (
    CANONICAL_TRIAD,
    PAULIS,
    Direction,
    MeasurementTriad,
    ProbDist,
    QubitState,
    Y_DIR,
    Z_DIR,
    born_probabilities,
    density_from_bloch,
    named_state,
    random_directions,
    random_qubit_state,
    random_triad,
)


def random_hamiltonian(seed):
    rng = np.random.default_rng(seed)
    return Hamiltonian.from_pauli_coefficients(rng.normal(size=3) * 2.0)


class TestInfoVector:
    def test_spin_up_z_canonical(self):
        iv = info_vector(named_state("plus-z"), CANONICAL_TRIAD)
        assert (iv.i1, iv.i2, iv.i3) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_maximally_mixed_any_triad(self):
        for seed in range(10):
            iv = info_vector(named_state("mixed"), random_triad(seed))
            assert iv.as_array() == pytest.approx(np.zeros(3), abs=1e-12)

    def test_rotated_triad_hand_computation(self):
        # rotating the canonical triad by +90 deg about y maps x -> -z, so
        # the first component picks up -1 against a spin-up-z state
        triad = rotate_triad(CANONICAL_TRIAD, Y_DIR, np.pi / 2)
        iv = info_vector(named_state("plus-z"), triad)
        assert (iv.i1, iv.i2, iv.i3) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-12)

    def test_matches_bloch_in_triad_basis(self):
        state = random_qubit_state(5)
        triad = random_triad(5)
        np.testing.assert_allclose(
            info_vector(state, triad).as_array(), triad.matrix @ state.bloch, atol=1e-12
        )

    def test_each_component_is_the_born_difference(self):
        # the Born route, bit for bit: p+ - p- along each direction, with d.r from np.dot
        rng = np.random.default_rng(31)
        for _ in range(300):
            state, triad = random_qubit_state(rng), random_triad(rng)
            iv = info_vector(state, triad)
            for comp, d in zip((iv.i1, iv.i2, iv.i3), triad.matrix):
                probs = born_probabilities(state, d).probs
                overlap = np.dot(d, state.bloch)
                assert comp == probs[0] - probs[1] == 0.5 * (1.0 + overlap) - 0.5 * (1.0 - overlap)

    def test_component_validation(self):
        with pytest.raises(ValueError, match="components"):
            InfoVector(1.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="longer"):
            InfoVector(0.8, 0.8, 0.8)


class TestTotalInformation:
    def test_pure_state_one_bit(self):
        assert total_information(InfoVector(0.0, 0.0, 1.0)) == 1.0

    def test_maximally_mixed_zero(self):
        assert total_information(InfoVector(0.0, 0.0, 0.0)) == 0.0

    def test_equals_squared_bloch_radius(self):
        state = density_from_bloch((0.3, 0.0, 0.4))  # radius 0.5
        for seed in range(20):
            total = total_information(info_vector(state, random_triad(seed)))
            assert total == pytest.approx(0.25, abs=1e-12)


class TestRotateTriad:
    def test_zero_angle_is_identity(self):
        triad = random_triad(3)
        rotated = rotate_triad(triad, Z_DIR, 0.0)
        np.testing.assert_allclose(rotated.matrix, triad.matrix, atol=1e-15)

    def test_quarter_turn_about_z(self):
        rotated = rotate_triad(CANONICAL_TRIAD, Z_DIR, np.pi / 2)
        np.testing.assert_allclose(
            rotated.matrix, [[0, 1, 0], [-1, 0, 0], [0, 0, 1]], atol=1e-12
        )

    def test_full_turn_returns_triad(self):
        triad = random_triad(11)
        rotated = rotate_triad(triad, Direction.normalized((1.0, 2.0, 2.0)), 2 * np.pi)
        np.testing.assert_allclose(rotated.matrix, triad.matrix, atol=1e-10)

    def test_composition_matches_summed_angle(self):
        triad = random_triad(13)
        axis = Direction.normalized((1.0, -1.0, 0.5))
        once = rotate_triad(rotate_triad(triad, axis, 0.4), axis, 0.9)
        summed = rotate_triad(triad, axis, 1.3)
        np.testing.assert_allclose(once.matrix, summed.matrix, atol=1e-10)

    def test_su2_conjugation_is_rotation_matrix(self):
        # the SU(2) -> SO(3) link evolve relies on:
        # U(n, theta/2) (v . sigma) U+ = (R(n, theta) v) . sigma
        rng = np.random.default_rng(0)
        for axis, v in zip(random_directions(rng, 1000), rng.normal(size=(1000, 3))):
            theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            u = _su2(axis, theta / 2.0)
            conjugated = u @ np.einsum("k,kij->ij", v, PAULIS) @ u.conj().T
            rotated = np.einsum("k,kij->ij", rotation_matrix(axis, theta) @ v, PAULIS)
            np.testing.assert_allclose(conjugated, rotated, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("angle", [0.0, np.pi, -np.pi / 2])
    @pytest.mark.parametrize("axis", [tuple(sign * row) for row in np.eye(3) for sign in (1.0, -1.0)])
    def test_rotation_matrix_is_numpy_rodrigues_on_axes(self, axis, angle):
        _assert_same_bits(rotation_matrix(axis, angle), _numpy_rodrigues(axis, angle))

    def test_rotation_matrix_is_numpy_rodrigues_on_draws(self):
        rng = np.random.default_rng(37)
        for axis, angle in zip(random_directions(rng, 1000), rng.uniform(-4 * np.pi, 4 * np.pi, 1000)):
            _assert_same_bits(rotation_matrix(axis, angle), _numpy_rodrigues(axis, angle))

    def test_rotation_matrix_is_special_orthogonal(self):
        rot = rotation_matrix(Direction.normalized((2.0, 1.0, -1.0)), 1.1)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


def _numpy_rodrigues(axis, angle) -> np.ndarray:
    """The numpy form rotation_matrix replaced, kept as its reference."""
    k = Direction(axis).vec
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.cos(angle) * np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * np.outer(k, k)


def _assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert np.array_equal(actual, expected) and np.array_equal(np.signbit(actual), np.signbit(expected))


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        state = random_qubit_state(17)
        evolved = evolve(state, Hamiltonian(np.zeros((2, 2))), 3.7)
        np.testing.assert_allclose(evolved.rho, state.rho, atol=1e-15)

    def test_larmor_half_turn_flips_x(self):
        # H = (w/2) sigma_z with w = 1 precesses the equator by angle t
        h = Hamiltonian.from_pauli_coefficients((0.0, 0.0, 0.5))
        evolved = evolve(named_state("plus-x"), h, np.pi)
        np.testing.assert_allclose(evolved.bloch, (-1.0, 0.0, 0.0), atol=1e-12)

    def test_eigenstate_is_stationary(self):
        h = Hamiltonian.from_pauli_coefficients((0.0, 0.0, 0.5))
        evolved = evolve(named_state("plus-z"), h, 2.1)
        np.testing.assert_allclose(evolved.rho, named_state("plus-z").rho, atol=1e-12)

    def test_trace_part_of_hamiltonian_is_irrelevant(self):
        state = random_qubit_state(23)
        base = Hamiltonian.from_pauli_coefficients((0.4, -0.2, 0.9))
        shifted = Hamiltonian(base.matrix + 1.7 * np.eye(2))
        np.testing.assert_allclose(
            evolve(state, base, 2.2).rho, evolve(state, shifted, 2.2).rho, atol=1e-12
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite_time(self):
        h = random_hamiltonian(1)
        with pytest.raises(ValueError, match="finite"):
            evolve(named_state("plus-x"), h, np.inf)

    def test_preserves_density_invariants(self):
        # QubitState construction re-validates hermiticity/trace/positivity
        for seed in range(50):
            state = random_qubit_state(seed)
            evolved = evolve(state, random_hamiltonian(seed + 1000), 4.2)
            assert abs(np.trace(evolved.rho) - 1.0) <= 1e-12
            assert abs(evolved.purity - state.purity) <= 1e-12

    def test_pauli_decomposition_roundtrip(self):
        h = random_hamiltonian(31)
        a0, a = h.pauli_decomposition()
        rebuilt = a0 * np.eye(2) + Hamiltonian.from_pauli_coefficients(a).matrix
        np.testing.assert_allclose(rebuilt, h.matrix, atol=1e-12)


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


class TestNonFiniteInput:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        st.integers(0, 2),
        NON_FINITE,
    )
    def test_density_from_bloch_rejects(self, finite, index, bad):
        r = np.array(finite) / np.sqrt(3.0)
        r[index] = bad
        with pytest.raises(ValueError):
            density_from_bloch(r)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
        st.integers(0, 3),
        st.booleans(),
        NON_FINITE,
    )
    def test_hamiltonian_rejects_matrix_entry(self, coeffs, entry, imaginary, bad):
        matrix = Hamiltonian.from_pauli_coefficients(coeffs).matrix.copy()
        matrix.flat[entry] += 1j * bad if imaginary else bad
        with pytest.raises(ValueError):
            Hamiltonian(matrix)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3), st.integers(0, 2), NON_FINITE)
    def test_hamiltonian_rejects_pauli_coefficient(self, coeffs, index, bad):
        coeffs[index] = bad
        with pytest.raises(ValueError):
            Hamiltonian.from_pauli_coefficients(coeffs)

    @pytest.mark.parametrize(
        "build, valid",
        [
            (ProbDist, [0.2, 0.3, 0.5]),
            (Direction, [0.6, 0.0, 0.8]),
            (Direction.normalized, [1.0, -2.0, 3.0]),
            (lambda comps: InfoVector(*comps), [0.1, -0.2, 0.3]),
            (QubitState, np.eye(2, dtype=complex) / 2.0),
            (TwoQubitState, np.eye(4, dtype=complex) / 4.0),
            (MeasurementTriad, np.eye(3)),
        ],
    )
    @settings(max_examples=30, deadline=None)
    @given(index=st.integers(0, 15), bad=NON_FINITE)
    def test_value_types_reject_any_component(self, build, valid, index, bad):
        values = np.array(valid)
        values.flat[index % values.size] = bad
        with pytest.raises(ValueError):
            build(values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_angle_and_time_refused(self, bad):
        with pytest.raises(ValueError, match=f"rotation angle must be finite, got {bad!r}"):
            rotation_matrix(Z_DIR, bad)
        with pytest.raises(ValueError, match=f"rotation angle must be finite, got {bad!r}"):
            rotate_triad(CANONICAL_TRIAD, Z_DIR, bad)
        h = random_hamiltonian(2)
        with pytest.raises(ValueError, match=f"time must be finite, got {bad!r}"):
            evolve_euler(named_state("plus-x"), h, bad, 3)

    @pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1.0])
    def test_hamiltonian_rejects_hbar(self, hbar):
        # hbar = 1 is fixed, not an option: the keyword is refused whatever its value
        with pytest.raises(TypeError, match="hbar"):
            Hamiltonian(np.eye(2), hbar=hbar)

    def test_finite_overflow_is_an_error_not_a_warning(self):
        state = named_state("plus-z")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                Hamiltonian.from_pauli_coefficients((1e200, 0.0, 0.0))
            with pytest.raises(ValueError, match="overflow"):
                Hamiltonian(1e308 * np.eye(2))  # the trace part overflows
            for h, t in [
                (Hamiltonian.from_pauli_coefficients((1e150, 0.0, 0.0)), 1e160),
                (Hamiltonian(np.array([[0.0, -1e150j], [1e150j, 0.0]])), 1e160),
            ]:
                with pytest.raises(ValueError, match="angle"):
                    evolve(state, h, t)
                with pytest.raises(ValueError, match="angle"):
                    info_trajectory(state, h, CANONICAL_TRIAD, [0.0, t])


    @pytest.mark.parametrize(
        "matrix, t",
        [
            (1e200 * np.eye(2) + np.diag([1.0, -1.0]), 1e200),
            (np.array([[1e300, 0.3 - 0.4j], [0.3 + 0.4j, 1e300]]), 1e10),
        ],
    )
    def test_global_phase_cannot_overflow_evolve(self, matrix, t):
        # a0 t overflows, yet the phase e^{-i a0 t} cancels in U rho U+
        state = random_qubit_state(5, pure=False)
        h = Hamiltonian(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolved = info_vector(evolve(state, h, t), CANONICAL_TRIAD).as_array()
            row = info_trajectory(state, h, CANONICAL_TRIAD, [t])[0]
        np.testing.assert_allclose(evolved, row, rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("error")
class TestRealInputOnly:
    """Every float cast of outside input refuses complex or non-numeric input,
    which ``dtype=float`` would cast with at most a warning."""

    @pytest.mark.parametrize(
        "build, values, dtype",
        [
            (ProbDist, np.array([0.5 + 1j, 0.5]), "complex128"),
            (ProbDist, ("0.5", "0.5"), "<U3"),
            (Direction, np.array([1 + 1j, 0, 0]), "complex128"),
            (Direction, (1j, 0, 0), "complex128"),
            (Direction.normalized, np.array([1 + 1j, 0, 0]), "complex128"),
            (MeasurementTriad, np.eye(3) + 1j, "complex128"),
            (density_from_bloch, np.array([0.1j, 0.0, 0.0]), "complex128"),
            (Hamiltonian.from_pauli_coefficients, (0.3, 0.2j, 0.1), "complex128"),
            (Direction, (None, 0, 0), "object"),
        ],
    )
    def test_refused_naming_the_type(self, build, values, dtype):
        with pytest.raises(ValueError) as err:
            build(values)
        assert str(err.value) == f"expected real numbers, got {dtype} input"

    @pytest.mark.parametrize(
        "values",
        [(0, 0, 1), [0.0, 0.6, 0.8], np.array([True, False, False]), np.array([0.0, -1.0, 0.0], dtype=np.float32)],
    )
    def test_real_input_keeps_its_bits(self, values):
        expected = np.array(values, dtype=float)
        for build in (Direction, Direction.normalized):
            assert build(values).vec.tobytes() == (expected / np.linalg.norm(expected)).tobytes()
        assert density_from_bloch(values).bloch.tobytes() == expected.tobytes()

    def test_euler_overflow_is_an_error_not_a_warning(self):
        h = Hamiltonian.from_pauli_coefficients((0.3, 0.2, 0.1))
        with pytest.raises(ValueError, match="Euler steps overflow"):
            evolve_euler(named_state("plus-x"), h, 1e200, 3)


def _born_route(state, h, triad, times):
    """Independent oracle: ``evolve`` on rho, then Born probabilities per time."""
    return np.array([info_vector(evolve(state, h, t), triad).as_array() for t in times])


class TestInfoTrajectory:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_propagator_and_born_route(self, seed):
        # even seeds pure, odd seeds mixed; a trace offset, a random scale
        # and a random triad each time
        rng = np.random.default_rng(1000 + seed)
        state = random_qubit_state(seed, pure=seed % 2 == 0)
        base = Hamiltonian.from_pauli_coefficients(rng.normal(size=3) * 2.0)
        h = Hamiltonian((base.matrix + rng.normal() * np.eye(2)) / float(rng.uniform(0.3, 3.0)))
        triad = random_triad(seed)
        times = np.sort(rng.uniform(0.0, 20.0, 40))
        np.testing.assert_allclose(
            info_trajectory(state, h, triad, times), _born_route(state, h, triad, times), rtol=0, atol=1e-12
        )

    def test_zero_hamiltonian_is_broadcast(self):
        state = random_qubit_state(41, pure=False)
        triad = random_triad(41)
        h = Hamiltonian(0.7 * np.eye(2))  # trace part only: no rotation
        times = np.linspace(0.0, 5.0, 7)
        rows = info_trajectory(state, h, triad, times)
        assert rows.shape == (7, 3)
        np.testing.assert_allclose(rows, _born_route(state, h, triad, times), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(rows, np.tile(triad.matrix @ state.bloch, (7, 1)))

    def test_single_time_point(self):
        state = random_qubit_state(43, pure=True)
        h = random_hamiltonian(43)
        triad = random_triad(43)
        rows = info_trajectory(state, h, triad, 2.5)
        assert rows.shape == (1, 3)
        np.testing.assert_allclose(rows, _born_route(state, h, triad, [2.5]), rtol=0, atol=1e-12)

    def test_conservation_check_reports_trajectory_totals(self):
        state = random_qubit_state(47, pure=False)
        h = random_hamiltonian(47)
        times = np.linspace(0.0, 10.0, 1000)
        rows = info_trajectory(state, h, CANONICAL_TRIAD, times)
        report = conservation_check(state, h, CANONICAL_TRIAD, times)
        np.testing.assert_array_equal(report.times, times)
        np.testing.assert_allclose(report.i_total_values, np.sum(rows * rows, axis=1), rtol=0, atol=1e-15)
        # the totals the row check computed, not a second evaluation that could round differently
        np.testing.assert_array_equal(report.i_total_values, _totals(rows))
        assert report.max_drift < 1e-12

    @pytest.mark.parametrize(
        "times, match",
        [([], "at least one"), ([0.0, np.nan], "finite"), ([0.0, np.inf], "finite"), ([2.0, 1.0], "sorted")],
    )
    def test_rejects_bad_times(self, times, match):
        with pytest.raises(ValueError, match=match):
            info_trajectory(named_state("plus-x"), random_hamiltonian(8), CANONICAL_TRIAD, times)

    def test_rejects_nan_state(self):
        with pytest.raises(ValueError, match="non-finite"):
            info_trajectory(np.full((2, 2), np.nan), random_hamiltonian(9), CANONICAL_TRIAD, [0.0])

    @pytest.mark.parametrize(
        "rows, match",
        [
            (2.0 * np.eye(3), "components"),
            ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "longer"),
            ([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "components"),
        ],
    )
    def test_row_bounds_checked(self, rows, match):
        # a stand-in exposing only .matrix reaches the InfoVector bound checks
        stand_in = SimpleNamespace(matrix=np.array(rows))
        with pytest.raises(ValueError, match=match):
            info_trajectory(named_state("plus-x"), random_hamiltonian(10), stand_in, [0.0])


@pytest.mark.filterwarnings("error")
class TestSinglePassRejections:
    """Each value type checks its rows once, in the order and with the
    messages of the row-by-row checks it replaced, and never warns."""

    @pytest.mark.parametrize(
        "rows, message",
        [
            (np.eye(3)[:2], "triad matrix must be 3x3, got (2, 3)"),
            ([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "direction norm is nan, expected 1"),
            ([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]], "direction norm is inf, expected 1"),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0 + 2e-12]], "direction norm is 1.000000000002, expected 1"),
            ([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]], "triad directions are not mutually orthogonal"),
            (np.diag([1.0, 1.0, -1.0]), "triad is not right-handed (det = -1.0)"),
        ],
    )
    @pytest.mark.parametrize("build", ["from_matrix", "directions"])
    def test_triad(self, build, rows, message):
        # one constructor: the matrix, or the list of its direction rows as the CLI passes it
        rows = np.asarray(rows)
        with pytest.raises(ValueError) as err:
            MeasurementTriad.from_matrix(rows) if build == "from_matrix" else MeasurementTriad(list(rows))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "r, message",
        [
            ((1.5, 0.0, 0.0), "Bloch vector norm 1.5 outside the unit ball: negative eigenvalue"),
            ((1e200, 0.0, 0.0), "Bloch vector norm inf outside the unit ball: negative eigenvalue"),
            ((np.nan, 0.0, 0.0), "Bloch vector has non-finite components"),
            ((np.inf, 0.0, 0.0), "Bloch vector has non-finite components"),
        ],
    )
    def test_density_from_bloch(self, r, message):
        with pytest.raises(ValueError) as err:
            density_from_bloch(r)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "comps, message",
        [
            ((1.1, 0.0, 0.0), "info vector components outside [-1, 1]"),
            ((0.8, 0.8, 0.0), "info vector longer than 1"),
            ((np.nan, 0.0, 0.0), "info vector components outside [-1, 1]"),
        ],
    )
    def test_info_vector(self, comps, message):
        with pytest.raises(ValueError) as err:
            InfoVector(*comps)
        assert str(err.value) == message


class TestEulerStepperDrift:
    def test_coarse_steps_drift_and_refinement_helps(self):
        state = named_state("plus-x")
        h = Hamiltonian.from_pauli_coefficients((0.0, 0.0, 1.0))
        exact = evolve(state, h, 2.0).rho
        coarse = evolve_euler(state, h, 2.0, steps=20)
        fine = evolve_euler(state, h, 2.0, steps=20_000)
        coarse_err = np.max(np.abs(coarse - exact))
        fine_err = np.max(np.abs(fine - exact))
        assert coarse_err > 1e-2          # visibly off the manifold
        assert fine_err < coarse_err / 100
        with pytest.raises(ValueError, match="step"):
            evolve_euler(state, h, 1.0, steps=0)


class TestConservation:
    def test_pure_state_stays_at_one(self):
        times = np.linspace(0.0, 10.0, 50)
        report = conservation_check(
            random_qubit_state(3, pure=True), random_hamiltonian(4), CANONICAL_TRIAD, times
        )
        np.testing.assert_allclose(report.i_total_values, 1.0, atol=1e-12)
        assert report.max_drift < 1e-12

    def test_maximally_mixed_stays_at_zero(self):
        report = conservation_check(
            named_state("mixed"), random_hamiltonian(5), CANONICAL_TRIAD, [0.0, 1.0, 2.0]
        )
        np.testing.assert_allclose(report.i_total_values, 0.0, atol=1e-15)

    def test_mixed_radius_conserved(self):
        state = density_from_bloch((0.0, 0.7, 0.0))
        report = conservation_check(
            state, random_hamiltonian(6), random_triad(6), np.linspace(0, 5, 25)
        )
        np.testing.assert_allclose(report.i_total_values, 0.49, atol=1e-12)

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="sorted"):
            conservation_check(
                named_state("plus-x"), random_hamiltonian(7), CANONICAL_TRIAD, [1.0, 0.5]
            )

    def test_report_validates_lengths(self):
        with pytest.raises(ValueError, match="lengths"):
            ConservationReport(times=[0.0, 1.0], i_total_values=[1.0])

    def test_report_derives_drift_from_values(self):
        report = ConservationReport(times=[0.0, 1.0, 2.0], i_total_values=[1.0, 0.8, 1.1])
        assert report.max_drift == pytest.approx(0.2, abs=1e-15)
