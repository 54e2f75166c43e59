"""The information vector, its total, and conservation under unitary dynamics.

The information vector i = (i1, i2, i3) collects the up/down probability
differences p+ - p- along the three directions of a measurement triad; it is
the Bloch vector expressed in the triad basis.  Its squared length, the total
information, is invariant under triad rotations and conserved by unitary time
evolution; both claims are verified numerically rather than re-derived.

Conventions used throughout (tested, since handedness is otherwise a free
choice):

* rotations are active and right-handed: rotate(v, axis, angle) moves v by
  +angle about axis following the right-hand rule;
* evolving under a Hamiltonian a . sigma for time t rotates the Bloch vector
  by +2|a|t about the unit axis a/|a| (so H = (w/2) sigma_z precesses the
  equator by angle w t);
* hbar = 1 natural units, times dimensionless.

Time evolution is exact, never an ODE stepper, so conservation can fail
only by floating-point error.  It has two independent routes:

* single-time ``evolve`` applies the closed-form 2x2 propagator (axis-angle
  form of the matrix exponential) to the density matrix, and ``info_vector``
  reads the Born probabilities along each triad direction;
* ``info_trajectory`` rotates the Bloch vector for all times at once and
  projects the rows onto the triad, validating the whole array once; it is
  what ``conservation_check`` and ``infolab evolve`` use.

The tests hold the second route to the first.  A fixed-step Euler commutator
integrator is included purely to demonstrate drift versus step size; it is
not used by anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    ATOL,
    IDENTITY2,
    PAULIS,
    MeasurementTriad,
    QubitState,
    as_direction,
    as_qubit_state,
    born_probabilities,
)

INFO_ATOL = 1e-10


@dataclass(frozen=True)
class InfoVector:
    """Catalog of knowledge (i1, i2, i3): probability differences along a triad."""

    i1: float
    i2: float
    i3: float

    def __post_init__(self):
        comps = (self.i1, self.i2, self.i3)
        if not all(abs(c) <= 1.0 + INFO_ATOL for c in comps):
            raise ValueError(f"info vector components outside [-1, 1]: {comps}")
        if not sum(c * c for c in comps) <= 1.0 + INFO_ATOL:
            raise ValueError(f"info vector longer than 1: {comps}")

    def as_array(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.i3])


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Time-independent 2x2 Hermitian generator, hbar fixed to 1."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"Hamiltonian must be 2x2, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("Hamiltonian has non-finite entries")
        if not (np.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValueError("Hamiltonian is not Hermitian")
        arr = mat.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def from_pauli_coefficients(cls, coeffs) -> "Hamiltonian":
        """Build h . sigma from a real 3-vector h."""
        h = np.asarray(coeffs, dtype=float).reshape(-1)
        if h.shape != (3,):
            raise ValueError(f"need 3 Pauli coefficients, got {h.shape}")
        return cls(np.einsum("k,kij->ij", h, PAULIS))

    def pauli_decomposition(self) -> tuple[float, np.ndarray]:
        """Return (a0, a) with matrix = a0 I + a . sigma."""
        a0 = float(np.real(np.trace(self.matrix))) / 2.0
        a = np.real(np.einsum("kij,ji->k", PAULIS, self.matrix)) / 2.0
        return a0, a


@dataclass(frozen=True, eq=False)
class ConservationReport:
    """Total information sampled along a trajectory, with its max drift."""

    times: np.ndarray
    i_total_values: np.ndarray
    max_drift: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.i_total_values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching lengths")
        if values.size == 0:
            raise ValueError("need at least one time point")
        drift = float(np.max(np.abs(values - values[0])))
        if abs(self.max_drift - drift) > 1e-15:
            raise ValueError(f"max_drift {self.max_drift!r} does not match values ({drift!r})")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "i_total_values", values)

    @classmethod
    def from_trajectory(cls, times, vectors) -> "ConservationReport":
        """Report for the rows of ``info_trajectory(state, h, triad, times)``."""
        values = _totals(vectors)
        drift = float(np.max(np.abs(values - values[0])))
        return cls(times=times, i_total_values=values, max_drift=drift)


def _totals(vectors: np.ndarray) -> np.ndarray:
    """Row-wise i1^2 + i2^2 + i3^2, summed in the order total_information uses."""
    i1, i2, i3 = vectors.T
    return i1 * i1 + i2 * i2 + i3 * i3


def info_vector(state, triad: MeasurementTriad) -> InfoVector:
    """Information vector of a state relative to a triad.

    Component m is p+ - p- along direction m, which equals the dot product
    of direction m with the Bloch vector.
    """
    comps = []
    for direction in triad.directions:
        probs = born_probabilities(state, direction).probs
        comps.append(float(probs[0] - probs[1]))
    return InfoVector(*comps)


def total_information(iv: InfoVector) -> float:
    """Total information i1^2 + i2^2 + i3^2 in bits.

    Equals the squared Bloch radius: 1 for pure states, 0 for the maximally
    mixed state, strictly between otherwise.
    """
    return iv.i1 * iv.i1 + iv.i2 * iv.i2 + iv.i3 * iv.i3


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Active right-handed rotation matrix about a unit axis (Rodrigues form)."""
    k = as_direction(axis).vec
    cross = np.array(
        [
            [0.0, -k[2], k[1]],
            [k[2], 0.0, -k[0]],
            [-k[1], k[0], 0.0],
        ]
    )
    return (
        np.cos(angle) * np.eye(3)
        + np.sin(angle) * cross
        + (1.0 - np.cos(angle)) * np.outer(k, k)
    )


def rotate_triad(triad: MeasurementTriad, axis, angle: float) -> MeasurementTriad:
    """Rotate every triad direction by +angle about axis (active rotation)."""
    rot = rotation_matrix(axis, angle)
    return MeasurementTriad.from_matrix(triad.matrix @ rot.T)


def propagator(h: Hamiltonian, t: float) -> np.ndarray:
    """Closed-form U = exp(-i H t / hbar) for a 2x2 Hermitian H.

    With H = a0 I + a . sigma this is
    e^{-i a0 t} (cos(|a| t) I - i sin(|a| t) (a/|a|) . sigma).
    """
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    a0, a = h.pauli_decomposition()
    t = t / h.hbar
    norm = float(np.linalg.norm(a))
    phase = np.exp(-1j * a0 * t)
    if norm == 0.0:
        return phase * IDENTITY2
    axis_sigma = np.einsum("k,kij->ij", a / norm, PAULIS)
    return phase * (
        np.cos(norm * t) * IDENTITY2 - 1j * np.sin(norm * t) * axis_sigma
    )


def evolve(state, h: Hamiltonian, t: float) -> QubitState:
    """Evolve a state for time t: rho -> U rho U+ with the exact propagator."""
    rho = as_qubit_state(state).rho
    u = propagator(h, t)
    out = u @ rho @ u.conj().T
    return QubitState(0.5 * (out + out.conj().T))  # scrub last-ulp asymmetry


def evolve_euler(state, h: Hamiltonian, t: float, steps: int) -> np.ndarray:
    """First-order commutator stepper rho' = rho - i dt [H, rho] / hbar.

    Returns the raw (unvalidated) final matrix: the whole point is that the
    result drifts off the physical manifold as dt grows, which the exact
    propagator never does.  See demos/precession_conservation.py.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    rho = np.array(as_qubit_state(state).rho)
    dt = t / steps
    hm = h.matrix
    for _ in range(steps):
        rho = rho - (1j * dt / h.hbar) * (hm @ rho - rho @ hm)
    return rho


def info_trajectory(state, h: Hamiltonian, triad: MeasurementTriad, times) -> np.ndarray:
    """Information vectors along exact evolution: an (n, 3) array, one row per time.

    With H = a0 I + a . sigma, row k is ``triad.matrix @ R(t_k) r0``, where
    R(t) rotates the initial Bloch vector r0 by 2|a|t/hbar about a/|a|
    (Rodrigues form, as in ``rotation_matrix``); the trace part a0 is a
    global phase.  This equals ``info_vector(evolve(state, h, t), triad)``
    for each t, without building a state per time point.

    The whole array is validated once: times must be finite, non-empty and
    sorted ascending; every evolved Bloch vector must lie in the unit ball
    (the positivity that QubitState enforces); every row must satisfy the
    InfoVector bounds.  The comparisons are written so that NaN fails them.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("need at least one time point")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not np.all(np.diff(times) >= 0.0):
        raise ValueError("times must be sorted ascending")
    r0 = as_qubit_state(state).bloch
    _, a = h.pauli_decomposition()
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        bloch = np.broadcast_to(r0, (times.size, 3))
    else:
        k = a / norm
        along = np.dot(k, r0) * k
        # twice the propagator's half-angle |a| t / hbar, rounded the same way
        theta = 2.0 * (norm * (times / h.hbar))
        bloch = (
            along
            + np.cos(theta)[:, None] * (r0 - along)
            + np.sin(theta)[:, None] * np.cross(k, r0)
        )
    if not np.all(np.linalg.norm(bloch, axis=1) <= 1.0 + 2.0 * ATOL):
        raise ValueError("evolved Bloch vector left the unit ball")
    vectors = bloch @ triad.matrix.T
    if not np.all(np.abs(vectors) <= 1.0 + INFO_ATOL):
        raise ValueError("info vector components outside [-1, 1]")
    if not np.all(_totals(vectors) <= 1.0 + INFO_ATOL):
        raise ValueError("info vector longer than 1")
    return vectors


def conservation_check(state, h: Hamiltonian, triad: MeasurementTriad, times) -> ConservationReport:
    """Sample total information along exact evolution and report the drift.

    Drift is measured against the value at the first listed time; for exact
    evolution it stays at floating-point noise.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    return ConservationReport.from_trajectory(times, info_trajectory(state, h, triad, times))
