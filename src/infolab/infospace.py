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
* hbar = 1 is fixed, not an option: times are dimensionless and
  ``Hamiltonian`` takes no hbar.

Time evolution is exact, never an ODE stepper, so conservation can fail
only by floating-point error.  It has two independent routes:

* single-time ``evolve`` conjugates the density matrix by the SU(2) element
  ``_su2`` (exp(-i H t) less its global phase, which cancels),
  and ``info_vector`` reads the Born probabilities along each triad row
  (never ``triad.matrix @ r``, which is how the second route projects);
* ``info_trajectory`` rotates the Bloch vector for all times at once and
  projects the rows onto the triad, validating the whole array once; it is
  what ``conservation_check`` and ``infolab evolve`` use.

The tests hold the second route to the first.  A fixed-step Euler commutator
integrator is included purely to demonstrate drift versus step size; it is
not used by anything else.  Both routes share one unit-ball bound on the
Bloch radius, |r| <= 1 + 1e-12 (``states._check_bloch``), one check of the
InfoVector bounds (``_check_info_rows``) and one guard on the rotation angle
2|a|t (``_check_angle``).  Each value is checked once, on Python scalars:
``InfoVector`` checks its three floats, ``Hamiltonian`` the entries of one
``.tolist()`` before storing its Pauli coefficients (a0, a) in closed form,
and ``conservation_check`` reports the totals the row check computed.
``rotation_matrix`` writes the Rodrigues form entry by entry on floats, in
numpy's order of operations, so its bits are those of the array expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import (
    IDENTITY2,
    PAULIS,
    MeasurementTriad,
    QubitState,
    _born_pair,
    _check_bloch,
    _check_hermitian,
    _cross,
    _dot,
    _frozen,
    _pauli_vector,
    _real_array,
    as_direction,
    as_qubit_state,
)

INFO_ATOL = 1e-10


@dataclass(frozen=True)
class InfoVector:
    """Catalog of knowledge (i1, i2, i3): probability differences along a triad."""

    i1: float
    i2: float
    i3: float

    def __post_init__(self):
        _check_info_rows((self.i1, self.i2, self.i3))

    def as_array(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.i3])


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Time-independent 2x2 Hermitian generator, in units with hbar = 1."""

    matrix: np.ndarray
    _pauli: tuple[float, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"Hamiltonian must be 2x2, got {mat.shape}")
        rows = mat.tolist()
        _check_hermitian(rows, "Hamiltonian")
        # Python floats: finite entries can overflow a0 or |a|^2 to inf, without a warning
        a0 = (0.0 + (rows[0][0] + rows[1][1]).real) / 2.0
        a = [c / 2.0 for c in _pauli_vector(rows)]
        if not (math.isfinite(a0) and math.isfinite(_dot(a, a))):
            raise ValueError("Hamiltonian's Pauli coefficients overflow: |a| is not finite")
        object.__setattr__(self, "matrix", _frozen(mat))
        object.__setattr__(self, "_pauli", (a0, _frozen(np.array(a))))

    @classmethod
    def from_pauli_coefficients(cls, coeffs) -> "Hamiltonian":
        """Build h . sigma from a real 3-vector h."""
        h = _real_array(coeffs).reshape(-1)
        if h.shape != (3,):
            raise ValueError(f"need 3 Pauli coefficients, got {h.shape}")
        return cls(np.einsum("k,kij->ij", h, PAULIS))

    def pauli_decomposition(self) -> tuple[float, np.ndarray]:
        """Return (a0, a) with matrix = a0 I + a . sigma; a is read-only."""
        return self._pauli


@dataclass(frozen=True, eq=False)
class ConservationReport:
    """Total information sampled along a trajectory."""

    times: np.ndarray
    i_total_values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.i_total_values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching lengths")
        if values.size == 0:
            raise ValueError("need at least one time point")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "i_total_values", values)

    @property
    def max_drift(self) -> float:
        """Largest deviation of the total from its value at the first time."""
        return float(np.max(np.abs(self.i_total_values - self.i_total_values[0])))


def _totals(vectors):
    """i1^2 + i2^2 + i3^2, summed in the order total_information uses, of one
    (i1, i2, i3) or of each row of an (n, 3) array."""
    i1, i2, i3 = vectors.T if isinstance(vectors, np.ndarray) else vectors
    return i1 * i1 + i2 * i2 + i3 * i3


def _check_info_rows(vectors):
    """InfoVector bounds on one (i1, i2, i3) of Python scalars or on each row
    of an (n, 3) array: components in [-1, 1] and total at most 1, within
    INFO_ATOL; NaN fails them.  Returns ``_totals(vectors)``."""
    array = isinstance(vectors, np.ndarray)
    if array:
        inside = np.abs(vectors).max() <= 1.0 + INFO_ATOL
    else:
        inside = all(abs(c) <= 1.0 + INFO_ATOL for c in vectors)
    if not inside:
        raise ValueError("info vector components outside [-1, 1]")
    totals = _totals(vectors)
    if not (totals.max() if array else totals) <= 1.0 + INFO_ATOL:
        raise ValueError("info vector longer than 1")
    return totals


def info_vector(state, triad: MeasurementTriad) -> InfoVector:
    """Information vector of a state relative to a triad.

    Component m is p+ - p- along row m of ``triad.matrix``, the row's dot
    product with the Bloch vector.  It is read from the Born probabilities,
    not computed as ``triad.matrix @ r``, so that it stays an independent
    check of ``info_trajectory``, which projects that way.
    """
    r, m = as_qubit_state(state).bloch, triad.matrix
    (u1, d1), (u2, d2), (u3, d3) = _born_pair(r, m[0]), _born_pair(r, m[1]), _born_pair(r, m[2])
    return InfoVector(u1 - d1, u2 - d2, u3 - d3)


def total_information(iv: InfoVector) -> float:
    """Total information i1^2 + i2^2 + i3^2 in bits.

    Equals the squared Bloch radius: 1 for pure states, 0 for the maximally
    mixed state, strictly between otherwise.
    """
    return iv.i1 * iv.i1 + iv.i2 * iv.i2 + iv.i3 * iv.i3


_EYE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Active right-handed rotation matrix about a unit axis (Rodrigues form).

    Entry (i, j) is cos I + sin [k]x + (1 - cos) k k^T, summed in that order
    on Python floats: numpy's elementwise form, signed zeros included.
    """
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    kx, ky, kz = k = as_direction(axis).vec.tolist()
    cross = ((0.0, -kz, ky), (kz, 0.0, -kx), (-ky, kx, 0.0))
    c, s = float(np.cos(angle)), float(np.sin(angle))
    return np.array(
        [[c * _EYE[i][j] + s * cross[i][j] + (1.0 - c) * (k[i] * k[j]) for j in range(3)] for i in range(3)]
    )


def rotate_triad(triad: MeasurementTriad, axis, angle: float) -> MeasurementTriad:
    """Rotate every triad direction by +angle about axis (active rotation)."""
    rot = rotation_matrix(axis, angle)
    return MeasurementTriad.from_matrix(triad.matrix @ rot.T)


def _su2(axis, half_angle: float) -> np.ndarray:
    """cos(theta) I - i sin(theta) (n . sigma) for a unit axis n and theta = half_angle.

    Conjugating by it rotates Bloch vectors by 2 theta about n, as
    ``rotation_matrix(n, 2 theta)`` does.
    """
    axis_sigma = np.einsum("k,kij->ij", axis, PAULIS)
    return np.cos(half_angle) * IDENTITY2 - 1j * np.sin(half_angle) * axis_sigma


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")


def _check_angle(half_angle: float) -> None:
    """Refuse an evolution whose Bloch rotation angle 2|a|t, twice the SU(2)
    half-angle |a|t, is not finite: both routes evolve by that angle."""
    if not math.isfinite(2.0 * half_angle):
        raise ValueError("evolution angle 2|a|t is not finite")


def evolve(state, h: Hamiltonian, t: float) -> QubitState:
    """Evolve a state for time t: rho -> U rho U+ with U = exp(-i (a . sigma) t).

    The trace part a0 of H = a0 I + a . sigma only multiplies exp(-i H t) by
    the global phase e^{-i a0 t}, which cancels in U rho U+, so U leaves it
    out and a0 t may overflow harmlessly.
    """
    _check_time(t)
    a = h.pauli_decomposition()[1]
    norm = math.sqrt(a.dot(a))  # as np.linalg.norm
    half_angle = norm * float(t)
    _check_angle(half_angle)
    u = IDENTITY2 if norm == 0.0 else _su2(a / norm, half_angle)
    rho = as_qubit_state(state).rho
    out = u @ rho @ u.conj().T
    return QubitState(0.5 * (out + out.conj().T))  # scrub last-ulp asymmetry


def evolve_euler(state, h: Hamiltonian, t: float, steps: int) -> np.ndarray:
    """First-order commutator stepper rho' = rho - i dt [H, rho].

    Returns the raw (unvalidated) final matrix: the whole point is that the
    result drifts off the physical manifold as dt grows, which exact
    evolution never does.  See demos/precession_conservation.py.  Steps that
    overflow are refused.
    """
    _check_time(t)
    if steps < 1:
        raise ValueError("need at least one step")
    rho = np.array(as_qubit_state(state).rho)
    dt = t / steps
    hm = h.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        for _ in range(steps):
            rho = rho - (1j * dt) * (hm @ rho - rho @ hm)
    if not np.isfinite(rho).all():
        raise ValueError(f"Euler steps overflow: dt = {dt!r} is too large for this Hamiltonian")
    return rho


def info_trajectory(state, h: Hamiltonian, triad: MeasurementTriad, times) -> np.ndarray:
    """Information vectors along exact evolution: an (n, 3) array, one row per time.

    With H = a0 I + a . sigma, row k is ``triad.matrix @ R(t_k) r0``, where
    R(t) rotates the initial Bloch vector r0 by 2|a|t about a/|a|
    (Rodrigues form, as in ``rotation_matrix``); the trace part a0 is a
    global phase.  This equals ``info_vector(evolve(state, h, t), triad)``
    for each t, without building a state per time point.

    The whole array is validated once: times must be finite, non-empty and
    sorted ascending; the rotation angle must be finite; every evolved Bloch
    vector must pass QubitState's unit-ball check; every row must satisfy the
    InfoVector bounds.  The comparisons are written so that NaN fails them.
    """
    return _trajectory(state, h, triad, times)[0]


def _trajectory(state, h: Hamiltonian, triad: MeasurementTriad, times) -> tuple[np.ndarray, np.ndarray]:
    """``info_trajectory``'s rows and their totals, which its InfoVector check computes."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("need at least one time point")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if not (times[1:] >= times[:-1]).all():
        raise ValueError("times must be sorted ascending")
    r0 = as_qubit_state(state).bloch
    a = h.pauli_decomposition()[1]
    norm = math.sqrt(a.dot(a))  # as np.linalg.norm
    if norm == 0.0:
        bloch = np.broadcast_to(r0, (times.size, 3))
    else:
        k = a / norm
        along = np.dot(k, r0) * k
        # sorted times put the largest |angle| at an end: if it is finite, none overflows
        _check_angle(norm * max(-float(times[0]), float(times[-1])))
        # twice evolve's half-angle |a| t, rounded the same way
        theta = 2.0 * (norm * times)
        bloch = (
            along
            + np.cos(theta)[:, None] * (r0 - along)
            + np.sin(theta)[:, None] * np.array(_cross(k.tolist(), r0.tolist()))
        )
    _check_bloch(bloch)
    vectors = bloch @ triad.matrix.T
    return vectors, _check_info_rows(vectors)


def conservation_check(state, h: Hamiltonian, triad: MeasurementTriad, times) -> ConservationReport:
    """Sample total information along exact evolution and report the drift.

    Drift is measured against the value at the first listed time; for exact
    evolution it stays at floating-point noise.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    return ConservationReport(times=times, i_total_values=_trajectory(state, h, triad, times)[1])
