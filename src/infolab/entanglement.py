"""Two-qubit states, joint-spin correlations, and the information condition
for entanglement.

A joint proposition "the two spins are the same along d" is dichotomic, so
its information content is the quadratic measure of the (same, different)
probability pair: bz_elementary(p_same, p_diff) = E(d, d)^2, where E is the
usual +-1 product expectation.  Summed over two non-parallel (in practice
mutually orthogonal, i.e. complementary) directions this gives i_corr, which
reaches 2 bits on Bell states but cannot exceed 1 bit on any product state;
i_corr > 1 is therefore taken as the entanglement condition.

The condition is sufficient-style, not a faithful separability test: a Werner
state w |psi-><psi-| + (1-w)/4 I has max i_corr = 2 w^2, which stays below 1
up to w = 1/sqrt(2) even though the state is entangled for all w > 1/3.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .measures import bz_elementary
from .states import (
    ATOL,
    PAULIS,
    Direction,
    QubitState,
    _check_density,
    _finite_real,
    _frozen,
    _integer,
    _square_rows,
    as_direction,
    as_qubit_state,
)

PARALLEL_WARN_TOL = 1e-9

_KRON_PAULI = np.array(
    [[np.kron(PAULIS[i], PAULIS[j]) for j in range(3)] for i in range(3)]
)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Two-qubit density matrix (4x4, Hermitian, unit trace, positive)."""

    rho: np.ndarray

    def __post_init__(self):
        rho, rows = _square_rows(self.rho, 4, "density matrix")
        _check_density(rows)
        if float(np.min(np.linalg.eigvalsh(rho))) < -ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "rho", _frozen(rho))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))


def as_two_qubit_state(state) -> TwoQubitState:
    return state if isinstance(state, TwoQubitState) else TwoQubitState(state)


_BELL_KETS = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "phi-": np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),
    "psi+": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
    "psi-": np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
}


def bell_state(kind: str) -> TwoQubitState:
    """One of the four Bell states; "psi-" is the singlet, anti-correlated
    along every direction."""
    try:
        ket = _BELL_KETS[kind]
    except KeyError:
        known = ", ".join(sorted(_BELL_KETS))
        raise ValueError(f"unknown Bell state {kind!r} (known: {known})") from None
    return TwoQubitState(np.outer(ket, ket.conj()))


def werner_state(w: float) -> TwoQubitState:
    """Mixture w |psi-><psi-| + (1 - w)/4 I interpolating singlet and noise."""
    weight = _finite_real(w, "Werner weight", 0, 1)
    return TwoQubitState(weight * bell_state("psi-").rho + (1.0 - weight) / 4.0 * np.eye(4))


def product_state(first, second) -> TwoQubitState:
    """Tensor product of two single-qubit states."""
    return TwoQubitState(np.kron(as_qubit_state(first).rho, as_qubit_state(second).rho))


def partial_trace(state, keep: int) -> QubitState:
    """Reduced state of qubit ``keep`` (0 or 1)."""
    rho = as_two_qubit_state(state).rho.reshape(2, 2, 2, 2)
    pattern = "abad->bd" if _integer(keep, "keep", 0, 1) else "abcb->ac"
    return QubitState(np.einsum(pattern, rho))


def correlation(state, a, b) -> float:
    """Joint +-1 product expectation E(a, b) = tr[rho (a.sigma x b.sigma)].

    Equals p_same - p_diff for spin measurements along a on qubit 0 and b on
    qubit 1; always in [-1, 1].
    """
    rho = as_two_qubit_state(state).rho
    av = as_direction(a).vec
    bv = as_direction(b).vec
    observable = np.einsum("i,j,ijkl->kl", av, bv, _KRON_PAULI)
    return float(np.real(np.trace(rho @ observable)))


def correlation_matrix(state) -> np.ndarray:
    """3x3 matrix T with T_ij = tr[rho (sigma_i x sigma_j)], so that
    E(a, b) = a . T b."""
    rho = as_two_qubit_state(state).rho
    return np.real(np.einsum("ijab,ba->ij", _KRON_PAULI, rho))


@dataclass(frozen=True, eq=False)
class CorrInfoResult:
    """Information carried by two joint "spins agree along d" propositions."""

    d1: Direction
    d2: Direction
    correlations: tuple[float, float]
    info_bits: tuple[float, float]
    total_bits: float

    def __post_init__(self):
        if any(not -1e-9 <= bits <= 1.0 + 1e-9 for bits in self.info_bits):
            raise ValueError(f"per-proposition bits outside [0, 1]: {self.info_bits}")
        if not -1e-9 <= self.total_bits <= 2.0 + 1e-9:
            raise ValueError(f"total bits outside [0, 2]: {self.total_bits!r}")


def i_corr(state, d1, d2) -> CorrInfoResult:
    """Correlation information E(d1, d1)^2 + E(d2, d2)^2 for two directions.

    The directions must not be parallel (that would ask the same proposition
    twice); nearly parallel pairs are accepted with a warning.
    """
    state = as_two_qubit_state(state)
    d1 = as_direction(d1)
    d2 = as_direction(d2)
    overlap = abs(float(np.dot(d1.vec, d2.vec)))
    if overlap >= 1.0 - ATOL:
        raise ValueError("degenerate direction pair: d1 and d2 are parallel")
    if overlap > 1.0 - PARALLEL_WARN_TOL:
        warnings.warn(
            f"direction pair is nearly parallel (|d1.d2| = {overlap!r}); "
            "the two propositions are almost redundant",
            stacklevel=2,
        )
    return _corr_info(correlation_matrix(state), d1, d2)


def _corr_info(corr: np.ndarray, d1: Direction, d2: Direction) -> CorrInfoResult:
    e1 = float(d1.vec @ corr @ d1.vec)
    e2 = float(d2.vec @ corr @ d2.vec)
    p1 = bz_elementary(0.5 * (1.0 + e1), 0.5 * (1.0 - e1))
    p2 = bz_elementary(0.5 * (1.0 + e2), 0.5 * (1.0 - e2))
    return CorrInfoResult(
        d1=d1,
        d2=d2,
        correlations=(e1, e2),
        info_bits=(p1, p2),
        total_bits=p1 + p2,
    )


# -- maximization over orthogonal direction pairs ---------------------------
#
# Every orthogonal pair is the image of (x, y) under a rotation, parametrized
# by z-y-z Euler angles.  A coarse 15-degree grid over the rotation group is
# scanned first (vectorized; ties resolved by first grid index, so the result
# is deterministic), then a pattern search shrinks the step below 1e-7 rad.
# Only true objective values of valid orthogonal pairs are ever returned.

_GRID_STEP = np.deg2rad(15.0)
_REFINE_TOL = 1e-7
_REFINE_EPS = 1e-10  # improvements below every contract tolerance don't count
_MAX_REFINE_EVALS = 10_000
_grid_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _euler_pair(alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray]:
    """First two columns of Rz(alpha) Ry(beta) Rz(gamma): images of x and y."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    d1 = np.stack([ca * cb * cg - sa * sg, sa * cb * cg + ca * sg, -sb * cg], axis=-1)
    d2 = np.stack([-ca * cb * sg - sa * cg, -sa * cb * sg + ca * cg, sb * sg], axis=-1)
    return d1, d2


def _angle_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    global _grid_cache
    if _grid_cache is None:
        alphas = np.arange(0.0, 2.0 * np.pi - 1e-9, _GRID_STEP)
        betas = np.arange(0.0, np.pi + 1e-9, _GRID_STEP)
        gammas = np.arange(0.0, 2.0 * np.pi - 1e-9, _GRID_STEP)
        grid = np.stack(np.meshgrid(alphas, betas, gammas, indexing="ij"), axis=-1)
        angles = grid.reshape(-1, 3)
        d1, d2 = _euler_pair(angles[:, 0], angles[:, 1], angles[:, 2])
        _grid_cache = (angles, d1, d2)
    return _grid_cache


def _objective_rows(corr: np.ndarray, angle_rows: np.ndarray) -> np.ndarray:
    d1, d2 = _euler_pair(angle_rows[:, 0], angle_rows[:, 1], angle_rows[:, 2])
    e1 = np.einsum("ni,ij,nj->n", d1, corr, d1)
    e2 = np.einsum("ni,ij,nj->n", d2, corr, d2)
    return e1 * e1 + e2 * e2


def max_i_corr(state) -> CorrInfoResult:
    """Maximum of i_corr over mutually orthogonal direction pairs.

    Deterministic coarse-grid scan plus local pattern-search refinement; the
    reported value is always the exact i_corr of the reported pair.
    """
    corr = correlation_matrix(as_two_qubit_state(state))
    angles_grid, d1s, d2s = _angle_grid()
    e1 = np.einsum("ni,ij,nj->n", d1s, corr, d1s)
    e2 = np.einsum("ni,ij,nj->n", d2s, corr, d2s)
    grid_values = e1 * e1 + e2 * e2
    best_idx = int(np.argmax(grid_values))
    angles = angles_grid[best_idx].copy()
    best = float(grid_values[best_idx])

    step = _GRID_STEP
    evals = 0
    while step > _REFINE_TOL and evals < _MAX_REFINE_EVALS:
        candidates = np.repeat(angles[np.newaxis, :], 6, axis=0)
        for axis in range(3):
            candidates[2 * axis, axis] += step
            candidates[2 * axis + 1, axis] -= step
        values = _objective_rows(corr, candidates)
        evals += 6
        winner = int(np.argmax(values))
        if values[winner] > best + _REFINE_EPS:
            angles = candidates[winner]
            best = float(values[winner])
        else:
            step *= 0.5

    d1, d2 = _euler_pair(angles[0], angles[1], angles[2])
    return _corr_info(corr, Direction(d1), Direction(d2))


def info_condition_entangled(state) -> tuple[bool, CorrInfoResult]:
    """Entanglement condition max i_corr > 1, with the maximizing pair.

    True certifies more correlation information than any product state can
    carry; False does not certify separability (see module docstring).
    """
    result = max_i_corr(state)
    return result.total_bits > 1.0 + 1e-9, result
