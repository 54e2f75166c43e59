"""Independent numpy oracles for the benchmark's correctness checks.

Nothing here imports infolab: each quantity is recomputed from its
definition (Pauli algebra, Rodrigues rotation, closed forms), so a defect in
the library cannot hide behind the code it would otherwise share with its
check.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]).astype(complex) / 2.0


def density(r) -> np.ndarray:
    """Qubit density matrix (I + r . sigma) / 2."""
    return 0.5 * (np.eye(2) + np.tensordot(r, PAULI, axes=1))


def correlation_matrix(rho) -> np.ndarray:
    """T_ij = Re tr[rho (sigma_i x sigma_j)], one Kronecker product at a time."""
    return np.array(
        [[np.trace(rho @ np.kron(PAULI[i], PAULI[j])).real for j in range(3)] for i in range(3)]
    )


def corr_info(t, d1, d2) -> float:
    """E(d1, d1)^2 + E(d2, d2)^2 with E(d, d) = d . T d."""
    e1 = float(d1 @ t @ d1)
    e2 = float(d2 @ t @ d2)
    return e1 * e1 + e2 * e2


def max_corr_info(t) -> float:
    """Exact maximum of corr_info over orthonormal pairs: the sum of the two
    largest squared eigenvalues of the symmetric part of T."""
    lam = np.linalg.eigvalsh(0.5 * (t + t.T))
    squares = np.sort(lam * lam)
    return float(squares[-1] + squares[-2])


def rotation(axis, angle: float) -> np.ndarray:
    """Active right-handed rotation by ``angle`` about ``axis`` (Rodrigues)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * (cross @ cross)


def precession(a, t: float) -> np.ndarray:
    """Bloch rotation generated by H = a0 I + a . sigma over time t:
    angle 2|a|t about a/|a| (the trace part a0 is a global phase)."""
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.eye(3)
    return rotation(a, 2.0 * norm * t)


def efficiency_columns(eta) -> dict[str, np.ndarray]:
    """Closed-form sweep columns of the three-outcome efficiency model."""
    eta = np.asarray(eta, dtype=float)
    n3 = 3.0 * math.log2(3.0) / 2.0
    i1 = n3 * ((eta - 1.0 / 3.0) ** 2 + (eta - 2.0 / 3.0) ** 2 + 1.0 / 9.0)
    i23 = n3 * 1.5 * (eta - 2.0 / 3.0) ** 2
    total = n3 * (5.0 * eta * eta - 6.0 * eta + 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        hx = -eta * np.log2(eta) - (1.0 - eta) * np.log2(1.0 - eta)
    hx = np.where((eta > 0.0) & (eta < 1.0), hx, 0.0)
    return {
        "eta": eta,
        "I1": i1,
        "I2": i23,
        "I3": i23,
        "I_total": total,
        "ratio": total / math.log2(3.0),
        "Hx": hx,
        "Hy": hx + eta,
        "Hz": hx + eta,
    }
