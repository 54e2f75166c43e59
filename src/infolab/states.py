"""Qubit state representations and the Born-rule bridge to outcome statistics.

Density matrices are the canonical state representation; Bloch vectors are a
derived view (this extends cleanly to two-qubit states).  All containers are
immutable value types and every operation is pure, so everything here is safe
to share across threads.

Tolerances: algebraic identities are enforced at 1e-12, and so is the unit
norm of each triad row, as of every ``Direction``; the orthogonality and
handedness of measurement triads are enforced at 1e-10.
Qubit positivity is one unit-ball bound on the Bloch radius, |r| <= 1 + 1e-12
(``_check_bloch``); two-qubit positivity uses eigenvalues.  Outside numbers
have one reader, ``_real_array``: every value type refuses strings and
non-finite input, the real-valued ones complex input too.  Single numbers
are read by ``_finite_real`` and counts by ``_integer``, both within optional
bounds (``_in_range``).  Each value is checked once, on the Python scalars of
one ``.tolist()``, because numpy calls on 3-element arrays cost more than the
arithmetic: ``_check_bloch`` takes one vector's three floats (or the rows of a
trajectory array); a triad is only its 3x3 matrix, and checks each row's unit
norm, then the pairwise dot products, then the determinant; ``_born_pairs``
applies ``ProbDist``'s rules to the Born probabilities along several directions
in one pass, without building a ``ProbDist``.
A value derived from checked values skips, through ``_built``, the checks that
cannot fire on it, and only those: ``density_from_bloch`` writes rows that are
Hermitian (the off-diagonal entries are conjugates), of unit trace (to
rounding, far inside ATOL) and finite (from a checked finite r), so it skips
the density matrix's re-read and ``_check_density``; it keeps both unit-ball
checks, as the Bloch vector read back from its rows may exceed |r| by an ulp.
``QubitState.bloch`` and ``MeasurementTriad.matrix`` are computed and stored
once; Bloch vectors and the triad's determinant are closed forms on Python
floats (``_pauli_vector``, ``_cross``, ``_dot``).  The seeded samplers at
the end are the ones the ``verify`` checks and the test suite draw from: the
batch samplers ``random_directions`` and ``random_bloch_vectors`` return
(n, 3) arrays, and ``random_direction`` and ``random_qubit_state`` wrap them
to return one validated value (``pure=True`` draws from the sphere's
surface).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-12
TRIAD_ATOL = 1e-10
_FLOAT64 = np.dtype(float)
_COMPLEX128 = np.dtype(complex)

PAULIS = np.array(  # sigma_x, sigma_y, sigma_z
    [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
    dtype=complex,
)
IDENTITY2 = np.eye(2, dtype=complex)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _built(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given, without
    ``__post_init__``: only for a value derived from checked ones, on which every
    check skipped this way provably cannot fire."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # as the generated __init__'s object.__setattr__ calls would
    return obj


def _real_array(values, dtype=_FLOAT64) -> np.ndarray:
    """``np.array(values, dtype=dtype)`` as a new C-ordered array; input that this cast would
    make real (complex to float) or parse (strings, objects) is a ValueError naming its dtype."""
    arr = np.array(values, order="C")
    if arr.dtype is not dtype:  # native input of the target type, the usual case, costs one test
        if not np.can_cast(arr.dtype, dtype, casting="same_kind"):
            kind = "real" if dtype is _FLOAT64 else "complex"
            raise ValueError(f"expected {kind} numbers, got {arr.dtype} input")
        arr = arr.astype(dtype)
    return arr


def _square_rows(values, n: int, what: str) -> tuple[np.ndarray, list]:
    """An n x n complex matrix read by ``_real_array``, and its rows as Python complex numbers."""
    mat = _real_array(values, _COMPLEX128)
    if mat.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}, got shape {mat.shape}")
    return mat, mat.tolist()


def _finite_real(value, what: str, lo=None, hi=None) -> float:
    """One finite real in [lo, hi] as a Python float, read as ``_real_array`` reads an array."""
    if not isinstance(value, float):  # a Python float, the usual case, needs no array
        value = _real_array(value)
        if value.shape != ():
            raise ValueError(f"{what} must be a single number, got shape {value.shape}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return _in_range(value, what, lo, hi)


def _integer(value, what: str, lo=None, hi=None) -> int:
    """One integer in [lo, hi] as a Python int, read by ``operator.index`` (no floats, no text)."""
    try:
        value = operator.index(value)
    except TypeError:
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{what} must be an integer, got {shown!r}") from None
    return _in_range(value, what, lo, hi)


def _in_range(value, what: str, lo, hi):
    """``value`` if in [lo, hi] (None: open), else the one ValueError naming range and value."""
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        span = f"be at least {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        raise ValueError(f"{what} must {span}, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Validated discrete probability distribution over n >= 2 outcomes.

    Entries must lie in [0, 1] and sum to 1, both within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _real_array(self.probs).reshape(-1)
        if probs.size < 2:
            raise ValueError(f"need at least 2 outcomes, got {probs.size}")
        _check_probs(probs.tolist(), probs.sum)
        object.__setattr__(self, "probs", _frozen(probs))

    @property
    def n(self) -> int:
        return self.probs.size

    def __iter__(self):
        return iter(self.probs)


def _check_probs(probs: list, total) -> None:
    """ProbDist's rules on Python floats: each in [0, 1], then their sum
    ``total()`` 1, within ATOL; summing only in-range entries cannot overflow."""
    if any(p < -ATOL or p > 1.0 + ATOL for p in probs):
        raise ValueError(f"probabilities outside [0, 1]: {probs}")
    total = float(total())
    if not abs(total - 1.0) <= ATOL:  # also rejects NaN entries
        raise ValueError(f"probabilities sum to {total!r}, expected 1")


def _check_prob_rows(rows: np.ndarray) -> None:
    """``_check_probs`` on each row of a (k, n) array, in array passes."""
    bad = ((rows < -ATOL) | (rows > 1.0 + ATOL)).any(axis=1)
    if not bad.any():  # in-range rows cannot overflow; each sum has row.sum()'s bits
        bad = ~(np.abs(rows.sum(axis=1) - 1.0) <= ATOL)
    for row in rows[bad][:1]:  # the first failing row raises ProbDist's message
        _check_probs(row.tolist(), row.sum)


def as_probdist(p) -> ProbDist:
    """Coerce a sequence of probabilities (or pass through a ProbDist)."""
    return p if isinstance(p, ProbDist) else ProbDist(p)


@dataclass(frozen=True, eq=False)
class QubitState:
    """Single-qubit density matrix (2x2, Hermitian, unit trace, positive) and
    its Bloch vector r_k = Re tr(rho sigma_k), computed once."""

    rho: np.ndarray
    bloch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rho, rows = _square_rows(self.rho, 2, "density matrix")
        _check_density(rows)
        object.__setattr__(self, "rho", _frozen(rho))
        object.__setattr__(self, "bloch", _positive_bloch(rows))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def is_pure(self) -> bool:
        return abs(self.purity - 1.0) <= ATOL


def _check_density(rows: list) -> None:
    """Finite, Hermitian and unit trace within ATOL (any size), not positivity."""
    _check_hermitian(rows, "density matrix")
    trace = sum(row[i] for i, row in enumerate(rows))
    if abs(trace - 1.0) > ATOL:
        raise ValueError(f"density matrix trace is {trace}, expected 1")


def _check_hermitian(m: list, what: str) -> None:
    """Finite and Hermitian within ATOL, for a square matrix as nested lists."""
    if not all(cmath.isfinite(z) for row in m for z in row):
        raise ValueError(f"{what} has non-finite entries")
    gaps = (m[i][j] - m[j][i].conjugate() for i in range(len(m)) for j in range(i, len(m)))
    if max(math.hypot(g.real, g.imag) for g in gaps) > ATOL:  # overflow gives inf, not an error
        raise ValueError(f"{what} is not Hermitian")


def _positive_bloch(rows) -> np.ndarray:
    """The read-only Bloch vector of a 2x2 density matrix's rows, held to the
    unit-ball bound that is qubit positivity."""
    bloch = _pauli_vector(rows)
    _check_bloch(bloch)
    return _frozen(np.array(bloch))


def _pauli_vector(rows) -> tuple[float, float, float]:
    """Re tr(m sigma_k) for m = [[a, b], [c, d]], the einsum over PAULIS less its
    zero products; 0.0 + x turns -0.0 into 0.0, as einsum's zeroed sum does."""
    (a, b), (c, d) = rows
    return (0.0 + (b + c).real, 0.0 + (c - b).imag, 0.0 + (a - d).real)


def _cross(p, q) -> tuple[float, float, float]:
    """p x q for 3-sequences of Python floats, term for term as numpy computes it."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _check_bloch(r) -> None:
    """Bloch vector r finite with |r| <= 1 + ATOL: qubit positivity in closed
    form, as (I + r . sigma) / 2 has eigenvalues (1 +- |r|) / 2.  ``r`` is one
    vector as three Python floats, or a (..., 3) array checked row by row: the
    rows of a trajectory, which rotates a checked vector by a finite angle, so
    no entry is far above 1 and no square overflows; a NaN still fails the bound."""
    if not isinstance(r, np.ndarray):
        if not all(map(math.isfinite, r)):
            raise ValueError("Bloch vector has non-finite components")
        x, y, z = r
        # (x^2 + z^2) + y^2 is the order numpy's vectorised einsum sums a 3-vector in, so
        # this matches the array path; Python floats overflow to inf without a warning
        norm = math.sqrt(x * x + z * z + y * y)
    else:
        norm = float(np.sqrt(np.einsum("...i,...i->...", r, r).max()))
    if not norm <= 1.0 + ATOL:
        raise ValueError(f"Bloch vector norm {norm!r} outside the unit ball: negative eigenvalue")


def as_qubit_state(state) -> QubitState:
    return state if isinstance(state, QubitState) else QubitState(state)


@dataclass(frozen=True, eq=False)
class Direction:
    """Unit vector in real 3-space (norm 1 within 1e-12)."""

    vec: np.ndarray

    def __post_init__(self):
        vec = _real_array(self.vec).reshape(-1)
        if vec.shape != (3,):
            raise ValueError(f"direction must have 3 components, got {vec.shape}")
        _check_unit(vec.tolist())
        object.__setattr__(self, "vec", _frozen(vec))

    @classmethod
    def normalized(cls, values) -> "Direction":
        """Build a Direction by rescaling an arbitrary nonzero 3-vector."""
        vec = _real_array(values).reshape(-1)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if norm in (0.0, np.inf):  # the squares may have under- or overflowed
            scale = float(np.max(np.abs(vec), initial=0.0))
            if 0.0 < scale < np.inf:
                vec = vec / scale
                norm = float(np.linalg.norm(vec))
        if not 0.0 < norm < np.inf:
            raise ValueError(f"cannot normalize {vec.tolist()}: need a finite nonzero vector")
        return cls(vec / norm)


def _check_unit(row: list) -> None:
    """Direction's norm rule on three Python floats: 1 within ATOL."""
    norm = math.hypot(*row)  # no overflow (or warning) for huge components
    if not abs(norm - 1.0) <= ATOL:
        raise ValueError(f"direction norm is {norm!r}, expected 1")


def as_direction(d) -> Direction:
    return d if isinstance(d, Direction) else Direction(d)


X_DIR = Direction((1.0, 0.0, 0.0))
Y_DIR = Direction((0.0, 1.0, 0.0))
Z_DIR = Direction((0.0, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class MeasurementTriad:
    """Right-handed orthonormal directions, the rows of a read-only 3x3 copy ``matrix``."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _real_array(self.matrix)
        if matrix.shape != (3, 3):
            raise ValueError(f"triad matrix must be 3x3, got {matrix.shape}")
        _check_triad(matrix.tolist())
        object.__setattr__(self, "matrix", _frozen(matrix))

    @classmethod
    def from_matrix(cls, rows) -> "MeasurementTriad":
        return cls(rows)


def _check_triad(rows: list) -> None:
    """Direction's rule on each of three rows of Python floats, then orthogonal, then
    right-handed, within TRIAD_ATOL: |a.a - 1| is then about 2e-12 at most, far inside it."""
    for row in rows:
        _check_unit(row)
    a, b, c = rows
    if max(abs(_dot(a, b)), abs(_dot(a, c)), abs(_dot(b, c))) > TRIAD_ATOL:
        raise ValueError("triad directions are not mutually orthogonal")
    det = _dot(a, _cross(b, c))
    if abs(det - 1.0) > TRIAD_ATOL:
        raise ValueError(f"triad is not right-handed (det = {det!r})")


CANONICAL_TRIAD = MeasurementTriad(np.eye(3))  # rows X_DIR, Y_DIR, Z_DIR


def density_from_bloch(r) -> QubitState:
    """Qubit state (I + r . sigma) / 2 for a Bloch vector inside the unit ball."""
    r = _real_array(r).reshape(-1)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got {r.shape}")
    r = r.tolist()
    _check_bloch(r)
    x, y, z = r
    re, im = 0.0 + 0.5 * x, 0.5 * y  # the einsum's entries, less its zero products
    rows = ((0.5 * (1.0 + z), complex(re, 0.0 - im)), (complex(re, 0.0 + im), 0.5 * (1.0 - z)))
    # finite, Hermitian and of unit trace by construction; the Bloch vector read back may differ from r
    return _built(QubitState, rho=_frozen(np.array(rows)), bloch=_positive_bloch(rows))


def born_probabilities(state, direction) -> ProbDist:
    """Spin up/down probabilities along a direction: p = (1 +- d.r) / 2."""
    (pair,) = _born_pairs(as_qubit_state(state).bloch, (as_direction(direction).vec,))
    return ProbDist(pair)


def _born_pairs(r: np.ndarray, directions) -> list[tuple[float, float]]:
    """(p+, p-) = ((1 + d.r) / 2, (1 - d.r) / 2) as Python floats for each direction d,
    each held to ProbDist's rules as it is computed, without building one."""
    pairs = []
    for d in directions:
        overlap = float(d.dot(r))  # np.dot, not _dot: BLAS may fuse the multiply-adds
        p, q = 0.5 * (1.0 + overlap), 0.5 * (1.0 - overlap)
        if not (-ATOL <= p <= 1.0 + ATOL and -ATOL <= q <= 1.0 + ATOL and abs(p + q - 1.0) <= ATOL):
            _check_probs([p, q], lambda: p + q)  # raises ProbDist's message; NaN fails it too
        pairs.append((p, q))
    return pairs


# Seeded pseudo-randomness uses NumPy's default_rng (PCG64) throughout so the
# suite is reproducible: the same seed always yields the same draws.
DEFAULT_SEED = 42  # of ``infolab verify`` and the CLI, unless --seed is set


def random_directions(seed, n: int) -> np.ndarray:
    """(n, 3) unit vectors drawn uniformly from the sphere; a passed Generator
    is drawn from in place, so successive calls continue its stream.  Unless
    a row is redrawn, the rows are n successive ``random_direction`` draws."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, 3))
    # one dot product per row is bit-identical to np.linalg.norm of the row,
    # which norm(axis=1) and a sum of squares are not
    norms = np.sqrt((vecs[:, None, :] @ vecs[:, :, None])[:, 0, 0])
    for i in np.flatnonzero(norms < 1e-12):  # astronomically rare; keeps the draw well-defined
        while norms[i] < 1e-12:
            vecs[i] = rng.normal(size=3)
            norms[i] = np.linalg.norm(vecs[i])
    return vecs / norms[:, None]


def random_bloch_vectors(seed, n: int, pure: bool | None = None) -> np.ndarray:
    """(n, 3) Bloch vectors along uniform random directions: on the sphere if
    pure, else at a radius uniform in [0, 1); ``pure=None`` flips a fair coin
    per row.  Draw order: directions, coins (if ``pure`` is None), radii of
    the mixed rows."""
    rng = np.random.default_rng(seed)
    directions = random_directions(rng, n)
    mixed = rng.random(n) >= 0.5 if pure is None else np.full(n, not pure)
    radii = np.ones(n)
    radii[mixed] = rng.random(np.count_nonzero(mixed))
    return radii[:, None] * directions


def random_direction(seed=None) -> Direction:
    """One ``random_directions`` row as a validated Direction."""
    return Direction(random_directions(seed, 1)[0])


def random_qubit_state(seed=None, pure: bool | None = None) -> QubitState:
    """One ``random_bloch_vectors`` row as a validated QubitState."""
    return density_from_bloch(random_bloch_vectors(seed, 1, pure)[0])


def random_triad(seed=None) -> MeasurementTriad:
    """Measurement triad drawn uniformly from the rotation group SO(3).

    Gaussian 3x3 -> QR with the sign-fixed R diagonal gives Haar O(3);
    flipping the last row on det = -1 maps that onto uniform SO(3).
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    if _dot(q[0].tolist(), _cross(*q[1:].tolist())) < 0.0:  # det(q)
        q[2, :] = -q[2, :]
    return MeasurementTriad(q)


_NAMED_BLOCH = {
    "plus-x": (1.0, 0.0, 0.0),
    "minus-x": (-1.0, 0.0, 0.0),
    "plus-y": (0.0, 1.0, 0.0),
    "minus-y": (0.0, -1.0, 0.0),
    "plus-z": (0.0, 0.0, 1.0),
    "minus-z": (0.0, 0.0, -1.0),
    "mixed": (0.0, 0.0, 0.0),
}


def named_state(name: str) -> QubitState:
    """Look up a named single-qubit state ("plus-z", "minus-x", ..., "mixed")."""
    try:
        return density_from_bloch(_NAMED_BLOCH[name])
    except KeyError:
        known = ", ".join(sorted(_NAMED_BLOCH))
        raise ValueError(f"unknown state name {name!r} (known: {known})") from None
