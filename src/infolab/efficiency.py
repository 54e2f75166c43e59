"""Non-ideal spin measurement with overall detector efficiency eta.

The particle is ideally spin-up along x.  With detection efficiency eta the
statistics over the three events (up, down, no detection) along x, y, z are

    x: (eta, 0, 1 - eta)        y = z: (eta/2, eta/2, 1 - eta)

so every direction becomes a three-outcome experiment (n = 3, capacity
k = log2 3) for any eta in (0, 1).  The per-direction quadratic (BZ)
informations have the closed forms

    I1 = (3 log2(3) / 2) [(eta - 1/3)^2 + (eta - 2/3)^2 + 1/9]
    I2 = I3 = (3 log2(3) / 2) (3/2) (eta - 2/3)^2

summing to I_total = (3 log2(3) / 2) (5 eta^2 - 6 eta + 2), while the Shannon
uncertainties are H_x = -eta log2(eta) - (1-eta) log2(1-eta) and
H_y = H_z = H_x + eta.

I_total / k crosses 1 at the roots of 15 eta^2 - 18 eta + 4, i.e.
eta = (9 -+ sqrt(21)) / 15 (about 0.2945 and 0.9055): outside that band the
quadratic total exceeds the largest amount of information a single spin could
encode, so it is not conserved across experiments of different efficiency.

Perfect detection is a structural change, not the eta -> 1 limit: with no
third outcome each direction is a two-outcome experiment again.  That ideal
mode (total of 1 bit) is kept separate in ideal_bz_total rather than being
silently conflated with the n = 3 model, which at eta = 1 still gives
(3/2) log2 3 bits.

The model is a function of eta, the overall detector efficiency, identical
along all three directions: outcome_probabilities(eta) and bz_total_closed(eta)
each read it once.  The closed forms above are written once, in _closed_forms,
which works on a scalar or an array of eta: bz_total_closed wraps it and
ratio_sweep calls it once for the whole grid.  SweepTable.validate is the one
check of a sweep's row identities; it compares every row with the generic
measures of that row's outcome distributions and returns the worst gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .measures import bz_elementary, bz_measure, normalization_factor, shannon
from .states import ProbDist, _finite_real, _integer

K_THREE = math.log2(3.0)


def outcome_probabilities(eta: float) -> tuple[ProbDist, ProbDist, ProbDist]:
    """(up, down, none) distributions along x, y, z for a spin-up-x particle; y and z share one."""
    eta = _finite_real(eta, "efficiency", 0, 1)
    along_yz = ProbDist((0.5 * eta, 0.5 * eta, 1.0 - eta))
    return ProbDist((eta, 0.0, 1.0 - eta)), along_yz, along_yz


def _closed_forms(eta):
    """(I1, I2 = I3, I_total, Hx, Hy = Hz) at a scalar or an array of eta.

    The one implementation of the model's closed forms: bz_total_closed and
    ratio_sweep both evaluate it.
    """
    eta = np.asarray(eta, dtype=float)
    n3 = normalization_factor(3)
    i1 = n3 * ((eta - 1.0 / 3.0) ** 2 + (eta - 2.0 / 3.0) ** 2 + 1.0 / 9.0)
    i23 = n3 * 1.5 * (eta - 2.0 / 3.0) ** 2
    total = n3 * (5.0 * eta * eta - 6.0 * eta + 2.0)
    interior = (0.0 < eta) & (eta < 1.0)
    p = np.where(interior, eta, 0.5)  # keeps log2 away from 0 at the endpoints
    hx = np.where(interior, -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p), 0.0)
    return i1, i23, total, hx, hx + eta


def bz_total_closed(eta: float) -> float:
    """Closed-form total I1 + I2 + I3 = (3 log2(3) / 2) (5 eta^2 - 6 eta + 2)."""
    return float(_closed_forms(_finite_real(eta, "efficiency", 0, 1))[2])


def ideal_bz_total() -> float:
    """Total information in ideal mode, exactly 1 bit: the two-outcome
    informations along x, y, z, certainty along x only."""
    return bz_elementary(1.0, 0.0) + bz_elementary(0.5, 0.5) + bz_elementary(0.5, 0.5)


def thresholds() -> tuple[float, float]:
    """Efficiencies where I_total / k crosses 1: roots of 15 eta^2 - 18 eta + 4.

    Full double precision (9 -+ sqrt(21)) / 15; rounded to two decimals they
    read 0.29 and 0.91.
    """
    root = math.sqrt(21.0)
    return (9.0 - root) / 15.0, (9.0 + root) / 15.0


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Column-oriented sweep of the efficiency model over an eta grid."""

    eta: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    i3: np.ndarray
    i_total: np.ndarray
    ratio: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    hz: np.ndarray

    HEADER = ("eta", "I1", "I2", "I3", "I_total", "ratio", "Hx", "Hy", "Hz")  # the fields' order

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return self.eta.size

    def validate(self) -> float:
        """Re-check every row identity and return the worst gap; raises
        ValueError when a gap exceeds 1e-12 or is NaN.

        Checks, per row: I_total = I1 + I2 + I3 = closed form = the generic
        total, ratio = I_total / k, Hy = Hz = Hx + eta, and agreement of
        each closed-form column with the generic measure applied to the
        outcome distributions (the independent oracle).
        """
        # the oracle: generic (bz, bz, bz, H, H, H) of each row's distributions;
        # an eta outside [0, 1] has none, so its row stays NaN and fails
        generic = np.full((len(self), 6), np.nan)
        for idx, eta in enumerate(self.eta.tolist()):
            if 0.0 <= eta <= 1.0:
                dists = outcome_probabilities(eta)
                generic[idx] = [*map(bz_measure, dists), *map(shannon, dists)]
        total = self.i_total
        gaps = np.abs(
            np.column_stack(
                [
                    total - (self.i1 + self.i2 + self.i3),
                    total - _closed_forms(self.eta)[2],
                    total - (generic[:, 0] + generic[:, 1] + generic[:, 2]),
                    self.ratio - total / K_THREE,
                    self.hy - self.hz,
                    self.hy - (self.hx + self.eta),
                    np.column_stack((self.i1, self.i2, self.i3, self.hx, self.hy, self.hz))
                    - generic,
                ]
            )
        )
        row_gap = gaps.max(axis=1)  # a NaN anywhere makes its row NaN
        bad = np.flatnonzero(~(row_gap <= 1e-12))
        if bad.size:
            idx = int(bad[0])
            raise ValueError(
                f"sweep row {idx} (eta = {float(self.eta[idx])!r}) violates a row "
                f"identity by {row_gap[idx]:.3e}"
            )
        return float(row_gap.max(initial=0.0))


def ratio_sweep(eta_min: float, eta_max: float, steps: int) -> SweepTable:
    """Sweep the model over a uniform eta grid (endpoints included)."""
    lo, hi = _finite_real(eta_min, "eta_min", 0, 1), _finite_real(eta_max, "eta_max", 0, 1)
    if not lo < hi:
        raise ValueError(f"need eta_min < eta_max, got [{lo!r}, {hi!r}]")
    etas = np.linspace(lo, hi, _integer(steps, "steps", 2))
    i1, i23, total, hx, hyz = _closed_forms(etas)
    return SweepTable(etas, i1, i23, i23.copy(), total, total / K_THREE, hx, hyz, hyz.copy())
