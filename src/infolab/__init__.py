"""Quadratic vs Shannon information measures for qubit experiments.

A small numpy library (plus an ``infolab`` command-line tool) covering:
validated qubit/two-qubit states and measurement triads (:mod:`.states`),
the Shannon and quadratic Brukner-Zeilinger measures (:mod:`.measures`),
information vectors with conservation under unitary evolution, evaluated
for whole time grids at once by ``info_trajectory`` (:mod:`.infospace`),
the three-outcome detector-efficiency model where the quadratic total
fails to be conserved (:mod:`.efficiency`), and the
correlation-information condition for entanglement (:mod:`.entanglement`).
"""

from .efficiency import (
    SweepTable,
    bz_total_closed,
    ideal_bz_total,
    outcome_probabilities,
    ratio_sweep,
    thresholds,
)
from .entanglement import (
    CorrInfoResult,
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
from .infospace import (
    ConservationReport,
    Hamiltonian,
    InfoVector,
    conservation_check,
    evolve,
    info_trajectory,
    info_vector,
    rotate_triad,
    rotation_matrix,
    total_information,
)
from .measures import (
    bz_elementary,
    bz_measure,
    normalization_factor,
    shannon,
)
from .states import (
    CANONICAL_TRIAD,
    X_DIR,
    Y_DIR,
    Z_DIR,
    Direction,
    MeasurementTriad,
    ProbDist,
    QubitState,
    born_probabilities,
    density_from_bloch,
    named_state,
    random_direction,
    random_qubit_state,
    random_triad,
)

__version__ = "0.1.0"
