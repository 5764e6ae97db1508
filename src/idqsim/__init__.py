"""Entanglement of identical qubits, computed without particle labels.

States are unordered lists of single-particle kets; overlaps come from
permanents (bosons) or determinants (fermions) of single-particle Gram
matrices. Partial traces project one particle at a time onto measurement
kets, and entanglement is read off the von Neumann entropy of what remains.
A brute-force labeled oracle cross-checks everything.
"""

from .comparator import (
    LabeledState,
    SlotTrace,
    distinguishable_trace_iterate,
    occupation_isometry,
    oracle_inner,
    oracle_trace_iterate,
    product_state,
    symmetrize_state,
)
from .entanglement import (
    BipartitionReport,
    EntanglementReport,
    TracePlan,
    analyze,
    purity,
    spectrum,
    von_neumann_entropy,
)
from .errors import (
    BasisMismatchError,
    EmptyStateError,
    IncompatibleStatesError,
    NotPSDError,
    NullStateError,
    OracleScaleError,
    ScenarioError,
    SimulationError,
    ZeroProbabilityError,
)
from .hilbert import (
    CanonicalBasis,
    Ket,
    Spin,
    orthonormality_defect,
    sp_inner,
)
from .permanents import determinant, permanent
from .reduction import (
    DensityMatrix,
    MeasurementBasis,
    OccupationBasis,
    coords,
    partial_trace_iterate,
    probability_of,
)
from .scenarios import (
    Expectation,
    ScenarioReport,
    ScenarioSpec,
    builtin_names,
    delocalized_pair,
    get_builtin,
    load_scenario,
    run_spec,
    standard_space,
)
from .states import (
    ElementaryState,
    ParticleState,
    Statistics,
    elementary,
    inner,
    norm,
    normalize,
    project_single,
    states_close,
)
from .verification import PropertyResult, run_all

__version__ = "0.1.0"

__all__ = [
    "BasisMismatchError",
    "BipartitionReport",
    "CanonicalBasis",
    "DensityMatrix",
    "ElementaryState",
    "EmptyStateError",
    "EntanglementReport",
    "Expectation",
    "IncompatibleStatesError",
    "Ket",
    "LabeledState",
    "MeasurementBasis",
    "NotPSDError",
    "NullStateError",
    "OccupationBasis",
    "OracleScaleError",
    "ParticleState",
    "PropertyResult",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioSpec",
    "SimulationError",
    "SlotTrace",
    "Spin",
    "Statistics",
    "TracePlan",
    "ZeroProbabilityError",
    "analyze",
    "builtin_names",
    "coords",
    "delocalized_pair",
    "determinant",
    "distinguishable_trace_iterate",
    "elementary",
    "get_builtin",
    "inner",
    "load_scenario",
    "norm",
    "normalize",
    "occupation_isometry",
    "oracle_inner",
    "oracle_trace_iterate",
    "orthonormality_defect",
    "partial_trace_iterate",
    "permanent",
    "probability_of",
    "product_state",
    "project_single",
    "purity",
    "run_all",
    "run_spec",
    "sp_inner",
    "spectrum",
    "standard_space",
    "states_close",
    "symmetrize_state",
    "von_neumann_entropy",
]
