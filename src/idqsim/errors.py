"""Exception types raised by the state algebra, reductions and scenario runner."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class BasisMismatchError(SimulationError):
    """Vectors defined over different canonical single-particle bases."""


class IncompatibleStatesError(SimulationError):
    """States that differ in particle number, exchange statistics or basis."""


class NullStateError(SimulationError):
    """A many-particle state with zero norm, e.g. a Pauli-excluded fermion state."""


class EmptyStateError(SimulationError):
    """A single-particle projection requested on a zero-particle state."""


class ZeroProbabilityError(SimulationError):
    """A post-selective trace whose measurement subspace never fires."""


class NotPSDError(SimulationError):
    """A matrix violating positive-semidefiniteness beyond tolerance."""


class OracleScaleError(SimulationError):
    """A labeled brute-force computation beyond the oracle's size cap."""


class ScenarioError(SimulationError):
    """An invalid scenario file, scenario spec or scenario name."""
