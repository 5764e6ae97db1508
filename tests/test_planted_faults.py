"""Planted faults in the physics, one row each, and the properties of
``run_all(0)`` that must fail on them.

Each row plants its fault with ``monkeypatch`` and names the properties that
must report it; the battery must still report all 19 properties, never
raise. The ladder, support and isometry tables are cached, so they are
cleared before a row plants its fault and after it is undone.
"""

import numpy as np
import pytest

import idqsim.comparator
import idqsim.reduction
import idqsim.states
import idqsim.verification
from idqsim.reduction import MeasurementBasis, OccupationBasis
from idqsim.states import Statistics
from idqsim.verification import PROPERTY_NAMES, run_all

_ladder = idqsim.reduction._ladder
_lower = OccupationBasis.lower
_coords = idqsim.reduction.coords
_annihilate = idqsim.reduction.annihilate
_symmetrized = idqsim.comparator._symmetrized


def stage_weight_one_over_n_plus_one(monkeypatch):
    def lower(self, mb, factor):
        lowered, rest, _ = _lower(self, mb, factor)
        return lowered, rest, 1.0 / (self.sector + 1)

    monkeypatch.setattr(OccupationBasis, "lower", lower)


def boson_ladder_without_sqrt(monkeypatch):
    def ladder(dim, sector, statistics):
        up, g = _ladder(dim, sector, statistics)
        return (up, np.ones_like(g)) if statistics is Statistics.BOSON else (up, g)

    monkeypatch.setattr(idqsim.reduction, "_ladder", ladder)


def coords_drop_the_last_term(monkeypatch):
    def coords(phi, basis):
        if len(phi._stack[0]) < 2:  # a state keeps at least one term
            return _coords(phi, basis)
        coeffs, amps = phi._stack
        return _coords(phi._with(coeffs[:-1], amps[:-1]), basis)

    for module in (idqsim.reduction, idqsim.verification):
        monkeypatch.setattr(module, "coords", coords)


def removal_phase_always_plus_one(monkeypatch):
    monkeypatch.setattr(idqsim.states, "_removal_phase", lambda statistics, i: 1)


def annihilate_without_conjugating(monkeypatch):
    # the wrapped lowering conjugates the conjugated kets: none at all
    def annihilate(mb, factor, basis):
        return _annihilate(MeasurementBasis(mb.space, mb.amps.conj()), factor, basis)

    for module in (idqsim.reduction, idqsim.verification):
        monkeypatch.setattr(module, "annihilate", annihilate)


def fermion_symmetrizer_with_boson_signs(monkeypatch):
    monkeypatch.setattr(
        idqsim.comparator, "_symmetrized",
        lambda tensors, n, statistics: _symmetrized(tensors, n, Statistics.BOSON),
    )


SIX = {"oracle-trace-agreement", "trace-unitary-invariance", "density-matrix-contracts",
       "entropy-purity-consistency", "coords-isometry", "benchmark-reductions"}

FAULTS = [
    ("stage weight 1/(N+1)", stage_weight_one_over_n_plus_one,
     {"oracle-trace-agreement", "benchmark-reductions"}),
    ("boson ladder without sqrt(n+1)", boson_ladder_without_sqrt, SIX),
    ("coords drops the last term", coords_drop_the_last_term, SIX),
    ("removal phase always +1", removal_phase_always_plus_one,
     {"oracle-trace-agreement", "projection-completeness", "probability-complete-basis",
      "probability-additivity"}),
    ("annihilate without conjugating", annihilate_without_conjugating,
     {"oracle-trace-agreement"}),
    ("fermion symmetrizer with boson signs", fermion_symmetrizer_with_boson_signs,
     {"oracle-inner-factorial", "oracle-trace-agreement"}),
]


def clear_tables():
    idqsim.reduction._ladder.cache_clear()
    idqsim.reduction._support_ladder.cache_clear()
    idqsim.comparator._isometry.cache_clear()


@pytest.fixture
def planted():
    """A monkeypatch over clean tables, which are cleared again once it is undone."""
    clear_tables()
    with pytest.MonkeyPatch.context() as patch:
        yield patch
    clear_tables()


@pytest.mark.parametrize("name, plant, must_fail", FAULTS, ids=[row[0] for row in FAULTS])
def test_a_planted_fault_fails_its_properties(planted, name, plant, must_fail):
    assert must_fail <= set(PROPERTY_NAMES)
    plant(planted)
    results = run_all(0)
    assert [r.name for r in results] == list(PROPERTY_NAMES)
    failed = {r.name for r in results if not r.passed}
    assert must_fail <= failed, f"{name}: {sorted(must_fail - failed)} passed"
