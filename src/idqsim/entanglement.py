"""Entropy and mixedness diagnostics on reduced density matrices.

Entanglement between identical particles is operational here: a bipartition is
a plan of one-particle traces, and the entanglement monotone is the von
Neumann entropy (in bits) of what remains. A state is genuinely multipartite
entangled when every planned bipartition leaves a mixed remainder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from . import comparator, reduction
from .comparator import LabeledState, SlotTrace
from .errors import SimulationError
from .reduction import (
    DensityMatrix,
    MeasurementBasis,
    eigenvalues_hermitian,  # noqa: F401 - re-exported
    partial_trace_iterate,  # noqa: F401 - perfbench/tracer.py wraps this name
    require_depth,
    trace_finish,
    trace_stage,
)
from .states import ParticleState

MIXED_THRESHOLD_BITS = 1e-6


def spectrum(rho: DensityMatrix) -> np.ndarray:
    """Descending eigenvalues of ``rho`` (computed at its construction, read-only)."""
    return rho.spectrum


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum p log2 p, with 0 log 0 = 0. In bits."""
    p = spectrum(rho)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) + 0.0  # flatten -0.0 for pure states


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2; equals 1 exactly for pure states, 1/d for maximal mixing.

    Computed as ``||V^dagger V||_F^2`` on the factor ``V`` of ``rho``.
    """
    gram = rho.factor.conj().T @ rho.factor
    return float(np.vdot(gram, gram).real)


Stage = Union[MeasurementBasis, SlotTrace]


@dataclass(frozen=True)
class TracePlan:
    """One bipartition to probe: which stages to trace toward each remainder.

    ``one_stages`` leaves a one-particle remainder, ``two_stages`` a
    two-particle one; either may be None to skip that side. Stages are
    MeasurementBasis entries for identical particles and SlotTrace entries
    for labeled ones. Plans that do not split the state into complementary
    parts (e.g. a conditional two-step measurement) should set
    ``bipartition=False`` so they do not vote on the genuine-multipartite flag.
    """

    label: str
    one_stages: Optional[tuple[Stage, ...]] = None
    two_stages: Optional[tuple[Stage, ...]] = None
    bipartition: bool = True

    def __post_init__(self):
        if self.one_stages is None and self.two_stages is None:
            raise ValueError(f"plan {self.label!r} traces nothing")
        for name, stages in (("one", self.one_stages), ("two", self.two_stages)):
            if stages is not None:
                object.__setattr__(self, f"{name}_stages", tuple(stages))

    def sides(self) -> tuple[tuple[str, tuple[Stage, ...]], ...]:
        """(side, stages) for each traced side, "one" first."""
        return tuple(
            (side, stages)
            for side, stages in (("one", self.one_stages), ("two", self.two_stages))
            if stages is not None
        )


@dataclass(frozen=True)
class BipartitionReport:
    label: str
    mixed: bool
    entropy_one: Optional[float] = None
    entropy_two: Optional[float] = None
    purity_one: Optional[float] = None
    purity_two: Optional[float] = None
    rho_one: Optional[DensityMatrix] = None
    rho_two: Optional[DensityMatrix] = None
    bipartition: bool = True


@dataclass(frozen=True)
class EntanglementReport:
    bipartitions: tuple[BipartitionReport, ...]
    genuine_multipartite: Optional[bool]

    def __getitem__(self, label: str) -> BipartitionReport:
        for b in self.bipartitions:
            if b.label == label:
                return b
        raise KeyError(label)


def analyze(
    state: Union[ParticleState, LabeledState], plans: Sequence[TracePlan]
) -> EntanglementReport:
    """Run every trace plan and aggregate the mixedness verdicts.

    All sides of all plans run as one prefix tree over the trace walk of
    ``reduction``, which serves both particle kinds; the kind only picks
    the start (``reduction.trace_start`` for identical particles,
    ``comparator.trace_start`` for labeled ones). The state is started
    once, and each distinct stage prefix is lowered once. A stage is keyed
    by its value (its kets' amplitude bytes, and the slot of a SlotTrace),
    and its frame is checked against the walk's before a stored walk is
    reused; a stored walk is dropped after the last side that extends it.
    Sides run in plan order, so results and the first error are those of
    tracing each side on its own.

    A bipartition counts as mixed when every entropy it produced exceeds
    MIXED_THRESHOLD_BITS. The genuine-multipartite flag is the AND over
    bipartition plans, or None when no plan is a bipartition. An error of a
    trace is re-raised with the plan label and side at the head of its message.
    """
    labels = [p.label for p in plans]
    if len(set(labels)) != len(labels):
        raise ValueError("trace plan labels must be distinct")
    start = comparator.trace_start if isinstance(state, LabeledState) else reduction.trace_start
    paths = [[_prefixes(stages) for _, stages in plan.sides()] for plan in plans]
    users = Counter(prefix for sides in paths for path in sides for prefix in path)
    memo: dict[tuple, tuple] = {}
    root = None
    reports = []
    for plan, sides in zip(plans, paths):
        entries: dict[str, object] = {}
        entropies = []
        for (side, stages), path in zip(plan.sides(), sides):
            try:
                root = start(state) if root is None else root
                require_depth(len(stages), state.n)
                walk = root
                for stage, prefix in zip(stages, path):
                    users[prefix] -= 1
                    # a walk starts with its basis; trace_stage raises on a foreign frame
                    same = stage.space == walk[0].space
                    hit = memo.get(prefix) if same else None
                    walk = trace_stage(walk, stage) if hit is None else hit
                    if users[prefix]:
                        memo[prefix] = walk
                    else:
                        memo.pop(prefix, None)
                rho = trace_finish(walk)
            except (SimulationError, ArithmeticError, ValueError) as exc:
                # reworded in place: the same exception keeps its exit code
                exc.args = (f"plan {plan.label!r}, side {side}: {exc}",)
                raise
            s = von_neumann_entropy(rho)
            entropies.append(s)
            entries |= {f"rho_{side}": rho, f"entropy_{side}": s, f"purity_{side}": purity(rho)}
        mixed = bool(entropies) and all(s > MIXED_THRESHOLD_BITS for s in entropies)
        reports.append(
            BipartitionReport(
                label=plan.label,
                mixed=mixed,
                bipartition=plan.bipartition,
                **entries,
            )
        )
    votes = [r.mixed for r in reports if r.bipartition]
    genuine = all(votes) if votes else None
    return EntanglementReport(tuple(reports), genuine)


def _prefixes(stages: Sequence[Stage]) -> tuple[tuple, ...]:
    """The memo key of each leading run of ``stages``, shortest first."""
    return tuple(accumulate((_stage_key(stage),) for stage in stages))


def _stage_key(stage: Stage) -> tuple:
    """A stage by value: its slot (None for a MeasurementBasis) and the bytes
    of its kets' amplitudes."""
    if isinstance(stage, SlotTrace):
        return stage.slot, _stage_key(stage.basis)[1]
    return None, b"".join(k.amps.tobytes() for k in stage.kets)
