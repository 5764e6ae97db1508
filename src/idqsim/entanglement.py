"""Entropy and mixedness diagnostics on reduced density matrices.

Entanglement between identical particles is operational here: a bipartition is
a plan of one-particle traces, and the entanglement monotone is the von
Neumann entropy (in bits) of what remains. A state is genuinely multipartite
entangled when every planned bipartition leaves a mixed remainder.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from . import comparator, reduction
from .comparator import LabeledState, SlotTrace
from .errors import SimulationError
from .hilbert import Frozen
from .reduction import (
    DensityMatrix,
    MeasurementBasis,
    partial_trace_iterate,  # noqa: F401 - perfbench/tracer.py wraps this name
    require_depth,
    trace_finish,
    trace_stage,
)
from .states import ParticleState

MIXED_THRESHOLD_BITS = 1e-6


def spectrum(rho: DensityMatrix) -> np.ndarray:
    """Descending eigenvalues of ``rho`` (read-only): computed at its
    construction, padded with zeros to its basis size on first read."""
    return rho.spectrum


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum p log2 p, with 0 log 0 = 0. In bits; +0.0 for a pure state.

    Read from ``rho``, which sums it once over the eigenvalues of its Gram
    matrix at construction.
    """
    return rho.entropy


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2; equals 1 exactly for pure states, 1/d for maximal mixing.

    Read from ``rho``, which forms it from the same Gram matrix as its
    spectrum.
    """
    return rho.purity


Stage = Union[MeasurementBasis, SlotTrace]


class TracePlan(Frozen):
    """One bipartition to probe: which stages to trace toward each remainder.

    ``one_stages`` leaves a one-particle remainder, ``two_stages`` a
    two-particle one; either may be None to skip that side, but a side
    given must trace at least one stage. Stages are
    MeasurementBasis entries for identical particles and SlotTrace entries
    for labeled ones; a stage of the other kind is refused when it is
    traced. Plans that do not split the state into complementary
    parts (e.g. a conditional two-step measurement) should set
    ``bipartition=False`` so they do not vote on the genuine-multipartite flag.
    """

    def __init__(
        self,
        label: str,
        one_stages: Optional[Sequence[Stage]] = None,
        two_stages: Optional[Sequence[Stage]] = None,
        bipartition: bool = True,
    ):
        if one_stages is None and two_stages is None:
            raise ValueError(f"plan {label!r} traces nothing")
        one_stages = None if one_stages is None else tuple(one_stages)
        two_stages = None if two_stages is None else tuple(two_stages)
        for side, stages in (("one", one_stages), ("two", two_stages)):
            if stages == ():  # it would report the untraced state as its remainder
                raise ValueError(f"plan {label!r}, side {side}: no stages to trace")
        self._set("label", label)
        self._set("one_stages", one_stages)
        self._set("two_stages", two_stages)
        self._set("bipartition", bipartition)

    def sides(self) -> tuple[tuple[str, tuple[Stage, ...]], ...]:
        """(side, stages) for each traced side, "one" first."""
        return tuple(
            (side, stages)
            for side, stages in (("one", self.one_stages), ("two", self.two_stages))
            if stages is not None
        )

    @cached_property
    def _paths(self) -> tuple[tuple[tuple, ...], ...]:
        """``_prefixes`` of each side's stages, in ``sides()`` order; found on
        the first ``analyze``, as stages and their kets' amplitudes are
        immutable."""
        return tuple(_prefixes(stages) for _, stages in self.sides())


class BipartitionReport(Frozen):
    """One plan's verdict and its remainders, ``rho_one`` and ``rho_two``
    (None for a side not traced). Every number of a side (probability,
    entropy, purity, spectrum) is read off its ``DensityMatrix``."""

    def __init__(
        self,
        label: str,
        mixed: bool,
        rho_one: Optional[DensityMatrix] = None,
        rho_two: Optional[DensityMatrix] = None,
        bipartition: bool = True,
    ):
        self._set("label", label)
        self._set("mixed", mixed)
        self._set("rho_one", rho_one)
        self._set("rho_two", rho_two)
        self._set("bipartition", bipartition)


class EntanglementReport(Frozen):
    def __init__(
        self,
        bipartitions: tuple[BipartitionReport, ...],
        genuine_multipartite: Optional[bool],
    ):
        self._set("bipartitions", bipartitions)
        self._set("genuine_multipartite", genuine_multipartite)

    def __getitem__(self, label: str) -> BipartitionReport:
        return self._by_label[label]

    @cached_property
    def _by_label(self) -> dict[str, BipartitionReport]:
        """The bipartitions by label, the first of equal labels winning."""
        return {b.label: b for b in reversed(self.bipartitions)}


def analyze(
    state: Union[ParticleState, LabeledState], plans: Sequence[TracePlan]
) -> EntanglementReport:
    """Run every trace plan and aggregate the mixedness verdicts.

    All sides of all plans run as one prefix tree over the trace walk of
    ``reduction``, which serves both particle kinds; the kind only picks
    the start (``reduction.trace_start`` for identical particles,
    ``comparator.trace_start`` for labeled ones). The state is started
    once, and each distinct stage prefix is lowered once. A stage is keyed
    by its value (its frame and its kets' amplitude bytes, and the slot of a
    SlotTrace), so a stage from another frame never meets a stored walk and
    ``trace_stage`` refuses it; a stored walk is dropped after the last
    side that extends it.
    A plan keys its stages once, on its first run (``TracePlan._paths``).
    Sides run in plan order, so results and the first error are those of
    tracing each side on its own.

    A report keeps each side's remainder, and nothing read off it. A
    bipartition counts as mixed when every remainder it produced has an
    entropy above MIXED_THRESHOLD_BITS. The genuine-multipartite flag is
    the AND over bipartition plans, or None when no plan is a bipartition.
    An error of a trace is re-raised with the plan label and side at the
    head of its message.
    """
    labels = [p.label for p in plans]
    if len(set(labels)) != len(labels):
        raise ValueError("trace plan labels must be distinct")
    start = comparator.trace_start if isinstance(state, LabeledState) else reduction.trace_start
    paths = [plan._paths for plan in plans]
    users = Counter(prefix for sides in paths for path in sides for prefix in path)
    memo: dict[tuple, tuple] = {}
    root = None
    reports = []
    for plan, sides in zip(plans, paths):
        entries: dict[str, DensityMatrix] = {}
        for (side, stages), path in zip(plan.sides(), sides):
            try:
                root = start(state) if root is None else root
                require_depth(len(stages), state.n)
                walk = root
                for stage, prefix in zip(stages, path):
                    users[prefix] -= 1
                    # a key holds its frame: a foreign stage misses, and trace_stage raises
                    hit = memo.get(prefix)
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
            entries[f"rho_{side}"] = rho
        mixed = all(rho.entropy > MIXED_THRESHOLD_BITS for rho in entries.values())
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
    """A stage by value: its slot (None for a MeasurementBasis) and the
    value key its basis compares by (``MeasurementBasis._key``: the frame
    and the stack's bytes)."""
    if isinstance(stage, SlotTrace):
        return stage.slot, stage.basis._key
    return None, stage._key
