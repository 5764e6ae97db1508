"""Brute-force labeled-particle oracle for cross-checking the state algebra.

Everything here works in the explicit tensor-product space of labeled slots.
A state's terms become product tensors, one array axis per slot (the outer
product of the kets), summed with the coefficients by one ``np.dot`` on the
flattened tensors (the product ``np.tensordot`` forms; ``@`` rounds
differently), and the (anti)symmetrized vector is the signed sum of the
``N!`` axis transposes of that one tensor, evaluated as nested coset sums
in ``N(N-1)/2`` transposed passes (``_symmetrized``). It is exponentially
sized on purpose: results are trusted because the construction is obvious,
not because it is fast. Scale is capped accordingly.

The load-bearing identities, verified in the property suite:

* ``oracle_inner(a, b) == factorial(n) * inner(a, b)``
* one-particle traces of the symmetrized vector agree entry-by-entry with the
  occupation-basis density matrices from the main algebra, and the slot used
  for the projection does not matter.

Labeled traces keep ``rho = V V^dagger`` as a factor ``V`` whose columns
are labeled vectors, starting from the normalized state as one column. A
stage contracts ``conj(psi_k)`` on one slot of every column and stacks the
results for all kets ``psi_k`` (``_contract_slot``), the same linear map as
the partial trace of the dense ``rho``. Memory is ``dim^n`` entries per
column instead of the ``dim^(2n)`` of a dense ``rho``.

The oracle traces the symmetrized vector on its leading slot and maps the
end result to the occupation basis as ``T^dagger V``. The isometry ``T``
(``occupation_isometry``) symmetrizes the canonical product tensors of every
occupation entry as one stack; it is built on first use, once per
``(dim, sector, statistics)``, and returned read-only. Only the sixteen
tables used last are kept: the boson one of 4 particles over dimension 8
alone is 21.6 MB. The oracle never compresses its factor: it is the
reference that the ladder route's compression is checked against. It uses
none of the ladder tables.

The module also hosts the distinguishable-particle comparator: plain labeled
product states with per-slot post-selected traces, no symmetrization. It
runs on the walk of ``idqsim.reduction`` (``trace_walk`` in sequence,
``entanglement.analyze`` as a prefix tree), over a ``LabeledProductBasis``
of the slots not yet measured: ``LabeledProductBasis.lower`` contracts the
measured slot with ``_contract_slot``, and the shared stage compresses the
factor, so it is never wider than the product basis of the remaining slots.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .errors import IncompatibleStatesError, OracleScaleError, ZeroProbabilityError
from .hilbert import CanonicalBasis, Frozen, Ket, _value_key
from .reduction import (
    DensityMatrix,
    MeasurementBasis,
    OccupationBasis,
    ZERO_PROB_TOL,
    _entries,
    _shared_basis,
    require_depth,
    start_walk,
    trace_walk,
)
from .states import (
    ElementaryState,
    ParticleState,
    Statistics,
    _is_null,
    _require_compatible,
    _stack_terms,
    elementary,
)

MAX_PARTICLES = 5
MAX_DIM = 8


def _check_scale(n: int, dim: int) -> None:
    if n > MAX_PARTICLES or dim > MAX_DIM:
        raise OracleScaleError(
            f"labeled vectors are capped at {MAX_PARTICLES} particles over "
            f"dimension {MAX_DIM} (asked for {n} over {dim})"
        )


def _products(amps: np.ndarray) -> np.ndarray:
    """Product tensors ``amps[t, 0] (x) ... (x) amps[t, n-1]`` of a
    ``(terms, n, dim)`` stack, shaped ``(terms, dim, ..., dim)``: axis ``1 + k``
    is slot ``k``, so a flattened tensor is the Kronecker product."""
    terms, n, dim = amps.shape
    out = np.ones(terms, dtype=complex)
    for k in range(n):
        out = out[..., None] * amps[:, k].reshape((terms,) + (1,) * k + (dim,))
    return out


def _symmetrized(tensors: np.ndarray, n: int, statistics: Statistics) -> np.ndarray:
    """Signed sum of the ``n!`` transposes of the last ``n`` axes, as a new
    array (leading axes are a stack).

    Evaluated as nested coset sums in ``n(n-1)/2`` transposed passes: every
    permutation of the axes ``a..n-1`` is one ``(a k)``, ``k >= a`` (``(a a)``
    the identity), times one that fixes axis ``a``. So for ``a = n-2`` down
    to ``0``, ``out`` becomes ``out + eps * sum_{k>a} swapaxes(out, a, k)``,
    with ``eps = -1`` for fermions. Each level sums into a fresh array.
    """
    if n < 2:
        return tensors + 0.0  # a new array, as for every n
    lead = tensors.ndim - n
    add = np.subtract if statistics is Statistics.FERMION else np.add
    out = tensors
    for a in range(lead + n - 2, lead - 1, -1):
        acc = add(out, out.swapaxes(a, a + 1))
        for k in range(a + 2, lead + n):
            add(acc, out.swapaxes(a, k), out=acc)
        out = acc
    return out


def symmetrize(term: ElementaryState, statistics: Statistics) -> np.ndarray:
    """Sum of signed slot permutations of the term's product vector."""
    return symmetrize_state(elementary(statistics, term.kets, term.coeff))


def symmetrize_state(phi: ParticleState) -> np.ndarray:
    """The state's product tensors, read off its amplitude stack, summed with
    their coefficients and then symmetrized once, as a flat labeled vector."""
    coeffs, amps = phi._stack
    if phi.n == 0:
        return np.array([coeffs.sum()])
    _check_scale(phi.n, amps.shape[2])
    products = _products(amps)
    summed = np.dot(coeffs[None], products.reshape(len(coeffs), -1))
    return _symmetrized(summed.reshape(products.shape[1:]), phi.n, phi.statistics).reshape(-1)


def oracle_inner(bra: ParticleState, ket: ParticleState) -> complex:
    """Labeled inner product; equals factorial(n) times the state algebra's.
    States that ``inner`` refuses (other statistics, particle number or
    frame) are refused alike, with IncompatibleStatesError."""
    _require_compatible(bra, ket)
    return complex(np.vdot(symmetrize_state(bra), symmetrize_state(ket)))


def occupation_isometry(occ: OccupationBasis) -> np.ndarray:
    """Read-only; columns: normalized symmetrized vectors of each occupation
    entry.

    Satisfies T^dagger T = identity; maps labeled symmetric-sector vectors to
    occupation coordinates.
    """
    _check_scale(occ.sector, occ.space.dim)
    return _isometry(occ.space.dim, occ.sector, occ.statistics)


# run_all builds 10 tables on any seed (sectors 1-3 over dim 6 and 2-3 over dim 8,
# for both statistics; the largest, 3 bosons over dim 8, is 120 x 512) and a
# verify round 4 of those, so one run_all evicts none (8 entries evicted 2)
@lru_cache(maxsize=16)
def _isometry(dim: int, sector: int, statistics: Statistics) -> np.ndarray:
    """``occupation_isometry`` per ``(dim, sector, statistics)``: the product
    tensors of every entry's canonical kets, symmetrized as one stack."""
    entries = _entries(dim, sector, statistics)
    kets = np.eye(dim, dtype=complex)[entries]  # (size, sector, dim)
    cols = _symmetrized(_products(kets), sector, statistics).reshape(len(entries), -1).T
    cols = cols / np.linalg.norm(cols, axis=0)
    cols.flags.writeable = False
    return cols


def _labeled_normalized(phi: ParticleState) -> np.ndarray:
    """The symmetrized vector at unit norm. Its squared norm is ``n!`` times
    ``<phi|phi>``, so a state is refused by the rule ``normalize`` applies,
    relative to the state's own scale."""
    vec = symmetrize_state(phi)
    nrm = np.linalg.norm(vec)
    if _is_null(phi, nrm * nrm / math.factorial(phi.n)):
        raise ValueError("state symmetrizes to zero")
    return vec / nrm


def _contract_slot(factor: np.ndarray, basis: MeasurementBasis, slot: int) -> np.ndarray:
    """``[<psi_1|_slot V, ..., <psi_K|_slot V]`` for the kets of ``basis``.

    The columns of ``V = factor`` are labeled vectors over the remaining
    slots; ``conj(psi_k)`` is contracted on the one at position ``slot``.
    The result has ``dim`` times fewer rows and ``K`` times as many columns.
    """
    dim = basis.space.dim
    cols = factor.reshape(dim**slot, dim, -1, factor.shape[1])
    lowered = np.einsum("kb,abcw->ackw", basis.amps.conj(), cols)
    return lowered.reshape(-1, len(basis.amps) * factor.shape[1])


def oracle_trace_iterate(
    phi: ParticleState, bases: Sequence[MeasurementBasis]
) -> DensityMatrix:
    """One-particle traces computed entirely in the labeled space. A stage
    over another frame is refused with IncompatibleStatesError, as the walk
    of ``idqsim.reduction`` refuses it."""
    n = phi.n
    dim = phi.basis.dim
    _check_scale(n, dim)
    require_depth(len(bases), n)
    factor = _labeled_normalized(phi)[:, None]
    prob = 1.0
    m = n
    for mb in bases:
        if mb.space != phi.basis:
            raise IncompatibleStatesError("measurement ket and state bases differ")
        nxt = _contract_slot(factor, mb, 0)
        stage = np.vdot(nxt, nxt).real
        if stage <= ZERO_PROB_TOL:
            raise ZeroProbabilityError("basis never fires (labeled route)")
        factor = nxt / math.sqrt(stage)
        prob *= stage
        m -= 1
    occ = _shared_basis(OccupationBasis, phi.basis, m, phi.statistics)
    sym = occupation_isometry(occ).conj().T @ factor
    compressed = np.vdot(sym, sym).real
    if abs(compressed - 1.0) > 1e-9:
        raise ArithmeticError(
            f"labeled trace leaks outside the symmetric sector ({compressed:.12g})"
        )
    return DensityMatrix(occ, sym, prob, norm2=compressed)


# --- distinguishable-particle comparator ---------------------------------


class LabeledState(Frozen):
    """Superposition of labeled product terms; no exchange symmetry.
    Coefficients must be finite.

    Built from ``(coeff, kets)`` terms by ``states._stack_terms``, which
    also stacks the terms of identical-particle states (``elementary``, the
    scenario parser), so both refuse malformed terms alike, and
    kept as its slot count ``n`` (at least one), its frame ``space`` and one
    read-only complex amplitude stack ``_stack = (coeffs (T,), amps (T, n,
    dim))``, which ``vector`` reads. ``terms`` is a view of that stack,
    built on its first read. States compare and hash by the stack
    (``_values``), so by the values of their kets, and build no ``Ket``
    to do it.
    """

    def __init__(self, terms: tuple[tuple[complex, tuple[Ket, ...]], ...]):
        space, coeffs, amps = _stack_terms(terms)
        n = amps.shape[1]
        if not n:
            raise ValueError("labeled state needs at least one slot")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficient must be finite")
        _check_scale(n, space.dim)
        coeffs.flags.writeable = amps.flags.writeable = False
        self._set("n", n)
        self._set("space", space)
        self._set("_stack", (coeffs, amps))

    @cached_property
    def terms(self) -> tuple[tuple[complex, tuple[Ket, ...]], ...]:
        """The ``(coeff, kets)`` terms, built from the stack on their first read."""
        coeffs, amps = self._stack
        return tuple(
            (c, tuple(Ket(self.space, a) for a in kets)) for c, kets in zip(coeffs.tolist(), amps)
        )

    def _values(self) -> tuple:
        """The frame's mode names and the bytes of the coefficients and
        amplitudes, signed zeros merged (``hilbert._value_key``)."""
        coeffs, amps = self._stack
        return _value_key(self.space, amps) + ((coeffs + 0.0).tobytes(),)

    def vector(self) -> np.ndarray:
        coeffs, amps = self._stack
        return np.dot(coeffs[None], _products(amps).reshape(len(coeffs), -1)).reshape(-1)


def product_state(kets: Sequence[Ket], coeff: complex = 1.0) -> LabeledState:
    return LabeledState(((complex(coeff), tuple(kets)),))


class LabeledProductBasis:
    """Product basis of the remaining labeled slots (duck-typed for
    DensityMatrix and the trace walk: .space, .size, .labels, .sector,
    .lower)."""

    def __init__(self, space: CanonicalBasis, slots: tuple[int, ...]):
        self.space = space
        self.slots = slots
        self.sector = len(slots)
        self.size = space.dim ** len(slots)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``a⊗b⊗...`` per entry, most significant slot first; ``vac`` when
        no slot remains."""
        return tuple(
            "⊗".join(entry) or "vac"
            for entry in product(self.space.labels, repeat=self.sector)
        )

    def index_of(self, entries: Sequence[tuple[str, object]]) -> int:
        if len(entries) != self.sector:
            raise ValueError(f"need {self.sector} entries")
        flat = 0
        for mode, spin in entries:
            flat = flat * self.space.dim + self.space.index_of(mode, spin)
        return flat

    def lower(self, step: SlotTrace, factor: np.ndarray) -> tuple:
        """One stage of a walk (see ``idqsim.reduction``): ``_contract_slot``
        on the measured slot, onto the slots left, with weight 1 (a slot is
        one particle). A stage other than a ``SlotTrace`` (an
        identical-particle ``MeasurementBasis``) is refused with
        IncompatibleStatesError."""
        if not isinstance(step, SlotTrace):
            raise IncompatibleStatesError(
                f"labeled states are traced through SlotTrace stages, not {type(step).__name__}"
            )
        if step.slot not in self.slots:
            raise ValueError(f"slot {step.slot} already consumed or out of range")
        lowered = _contract_slot(factor, step.basis, self.slots.index(step.slot))
        rest = _shared_basis(
            LabeledProductBasis, self.space, tuple(s for s in self.slots if s != step.slot)
        )
        return lowered, rest, 1.0


class SlotTrace(Frozen):
    """Post-selected one-slot measurement: project slot ``slot`` (0-based,
    in the original labeling) onto each ket of ``basis``."""

    def __init__(self, slot: int, basis: MeasurementBasis):
        self._set("slot", slot)
        self._set("basis", basis)

    @property
    def space(self) -> CanonicalBasis:
        return self.basis.space


def distinguishable_trace_iterate(
    state: LabeledState, steps: Sequence[SlotTrace]
) -> DensityMatrix:
    """Iterated slot measurements on a labeled (distinguishable) state.

    Slot indices always refer to the original state; each measured slot is
    consumed. The result is a density matrix over the product basis of the
    remaining slots, with ``prob`` the product of stage probabilities:
    ``reduction.trace_walk`` from ``trace_start``.
    """
    return trace_walk(trace_start(state), steps)


def trace_start(state: LabeledState) -> tuple:
    """The untraced labeled state as a walk over the product basis of all
    its slots."""
    basis = _shared_basis(LabeledProductBasis, state.space, tuple(range(state.n)))
    return start_walk(basis, state.vector())
