"""Label-free many-particle state algebra.

An N-particle state is a linear combination of *elementary states*: unordered
lists of single-particle kets written as ``c|chi_1, ..., chi_N>``. There is no
tensor-product structure and no particle labels; the list order is presentation
only. Overlaps between elementary states are computed from the single-particle
Gram matrix ``M_ij = <bra_i|ket_j>`` as ``per(M)`` for bosons and ``det(M)``
for fermions, which equals 1/N! times the inner product of the corresponding
label-symmetrized tensors (see ``idqsim.comparator`` for that cross-check).

A state is stored as one amplitude stack and nothing else, ``_stack =
(coeffs, amps)``: the coefficients ``(T,)`` and the kets ``(T, N, dim)``,
row ``[t, i]`` being ket ``i`` of term ``t``, both read-only and
C-contiguous. ``ParticleState(statistics, space, coeffs, amps)`` is the one
constructor: it takes such a stack and checks it as a whole (shape,
dimension, finite values). Every state passes through it, those that the
algebra (``+``, ``-``, ``*``, ``normalize``, ``project_single``) makes
included. A term list reaches it through ``_stack_terms``, the term stacker
that the comparator's ``LabeledState`` shares: ``elementary`` stacks one
term, the scenario parser a file's terms. ``terms`` are a view, built
through the ``ElementaryState`` and ``Ket`` constructors only when something
reads them. The array kernel ``overlaps`` forms the Gram matrices of all
term pairs of a stack in one ``einsum`` and evaluates per/det on the whole
block; ``inner`` runs it on the two states' stacks, and
``verification.random_state`` on freshly drawn arrays.

Removing one particle against a measurement ket ``psi`` maps
``|chi_1,...,chi_N>`` to ``sum_i eta^(i-1) <psi|chi_i> |...without chi_i...>``,
the projection behind all partial traces; ``idqsim.reduction`` applies it in
its second-quantized form, as an annihilation operator on occupation
coordinates.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    EmptyStateError,
    IncompatibleStatesError,
    NullStateError,
)
# sp_inner is not called here; perfbench/tracer.py wraps this module's name
from .hilbert import CanonicalBasis, Frozen, Ket, _value_key, checked_amplitudes, sp_inner  # noqa: F401
from .permanents import determinant, permanent, permutation_parity

# States with squared norm at or below this are treated as the null vector.
NULL_NORM_SQ = 1e-24

# Relative tolerance for detecting proportional single-particle kets; a
# fermionic elementary state containing such a pair is exactly null, and the
# structural test keeps that exact instead of leaving determinant round-off.
_PROPORTIONAL_RTOL = 1e-12


class Statistics(Enum):
    """Exchange statistics: bosonic (+1) or fermionic (-1) transposition sign."""

    BOSON = "boson"
    FERMION = "fermion"

    # members are singletons, so identity hashing agrees with equality and
    # skips ``Enum.__hash__`` on every lru-cached table lookup
    __hash__ = object.__hash__

    @property
    def eta(self) -> int:
        return 1 if self is Statistics.BOSON else -1


def require_statistics(statistics) -> None:
    """Refuse anything but a ``Statistics`` member (TypeError): every table
    and kernel tests ``statistics is Statistics.BOSON``, so the string
    ``"boson"`` would be taken for a fermion."""
    if not isinstance(statistics, Statistics):
        raise TypeError(f"statistics must be a Statistics member, not {statistics!r}")


class ElementaryState(Frozen, eq=False):
    """One term ``coeff * |kets[0], ..., kets[N-1]>`` of a state's ``terms``
    view."""

    def __init__(self, coeff: complex, kets: tuple[Ket, ...]):
        self._set("coeff", coeff)
        self._set("kets", kets)

    @property
    def n(self) -> int:
        return len(self.kets)


class ParticleState(Frozen, eq=False):
    """The state ``sum_t coeffs[t] |amps[t, 0], ..., amps[t, N-1]>`` of
    identical particles of one statistics, over the frame ``space``.

    Takes a ``(T,)`` coefficient array and a ``(T, N, dim)`` amplitude stack,
    copies both C-contiguous and read-only, and checks them as a whole: a
    ``statistics`` that is not a ``Statistics`` member (TypeError), no
    terms (ValueError), a ket dimension other than ``space.dim``
    (BasisMismatchError, from ``checked_amplitudes``), a NaN or infinite
    amplitude or coefficient (ValueError), a coefficient count other than
    ``T`` (ValueError). A zero-particle stack is ``(T, 0, dim)``, or
    ``(T, 0, 0)`` over no frame (``space`` None), as ``elementary`` of no
    kets builds it.
    """

    def __init__(self, statistics: Statistics, space: CanonicalBasis | None, coeffs, amps):
        require_statistics(statistics)
        if np.shape(amps)[:1] == (0,):
            raise ValueError("state needs at least one term")
        amps = checked_amplitudes(space, amps, ndim=3)
        coeffs = np.array(coeffs, dtype=complex)
        if coeffs.shape != amps.shape[:1]:
            raise ValueError(f"coefficients {coeffs.shape} do not fit amplitudes {amps.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficient must be finite")
        coeffs.flags.writeable = False
        self._set("statistics", statistics)
        self._set("n", amps.shape[1])
        self._set("_space", space)
        self._set("_stack", (coeffs, amps))

    def _with(self, coeffs: np.ndarray, amps: np.ndarray) -> "ParticleState":
        """A state of the same statistics and frame with another stack."""
        return ParticleState(self.statistics, self._space, coeffs, amps)

    @cached_property
    def terms(self) -> tuple[ElementaryState, ...]:
        """The terms, built from the stack on their first read."""
        coeffs, amps = self._stack
        return tuple(
            ElementaryState(c, tuple(Ket(self._space, a) for a in kets))
            for c, kets in zip(coeffs.tolist(), amps)
        )

    @property
    def basis(self) -> CanonicalBasis:
        if not self.n:
            raise EmptyStateError("zero-particle state carries no basis")
        return self._space

    # -- convenience algebra ------------------------------------------------

    def __add__(self, other: "ParticleState") -> "ParticleState":
        _require_compatible(self, other)
        (ca, aa), (cb, ab) = self._stack, other._stack
        # a zero-particle stack is (T, 0, dim), or (T, 0, 0) over no frame
        amps = np.concatenate((aa, ab.reshape(ab.shape[:2] + aa.shape[2:])))
        return self._with(np.concatenate((ca, cb)), amps)

    def __sub__(self, other: "ParticleState") -> "ParticleState":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ParticleState":
        c = complex(scalar)
        coeffs, amps = self._stack
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor refuses inf and nan
            return self._with(coeffs * c, amps)

    __rmul__ = __mul__

    def __neg__(self) -> "ParticleState":
        return (-1.0) * self

    def norm(self) -> float:
        return norm(self)

    def __repr__(self) -> str:
        def term_repr(t: ElementaryState) -> str:
            body = ", ".join(repr(k).strip("|>") for k in t.kets)
            return f"({t.coeff:.6g})|{body}>"

        kind = self.statistics.value
        return " + ".join(term_repr(t) for t in self.terms) + f"  [{kind}s]"


def _stack_terms(pairs) -> tuple[CanonicalBasis | None, np.ndarray, np.ndarray]:
    """``(space, coeffs, amps)`` from ``(coeff, kets)`` pairs: the kets' one
    frame (None when no term holds a ket) and the complex stacks ``(T,)``
    and ``(T, N, dim)`` (``(T, 0, 0)`` without kets). Refuses no terms
    (ValueError), terms of different ket counts and kets of different
    frames (IncompatibleStatesError). The term stacker of ``elementary``,
    of the scenario parser and of the comparator's ``LabeledState``."""
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("state needs at least one term")
    ns = {len(kets) for _, kets in pairs}
    if len(ns) > 1:
        raise IncompatibleStatesError(f"terms mix particle numbers {sorted(ns)}")
    bases = {k.basis for _, kets in pairs for k in kets}
    if len(bases) > 1:
        raise IncompatibleStatesError("kets live in different bases")
    space = bases.pop() if bases else None
    coeffs = np.array([c for c, _ in pairs], dtype=complex)
    amps = np.array([[k.amps for k in kets] for _, kets in pairs], dtype=complex)
    dim = space.dim if space is not None else 0
    return space, coeffs, amps.reshape(len(pairs), ns.pop(), dim)


def elementary(
    statistics: Statistics, kets: Sequence[Ket], coeff: complex = 1.0
) -> ParticleState:
    """Single-term state ``coeff |kets...>``; kets of two frames are refused
    (IncompatibleStatesError)."""
    kets = tuple(kets)
    if len({k.basis for k in kets}) > 1:
        raise IncompatibleStatesError("all kets of a term must share one basis")
    return ParticleState(statistics, *_stack_terms([(coeff, kets)]))


def _require_compatible(a: ParticleState, b: ParticleState) -> None:
    if a.statistics is not b.statistics:
        raise IncompatibleStatesError(
            f"statistics differ: {a.statistics.value} vs {b.statistics.value}"
        )
    if a.n != b.n:
        raise IncompatibleStatesError(f"particle numbers differ: {a.n} vs {b.n}")
    if a.n > 0 and a.basis != b.basis:
        raise IncompatibleStatesError("states live in different bases")


def _has_proportional_pair(gram: np.ndarray) -> np.ndarray:
    """Per self-Gram matrix of a ``(terms, n, n)`` stack: are two of the
    term's kets proportional? Cauchy-Schwarz saturation <=> proportionality."""
    sq_norms = gram.diagonal(axis1=-2, axis2=-1).real
    bound = sq_norms[:, :, None] * sq_norms[:, None, :]
    gap = np.abs(np.abs(gram) ** 2 - bound)
    saturated = gap <= _PROPORTIONAL_RTOL * np.maximum(bound, 1e-300)
    return (saturated & ~np.eye(gram.shape[-1], dtype=bool)).any(axis=(-2, -1))


def overlaps(
    bra_coeffs: np.ndarray,
    ket_coeffs: np.ndarray,
    amps: np.ndarray,
    statistics: Statistics,
) -> np.ndarray:
    """``<bra|ket>`` for every pair of terms, as a ``(bras, kets)`` array.

    The array kernel behind ``inner``. ``amps`` stacks the kets of every term
    as ``(terms, n, dim)``: the bra terms, then the ket terms, or the terms
    once when both sides are the same state. One ``einsum`` gives the Gram
    matrix of every pair of terms in the stack, and per/det runs on the whole
    bra-ket block. For fermions, a term whose own Gram matrix (a diagonal
    block of the stack) shows a proportional pair of kets is exactly null,
    and its overlaps are set to exactly 0 instead of keeping determinant
    round-off.
    """
    weights = np.conj(bra_coeffs)[:, None] * ket_coeffs
    if amps.shape[1] == 0:
        return weights
    n_bras, first_ket = len(bra_coeffs), len(amps) - len(ket_coeffs)
    gram = np.einsum("sid,tjd->stij", amps.conj(), amps)
    pairs = gram[:n_bras, first_ket:]
    if statistics is Statistics.BOSON:
        return weights * permanent(pairs)
    out = weights * determinant(pairs)
    own = np.arange(len(amps))
    null = _has_proportional_pair(gram[own, own])  # Pauli exclusion, kept exact
    out[null[:n_bras, None] | null[None, first_ket:]] = 0.0
    return out


def overlap_elementary(
    bra: ElementaryState, ket: ElementaryState, statistics: Statistics
) -> complex:
    """Overlap of two elementary states: conj(c_bra) c_ket per/det of the Gram matrix."""
    return inner(
        elementary(statistics, bra.kets, bra.coeff), elementary(statistics, ket.kets, ket.coeff)
    )


def inner(psi: ParticleState, phi: ParticleState) -> complex:
    """Sesquilinear inner product: the sum of every term pair's overlap,
    ``overlaps`` on the two states' stacks."""
    _require_compatible(psi, phi)
    (bra_coeffs, bras), (ket_coeffs, kets) = psi._stack, phi._stack
    # the bra terms, then the ket terms; once for a state with itself, and
    # zero-particle stacks hold no amplitudes to join
    amps = bras if psi is phi or not psi.n else np.concatenate((bras, kets))
    return complex(overlaps(bra_coeffs, ket_coeffs, amps, psi.statistics).sum())


def _norm2(psi: ParticleState) -> float:
    """``inner(psi, psi)``, real part, with tiny negative round-off clamped to
    zero. A NaN or infinite value (amplitudes too large) raises ValueError."""
    n2 = inner(psi, psi).real
    if not np.isfinite(n2):
        raise ValueError(f"the squared norm is {n2} (amplitudes too large)")
    return max(n2, 0.0)


def norm(psi: ParticleState) -> float:
    """Norm induced by ``inner``; see ``_norm2`` for round-off and overflow."""
    return float(np.sqrt(_norm2(psi)))


def normalize(psi: ParticleState) -> ParticleState:
    n2 = _norm2(psi)
    if n2 <= NULL_NORM_SQ:
        raise NullStateError("state has zero norm and cannot be normalized")
    return psi * (1.0 / np.sqrt(n2))


def project_single(meas: Ket, phi: ParticleState) -> ParticleState:
    """Remove one particle against the normalized measurement ket ``meas``.

    Reads ``phi``'s stack row by row. The remainders merge as they are
    made: two are one term when their rows are equal up to order, compared
    by ``hilbert._value_key`` (bytes with signed zeros merged), and their
    coefficients add, with the sign of the reordering for fermions; a
    fermion remainder holding a row twice is exactly null and dropped. The
    squared norm of the result is the unnormalized weight of the outcome;
    see ``idqsim.reduction`` for the probability gauge.
    """
    if phi.n == 0:
        raise EmptyStateError("cannot project a zero-particle state")
    if abs(meas.norm() - 1.0) > 1e-8:
        raise ValueError("measurement ket must be normalized")
    if meas.basis != phi.basis:
        raise IncompatibleStatesError("measurement ket and state bases differ")
    fermion = phi.statistics is Statistics.FERMION
    coeffs, amps = phi._stack
    merged: dict[tuple, list] = {}
    for coeff, rows in zip(coeffs.tolist(), amps):
        raw = [_value_key(phi._space, row) for row in rows]
        for i, row in enumerate(rows):
            amp = complex(np.vdot(meas.amps, row))
            if amp == 0:
                continue
            rest = [j for j in range(phi.n) if j != i]
            order = sorted(rest, key=raw.__getitem__)
            key = tuple(raw[j] for j in order)
            if fermion and len(set(key)) < len(key):
                continue  # two identical kets: exactly null
            sign = permutation_parity([j - (j > i) for j in order]) if fermion else 1
            c = sign * (coeff * _removal_phase(phi.statistics, i) * amp)
            if key in merged:
                merged[key][0] += c
            else:
                merged[key] = [c, rows[order]]
    kept = [(c, rows) for c, rows in merged.values() if c != 0]
    if not kept:
        # nothing fired: the null state of the (N-1)-particle sector
        filler = np.zeros((phi.n - 1, phi.basis.dim), dtype=complex)
        filler[:, 0] = 1.0
        kept = [(0j, filler)]
    return phi._with(np.array([c for c, _ in kept], dtype=complex), np.array([r for _, r in kept]))


def _removal_phase(statistics: Statistics, i: int) -> int:
    """Exchange sign picked up by pulling entry ``i`` (0-based) to the front."""
    return 1 if (statistics.eta == 1 or i % 2 == 0) else -1


def states_close(a: ParticleState, b: ParticleState, tol: float = 1e-10) -> bool:
    """Equality as states: the norm of the difference is below tol."""
    try:
        _require_compatible(a, b)
    except IncompatibleStatesError:
        return False
    d2 = inner(a, a).real + inner(b, b).real - 2.0 * inner(a, b).real
    return float(np.sqrt(max(d2, 0.0))) < tol
