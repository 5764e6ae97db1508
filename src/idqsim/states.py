"""Label-free many-particle state algebra.

An N-particle state is a linear combination of *elementary states*: unordered
lists of single-particle kets written as ``c|chi_1, ..., chi_N>``. There is no
tensor-product structure and no particle labels; the list order is presentation
only. Overlaps between elementary states are computed from the single-particle
Gram matrix ``M_ij = <bra_i|ket_j>`` as ``per(M)`` for bosons and ``det(M)``
for fermions, which equals 1/N! times the inner product of the corresponding
label-symmetrized tensors (see ``idqsim.comparator`` for that cross-check).
The array kernel ``overlaps`` forms the Gram matrices of all term pairs of a
``(terms, n, dim)`` amplitude stack in one ``einsum`` and evaluates per/det on
the whole block; ``inner`` and ``overlap_elementary`` are its object front
end, and ``verification.random_state`` calls it on freshly drawn arrays.

Removing one particle against a measurement ket ``psi`` maps
``|chi_1,...,chi_N>`` to ``sum_i eta^(i-1) <psi|chi_i> |...without chi_i...>``,
the projection behind all partial traces; ``idqsim.reduction`` applies it in
its second-quantized form, as an annihilation operator on occupation
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    EmptyStateError,
    IncompatibleStatesError,
    NullStateError,
)
from .hilbert import CanonicalBasis, Ket, sp_inner
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

    @property
    def eta(self) -> int:
        return 1 if self is Statistics.BOSON else -1


@dataclass(frozen=True, eq=False)
class ElementaryState:
    """One term ``coeff * |kets[0], ..., kets[N-1]>`` over a shared basis."""

    coeff: complex
    kets: tuple[Ket, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "kets", tuple(self.kets))
        if not np.isfinite(self.coeff.real) or not np.isfinite(self.coeff.imag):
            raise ValueError("coefficient must be finite")
        bases = {k.basis for k in self.kets}
        if len(bases) > 1:
            raise IncompatibleStatesError("all kets of a term must share one basis")

    @property
    def n(self) -> int:
        return len(self.kets)


@dataclass(frozen=True, eq=False)
class ParticleState:
    """Linear combination of elementary states sharing particle number and statistics."""

    statistics: Statistics
    terms: tuple[ElementaryState, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("state needs at least one term")
        ns = {t.n for t in self.terms}
        if len(ns) > 1:
            raise IncompatibleStatesError(f"terms mix particle numbers {sorted(ns)}")
        bases = {t.kets[0].basis for t in self.terms if t.kets}
        if len(bases) > 1:
            raise IncompatibleStatesError("terms live in different bases")

    @property
    def n(self) -> int:
        return self.terms[0].n

    @property
    def basis(self) -> CanonicalBasis:
        for t in self.terms:
            if t.kets:
                return t.kets[0].basis
        raise EmptyStateError("zero-particle state carries no basis")

    # -- convenience algebra ------------------------------------------------

    def __add__(self, other: "ParticleState") -> "ParticleState":
        _require_compatible(self, other)
        return ParticleState(self.statistics, self.terms + other.terms)

    def __sub__(self, other: "ParticleState") -> "ParticleState":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ParticleState":
        c = complex(scalar)
        return ParticleState(
            self.statistics,
            tuple(ElementaryState(t.coeff * c, t.kets) for t in self.terms),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "ParticleState":
        return (-1.0) * self

    def inner(self, other: "ParticleState") -> complex:
        return inner(self, other)

    def norm(self) -> float:
        return norm(self)

    def normalized(self) -> "ParticleState":
        return normalize(self)

    def project(self, meas: Ket) -> "ParticleState":
        return project_single(meas, self)

    def __repr__(self) -> str:
        def term_repr(t: ElementaryState) -> str:
            body = ", ".join(repr(k).strip("|>") for k in t.kets)
            return f"({t.coeff:.6g})|{body}>"

        kind = self.statistics.value
        return " + ".join(term_repr(t) for t in self.terms) + f"  [{kind}s]"


def elementary(
    statistics: Statistics, kets: Sequence[Ket], coeff: complex = 1.0
) -> ParticleState:
    """Single-term state ``coeff |kets...>``."""
    return ParticleState(statistics, (ElementaryState(coeff, tuple(kets)),))


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


def _term_overlaps(
    bras: Sequence[ElementaryState],
    kets: Sequence[ElementaryState],
    statistics: Statistics,
) -> np.ndarray:
    """``overlaps`` of two term lists: the object front end of the kernel."""
    stack = bras if bras is kets else tuple(bras) + tuple(kets)
    amps = np.array([[k.amps for k in t.kets] for t in stack])  # (terms, n, dim)
    bra_coeffs = np.array([t.coeff for t in bras])
    ket_coeffs = bra_coeffs if bras is kets else np.array([t.coeff for t in kets])
    return overlaps(bra_coeffs, ket_coeffs, amps, statistics)


def overlap_elementary(
    bra: ElementaryState, ket: ElementaryState, statistics: Statistics
) -> complex:
    """Overlap of two elementary states: conj(c_bra) c_ket per/det of the Gram matrix."""
    if bra.n != ket.n:
        raise IncompatibleStatesError(f"particle numbers differ: {bra.n} vs {ket.n}")
    return complex(_term_overlaps((bra,), (ket,), statistics)[0, 0])


def inner(psi: ParticleState, phi: ParticleState) -> complex:
    """Sesquilinear inner product: the sum of every term pair's overlap."""
    _require_compatible(psi, phi)
    return complex(_term_overlaps(psi.terms, phi.terms, psi.statistics).sum())


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

    The squared norm of the result is the unnormalized weight of the outcome;
    see ``idqsim.reduction`` for the probability gauge.
    """
    if phi.n == 0:
        raise EmptyStateError("cannot project a zero-particle state")
    if abs(meas.norm() - 1.0) > 1e-8:
        raise ValueError("measurement ket must be normalized")
    if meas.basis != phi.basis:
        raise IncompatibleStatesError("measurement ket and state bases differ")
    out: list[ElementaryState] = []
    for term in phi.terms:
        for i, chi in enumerate(term.kets):
            amp = sp_inner(meas, chi)
            if amp == 0:
                continue
            phase = _removal_phase(phi.statistics, i)
            out.append(
                ElementaryState(
                    term.coeff * phase * amp, term.kets[:i] + term.kets[i + 1 :]
                )
            )
    merged = _merge_terms(phi.statistics, out)
    if not merged:
        # nothing fired: the null state of the (N-1)-particle sector
        filler = phi.basis.kets()[0]
        merged = (ElementaryState(0.0, (filler,) * (phi.n - 1)),)
    return ParticleState(phi.statistics, merged)


def _removal_phase(statistics: Statistics, i: int) -> int:
    """Exchange sign picked up by pulling entry ``i`` (0-based) to the front."""
    return 1 if (statistics.eta == 1 or i % 2 == 0) else -1


def _merge_terms(
    statistics: Statistics, terms: Sequence[ElementaryState]
) -> tuple[ElementaryState, ...]:
    """Combine terms whose ket lists are equal up to permutation (and sign)."""
    acc: dict[tuple[bytes, ...], list] = {}
    for t in terms:
        raw = [(k.amps + 0.0).tobytes() for k in t.kets]  # + 0.0 turns -0.0 into 0.0
        order = sorted(range(len(raw)), key=raw.__getitem__)
        if statistics is Statistics.FERMION:
            if len(set(raw)) < len(raw):
                continue  # two identical kets: exactly null
            sign = permutation_parity(order)
        else:
            sign = 1
        key = tuple(raw[i] for i in order)
        coeff = sign * t.coeff
        if key in acc:
            acc[key][0] += coeff
        else:
            acc[key] = [coeff, tuple(t.kets[i] for i in order)]
    return tuple(ElementaryState(c, kets) for c, kets in acc.values() if c != 0)


def states_close(a: ParticleState, b: ParticleState, tol: float = 1e-10) -> bool:
    """Equality as states: the norm of the difference is below tol."""
    try:
        _require_compatible(a, b)
    except IncompatibleStatesError:
        return False
    d2 = inner(a, a).real + inner(b, b).real - 2.0 * inner(a, b).real
    return float(np.sqrt(max(d2, 0.0))) < tol
