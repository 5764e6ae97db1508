"""Partial traces onto single-particle measurement bases.

Tracing one particle out of an N-particle state ``phi`` against an orthonormal
measurement set ``{psi_k}`` accumulates the projected states
``project_single(psi_k, phi)`` into a density matrix over the occupation-number
basis of the (N-1)-particle sector, renormalized to unit trace.

Probability gauge: the outcome weight of one ket is ``||project_single||^2 / N``,
which makes the probabilities over any complete orthonormal basis sum to
exactly 1 on a normalized state. Post-selective (incomplete) bases are allowed
and consume the total probability ``prob``; a basis that never fires is an
error, not a zero matrix.

Occupation coordinates: the sector basis is indexed by multisets of canonical
single-particle entries (ascending canonical index). A canonical elementary
state with occupations ``n_j`` has squared norm ``prod_j n_j!``, so the
isometric coordinate map scales each accumulated multiset amplitude by
``sqrt(prod_j n_j!)``. No ad-hoc degeneracy factors appear anywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BasisMismatchError,
    IncompatibleStatesError,
    NotPSDError,
    ZeroProbabilityError,
)
from .hilbert import CanonicalBasis, Ket, Spin, orthonormality_defect, ORTHONORMALITY_TOL
from .permanents import permutation_parity
from .states import ParticleState, Statistics, inner, project_single

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
ZERO_PROB_TOL = 1e-12
EIGEN_CLAMP = 1e-10
RECONSTRUCTION_TOL = 1e-9
# weight below which an ensemble branch is numerical noise and is dropped
_BRANCH_WEIGHT_FLOOR = 1e-30


@dataclass(frozen=True)
class MeasurementBasis:
    """An orthonormal set of single-particle kets to trace onto.

    ``complete`` is true iff the set spans the whole single-particle space.
    """

    kets: tuple[Ket, ...]

    def __post_init__(self):
        object.__setattr__(self, "kets", tuple(self.kets))
        if not self.kets:
            raise ValueError("measurement basis needs at least one ket")
        space = self.kets[0].basis
        for k in self.kets:
            if k.basis != space:
                raise BasisMismatchError("measurement kets live in different bases")
        if len(self.kets) > space.dim:
            raise ValueError("more kets than the space dimension")
        defect, pair = orthonormality_defect(self.kets)
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(
                f"measurement kets {pair[0]} and {pair[1]} are not orthonormal "
                f"(deviation {defect:.3g})"
            )

    @property
    def space(self) -> CanonicalBasis:
        return self.kets[0].basis

    @property
    def complete(self) -> bool:
        return len(self.kets) == self.space.dim

    @classmethod
    def localized(cls, space: CanonicalBasis, mode: str) -> "MeasurementBasis":
        """Both spin kets of one spatial mode."""
        return cls((space.ket(mode, Spin.UP), space.ket(mode, Spin.DOWN)))

    @classmethod
    def full(cls, space: CanonicalBasis) -> "MeasurementBasis":
        """The complete canonical basis."""
        return cls(space.kets())


class OccupationBasis:
    """Occupation-number basis of the M-particle sector over a canonical frame.

    Entries are multisets of canonical single-particle indices, stored as
    ascending index tuples in lexicographic order; fermions exclude repeats.
    """

    def __init__(self, space: CanonicalBasis, sector: int, statistics: Statistics):
        if sector < 0:
            raise ValueError("sector must be >= 0")
        self.space = space
        self.sector = sector
        self.statistics = statistics
        gen = (
            combinations_with_replacement
            if statistics is Statistics.BOSON
            else combinations
        )
        self.occupations: tuple[tuple[int, ...], ...] = tuple(
            gen(range(space.dim), sector)
        )
        if not self.occupations:
            raise ValueError(
                f"empty {statistics.value} sector {sector} over dim {space.dim}"
            )
        self._index = {occ: i for i, occ in enumerate(self.occupations)}
        # sqrt(prod_j n_j!) per entry; the isometry factor for repeated kets
        factors = []
        for occ in self.occupations:
            f = 1
            run = 1
            for a, b in zip(occ, occ[1:]):
                run = run + 1 if a == b else 1
                f *= run
            factors.append(math.sqrt(f))
        self.norm_factors = np.array(factors)

    @property
    def size(self) -> int:
        return len(self.occupations)

    @property
    def labels(self) -> tuple[str, ...]:
        sp_labels = self.space.labels
        return tuple(
            ",".join(sp_labels[j] for j in occ) if occ else "vac"
            for occ in self.occupations
        )

    def index_of(self, entries: Sequence[tuple[str, "object"]]) -> int:
        """Index of the occupation holding the given (mode, spin) pairs."""
        occ = tuple(sorted(self.space.index_of(m, s) for m, s in entries))
        try:
            return self._index[occ]
        except KeyError:
            raise KeyError(f"no occupation {occ} in sector {self.sector}") from None

    def unit_vector(self, entries: Sequence[tuple[str, "object"]]) -> np.ndarray:
        v = np.zeros(self.size, dtype=complex)
        v[self.index_of(entries)] = 1.0
        return v

    def __repr__(self) -> str:
        return (
            f"OccupationBasis(sector={self.sector}, "
            f"statistics={self.statistics.value}, size={self.size})"
        )


def coords(phi: ParticleState, basis: Optional[OccupationBasis] = None) -> np.ndarray:
    """Isometric coordinates of ``phi`` in the occupation-number basis.

    The standard inner product of coordinate vectors equals ``inner`` on
    states; repeated-ket amplitudes carry the sqrt(prod n_j!) factor.
    """
    if basis is None:
        space = phi.basis if phi.n > 0 else None
        if space is None:
            raise ValueError("supply an OccupationBasis for zero-particle states")
        basis = OccupationBasis(space, phi.n, phi.statistics)
    if basis.sector != phi.n:
        raise IncompatibleStatesError(
            f"state has {phi.n} particles, basis sector is {basis.sector}"
        )
    if basis.statistics is not phi.statistics:
        raise IncompatibleStatesError("statistics of state and basis differ")
    fermionic = phi.statistics is Statistics.FERMION
    vec = np.zeros(basis.size, dtype=complex)
    for term in phi.terms:
        if term.coeff == 0:
            continue
        supports = [np.flatnonzero(k.amps) for k in term.kets]
        for combo in product(*supports):
            if fermionic and len(set(combo)) < len(combo):
                continue
            amp = term.coeff
            for k, j in zip(term.kets, combo):
                amp *= k.amps[j]
            order = sorted(range(len(combo)), key=combo.__getitem__)
            if fermionic:
                amp *= permutation_parity(order)
            vec[basis._index[tuple(combo[i] for i in order)]] += amp
    return vec * basis.norm_factors


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, trace-one matrix over a sector basis, plus the
    total measurement probability ``prob`` consumed to normalize it."""

    basis: object  # OccupationBasis or a labeled product basis (.size/.labels/.sector)
    mat: np.ndarray
    prob: float

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex).copy()
        size = self.basis.size
        if m.shape != (size, size):
            raise ValueError(f"matrix shape {m.shape} does not match basis size {size}")
        if np.linalg.norm(m - m.conj().T) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -PSD_TOL:
            raise NotPSDError(f"negative eigenvalue {evals.min():.3g}")
        if abs(m.trace().real - 1.0) > TRACE_TOL or abs(m.trace().imag) > TRACE_TOL:
            raise ValueError(f"trace is {m.trace():.12g}, expected 1")
        p = float(self.prob)
        if p < -1e-9 or p > 1.0 + 1e-9:
            raise ValueError(f"probability {p} outside [0, 1]")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "prob", min(max(p, 0.0), 1.0))

    @property
    def sector(self) -> int:
        return self.basis.sector

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Descending eigenvalues, computed on first use and kept (read-only).

        Lazy on purpose: diagonalizing at construction would hold the
        reconstruction temporaries while a trace's working matrices are alive.
        """
        ev = eigenvalues_hermitian(self.mat)
        ev.flags.writeable = False
        return ev


def eigenvalues_hermitian(mat: np.ndarray) -> np.ndarray:
    """Descending real eigenvalues of a Hermitian matrix.

    Tiny negative values (>= -1e-10) are clamped to zero; anything lower
    raises NotPSDError. The eigendecomposition is checked by reconstruction.
    """
    m = np.asarray(mat, dtype=complex)
    evals, evecs = np.linalg.eigh(m)
    resid = np.linalg.norm(m - (evecs * evals) @ evecs.conj().T)
    if resid > RECONSTRUCTION_TOL * max(1.0, np.linalg.norm(m)):
        raise ArithmeticError(f"eigendecomposition residual {resid:.3g}")
    lo = evals.min()
    if lo < -EIGEN_CLAMP:
        raise NotPSDError(f"eigenvalue {lo:.3g} below -{EIGEN_CLAMP}")
    return np.clip(evals, 0.0, None)[::-1]


def probability_of(phi: ParticleState, basis: MeasurementBasis) -> float:
    """Probability that a one-particle measurement over ``basis`` fires at all.

    Equals 1 for complete bases on normalized states; additive over any
    partition of a basis into subsets.
    """
    _check_normalized(phi)
    total = 0.0
    for psi in basis.kets:
        proj = project_single(psi, phi)
        total += max(inner(proj, proj).real, 0.0)
    return min(max(total / phi.n, 0.0), 1.0)


def partial_trace_one(
    phi: ParticleState, basis: MeasurementBasis
) -> DensityMatrix:
    """Trace one particle onto ``basis``, renormalized to unit trace."""
    return partial_trace_iterate(phi, (basis,))


def partial_trace_iterate(
    phi: ParticleState, bases: Sequence[MeasurementBasis]
) -> DensityMatrix:
    """Successive one-particle traces; stage probabilities multiply.

    Intermediate mixed states are traced term-by-term: the trace of a mixture
    is the probability-weighted mixture of the traces.
    """
    _check_normalized(phi)
    if len(bases) > phi.n:
        raise ValueError(f"cannot trace {len(bases)} particles out of {phi.n}")
    ensemble: list[tuple[float, ParticleState]] = [(1.0, phi)]
    prob = 1.0
    for mb in bases:
        ensemble, stage_prob = _trace_stage(ensemble, mb)
        prob *= stage_prob
    sector = phi.n - len(bases)
    space = phi.basis if phi.n > 0 else ensemble[0][1].basis
    occ = OccupationBasis(space, sector, phi.statistics)
    mat = np.zeros((occ.size, occ.size), dtype=complex)
    for w, state in ensemble:
        v = coords(state, occ)
        mat += w * np.outer(v, v.conj())
    mat /= mat.trace().real
    return DensityMatrix(occ, mat, prob)


def _trace_stage(
    ensemble: Sequence[tuple[float, ParticleState]], basis: MeasurementBasis
) -> tuple[list[tuple[float, ParticleState]], float]:
    out: list[tuple[float, ParticleState]] = []
    stage_prob = 0.0
    for w, state in ensemble:
        for psi in basis.kets:
            proj = project_single(psi, state)
            nn = max(inner(proj, proj).real, 0.0)
            branch = w * nn / state.n
            if branch <= _BRANCH_WEIGHT_FLOOR:
                continue
            out.append((branch, proj * (1.0 / np.sqrt(nn))))
            stage_prob += branch
    if stage_prob <= ZERO_PROB_TOL:
        raise ZeroProbabilityError(
            "measurement basis never fires on this state (total probability "
            f"{stage_prob:.3g})"
        )
    return [(w / stage_prob, s) for w, s in out], stage_prob


def _check_normalized(phi: ParticleState) -> None:
    nrm = inner(phi, phi).real
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized (squared norm {nrm:.6g})")
