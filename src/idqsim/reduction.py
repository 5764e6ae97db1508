"""Partial traces onto single-particle measurement bases.

Tracing one particle out of an N-particle state ``phi`` against an orthonormal
measurement set ``{psi_k}`` collects the projected states
``project_single(psi_k, phi)`` into a density matrix over the occupation-number
basis of the (N-1)-particle sector, renormalized to unit trace.

Probability gauge: the outcome weight of one ket is ``||project_single||^2 / N``,
which makes the probabilities over any complete orthonormal basis sum to
exactly 1 on a normalized state. Post-selective (incomplete) bases are allowed
and consume the total probability ``prob``; a basis that never fires is an
error, not a zero matrix.

Occupation coordinates: the sector basis is indexed by multisets of canonical
single-particle entries (ascending canonical index), and entry ``u`` stands for
the normalized Fock state ``prod_j (a_j^dagger)^{n_j} / sqrt(n_j!) |vac>``
with the creators in ascending ``j``. An elementary state is
``|chi_1, ..., chi_N> = a^dagger(chi_1) ... a^dagger(chi_N) |vac>`` with
``a^dagger(chi) = sum_j chi_j a_j^dagger``; its squared norm is the permanent
or determinant of its Gram matrix, so the coordinate map is an isometry.

Ladder tables: for each sector ``n``, ``U[r, j]`` is the index of occupation
``r`` of sector ``n-1`` with entry ``j`` added, and
``g[r, j] = <U[r, j]| a_j^dagger |r>``. For bosons ``g = sqrt(n_j + 1)`` with
``n_j`` the occupation of ``j`` in ``r``; for fermions ``g`` is
``(-1)^{#entries of r below j}`` (moving ``a_j^dagger`` past the creators of
smaller entries), or 0 when ``j`` is already occupied. Creation scatters
through ``U`` and annihilation ``a(psi) = sum_j conj(psi_j) a_j`` gathers
through it, so ``coords(project_single(psi, phi)) == a(psi) coords(phi)``:
the projection algebra of ``idqsim.states`` in second-quantized form. The
tables are built a whole sector at a time with numpy (``_ladder``).

Traces keep ``rho = V V^dagger`` as a factor ``V`` whose columns are
unnormalized branches. One stage replaces ``V`` by ``[a(psi_1) V, ...,
a(psi_K) V]``, which is exact for mixtures because the trace is linear, and
costs one gather per stage instead of a dense square of the larger sector.
Once ``V`` has more columns than rows, ``_compress`` replaces it by a QR
factor of the same ``V V^dagger``, so its width never exceeds the sector
size. The normalized factor is the reduced state: ``DensityMatrix`` keeps
``V``, and the nonzero eigenvalues of ``V V^dagger`` are those of the Gram
matrix ``V^dagger V``, which is only as wide as ``V`` (2-4 columns on a
localized stage, against a sector of hundreds). The dense square over the
whole sector is formed only when something reads ``DensityMatrix.mat``.

One walk serves identical particles and the labeled ones of
``idqsim.comparator``: an immutable tuple ``(basis, V, ||V||^2, prob)``. Its
basis decides how a stage lowers ``V`` through ``basis.lower(stage, V)``,
which returns the lowered factor, the basis that remains and the outcome
weight: ``OccupationBasis.lower`` annihilates through the ladder tables with
weight ``1/N``, the comparator's ``LabeledProductBasis.lower`` contracts the
measured slot with weight 1. Everything else is shared: ``start_walk``
(the norm check), ``trace_stage`` (frame check, probability floor,
compression, product of stage probabilities), ``trace_finish`` (the
normalized ``DensityMatrix``) and ``trace_walk``, which runs them in
sequence. ``entanglement.analyze`` runs the same steps as a prefix tree, so
sides that begin with equal stages share the walk up to where they part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import numpy as np

from .errors import (
    BasisMismatchError,
    IncompatibleStatesError,
    NotPSDError,
    ZeroProbabilityError,
)
from .hilbert import CanonicalBasis, Ket, Spin, orthonormality_defect, ORTHONORMALITY_TOL
from .states import ParticleState, Statistics, inner, project_single

TRACE_TOL = 1e-10
ZERO_PROB_TOL = 1e-12
EIGEN_CLAMP = 1e-10
RECONSTRUCTION_TOL = 1e-9


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


@lru_cache(maxsize=None)
def _occupations(
    dim: int, sector: int, statistics: Statistics
) -> tuple[tuple[int, ...], ...]:
    """Ascending index tuples of one sector in lexicographic order; the one
    place sectors are enumerated."""
    gen = combinations_with_replacement if statistics is Statistics.BOSON else combinations
    return tuple(gen(range(dim), sector))


@lru_cache(maxsize=None)
def _entries(dim: int, sector: int, statistics: Statistics) -> np.ndarray:
    """``_occupations`` as a read-only integer array, one row per occupation."""
    occupations = _occupations(dim, sector, statistics)
    entries = np.array(occupations, dtype=np.intp).reshape(len(occupations), sector)
    entries.flags.writeable = False
    return entries


@lru_cache(maxsize=None)
def _ladder(
    dim: int, sector: int, statistics: Statistics
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ladder table ``(U, g)`` from sector ``sector - 1`` to
    ``sector`` (see the module docstring); where ``g = 0``, ``U`` is 0.

    Built a whole table at a time. An occupation read as the base-``dim``
    number of its entries keeps the lexicographic order, so ``U`` is a
    ``searchsorted`` of the codes with ``j`` added among those of ``sector``.
    """
    lower = _entries(dim, sector - 1, statistics)
    rows = len(lower)
    # counts[r, j]: entries of r equal to j; below[r, j]: entries less than j
    flat = (np.arange(rows)[:, None] * dim + lower).ravel()
    counts = np.bincount(flat, minlength=rows * dim).reshape(rows, dim)
    below = np.cumsum(counts, axis=1) - counts
    # digit k weighs dim^(sector-1-k); Python ints where int64 would overflow
    wide = np.int64 if dim**sector < 2**63 else object
    weights = np.array([dim**k for k in range(sector - 1, -1, -1)], dtype=wide)
    # head[r, b]: the code of the first b entries of r at the weights of r;
    # j added before entry b moves those entries up one digit
    head = np.cumsum(np.hstack([np.zeros((rows, 1), wide), lower * weights[1:]]), axis=1)
    before = np.take_along_axis(head, below, axis=1)
    codes = (dim - 1) * before + head[:, -1:] + np.arange(dim) * weights[below]
    up = np.searchsorted((_entries(dim, sector, statistics) * weights).sum(axis=1), codes)
    if statistics is Statistics.BOSON:
        g = np.sqrt(counts + 1.0)
    else:
        g = np.where(counts > 0, 0.0, np.where(below % 2, -1.0, 1.0))  # Pauli exclusion
        up[counts > 0] = 0
    up.flags.writeable = False
    g.flags.writeable = False
    return up, g


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
        self.occupations: tuple[tuple[int, ...], ...] = _occupations(
            space.dim, sector, statistics
        )
        if not self.occupations:
            raise ValueError(
                f"empty {statistics.value} sector {sector} over dim {space.dim}"
            )

    @property
    def size(self) -> int:
        return len(self.occupations)

    @cached_property
    def norm_factors(self) -> np.ndarray:
        """sqrt(prod_j n_j!) per entry: the squared norm of the canonical
        elementary state with these entries is its square."""
        factors = []
        for occ in self.occupations:
            f = 1
            run = 1
            for a, b in zip(occ, occ[1:]):
                run = run + 1 if a == b else 1
                f *= run
            factors.append(math.sqrt(f))
        return np.array(factors)

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
            return self.occupations.index(occ)
        except ValueError:
            raise KeyError(f"no occupation {occ} in sector {self.sector}") from None

    def unit_vector(self, entries: Sequence[tuple[str, "object"]]) -> np.ndarray:
        v = np.zeros(self.size, dtype=complex)
        v[self.index_of(entries)] = 1.0
        return v

    def lower(self, mb: MeasurementBasis, factor: np.ndarray) -> tuple:
        """One stage of a walk (see the module docstring): ``annihilate``
        through every ket of ``mb``, onto the sector below, with weight
        ``1/N`` (any of the ``N`` identical particles can be the one seen)."""
        amps = np.array([k.amps for k in mb.kets])
        rest = OccupationBasis(self.space, self.sector - 1, self.statistics)
        return annihilate(amps, factor, self), rest, 1.0 / self.sector

    def __repr__(self) -> str:
        return (
            f"OccupationBasis(sector={self.sector}, "
            f"statistics={self.statistics.value}, size={self.size})"
        )


def annihilate(
    amps: np.ndarray, factor: np.ndarray, basis: OccupationBasis
) -> np.ndarray:
    """``[a(psi_1) V, ..., a(psi_K) V]`` for the rows ``psi_k`` of ``amps``.

    The columns of ``V = factor`` are coordinates over ``basis``, and
    ``a(psi) = sum_j conj(psi_j) a_j``; the result has one row per occupation
    of the sector below and ``K`` times as many columns as ``V``.
    """
    up, g = _ladder(basis.space.dim, basis.sector, basis.statistics)
    lowered = np.conj(amps) @ (factor[up] * g[:, :, None])  # (rows, K, columns)
    return lowered.reshape(len(up), -1)


def coords(phi: ParticleState, basis: OccupationBasis) -> np.ndarray:
    """Isometric coordinates of ``phi`` in the occupation-number basis.

    The standard inner product of coordinate vectors equals ``inner`` on
    states. Every term is built at once as
    ``c a^dagger(chi_1) ... a^dagger(chi_N) |vac>``: one creation, a scatter
    through the ladder table, per particle.
    """
    if basis.sector != phi.n:
        raise IncompatibleStatesError(
            f"state has {phi.n} particles, basis sector is {basis.sector}"
        )
    if basis.statistics is not phi.statistics:
        raise IncompatibleStatesError("statistics of state and basis differ")
    dim = basis.space.dim
    # one column per term, from coeff |vac> up
    terms = np.array([[t.coeff for t in phi.terms]], dtype=complex)
    cols = np.arange(terms.shape[1])
    for k in range(phi.n - 1, -1, -1):  # a^dagger(chi_N) acts on |vac> first
        sector = phi.n - k
        up, g = _ladder(dim, sector, phi.statistics)
        chis = np.array([t.kets[k].amps for t in phi.terms]).T  # (dim, terms)
        size = len(_occupations(dim, sector, phi.statistics))
        raised = np.zeros((size, cols.size), dtype=complex)
        hops = g[:, :, None] * chis * terms[:, None, :]  # (lower rows, dim, terms)
        np.add.at(raised, (up[:, :, None], cols), hops)
        terms = raised
    return terms.sum(axis=1)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one state ``V V^dagger`` over a sector basis, kept as its factor
    ``V`` (read-only, ``basis.size`` rows), plus the total measurement
    probability ``prob`` consumed to normalize it.

    The factor is the representation: ``V V^dagger`` is Hermitian and PSD by
    construction, and ``tr(V V^dagger) = ||V||_F^2``. ``spectrum`` holds the
    descending eigenvalues (read-only), computed once at construction from
    the smaller of ``V^dagger V`` and ``V V^dagger`` and padded with zeros to
    the basis size. The dense ``mat`` is formed on its first read.
    """

    basis: object  # OccupationBasis or a labeled product basis (.size/.labels/.sector)
    factor: np.ndarray
    prob: float
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.factor, dtype=complex)
        size = self.basis.size
        if v.ndim != 2 or v.shape[0] != size:
            raise ValueError(f"factor shape {v.shape} does not fit basis size {size}")
        trace = np.vdot(v, v).real
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {trace:.12g}, expected 1")
        small = v.conj().T @ v if v.shape[1] < size else v @ v.conj().T
        spectrum = np.zeros(size)
        spectrum[: len(small)] = eigenvalues_hermitian(small)  # the PSD check
        p = float(self.prob)
        if not -1e-9 <= p <= 1.0 + 1e-9:  # NaN fails too
            raise ValueError(f"probability {p} outside [0, 1]")
        v.flags.writeable = False
        spectrum.flags.writeable = False
        object.__setattr__(self, "factor", v)
        object.__setattr__(self, "prob", min(max(p, 0.0), 1.0))
        object.__setattr__(self, "spectrum", spectrum)

    @cached_property
    def mat(self) -> np.ndarray:
        """The dense ``V V^dagger`` (read-only), formed on first read."""
        m = self.factor @ self.factor.conj().T
        m.flags.writeable = False
        return m

    @property
    def sector(self) -> int:
        return self.basis.sector


def eigenvalues_hermitian(mat: np.ndarray) -> np.ndarray:
    """Descending real eigenvalues of a Hermitian matrix.

    Tiny negative values (>= -1e-10) are clamped to zero; anything lower
    raises NotPSDError. The eigendecomposition is checked by reconstruction:
    the Frobenius residual must stay within ``RECONSTRUCTION_TOL`` times
    ``max(1, ||mat||_F)``, compared squared; a NaN residual fails it.
    """
    m = np.asarray(mat, dtype=complex)
    evals, evecs = np.linalg.eigh(m)
    diff = m - (evecs * evals) @ evecs.conj().T
    resid2 = np.vdot(diff, diff).real
    if not resid2 <= RECONSTRUCTION_TOL**2 * max(1.0, np.vdot(m, m).real):
        raise ArithmeticError(f"eigendecomposition residual {math.sqrt(resid2):.3g}")
    lo = evals.min()
    if lo < -EIGEN_CLAMP:
        raise NotPSDError(f"eigenvalue {lo:.3g} below -{EIGEN_CLAMP}")
    return np.clip(evals, 0.0, None)[::-1]


def probability_of(phi: ParticleState, basis: MeasurementBasis) -> float:
    """Probability that a one-particle measurement over ``basis`` fires at all.

    Equals 1 for complete bases on normalized states; additive over any
    partition of a basis into subsets.
    """
    _require_unit_norm(inner(phi, phi).real)
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

    Works on a factor ``V`` with ``rho = V V^dagger`` (see the module
    docstring): ``trace_walk`` from ``trace_start``.
    """
    return trace_walk(trace_start(phi), bases)


def require_depth(stages: int, n: int) -> None:
    """Refuse, before any stage runs, to trace more particles than there are."""
    if stages > n:
        raise ValueError(f"cannot trace {stages} particles out of {n}")


def start_walk(basis, vector: np.ndarray) -> tuple:
    """The walk ``(basis, V, ||V||^2, prob)`` of an untraced state whose
    coordinates over ``basis`` are ``vector``: ``V`` is that one column and
    ``prob`` is 1. The state must be normalized."""
    norm2 = np.vdot(vector, vector).real
    _require_unit_norm(norm2)
    return basis, vector[:, None], norm2, 1.0


def trace_start(phi: ParticleState) -> tuple:
    """The untraced identical-particle state as a walk over its sector."""
    occ = OccupationBasis(phi.basis, phi.n, phi.statistics)
    # coordinates are isometric, so ||V||^2 equals inner(phi, phi)
    return start_walk(occ, coords(phi, occ))


def trace_stage(walk: tuple, stage) -> tuple:
    """The walk after one more stage, lowered by its basis and compressed.
    Walks are never modified, so one can be shared."""
    basis, factor, norm2, prob = walk
    if stage.space != basis.space:
        raise IncompatibleStatesError("measurement ket and state bases differ")
    lowered, rest, weight = basis.lower(stage, factor)
    lowered2 = np.vdot(lowered, lowered).real
    stage_prob = weight * lowered2 / norm2
    if stage_prob <= ZERO_PROB_TOL:
        raise ZeroProbabilityError(
            f"measurement basis never fires on this state (total probability {stage_prob:.3g})"
        )
    return rest, _compress(lowered), lowered2, prob * stage_prob


def trace_finish(walk: tuple) -> DensityMatrix:
    """The walk's remainder, normalized, as a density matrix."""
    basis, factor, norm2, prob = walk
    return DensityMatrix(basis, factor / math.sqrt(norm2), prob)


def trace_walk(walk: tuple, stages: Sequence) -> DensityMatrix:
    """``stages`` run in sequence from ``walk``, for either particle kind;
    too many stages fail before the first one runs."""
    require_depth(len(stages), walk[0].sector)
    for stage in stages:
        walk = trace_stage(walk, stage)
    return trace_finish(walk)


def _compress(factor: np.ndarray) -> np.ndarray:
    """A factor of the same ``V V^dagger`` with no more columns than rows.

    A wider ``V`` is replaced by the conjugate transpose of the triangular
    factor of ``V^dagger = QR``: ``V V^dagger = R^dagger R``.
    """
    if factor.shape[1] <= factor.shape[0]:
        return factor
    return np.linalg.qr(factor.conj().T, mode="r").conj().T


def _require_unit_norm(norm2: float) -> None:
    if not abs(norm2 - 1.0) <= 1e-8:  # NaN fails too
        raise ValueError(f"state must be normalized (squared norm {norm2:.6g})")
