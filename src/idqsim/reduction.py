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
Each sector is enumerated once, by ``_entries``, into one cached read-only
``(size, sector)`` integer array whose rows are the ascending entries of the
occupations in lexicographic order. Everything else reads that array: the
ladder tables, ``OccupationBasis`` (its size, labels and lookups) and the
comparator's isometry; index tuples are made only where labels are read.

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
``coords`` raises each term in its own row, started from its one-particle
coordinates ``c chi_N``: every further creation is one flat scatter per term
(a 1-D ``np.add.at`` through the raveled ``U``), so one term's hops are alive
at a time.

Traces keep ``rho = V V^dagger`` as a factor ``V`` whose columns are
unnormalized branches. One stage replaces ``V`` by ``[a(psi_1) V, ...,
a(psi_K) V]``, which is exact for mixtures because the trace is linear, and
costs one gather per stage instead of a dense square of the larger sector.
A stage gathers only its kets' support, the ``s`` canonical entries where
any of them is nonzero: ``a_j`` with ``conj(psi_j) = 0`` adds nothing. A
localized stage touches 2 of the ``2M`` entries and a delocalized pair 4.
``MeasurementBasis`` finds its support, and the conjugated amplitudes on a
sparse one, once, on its first lowering, and ``_support_ladder`` keeps the
ladder table's columns at that support per ``(dim, sector, statistics,
support)``.
That cache stays bounded: a full support, such as any random basis, reuses
``_ladder``'s own arrays (so its lowering is the full-table one bit for
bit); the paper's measurement families have at most ``M + C(M, 2)`` sparse
supports (one per site, one per pair of sites); and each restricted table
costs at most ``s / dim`` of the full one.
Once ``V`` has more columns than rows, ``_compress`` replaces it by a QR
factor of the same ``V V^dagger``, so its width never exceeds the sector
size. The normalized factor is the reduced state: ``DensityMatrix`` keeps
``V``, and the nonzero eigenvalues of ``V V^dagger`` are those of the Gram
matrix ``V^dagger V``, which is only as wide as ``V`` (2-4 columns on a
localized stage, against a sector of hundreds). Every readout comes off
that one Gram matrix (or ``V V^dagger`` for a wider ``V``), in one pass at
construction: the trace off its diagonal, checked against 1 first; the
eigenvalues from one ``eigvalsh``, checked by what is read of them (their
sum against that trace, the sum of their squares against the purity,
their order) rather than by rebuilding the matrix from eigenvectors that
nothing reads; and the entropy, summed once over those checked
eigenvalues. ``entanglement.von_neumann_entropy`` and ``purity`` read the
stored values. A reduced state keeps only what it computed: its factor and
the Gram matrix's few eigenvalues. The spectrum padded with zeros to the
whole sector is made when something reads ``DensityMatrix.spectrum``, and
the dense square over the sector when something reads
``DensityMatrix.mat``.

One walk serves identical particles and the labeled ones of
``idqsim.comparator``: an immutable tuple ``(basis, V, ||V||^2, prob)``. Its
basis decides how a stage lowers ``V`` through ``basis.lower(stage, V)``,
which returns the lowered factor, the basis that remains and the outcome
weight: ``OccupationBasis.lower`` annihilates through the ladder tables with
weight ``1/N``, the comparator's ``LabeledProductBasis.lower`` contracts the
measured slot with weight 1. The bases a walk starts on and lowers onto
come from one cache, ``_shared_basis``, keyed by ``(frame, sector,
statistics)`` or ``(frame, slots)``, so all remainders of one sector share
one basis object. Everything else is shared: ``start_walk``
(the norm check), ``trace_stage`` (frame check, probability floor,
compression, product of stage probabilities), ``trace_finish`` (the
normalized ``DensityMatrix``) and ``trace_walk``, which runs them in
sequence. ``entanglement.analyze`` runs the same steps as a prefix tree, so
sides that begin with equal stages share the walk up to where they part.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import chain, combinations, combinations_with_replacement
from typing import Sequence

import numpy as np

from .errors import (
    IncompatibleStatesError,
    NotPSDError,
    ZeroProbabilityError,
)
from .hilbert import (
    CanonicalBasis,
    Frozen,
    Ket,
    Spin,
    _value_key,
    checked_amplitudes,
    orthonormality_defect,
    ORTHONORMALITY_TOL,
)
from .states import ParticleState, Statistics, inner, project_single, require_statistics

TRACE_TOL = 1e-10
ZERO_PROB_TOL = 1e-12
EIGEN_CLAMP = 1e-10
MOMENT_TOL = 1e-9


class MeasurementBasis(Frozen):
    """An orthonormal set of single-particle kets to trace onto, given as
    the rows of one ``(K, dim)`` amplitude stack over ``space``.

    ``amps`` is kept as a read-only C-contiguous complex copy, which the
    lowerings and stage keys read; ``kets`` is built from it, through the
    ``Ket`` constructor, only when something reads it. The constructor
    refuses an empty stack, through ``checked_amplitudes`` what ``Ket``
    refuses in a row, more rows than ``dim``, and a stack that is not
    orthonormal within ``ORTHONORMALITY_TOL`` (``orthonormality_defect``).
    Bases compare and hash by one value key, ``_key``, made on first use:
    their frame's mode names and the bytes of their stack with signed zeros
    merged. ``==``, ``hash``, ``repr`` and ``entanglement``'s stage keys
    read the stack, so none of them builds the kets.
    """

    def __init__(self, space: CanonicalBasis, amps):
        if np.shape(amps)[:1] == (0,):
            raise ValueError("measurement basis needs at least one ket")
        amps = checked_amplitudes(space, amps, ndim=2)
        if len(amps) > space.dim:
            raise ValueError("more kets than the space dimension")
        with np.errstate(over="ignore", invalid="ignore"):  # huge amplitudes overflow
            defect, (i, j) = orthonormality_defect(amps)
        if not defect <= ORTHONORMALITY_TOL:  # NaN fails too
            what = (f"ket {i} is not normalized" if i == j
                    else f"kets {i} and {j} are not orthonormal")
            raise ValueError(f"measurement {what} (deviation {defect:.3g})")
        self._set("space", space)
        self._set("amps", amps)

    @cached_property
    def _key(self) -> tuple[tuple[str, ...], bytes]:
        """The value a basis compares and hashes by, and the stage key of
        ``entanglement``: ``hilbert._value_key`` of its frame and stack, the
        rule a ``Ket`` compares by."""
        return _value_key(self.space, self.amps)

    def _values(self) -> tuple:
        return self._key

    @cached_property
    def kets(self) -> tuple[Ket, ...]:
        """The rows of ``amps`` as kets, on their first read."""
        return tuple(Ket(self.space, a) for a in self.amps)

    @cached_property
    def _support(self) -> tuple[tuple[int, ...], np.ndarray | None]:
        """``(support, conj)``, found on the first lowering: the ascending
        canonical entries where any ket is nonzero and, when they are fewer
        than ``dim``, the conjugated amplitudes on them as one read-only
        C-contiguous block. At full support ``conj`` is None: that block
        would copy the kets whole for as long as the basis lives, while a
        dense basis (any random one) is mostly lowered once."""
        support = tuple(np.flatnonzero(self.amps.any(axis=0)).tolist())
        if len(support) == self.space.dim:
            return support, None
        conj = np.conj(self.amps.take(support, axis=1))
        conj.flags.writeable = False
        return support, conj

    @classmethod
    def localized(cls, space: CanonicalBasis, mode: str) -> "MeasurementBasis":
        """Both spin kets of one spatial mode: the two rows of the identity
        at its up and down entries."""
        return cls(space, np.eye(2, space.dim, space.index_of(mode, Spin.UP)))

    @classmethod
    def full(cls, space: CanonicalBasis) -> "MeasurementBasis":
        """The complete canonical basis: the rows of the identity."""
        return cls(space, np.eye(space.dim))


@lru_cache(maxsize=None)
def _entries(dim: int, sector: int, statistics: Statistics) -> np.ndarray:
    """The occupations of one sector as a read-only ``(size, sector)`` integer
    array, one ascending row of canonical indices per occupation, rows in
    lexicographic order; the one place sectors are enumerated."""
    boson = statistics is Statistics.BOSON
    occupations = (combinations_with_replacement if boson else combinations)(range(dim), sector)
    size = math.comb(dim + sector - 1 if boson else dim, sector)
    entries = np.fromiter(chain.from_iterable(occupations), np.intp, size * sector)
    entries = entries.reshape(size, sector)
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


@lru_cache(maxsize=None)
def _support_ladder(
    dim: int, sector: int, statistics: Statistics, support: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The columns ``support`` of ``_ladder``, read-only and C-contiguous;
    at full support, ``_ladder``'s own arrays."""
    up, g = _ladder(dim, sector, statistics)
    if len(support) == dim:
        return up, g
    up, g = up.take(support, axis=1), g.take(support, axis=1)
    up.flags.writeable = False
    g.flags.writeable = False
    return up, g


@lru_cache(maxsize=128)
def _shared_basis(kind: type, space: CanonicalBasis, *key):
    """The one ``kind(space, *key)`` that walks start on and lower onto, so
    that all remainders of one sector share one basis object: ``(frame,
    sector, statistics)`` for an ``OccupationBasis``, ``(frame, slots)`` for
    the comparator's ``LabeledProductBasis``. Bases are never modified. The
    cache is bounded because frames can be made without end; a basis it
    drops is only built again."""
    return kind(space, *key)


class OccupationBasis:
    """Occupation-number basis of the M-particle sector over a canonical frame.

    ``entries`` holds the occupations as ``_entries`` enumerates them: one
    ascending row of canonical single-particle indices per basis state, rows
    in lexicographic order; fermions exclude repeats. Sizes, labels and
    lookups are all read off that one array. A ``statistics`` that is not a
    ``Statistics`` member is refused (TypeError).
    """

    def __init__(self, space: CanonicalBasis, sector: int, statistics: Statistics):
        require_statistics(statistics)
        if sector < 0:
            raise ValueError("sector must be >= 0")
        self.space = space
        self.sector = sector
        self.statistics = statistics
        self.entries: np.ndarray = _entries(space.dim, sector, statistics)
        if not len(self.entries):
            raise ValueError(
                f"empty {statistics.value} sector {sector} over dim {space.dim}"
            )

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def labels(self) -> tuple[str, ...]:
        sp_labels = self.space.labels
        return tuple(
            ",".join(sp_labels[j] for j in occ) if occ else "vac"
            for occ in self.entries.tolist()
        )

    def index_of(self, entries: Sequence[tuple[str, "object"]]) -> int:
        """Index of the occupation holding the given (mode, spin) pairs."""
        occ = tuple(sorted(self.space.index_of(m, s) for m, s in entries))
        match = len(occ) == self.sector and (self.entries == occ).all(axis=1)
        if not np.any(match):
            raise KeyError(f"no occupation {occ} in sector {self.sector}")
        return int(np.argmax(match))

    def unit_vector(self, entries: Sequence[tuple[str, "object"]]) -> np.ndarray:
        v = np.zeros(self.size, dtype=complex)
        v[self.index_of(entries)] = 1.0
        return v

    def lower(self, mb: MeasurementBasis, factor: np.ndarray) -> tuple:
        """One stage of a walk (see the module docstring): ``annihilate``
        through every ket of ``mb``, onto the sector below, with weight
        ``1/N`` (any of the ``N`` identical particles can be the one seen).
        A stage other than a ``MeasurementBasis`` (a labeled ``SlotTrace``)
        is refused with IncompatibleStatesError."""
        if not isinstance(mb, MeasurementBasis):
            raise IncompatibleStatesError(
                f"identical particles are traced through MeasurementBasis stages, "
                f"not {type(mb).__name__}"
            )
        rest = _shared_basis(OccupationBasis, self.space, self.sector - 1, self.statistics)
        return annihilate(mb, factor, self), rest, 1.0 / self.sector

    def __repr__(self) -> str:
        return (
            f"OccupationBasis(sector={self.sector}, "
            f"statistics={self.statistics.value}, size={self.size})"
        )


def annihilate(
    mb: MeasurementBasis, factor: np.ndarray, basis: OccupationBasis
) -> np.ndarray:
    """``[a(psi_1) V, ..., a(psi_K) V]`` for the kets ``psi_k`` of ``mb``.

    The columns of ``V = factor`` are coordinates over ``basis``, and
    ``a(psi) = sum_j conj(psi_j) a_j``; the result has one row per occupation
    of the sector below and ``K`` times as many columns as ``V``. Only the
    entries ``j`` of the kets' support are gathered (see the module
    docstring).
    """
    support, conj = mb._support
    up, g = _support_ladder(basis.space.dim, basis.sector, basis.statistics, support)
    if conj is None:
        conj = np.conj(mb.amps)
    lowered = conj @ (factor[up] * g[:, :, None])  # (rows, K, columns)
    return lowered.reshape(len(up), -1)


def coords(phi: ParticleState, basis: OccupationBasis) -> np.ndarray:
    """Isometric coordinates of ``phi`` in the occupation-number basis.

    The standard inner product of coordinate vectors equals ``inner`` on
    states. Each term is raised as ``c a^dagger(chi_1) ... a^dagger(chi_N)
    |vac>`` in its own row, from the one-particle coordinates ``c chi_N``
    (``a^dagger(chi) |vac> = chi``): each further creation is one flat
    scatter of that row's hops through the ladder table. The rows are summed
    at the end; the zero-particle state is ``[sum c]``. A basis of another
    sector, statistics or frame is refused with IncompatibleStatesError.
    """
    if basis.sector != phi.n:
        raise IncompatibleStatesError(
            f"state has {phi.n} particles, basis sector is {basis.sector}"
        )
    if basis.statistics is not phi.statistics:
        raise IncompatibleStatesError("statistics of state and basis differ")
    dim = basis.space.dim
    coeffs, amps = phi._stack
    if phi.n == 0:  # no kets, so no frame to match
        return np.array([coeffs.sum()])
    if basis.space != phi.basis:
        raise IncompatibleStatesError("state and basis frames differ")
    terms = amps[:, -1] * coeffs[:, None]
    for k in range(phi.n - 2, -1, -1):  # then a^dagger(chi_{N-1}), ..., a^dagger(chi_1)
        sector = phi.n - k
        up, g = _ladder(dim, sector, phi.statistics)
        raised = np.zeros((len(terms), len(_entries(dim, sector, phi.statistics))), complex)
        for row, x, chi in zip(raised, terms, amps[:, k]):
            hops = g * chi  # (lower rows, dim), times x in place
            hops *= x[:, None]
            # a 1-D index takes ufunc.at's fast path; up.ravel() is a view
            np.add.at(row, up.ravel(), hops.ravel())
            del hops  # one hop block alive at a time
        terms = raised
    # summed along contiguous (size, terms) rows: the order the tests pin bit for bit
    return np.ascontiguousarray(terms.T).sum(axis=1)


class DensityMatrix(Frozen, eq=False):
    """Trace-one state ``V V^dagger`` over a sector basis, kept as its factor
    ``V`` (read-only, ``basis.size`` rows), plus the total measurement
    probability ``prob`` consumed to normalize it.

    The factor is the representation: ``V V^dagger`` is Hermitian and PSD by
    construction. Every readout comes off one Gram matrix, the smaller of
    ``V^dagger V`` and ``V V^dagger``, formed once at construction, and
    every check runs there: the trace is the sum of its diagonal (checked
    against 1 before anything else is read); its descending eigenvalues
    come from one ``eigvalsh``, checked and clamped by
    ``_checked_eigenvalues``, and only those (as many as the Gram matrix is
    wide) are kept; ``purity`` is ``tr rho^2``, its squared Frobenius norm;
    and ``entropy`` is the von Neumann entropy in bits, summed once over
    the checked eigenvalues (``0 log 0 = 0``, never below zero, and a pure
    state reads ``+0.0``). ``spectrum`` pads the kept eigenvalues with
    zeros to the basis size on its first read, and the dense ``mat`` is
    formed on its first read.
    """

    # basis: OccupationBasis or a labeled product basis (.size/.labels/.sector)
    def __init__(self, basis: object, factor: np.ndarray, prob: float):
        self._set("basis", basis)
        self._set("factor", factor)
        self._set("prob", prob)
        self.__post_init__()

    def __post_init__(self):
        """Check and normalize the fields; kept apart from ``__init__`` so a
        profiler can wrap the validation alone."""
        v = np.array(self.factor, dtype=complex)
        size = self.basis.size
        if v.ndim != 2 or v.shape[0] != size:
            raise ValueError(f"factor shape {v.shape} does not fit basis size {size}")
        gram = v.conj().T @ v if v.shape[1] < size else v @ v.conj().T
        trace = sum(gram.diagonal().real.tolist())  # ||V||_F^2; NaN fails below
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {trace:.12g}, expected 1")
        evals, ev, purity = _checked_eigenvalues(gram, trace)  # the moment and PSD checks
        p = float(self.prob)
        if not -1e-9 <= p <= 1.0 + 1e-9:  # NaN fails too
            raise ValueError(f"probability {p} outside [0, 1]")
        v.flags.writeable = False
        evals.flags.writeable = False
        self._set("factor", v)
        self._set("prob", min(max(p, 0.0), 1.0))
        self._set("_eigenvalues", evals)
        self._set("purity", float(purity))
        # clamped as the spectrum is: eigenvalues <= 0 add nothing, and a top
        # eigenvalue rounded just above 1 must not read below zero bits;
        # + 0.0 flattens -0.0
        self._set("entropy", max(-sum(x * math.log2(x) for x in ev if x > 0.0), 0.0) + 0.0)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The descending eigenvalues (read-only), padded with zeros to the
        basis size on first read."""
        spectrum = np.zeros(self.basis.size)
        spectrum[: len(self._eigenvalues)] = self._eigenvalues
        spectrum.flags.writeable = False
        return spectrum

    @cached_property
    def mat(self) -> np.ndarray:
        """The dense ``V V^dagger`` (read-only), formed on first read."""
        m = self.factor @ self.factor.conj().T
        m.flags.writeable = False
        return m


def _checked_eigenvalues(mat: np.ndarray, trace: float) -> tuple[np.ndarray, list[float], float]:
    """The eigenvalues of a Hermitian ``mat`` whose diagonal sums to
    ``trace``, from one ``eigvalsh``: descending and clamped as an array,
    ascending and unclamped as the Python floats the checks read, and
    ``||mat||_F^2``.

    The eigenvalues are checked through what is read of them, in O(n^2):
    their sum against ``trace``, the sum of their squares against
    ``||mat||_F^2`` (which a density matrix reports as its purity), and
    their ascending order. The moment residual, both moments taken as a
    shift of one eigenvalue, must stay within ``MOMENT_TOL`` times ``n``
    times ``max(1, ||mat||_F)``; a NaN fails it, and a non-finite matrix is
    refused before the solver runs. Tiny negative eigenvalues
    (>= -``EIGEN_CLAMP``) are clamped to zero; anything lower raises
    NotPSDError.
    """
    m = np.asarray(mat, dtype=complex)
    if not m.size:
        raise ValueError("an empty matrix has no eigenvalues to check")
    norm2 = np.vdot(m, m).real
    if not math.isfinite(norm2):  # LAPACK builds differ on NaN input
        raise ArithmeticError(f"squared norm {norm2}: no eigenvalue residual can be checked")
    evals = np.linalg.eigvalsh(m)
    ev = evals.tolist()  # Python floats: quicker than numpy on a few values
    scale = max(1.0, math.sqrt(norm2))
    # d(sum l) = sum d and d(sum l^2) ~ 2 sum l d with |l| <= scale
    resid = max(abs(sum(ev) - trace), abs(sum(x * x for x in ev) - norm2) / (2 * scale))
    if not resid <= MOMENT_TOL * len(ev) * scale:
        raise ArithmeticError(f"eigenvalue moment residual {resid:.3g}")
    if ev != sorted(ev):
        raise ArithmeticError("eigenvalues out of ascending order")
    lo = ev[0]
    if lo < -EIGEN_CLAMP:
        raise NotPSDError(f"eigenvalue {lo:.3g} below -{EIGEN_CLAMP}")
    return np.maximum(evals[::-1], 0.0), ev, norm2  # the clamp turns -0.0 into 0.0


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
    occ = _shared_basis(OccupationBasis, phi.basis, phi.n, phi.statistics)
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
