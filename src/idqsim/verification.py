"""Executable invariants of the whole stack, with seeded randomness.

Each property draws its own `numpy` generator from ``default_rng([seed, k])``
(k = its position in the fixed run order), so a given seed always replays the
exact same states and bases. ``run_all`` never raises: a property that throws
is reported as failed with the exception text.

Every property that draws a ket, a state, a basis or a product draws it
over one shape schedule, ``SHAPES``: 1-3 bosons or fermions over three
sites and 4 over four sites (dim 8); fifteen of the 19 do. Fourteen run
each draw's routes (the labeled oracle, the projected states, the ladder,
the occupation coordinates, a closed form) through one comparer,
``_compare``, which compares every later route with the first. A draw is
skipped only when its first route meets a measurement that never fires,
and a property fails below its minimum count of compared draws. Each
detail line gives the worst deviation, that deviation as a fraction of the
tolerance, and the draw that set it: ``B4/M4`` is 4 bosons over 4 sites,
``L4/M4`` 4 labeled particles, ``6x6`` a matrix size, ``d=6`` a spectrum's
length and ``ghz[(AB)-C, two]`` a side of a builtin's plan. The exact-zero
and inequality checks (orthonormality, Pauli exclusion, the density matrix
contracts, the entropy bounds and concavity) keep their own code and
tolerances.

``benchmark-reductions`` runs the paper's verdicts as users get them: all
six builtin scenario files through ``run_spec``, each check at its file's
own tolerance, and every plan side's remainder from ``analyze`` against
that side traced alone (``partial_trace_iterate``,
``distinguishable_trace_iterate``).

The random builders at the top are public on purpose — the test suite
reuses them so that "the tests" and "the verifier" disagree only if the
library itself is inconsistent. They draw an array at a time: one normal
block per random state (``random_state``), normalized row by row in one
pass, with the state's norm read off the arrays by ``states.overlaps``. The
numbers, and the generator's state afterwards, are those of drawing one ket
at a time. States and bases are built from those arrays in one step
(``ParticleState``, ``MeasurementBasis``), each of which checks the
whole stack once; their terms and kets are made only if read.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, cycle
from typing import Callable, Optional

import numpy as np

from .comparator import (
    LabeledState,
    SlotTrace,
    distinguishable_trace_iterate,
    occupation_isometry,
    oracle_inner,
    oracle_trace_iterate,
    product_state,
)
from .entanglement import purity, spectrum, von_neumann_entropy
from .errors import ZeroProbabilityError
from .hilbert import CanonicalBasis, Frozen, Ket, Spin, orthonormality_defect, sp_inner
from .permanents import permanent, permanent_naive, permanent_ryser
from .reduction import (
    DensityMatrix,
    MeasurementBasis,
    OccupationBasis,
    annihilate,
    coords,
    partial_trace_iterate,
    probability_of,
)
from .scenarios import builtin_names, delocalized_pair, get_builtin, run_spec
from .states import (
    ParticleState,
    Statistics,
    elementary,
    inner,
    normalize,
    overlaps,
    project_single,
    require_statistics,
)

class PropertyResult(Frozen):
    def __init__(self, name: str, passed: bool, detail: str):
        self._set("name", name)
        self._set("passed", passed)
        self._set("detail", detail)


def _ensure(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


# --- the shape schedule and the route comparer ------------------------------

# (statistics, N, sites): N = 1-3 over three sites and N = 4 over four (dim 8,
# inside the oracle's cap). N = 5 over four sites fits the cap too, but its
# one-stage oracle trace builds the 4-boson isometry over dim 8, 21.6 MB.
SHAPES: tuple[tuple[Statistics, int, int], ...] = tuple(
    (stats, n, 3 if n < 4 else 4) for stats in Statistics for n in (1, 2, 3, 4)
)


def _label(stats: Optional[Statistics], n: int, sites: int) -> str:
    """``B4/M4``: 4 bosons over 4 sites; ``L4/M4`` for labeled particles
    (``stats`` None)."""
    return f"{'L' if stats is None else stats.value[0].upper()}{n}/M{sites}"


def _shapes(low: int = 1, each: int = 1):
    """``(statistics, n, frame, label)`` of every scheduled shape with at
    least ``low`` particles, ``each`` times in a row."""
    for stats, n, sites in SHAPES:
        if n >= low:
            space = CanonicalBasis("ABCD"[:sites])
            for _ in range(each):
                yield stats, n, space, _label(stats, n, sites)


def _state_draws(rng, routes: Callable, low: int = 1, each: int = 1):
    """``(label, routes(phi))`` for a ``random_state`` ``phi`` of each shape
    that ``_shapes(low, each)`` yields."""
    for stats, n, space, where in _shapes(low, each):
        yield where, routes(random_state(rng, space, n, stats))


class Comparison(Frozen):
    """What ``_compare`` found: how many draws it compared, the worst
    deviation, that deviation as a fraction of the tolerance, and the label
    of the draw that set it."""

    def __init__(self, compared: int, worst: float, fraction: float, where: str):
        self._set("compared", compared)
        self._set("worst", worst)
        self._set("fraction", fraction)
        self._set("where", where)

    def __str__(self) -> str:
        return f"{self.worst:.3g} ({self.fraction:.2g} of tolerance) at {self.where}"


def _values(value) -> tuple:
    """A route's value as the tuple that is compared; a reduced state gives
    its matrix and its probability."""
    if isinstance(value, DensityMatrix):
        return value.mat, value.prob
    return value if isinstance(value, tuple) else (value,)


def _compare(draws, tol: float, failure: str, minimum: int = 1, relative: bool = False):
    """Run the routes of every draw and compare each later route with the first.

    ``draws`` yields ``(label, routes)``: the label of the draw's shape and
    zero-argument callables that each return a value or a tuple of values (see ``_values``). The routes look up the module's functions when
    they are called, so a patched or traced name is the one they run. A
    later route is compared with the first on the values it returns, which
    may be the leading part of the first route's. A deviation is the largest
    absolute entry difference, over ``max(|first|, 1)`` when ``relative``;
    NaN counts as infinite.

    A draw is skipped only when its first route raises ZeroProbabilityError,
    a measurement that never fires; any other exception, and that one from a
    later route, reaches ``run_all``. Fails when fewer than ``minimum`` draws
    were compared, and with ``failure`` when the worst deviation is not
    below ``tol``. Returns a ``Comparison``.
    """
    compared, worst, where = 0, -math.inf, None
    for label, (first, *rest) in draws:
        try:
            want = _values(first())
        except ZeroProbabilityError:
            continue
        compared += 1
        scale = max(max(float(np.abs(v).max()) for v in want), 1.0) if relative else 1.0
        for route in rest:
            gaps = [np.abs(np.subtract(got, ref)).max() for got, ref in zip(_values(route()), want)]
            dev = float(np.nan_to_num(np.max(gaps), nan=np.inf)) / scale
            if dev > worst:
                worst, where = dev, label
    _ensure(compared >= minimum, f"only {compared} comparable draws, need {minimum}")
    found = Comparison(compared, worst, worst / tol, where)
    _ensure(worst < tol, f"{failure} by {found}")
    return found


# --- random builders (public; reused by the test suite) -------------------


def _unit_rows(draws: np.ndarray) -> np.ndarray:
    """Unit vectors ``re + 1j * im`` from normal draws shaped ``(..., 2, dim)``.

    Each squared norm is ``re·re + im·im`` from one stacked ``matmul`` on views
    of the complex rows, bit for bit what ``np.linalg.norm`` gives a single
    row (``norm(axis=-1)`` and ``einsum`` round differently).
    """
    v = draws[..., 0, :] + 1j * draws[..., 1, :]
    re, im = v.real, v.imag
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return v / np.sqrt(sq[..., 0])


def random_ket(rng: np.random.Generator, space: CanonicalBasis) -> Ket:
    return Ket(space, _unit_rows(rng.normal(size=(2, space.dim))))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph.conj()


def random_state(
    rng: np.random.Generator,
    space: CanonicalBasis,
    n: int,
    statistics: Statistics,
    n_terms: int = 2,
) -> ParticleState:
    """Normalized random combination of elementary states.

    Each draw is one normal block of shape ``(n_terms, 2 n dim + 2)``; per
    term it holds the real and imaginary parts of each of the ``n`` kets in
    turn, then the coefficient's real and imaginary parts. That is the stream
    of drawing ket by ket with ``random_ket``, and the kets, the squared norm
    (``states.overlaps`` on the arrays) and the coefficients, scaled by
    ``1 / sqrt(norm^2)`` as ``normalize`` scales them, come out the same bit
    for bit. The state is built once, already normalized, by the
    ``ParticleState`` constructor on those arrays.

    Raises, before any draw, TypeError when ``statistics`` is not a
    ``Statistics`` member and ValueError when ``n_terms < 1`` or the sector is
    empty (more fermions than single-particle states); raises ArithmeticError
    if 100 draws in a row have a squared norm of at most 1e-6.
    """
    require_statistics(statistics)
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    if statistics is Statistics.FERMION and n > space.dim:
        raise ValueError(f"no state of {n} fermions over {space.dim} single-particle states")
    for _ in range(100):
        draw = rng.normal(size=(n_terms, 2 * n * space.dim + 2))
        amps = _unit_rows(draw[:, :-2].reshape(n_terms, n, 2, space.dim))
        coeffs = draw[:, -2] + 1j * draw[:, -1]
        n2 = overlaps(coeffs, coeffs, amps, statistics).sum().real
        if n2 > 1e-6:
            return ParticleState(statistics, space, coeffs * (1.0 / np.sqrt(n2)), amps)
    raise ArithmeticError(f"100 draws of {n} {statistics.value}s all had squared norm <= 1e-6")


def random_measurement_basis(
    rng: np.random.Generator, space: CanonicalBasis, size: Optional[int] = None
) -> MeasurementBasis:
    """Orthonormal measurement set from a Haar-ish unitary: its first
    ``size`` columns, all of them if ``size`` is None, as the rows of its
    ``MeasurementBasis`` stack. A ``size`` outside ``1..dim`` raises
    ValueError before any draw."""
    if size is not None and not 1 <= size <= space.dim:
        raise ValueError(f"size must be between 1 and {space.dim}, got {size}")
    u = random_unitary(rng, space.dim)
    k = space.dim if size is None else size
    return MeasurementBasis(space, u[:, :k].T)


def random_product_labeled(
    rng: np.random.Generator, space: CanonicalBasis, n: int
) -> LabeledState:
    amps = _unit_rows(rng.normal(size=(n, 2, space.dim)))
    return product_state([Ket(space, a) for a in amps])


# --- properties -------------------------------------------------------------


def _prop_single_particle_inner(rng) -> str:
    def draws():
        for _, _, space, where in _shapes(each=3):
            a, b, c = (random_ket(rng, space) for _ in range(3))
            x, y = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            yield where, (
                lambda: (x * sp_inner(a, b) + y * sp_inner(a, c), np.conj(sp_inner(b, a))),
                lambda: (sp_inner(a, Ket(space, x * b.amps + y * c.amps)), sp_inner(a, b)),
            )

    c = _compare(draws(), 1e-12, "sesquilinearity violated")
    return f"{c.compared} random triples, worst deviation {c}"


def _prop_canonical_orthonormality(rng) -> str:
    worst = 0.0
    for _, _, space, where in _shapes():
        defect, pair = orthonormality_defect(MeasurementBasis.full(space).amps)
        _ensure(defect == 0.0, f"canonical defect {defect:.3g} at {pair}, {where}")
        worst = max(worst, orthonormality_defect(random_measurement_basis(rng, space).amps)[0])
    _ensure(worst <= 1e-10, f"remixed basis defect {worst:.3g}")
    return f"canonical defect 0, {len(SHAPES)} remixed bases, worst {worst:.3g}"


def _prop_exchange_symmetry(rng) -> str:
    def draws():
        for stats, n, space, where in _shapes(low=2, each=5):
            kets = [random_ket(rng, space) for _ in range(n)]
            i, j = sorted(rng.choice(n, size=2, replace=False))
            swapped = list(kets)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            bra = elementary(stats, [random_ket(rng, space) for _ in range(n)])
            yield where, (
                lambda: stats.eta * inner(bra, elementary(stats, kets)),
                lambda: inner(bra, elementary(stats, swapped)),
            )

    c = _compare(draws(), 1e-10, "exchange sign violated")
    return f"{c.compared} random transpositions, worst deviation {c}"


def _prop_pauli_exclusion(rng) -> str:
    checked = 0
    for stats, n, space, where in _shapes(low=2, each=4):
        if stats is Statistics.FERMION:
            kets = [random_ket(rng, space) for _ in range(n - 1)]
            doubled = elementary(stats, kets + [kets[0] * np.exp(2j * np.pi * rng.random())])
            _ensure(doubled.norm() == 0.0, f"repeated fermion ket has nonzero norm at {where}")
            other = random_state(rng, space, n, stats)
            _ensure(inner(doubled, other) == 0.0, f"repeated fermion ket has nonzero overlap at {where}")
            checked += 1
    return f"{checked} proportional-pair states, norm and overlaps exactly 0"


def _prop_permanent_consistency(rng) -> str:
    def draws():
        for n in range(1, 7):
            for _ in range(4):
                m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                yield f"{n}x{n}", (lambda: permanent_naive(m), lambda: permanent_ryser(m))

    c = _compare(draws(), 1e-10, "Ryser disagrees with the definition", relative=True)
    for n in range(1, 6):
        _ensure(abs(permanent(np.eye(n)) - 1.0) < 1e-12, f"per(I_{n}) != 1")
        ones = permanent(np.ones((n, n)))
        _ensure(abs(ones - math.factorial(n)) < 1e-9, f"per(ones_{n}) != {n}!")
    return f"n=1..6 random matrices, worst relative deviation {c}"


def _prop_oracle_inner_factorial(rng) -> str:
    def routes(a, b):
        return lambda: math.factorial(a.n) * inner(a, b), lambda: oracle_inner(a, b)

    def state_pair(a):
        return routes(a, random_state(rng, a.basis, a.n, a.statistics))

    def elementary_pairs():  # unnormalized on purpose
        for stats, n, space, where in _shapes(each=6):
            a = elementary(stats, [random_ket(rng, space) for _ in range(n)], 1.3 - 0.4j)
            b = elementary(stats, [random_ket(rng, space) for _ in range(n)], -0.7 + 2.1j)
            yield where, routes(a, b)

    draws = chain(_state_draws(rng, state_pair, low=2, each=10), elementary_pairs())
    c = _compare(draws, 1e-10, "labeled/label-free ratio off", relative=True)
    return f"{c.compared} state pairs, worst relative deviation {c}"


def _ladder(phi: ParticleState, mb: MeasurementBasis) -> tuple:
    """The one-stage trace and the lowered coordinates ``a(psi) coords(phi)``
    of the ladder route."""
    rho = partial_trace_iterate(phi, (mb,))
    upper = OccupationBasis(phi.basis, phi.n, phi.statistics)
    return rho.mat, rho.prob, annihilate(mb, coords(phi, upper)[:, None], upper)


def _projected(phi: ParticleState, mb: MeasurementBasis) -> tuple:
    """The paper's algebra, from the projected states themselves: the
    trace-one Gram matrix of their coordinates, its trace over N (the
    probability), and the coordinates, one column per ket."""
    lower = OccupationBasis(phi.basis, phi.n - 1, phi.statistics)
    projected = np.column_stack([coords(project_single(psi, phi), lower) for psi in mb.kets])
    paper = projected @ projected.conj().T
    trace = paper.trace().real
    return paper / trace, trace / phi.n, projected


def _prop_oracle_trace_agreement(rng) -> str:
    def one_stage(phi):
        size = None if rng.random() < 0.5 else int(rng.integers(1, phi.basis.dim))
        mb = random_measurement_basis(rng, phi.basis, size)
        return (lambda: _ladder(phi, mb), lambda: oracle_trace_iterate(phi, (mb,)),
                lambda: _projected(phi, mb))

    def iterated(phi, stages):
        return lambda: partial_trace_iterate(phi, stages), lambda: oracle_trace_iterate(phi, stages)

    def two_random(phi):
        space = phi.basis
        sizes = (int(rng.integers(2, space.dim)) for _ in range(2))
        return iterated(phi, tuple(random_measurement_basis(rng, space, k) for k in sizes))

    depths = cycle((1, 2))

    def sparse(phi):
        # the paper's bases lower through a sparse support: one site, or a pair
        space, names = phi.basis, phi.basis.mode_names
        pool = [MeasurementBasis.localized(space, m) for m in names]
        pool += [delocalized_pair(space, a, b) for a, b in combinations(names, 2)]
        return iterated(phi, tuple(pool[int(rng.integers(len(pool)))] for _ in range(next(depths))))

    failure = "labeled and label-free traces differ"
    random_bases = chain(
        _state_draws(rng, one_stage, low=2, each=4), _state_draws(rng, two_random, low=3, each=3)
    )
    ran = _compare(random_bases, 1e-10, failure, minimum=20)
    sparse_bases = _state_draws(rng, sparse, low=3, each=4)
    through = _compare(sparse_bases, 1e-10, failure + " through sparse bases", minimum=8)
    return (f"{ran.compared} reductions through random bases, worst entry deviation {ran}; "
            f"{through.compared} through localized or delocalized bases, worst {through}")


def _prop_projection_completeness(rng) -> str:
    def projected_total(phi, mb):
        return sum(inner(p, p).real for p in (project_single(k, phi) for k in mb.kets))

    def routes(phi):
        bases = (MeasurementBasis.full(phi.basis), random_measurement_basis(rng, phi.basis))
        return (lambda: (phi.n * inner(phi, phi).real,) * 2,
                lambda: tuple(projected_total(phi, mb) for mb in bases))

    c = _compare(_state_draws(rng, routes, each=2), 1e-10, "projection completeness violated")
    return f"{2 * c.compared} complete bases reproduce N times the squared norm, worst {c}"


def _prop_probability_complete(rng) -> str:
    def routes(phi):
        bases = (MeasurementBasis.full(phi.basis), random_measurement_basis(rng, phi.basis))
        return lambda: (1.0, 1.0), lambda: tuple(probability_of(phi, mb) for mb in bases)

    c = _compare(_state_draws(rng, routes, each=2), 1e-10, "complete-basis probability off")
    return f"{2 * c.compared} complete-basis probabilities equal 1, worst deviation {c}"


def _prop_probability_additivity(rng) -> str:
    def routes(phi):
        mb = random_measurement_basis(rng, phi.basis)
        cut = int(rng.integers(1, phi.basis.dim))
        left, right = (MeasurementBasis(phi.basis, part) for part in np.split(mb.amps, [cut]))
        return (lambda: probability_of(phi, mb),
                lambda: probability_of(phi, left) + probability_of(phi, right))

    c = _compare(_state_draws(rng, routes, each=2), 1e-10, "additivity violated")
    return f"{c.compared} random partitions, worst deviation {c}"


def _prop_trace_unitary_invariance(rng) -> str:
    def routes(phi):
        base = random_measurement_basis(rng, phi.basis)
        u = random_unitary(rng, phi.basis.dim)
        # ket i is sum_j u[j, i] base_j, summed over j in order
        remixed = MeasurementBasis(phi.basis, (u[:, :, None] * base.amps[:, None]).sum(axis=0))
        return (lambda: partial_trace_iterate(phi, (base,)),
                lambda: partial_trace_iterate(phi, (remixed,)))

    draws = _state_draws(rng, routes, low=2, each=2)
    c = _compare(draws, 1e-10, "complete-basis trace moved under remix")
    return f"{c.compared} unitary remixes leave the reduced state fixed, worst {c}"


def _prop_density_matrix_contracts(rng) -> str:
    worst_h, worst_t, lowest, worst_s, worst_p = 0.0, 0.0, 0.0, 0.0, 0.0
    checked = 0
    for stats, n, space, where in _shapes(low=2, each=2):
        phi = random_state(rng, space, n, stats)
        mb = random_measurement_basis(rng, space, int(rng.integers(2, space.dim + 1)))
        try:
            rho = partial_trace_iterate(phi, (mb,))
        except ZeroProbabilityError:
            continue
        checked += 1
        worst_h = max(worst_h, float(np.abs(rho.mat - rho.mat.conj().T).max()))
        worst_t = max(worst_t, abs(complex(rho.mat.trace()) - 1.0))
        # dense routes against the spectrum and purity from the factor's Gram matrix
        dense = np.linalg.eigvalsh(rho.mat)[::-1]
        lowest = min(lowest, float(dense[-1]))
        dev_s = float(np.abs(dense - spectrum(rho)).max())
        dev_p = abs(purity(rho) - float(np.vdot(rho.mat, rho.mat).real))
        bound = 1e-12 * rho.basis.size
        _ensure(dev_s < bound, f"spectrum differs from dense eigvalsh by {dev_s:.3g} at {where}")
        _ensure(dev_p < bound, f"purity differs from dense Tr rho^2 by {dev_p:.3g} at {where}")
        worst_s, worst_p = max(worst_s, dev_s), max(worst_p, dev_p)
    _ensure(checked >= 8, f"only {checked} comparable draws")
    _ensure(worst_h < 1e-10, f"Hermiticity violated by {worst_h:.3g}")
    _ensure(worst_t < 1e-10, f"trace off by {worst_t:.3g}")
    _ensure(lowest > -1e-10, f"negative eigenvalue {lowest:.3g}")
    return (
        f"{checked} reductions, hermiticity {worst_h:.3g}, trace {worst_t:.3g}, "
        f"lowest eigenvalue {lowest:.3g}, spectrum vs dense {worst_s:.3g}, purity vs dense {worst_p:.3g}"
    )


def _pure(rho: DensityMatrix) -> tuple:
    """The purity and entropy of ``rho``, to be compared with a pure state's
    ``(1.0, 0.0)``."""
    return purity(rho), von_neumann_entropy(rho)


def _prop_localized_product_purity(rng) -> str:
    def draws():
        for stats, n, space, where in _shapes(low=2, each=3):
            sites = [space.mode_names[i] for i in rng.permutation(len(space.mode_names))[:n]]
            kets = [space.ket(m, Spin.UP if rng.random() < 0.5 else Spin.DOWN) for m in sites]
            phi = normalize(elementary(stats, kets))
            seen = MeasurementBasis.localized(space, sites[int(rng.integers(n))])
            yield where, (lambda: (1.0, 0.0), lambda: _pure(partial_trace_iterate(phi, (seen,))))

    c = _compare(draws(), 1e-9, "localized remainder mixed")
    return f"{c.compared} spatially separated products stay pure, worst deviation {c}"


def _prop_distinguishable_purity(rng) -> str:
    def draws():  # labeled particles: the statistics of a shape is not read
        for _, n, space, _ in _shapes(low=2, each=2):
            state = random_product_labeled(rng, space, n)
            steps = []
            for s in rng.permutation(n)[: int(rng.integers(1, n))]:
                size = None if rng.random() < 0.5 else int(rng.integers(1, space.dim))
                steps.append(SlotTrace(int(s), random_measurement_basis(rng, space, size)))
            yield _label(None, n, len(space.mode_names)), (
                lambda: _pure(distinguishable_trace_iterate(state, steps)), lambda: (1.0, 0.0)
            )

    c = _compare(draws(), 1e-9, "labeled product left mixed", minimum=8)
    return f"{c.compared} product states stay pure under slot traces, worst deviation {c}"


def _entropy_of_factor(factor: np.ndarray) -> float:
    """``von_neumann_entropy`` of the trace-one ``factor factor^dagger``, read
    through a ``DensityMatrix`` over a basis of its size: the ``d`` states of
    ``d - 1`` bosons on one site."""
    basis = OccupationBasis(CanonicalBasis(("A",)), len(factor) - 1, Statistics.BOSON)
    return von_neumann_entropy(DensityMatrix(basis, factor, 1.0))


def _prop_entropy_unitary_invariance(rng) -> str:
    def draws():
        for d in (2, 3, 6):
            for _ in range(5):
                evals = rng.random(d)
                evals /= evals.sum()
                u = random_unitary(rng, d)
                yield f"d={d}", (
                    lambda: -(evals * np.log2(evals)).sum(),
                    lambda: _entropy_of_factor(u * np.sqrt(evals)),
                )

    c = _compare(draws(), 1e-9, "entropy moved under conjugation")
    return f"{c.compared} spectra survive unitary conjugation, worst deviation {c}"


def _prop_entropy_purity_consistency(rng) -> str:
    checked = 0
    for stats, n, space, where in _shapes(low=2, each=2):
        phi = random_state(rng, space, n, stats)
        rho = partial_trace_iterate(phi, (random_measurement_basis(rng, space),))
        p, s = _pure(rho)
        _ensure(1.0 / rho.basis.size - 1e-9 <= p <= 1.0 + 1e-9, f"purity {p} out of range at {where}")
        if abs(p - 1.0) < 1e-12:
            _ensure(s < 1e-9, f"pure state with entropy {s:.3g} at {where}")
        if s < 1e-12:
            _ensure(abs(p - 1.0) < 1e-9, f"zero entropy but purity {p} at {where}")
        checked += 1
    return f"{checked} reductions: purity in [1/d, 1]; purity 1 and entropy 0 coincide"


def _prop_entropy_concavity(rng) -> str:
    worst = 0.0
    for d in (2, 4):
        for _ in range(8):
            def rand_factor():
                u = random_unitary(rng, d)
                ev = rng.random(d)
                ev /= ev.sum()
                return u * np.sqrt(ev)

            v1, v2 = rand_factor(), rand_factor()
            lam = float(rng.random())
            mix = np.hstack([math.sqrt(lam) * v1, math.sqrt(1 - lam) * v2])
            ent = _entropy_of_factor
            gap = ent(mix) - lam * ent(v1) - (1 - lam) * ent(v2)
            worst = min(worst, gap)
    _ensure(worst > -1e-9, f"concavity violated by {worst:.3g}")
    return f"16 random mixtures, smallest concavity gap {worst:.3g}"


def _prop_coords_isometry(rng) -> str:
    def pair(a):
        b = random_state(rng, a.basis, a.n, a.statistics)
        occ = OccupationBasis(a.basis, a.n, a.statistics)
        return lambda: inner(a, b), lambda: np.vdot(coords(a, occ), coords(b, occ))

    def isometries():  # at most 3 particles: the 4-boson table over dim 8 alone is 21.6 MB
        for stats, n, space, _ in _shapes():
            occ = OccupationBasis(space, min(n, 3), stats)
            t = occupation_isometry(occ)
            yield _label(stats, occ.sector, len(space.mode_names)), (
                lambda: np.eye(occ.size), lambda: t.conj().T @ t
            )

    c = _compare(chain(_state_draws(rng, pair, each=3), isometries()), 1e-10,
                 "occupation coordinates distort overlaps")
    return f"coordinate map preserves inner products, worst deviation {c}"


def _prop_benchmark_reductions(rng) -> str:
    checks = 0

    def draws():
        nonlocal checks
        for name in builtin_names():
            spec = get_builtin(name)
            report = run_spec(spec)  # each check at its file's own tolerance
            failed = [c.expectation.describe() for c in report.checks if not c.passed]
            _ensure(not failed, f"builtin {name!r} fails {', '.join(failed)}")
            checks += len(report.checks)
            alone = (distinguishable_trace_iterate if isinstance(spec.state, LabeledState)
                     else partial_trace_iterate)
            for plan, found in zip(spec.plans, report.report.bipartitions):
                for side, stages in plan.sides():
                    yield f"{name}[{plan.label}, {side}]", (
                        lambda: getattr(found, f"rho_{side}"), lambda: alone(spec.state, stages)
                    )

    c = _compare(draws(), 1e-10, "a remainder of analyze differs from its side traced alone")
    return (f"{len(builtin_names())} builtins pass their {checks} checks; {c.compared} plan "
            f"sides match their sequential traces, worst {c}")


_PROPERTIES: tuple[tuple[str, Callable], ...] = (
    ("single-particle-inner-product", _prop_single_particle_inner),
    ("canonical-orthonormality", _prop_canonical_orthonormality),
    ("exchange-symmetry", _prop_exchange_symmetry),
    ("pauli-exclusion", _prop_pauli_exclusion),
    ("permanent-consistency", _prop_permanent_consistency),
    ("oracle-inner-factorial", _prop_oracle_inner_factorial),
    ("oracle-trace-agreement", _prop_oracle_trace_agreement),
    ("projection-completeness", _prop_projection_completeness),
    ("probability-complete-basis", _prop_probability_complete),
    ("probability-additivity", _prop_probability_additivity),
    ("trace-unitary-invariance", _prop_trace_unitary_invariance),
    ("density-matrix-contracts", _prop_density_matrix_contracts),
    ("localized-product-purity", _prop_localized_product_purity),
    ("distinguishable-product-purity", _prop_distinguishable_purity),
    ("entropy-unitary-invariance", _prop_entropy_unitary_invariance),
    ("entropy-purity-consistency", _prop_entropy_purity_consistency),
    ("entropy-concavity", _prop_entropy_concavity),
    ("coords-isometry", _prop_coords_isometry),
    ("benchmark-reductions", _prop_benchmark_reductions),
)

PROPERTY_NAMES = tuple(name for name, _ in _PROPERTIES)


def run_all(seed: int = 0) -> list[PropertyResult]:
    """Run every property with its own child stream of ``seed``."""
    results = []
    for k, (name, fn) in enumerate(_PROPERTIES):
        rng = np.random.default_rng([seed, k])
        try:
            detail = fn(rng)
            results.append(PropertyResult(name, True, detail))
        except AssertionError as exc:
            results.append(PropertyResult(name, False, str(exc)))
        except Exception as exc:  # noqa: BLE001 - verifier must not crash
            results.append(PropertyResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
