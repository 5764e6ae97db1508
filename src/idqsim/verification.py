"""Executable invariants of the whole stack, with seeded randomness.

Each property draws its own `numpy` generator from ``default_rng([seed, k])``
(k = its position in the fixed run order), so a given seed always replays the
exact same states and bases. ``run_all`` never raises: a property that throws
is reported as failed with the exception text.

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
from typing import Callable, Optional

import numpy as np

from .comparator import (
    LabeledState,
    SlotTrace,
    distinguishable_trace_iterate,
    occupation_isometry,
    oracle_inner,
    oracle_trace,
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
    partial_trace_one,
    probability_of,
)
from .scenarios import delocalized_pair, get_builtin, standard_space
from .states import (
    ParticleState,
    Statistics,
    elementary,
    inner,
    normalize,
    overlaps,
    project_single,
)

BOTH = (Statistics.BOSON, Statistics.FERMION)


class PropertyResult(Frozen):
    def __init__(self, name: str, passed: bool, detail: str):
        self._set("name", name)
        self._set("passed", passed)
        self._set("detail", detail)


def _ensure(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


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

    Raises ValueError, before any draw, when ``n_terms < 1`` or the sector is
    empty (more fermions than single-particle states), and ArithmeticError if
    100 draws in a row have a squared norm of at most 1e-6.
    """
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
    space = standard_space()
    worst = 0.0
    for _ in range(20):
        a, b, c = (random_ket(rng, space) for _ in range(3))
        x, y = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        lhs = sp_inner(a, Ket(space, x * b.amps + y * c.amps))
        rhs = x * sp_inner(a, b) + y * sp_inner(a, c)
        worst = max(worst, abs(lhs - rhs))
        worst = max(worst, abs(sp_inner(a, b) - np.conj(sp_inner(b, a))))
    _ensure(worst < 1e-12, f"sesquilinearity violated by {worst:.3g}")
    return f"20 random triples, worst deviation {worst:.3g}"


def _prop_canonical_orthonormality(rng) -> str:
    space = standard_space()
    defect, pair = orthonormality_defect(MeasurementBasis.full(space).amps)
    _ensure(defect == 0.0, f"canonical defect {defect:.3g} at {pair}")
    worst = 0.0
    for _ in range(5):
        mb = random_measurement_basis(rng, space)
        d, _ = orthonormality_defect(mb.amps)
        worst = max(worst, d)
    _ensure(worst <= 1e-10, f"remixed basis defect {worst:.3g}")
    return f"canonical defect 0, remixed worst {worst:.3g}"


def _prop_exchange_symmetry(rng) -> str:
    space = standard_space()
    worst = 0.0
    for stats in BOTH:
        for _ in range(15):
            n = int(rng.integers(2, 4))
            kets = [random_ket(rng, space) for _ in range(n)]
            i, j = sorted(rng.choice(n, size=2, replace=False))
            swapped = list(kets)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            bra = elementary(stats, [random_ket(rng, space) for _ in range(n)])
            lhs = inner(bra, elementary(stats, swapped))
            rhs = stats.eta * inner(bra, elementary(stats, kets))
            worst = max(worst, abs(lhs - rhs))
    _ensure(worst < 1e-10, f"exchange sign violated by {worst:.3g}")
    return f"30 random transpositions, worst deviation {worst:.3g}"


def _prop_pauli_exclusion(rng) -> str:
    space = standard_space()
    for _ in range(10):
        k = random_ket(rng, space)
        other = random_ket(rng, space)
        phase = np.exp(2j * np.pi * rng.random())
        doubled = elementary(Statistics.FERMION, (k, other, k * phase))
        _ensure(doubled.norm() == 0.0, "repeated fermion ket has nonzero norm")
        _ensure(
            inner(doubled, random_state(rng, space, 3, Statistics.FERMION)) == 0.0,
            "repeated fermion ket has nonzero overlap",
        )
    return "10 proportional-pair states, norm and overlaps exactly 0"


def _prop_permanent_consistency(rng) -> str:
    worst = 0.0
    for n in range(1, 7):
        for _ in range(4):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a, b = permanent_ryser(m), permanent_naive(m)
            worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    for n in range(1, 6):
        _ensure(
            abs(permanent(np.eye(n)) - 1.0) < 1e-12, f"per(I_{n}) != 1"
        )
        _ensure(
            abs(permanent(np.ones((n, n))) - math.factorial(n)) < 1e-9,
            f"per(ones_{n}) != {n}!",
        )
    _ensure(worst < 1e-10, f"Ryser disagrees with the definition by {worst:.3g}")
    return f"n=1..6 random matrices, worst relative deviation {worst:.3g}"


def _prop_oracle_inner_factorial(rng) -> str:
    space = standard_space()
    checked, worst = 0, 0.0
    for stats in BOTH:
        for _ in range(30):
            n = int(rng.integers(2, 4))
            a = random_state(rng, space, n, stats)
            b = random_state(rng, space, n, stats)
            lhs = oracle_inner(a, b)
            rhs = math.factorial(n) * inner(a, b)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
            checked += 1
    # elementary pairs too, unnormalized on purpose
    for stats in BOTH:
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a = elementary(stats, [random_ket(rng, space) for _ in range(n)], 1.3 - 0.4j)
            b = elementary(stats, [random_ket(rng, space) for _ in range(n)], -0.7 + 2.1j)
            lhs = oracle_inner(a, b)
            rhs = math.factorial(n) * inner(a, b)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
            checked += 1
    _ensure(worst < 1e-10, f"labeled/label-free ratio off by {worst:.3g}")
    return f"{checked} state pairs, worst relative deviation {worst:.3g}"


def _prop_oracle_trace_agreement(rng) -> str:
    space = standard_space()
    checked, worst = 0, 0.0
    for stats in BOTH:
        for _ in range(12):
            n = int(rng.integers(2, 4))
            phi = random_state(rng, space, n, stats)
            size = None if rng.random() < 0.5 else int(rng.integers(1, space.dim))
            mb = random_measurement_basis(rng, space, size)
            try:
                ours = partial_trace_one(phi, mb)
            except ZeroProbabilityError:
                continue  # a basis that never fires is a legitimate skip
            ref = oracle_trace(phi, mb)
            worst = max(worst, float(np.abs(ours.mat - ref.mat).max()))
            worst = max(worst, abs(ours.prob - ref.prob))
            # the paper's algebra, from the projected states themselves ...
            upper = OccupationBasis(space, n, stats)
            lower = OccupationBasis(space, n - 1, stats)
            projected = np.column_stack(
                [coords(project_single(psi, phi), lower) for psi in mb.kets]
            )
            paper = projected @ projected.conj().T
            worst = max(worst, float(np.abs(paper / paper.trace().real - ref.mat).max()))
            # ... and tied to the ladder route: coords(P_psi phi) = a(psi) coords(phi)
            ladder = annihilate(mb, coords(phi, upper)[:, None], upper)
            worst = max(worst, float(np.abs(projected - ladder).max()))
            checked += 1
    # iterated traces through random bases, then through the paper's bases,
    # which lower through a sparse support: one site, or a pair of sites
    sparse = [MeasurementBasis.localized(space, m) for m in "ABC"]
    sparse += [delocalized_pair(space, a, b) for a, b in ("AB", "AC", "BC")]
    schedule = [(stats, 2, None) for stats in BOTH for _ in range(6)]
    schedule += [(stats, depth, sparse) for stats in BOTH for depth in (1, 2) * 4]
    through_sparse = 0
    for stats, depth, pool in schedule:
        phi = random_state(rng, space, 3, stats)
        stages = tuple(
            random_measurement_basis(rng, space, int(rng.integers(2, space.dim)))
            if pool is None else pool[int(rng.integers(len(pool)))]
            for _ in range(depth)
        )
        try:
            ours = partial_trace_iterate(phi, stages)
        except ZeroProbabilityError:
            continue
        ref = oracle_trace_iterate(phi, stages)
        worst = max(worst, float(np.abs(ours.mat - ref.mat).max()), abs(ours.prob - ref.prob))
        checked += 1
        through_sparse += pool is not None
    _ensure(checked - through_sparse >= 20, f"only {checked - through_sparse} comparable draws")
    _ensure(through_sparse >= 8, f"only {through_sparse} comparable draws through sparse bases")
    _ensure(worst < 1e-10, f"labeled and label-free traces differ by {worst:.3g}")
    return (f"{checked} reductions compared ({through_sparse} through localized or delocalized "
            f"bases), worst entry deviation {worst:.3g}")


def _prop_projection_completeness(rng) -> str:
    space = standard_space()
    worst = 0.0
    for stats in BOTH:
        for _ in range(8):
            n = int(rng.integers(1, 4))
            phi = random_state(rng, space, n, stats)
            for mb in (MeasurementBasis.full(space), random_measurement_basis(rng, space)):
                total = sum(
                    inner(p, p).real
                    for p in (project_single(k, phi) for k in mb.kets)
                )
                worst = max(worst, abs(total - n * inner(phi, phi).real))
    _ensure(worst < 1e-10, f"projection completeness violated by {worst:.3g}")
    return f"complete bases reproduce N times the squared norm, worst {worst:.3g}"


def _prop_probability_complete(rng) -> str:
    space = standard_space()
    worst = 0.0
    for stats in BOTH:
        for _ in range(8):
            n = int(rng.integers(1, 4))
            phi = random_state(rng, space, n, stats)
            for mb in (MeasurementBasis.full(space), random_measurement_basis(rng, space)):
                worst = max(worst, abs(probability_of(phi, mb) - 1.0))
    _ensure(worst < 1e-10, f"complete-basis probability off by {worst:.3g}")
    return f"32 complete-basis probabilities equal 1, worst deviation {worst:.3g}"


def _prop_probability_additivity(rng) -> str:
    space = standard_space()
    worst = 0.0
    for stats in BOTH:
        for _ in range(8):
            phi = random_state(rng, space, int(rng.integers(1, 4)), stats)
            mb = random_measurement_basis(rng, space)
            cut = int(rng.integers(1, space.dim))
            left = MeasurementBasis(space, mb.amps[:cut])
            right = MeasurementBasis(space, mb.amps[cut:])
            split = probability_of(phi, left) + probability_of(phi, right)
            worst = max(worst, abs(split - probability_of(phi, mb)))
    _ensure(worst < 1e-10, f"additivity violated by {worst:.3g}")
    return f"16 random partitions, worst deviation {worst:.3g}"


def _prop_trace_unitary_invariance(rng) -> str:
    space = standard_space()
    worst = 0.0
    for stats in BOTH:
        for _ in range(6):
            phi = random_state(rng, space, int(rng.integers(2, 4)), stats)
            base = random_measurement_basis(rng, space)
            u = random_unitary(rng, space.dim)
            # ket i is sum_j u[j, i] base_j, summed over j in order
            remixed = MeasurementBasis(space, (u[:, :, None] * base.amps[:, None]).sum(axis=0))
            r1 = partial_trace_one(phi, base)
            r2 = partial_trace_one(phi, remixed)
            worst = max(worst, float(np.abs(r1.mat - r2.mat).max()))
            worst = max(worst, abs(r1.prob - r2.prob))
    _ensure(worst < 1e-10, f"complete-basis trace moved under remix by {worst:.3g}")
    return f"12 unitary remixes leave the reduced state fixed, worst {worst:.3g}"


def _prop_density_matrix_contracts(rng) -> str:
    space = standard_space()
    worst_h, worst_t, lowest, worst_s, worst_p = 0.0, 0.0, 0.0, 0.0, 0.0
    checked = 0
    for stats in BOTH:
        for _ in range(6):
            phi = random_state(rng, space, 3, stats)
            mb = random_measurement_basis(rng, space, int(rng.integers(2, space.dim + 1)))
            try:
                rho = partial_trace_one(phi, mb)
            except ZeroProbabilityError:
                continue
            checked += 1
            worst_h = max(worst_h, float(np.abs(rho.mat - rho.mat.conj().T).max()))
            worst_t = max(worst_t, abs(complex(rho.mat.trace()) - 1.0))
            # dense routes against the spectrum and purity from the factor's Gram matrix
            dense = np.linalg.eigvalsh(rho.mat)[::-1]
            lowest = min(lowest, float(dense[-1]))
            dev_s = float(np.abs(dense - rho.spectrum).max())
            dev_p = abs(purity(rho) - float(np.vdot(rho.mat, rho.mat).real))
            bound = 1e-12 * rho.basis.size
            _ensure(dev_s < bound, f"spectrum differs from dense eigvalsh by {dev_s:.3g}")
            _ensure(dev_p < bound, f"purity differs from dense Tr rho^2 by {dev_p:.3g}")
            worst_s, worst_p = max(worst_s, dev_s), max(worst_p, dev_p)
    _ensure(checked >= 8, f"only {checked} comparable draws")
    _ensure(worst_h < 1e-10, f"Hermiticity violated by {worst_h:.3g}")
    _ensure(worst_t < 1e-10, f"trace off by {worst_t:.3g}")
    _ensure(lowest > -1e-10, f"negative eigenvalue {lowest:.3g}")
    return (
        f"{checked} reductions, hermiticity {worst_h:.3g}, trace {worst_t:.3g}, "
        f"lowest eigenvalue {lowest:.3g}, spectrum vs dense {worst_s:.3g}, purity vs dense {worst_p:.3g}"
    )


def _prop_localized_product_purity(rng) -> str:
    space = standard_space()
    worst = 0.0
    for stats in BOTH:
        for _ in range(8):
            spins = [Spin.UP if rng.random() < 0.5 else Spin.DOWN for _ in range(3)]
            kets = tuple(space.ket(m, s) for m, s in zip("ABC", spins))
            phi = normalize(elementary(stats, kets))
            mode = "ABC"[int(rng.integers(3))]
            rho = partial_trace_one(phi, MeasurementBasis.localized(space, mode))
            worst = max(worst, abs(purity(rho) - 1.0))
            worst = max(worst, von_neumann_entropy(rho))
    _ensure(worst < 1e-9, f"localized remainder mixed by {worst:.3g}")
    return f"16 spatially separated products stay pure, worst deviation {worst:.3g}"


def _prop_distinguishable_purity(rng) -> str:
    space = standard_space()
    checked, worst = 0, 0.0
    for _ in range(10):
        n = int(rng.integers(2, 4))
        state = random_product_labeled(rng, space, n)
        slots = list(rng.permutation(n))[: int(rng.integers(1, n))]
        steps = []
        for s in slots:
            size = None if rng.random() < 0.5 else int(rng.integers(1, space.dim))
            steps.append(SlotTrace(int(s), random_measurement_basis(rng, space, size)))
        try:
            rho = distinguishable_trace_iterate(state, steps)
        except ZeroProbabilityError:
            continue
        worst = max(worst, abs(purity(rho) - 1.0))
        checked += 1
    _ensure(checked >= 6, f"only {checked} comparable draws")
    _ensure(worst < 1e-9, f"labeled product left mixed by {worst:.3g}")
    return f"{checked} product states stay pure under slot traces, worst deviation {worst:.3g}"


def _entropy_of_factor(factor: np.ndarray) -> float:
    """``von_neumann_entropy`` of the trace-one ``factor factor^dagger``, read
    through a ``DensityMatrix`` over a basis of its size: the ``d`` states of
    ``d - 1`` bosons on one site."""
    basis = OccupationBasis(CanonicalBasis(("A",)), len(factor) - 1, Statistics.BOSON)
    return von_neumann_entropy(DensityMatrix(basis, factor, 1.0))


def _prop_entropy_unitary_invariance(rng) -> str:
    worst = 0.0
    for d in (2, 3, 6):
        for _ in range(5):
            evals = rng.random(d)
            evals /= evals.sum()
            u = random_unitary(rng, d)
            s_direct = -(evals * np.log2(evals)).sum()
            s_via = _entropy_of_factor(u * np.sqrt(evals))
            worst = max(worst, abs(s_direct - s_via))
    _ensure(worst < 1e-9, f"entropy moved under conjugation by {worst:.3g}")
    return f"15 spectra survive unitary conjugation, worst deviation {worst:.3g}"


def _prop_entropy_purity_consistency(rng) -> str:
    space = standard_space()
    for stats in BOTH:
        for _ in range(6):
            phi = random_state(rng, space, 3, stats)
            mb = random_measurement_basis(rng, space)
            rho = partial_trace_one(phi, mb)
            s, p = von_neumann_entropy(rho), purity(rho)
            d = rho.basis.size
            _ensure(1.0 / d - 1e-9 <= p <= 1.0 + 1e-9, f"purity {p} out of range")
            if abs(p - 1.0) < 1e-12:
                _ensure(s < 1e-9, f"pure state with entropy {s:.3g}")
            if s < 1e-12:
                _ensure(abs(p - 1.0) < 1e-9, f"zero entropy but purity {p}")
    return "purity in [1/d, 1]; purity 1 and entropy 0 coincide"


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
    space = standard_space()
    worst = 0.0
    for stats in BOTH:
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a = random_state(rng, space, n, stats)
            b = random_state(rng, space, n, stats)
            occ = OccupationBasis(space, n, stats)
            lhs = np.vdot(coords(a, occ), coords(b, occ))
            worst = max(worst, abs(lhs - inner(a, b)))
        for sector in (1, 2, 3):
            occ = OccupationBasis(space, sector, stats)
            t = occupation_isometry(occ)
            worst = max(
                worst,
                float(np.abs(t.conj().T @ t - np.eye(occ.size)).max()),
            )
    _ensure(worst < 1e-10, f"occupation coordinates distort overlaps by {worst:.3g}")
    return f"coordinate map preserves inner products, worst deviation {worst:.3g}"


def _expected(spec, quantity: str, label: str, stage=None):
    """The reference value that the scenario file of ``spec`` states for one
    quantity of plan ``label``."""
    (value,) = [
        e.value
        for e in spec.expectations
        if (e.quantity, e.label, e.stage) == (quantity, label, stage)
    ]
    return value


def _prop_benchmark_reductions(rng) -> str:
    checks = []

    overlap = get_builtin("overlap")
    (plan,) = overlap.plans  # (AA)-A: one localized-A stage, then two
    for side in ("two", "one"):
        rho = partial_trace_iterate(overlap.state, getattr(plan, f"{side}_stages"))
        entropy = _expected(overlap, f"entropy_{side}", plan.label)
        checks.append(abs(von_neumann_entropy(rho) - entropy))
        ev = spectrum(rho)
        eigs = _expected(overlap, "eigenvalues", plan.label, side)
        checks.append(float(np.abs(ev[:2] - np.array(eigs)).max()))
        checks.append(float(np.abs(ev[2:]).max()) if ev.size > 2 else 0.0)

    ghz = get_builtin("ghz")
    for plan in ghz.plans:  # one localized stage per site
        rho = partial_trace_iterate(ghz.state, plan.two_stages)
        checks.append(abs(von_neumann_entropy(rho) - _expected(ghz, "entropy_two", plan.label)))

    sep = get_builtin("separated")
    plan = sep.plans[0]
    rho = partial_trace_iterate(sep.state, plan.two_stages)
    checks.append(abs(purity(rho) - _expected(sep, "purity_two", plan.label)))

    worst = max(checks)
    _ensure(worst < 1e-9, f"benchmark numbers off by {worst:.3g}")
    return f"benchmark entropies and spectra reproduced, worst deviation {worst:.3g}"


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
