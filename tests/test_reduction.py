"""Partial traces, occupation coordinates, and the probability gauge."""

import gc
import math
import tracemalloc
from bisect import bisect_left, bisect_right
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idqsim import (
    CanonicalBasis,
    Ket,
    DensityMatrix,
    ElementaryState,
    IncompatibleStatesError,
    LabeledState,
    MeasurementBasis,
    NotPSDError,
    OccupationBasis,
    SlotTrace,
    Spin,
    Statistics,
    ZeroProbabilityError,
    coords,
    delocalized_pair,
    distinguishable_trace_iterate,
    elementary,
    inner,
    normalize,
    partial_trace_iterate,
    probability_of,
    project_single,
    purity,
    spectrum,
    von_neumann_entropy,
)
from idqsim.comparator import oracle_trace_iterate
from idqsim.permanents import permutation_parity
from idqsim import reduction
from idqsim.reduction import (
    _checked_eigenvalues,
    _entries,
    _ladder,
    _require_unit_norm,
    _support_ladder,
    annihilate,
    trace_finish,
    trace_stage,
    trace_start,
)
from idqsim.verification import random_ket, random_measurement_basis, random_state, random_unitary

from test_states import from_terms

SPACE = CanonicalBasis(("A", "B", "C"))


def overlap_state():
    a_dn, a_up = SPACE.ket("A", Spin.DOWN), SPACE.ket("A", Spin.UP)
    return elementary(Statistics.BOSON, (a_dn, a_dn, a_up), 1.0 / math.sqrt(2.0))


def separated_state():
    kets = (
        SPACE.ket("A", Spin.DOWN),
        SPACE.ket("B", Spin.DOWN),
        SPACE.ket("C", Spin.UP),
    )
    return elementary(Statistics.BOSON, kets)


def ghz_state():
    dn = tuple(SPACE.ket(m, Spin.DOWN) for m in "ABC")
    up = tuple(SPACE.ket(m, Spin.UP) for m in "ABC")
    return normalize(
        elementary(Statistics.BOSON, dn) + elementary(Statistics.BOSON, up)
    )


# --- occupation bases and coordinates --------------------------------------


def test_occupation_basis_sizes():
    assert OccupationBasis(SPACE, 1, Statistics.BOSON).size == 6
    assert OccupationBasis(SPACE, 2, Statistics.BOSON).size == 21
    assert OccupationBasis(SPACE, 2, Statistics.FERMION).size == 15
    assert OccupationBasis(SPACE, 0, Statistics.BOSON).labels == ("vac",)


def test_occupation_labels_name_their_entries():
    occ = OccupationBasis(SPACE, 2, Statistics.BOSON)
    i = occ.index_of([("A", Spin.DOWN), ("C", Spin.UP)])
    assert occ.labels[i] == "A↓,C↑"
    j = occ.index_of([("C", Spin.UP), ("A", Spin.DOWN)])  # order-free lookup
    assert i == j


def test_index_of_finds_every_row_and_refuses_what_the_sector_lacks():
    fermions = OccupationBasis(SPACE, 2, Statistics.FERMION)
    bosons = OccupationBasis(SPACE, 3, Statistics.BOSON)
    pairs = [(m, s) for m in "ABC" for s in (Spin.UP, Spin.DOWN)]  # canonical order
    for occ in (fermions, bosons):
        rows = occ.entries.tolist()
        assert [occ.index_of([pairs[j] for j in row]) for row in rows] == list(range(occ.size))
    with pytest.raises(KeyError, match="no occupation"):
        fermions.index_of([("A", Spin.DOWN), ("A", Spin.DOWN)])  # Pauli exclusion
    bosons = OccupationBasis(SPACE, 2, Statistics.BOSON)
    for entries in ([("A", Spin.DOWN)], [("A", Spin.DOWN)] * 3, []):
        with pytest.raises(KeyError, match="no occupation"):
            bosons.index_of(entries)
    vac = OccupationBasis(SPACE, 0, Statistics.BOSON)
    assert vac.index_of([]) == 0
    with pytest.raises(KeyError):
        vac.index_of([("A", Spin.UP)])


def test_coords_carry_the_multiplicity_factor():
    # |Adn,Adn> has squared norm 2, so its lone coordinate must be sqrt(2)
    a_dn = SPACE.ket("A", Spin.DOWN)
    s = elementary(Statistics.BOSON, (a_dn, a_dn))
    occ = OccupationBasis(SPACE, 2, Statistics.BOSON)
    v = coords(s, occ)
    i = occ.index_of([("A", Spin.DOWN), ("A", Spin.DOWN)])
    assert np.isclose(v[i], math.sqrt(2.0))
    assert np.isclose(np.vdot(v, v).real, inner(s, s).real)


def test_coords_are_isometric_for_random_states():
    rng = np.random.default_rng(11)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        for n in (1, 2, 3):
            a = random_state(rng, SPACE, n, stats)
            b = random_state(rng, SPACE, n, stats)
            occ = OccupationBasis(SPACE, n, stats)
            assert np.isclose(
                np.vdot(coords(a, occ), coords(b, occ)), inner(a, b), atol=1e-12
            )


def test_fermionic_coords_respect_the_listing_sign():
    a, b = SPACE.ket("A", Spin.DOWN), SPACE.ket("B", Spin.DOWN)
    occ = OccupationBasis(SPACE, 2, Statistics.FERMION)
    forward = coords(elementary(Statistics.FERMION, (a, b)), occ)
    backward = coords(elementary(Statistics.FERMION, (b, a)), occ)
    assert np.allclose(forward, -backward)


def coords_by_products(phi, occ):
    """Coordinates by the definition: expand every term over the supports of
    its kets, sort each product into an occupation (with the reordering sign
    for fermions), then scale by sqrt(prod n_j!)."""
    index = {tuple(o): i for i, o in enumerate(occ.entries.tolist())}
    fermionic = phi.statistics is Statistics.FERMION
    vec = np.zeros(occ.size, dtype=complex)
    for term in phi.terms:
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
            vec[index[tuple(combo[i] for i in order)]] += amp
    return vec * loop_norm_factors(occ.entries.tolist())


def algebra_trace(phi, bases):
    """The paper's route: project every ensemble member onto every ket,
    normalize the branches, collect their coordinates."""
    ensemble, prob = [(1.0, phi)], 1.0
    for mb in bases:
        branches = []
        for w, state in ensemble:
            for psi in mb.kets:
                proj = project_single(psi, state)
                nn = inner(proj, proj).real
                if nn > 1e-20:
                    branches.append((w * nn / state.n, normalize(proj)))
        stage = sum(w for w, _ in branches)
        prob *= stage
        ensemble = [(w / stage, s) for w, s in branches]
    occ = OccupationBasis(phi.basis, phi.n - len(bases), phi.statistics)
    mat = np.zeros((occ.size, occ.size), dtype=complex)
    for w, state in ensemble:
        v = coords(state, occ)
        mat += w * np.outer(v, v.conj())
    return mat, prob


@pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
def test_coords_match_the_product_expansion(stats):
    rng = np.random.default_rng(21)
    for n in range(5):
        occ = OccupationBasis(SPACE, n, stats)
        for n_terms in (1, 3):
            terms = tuple(
                ElementaryState(
                    complex(rng.normal(), rng.normal()),
                    tuple(random_ket(rng, SPACE) for _ in range(n)),
                )
                for _ in range(n_terms)
            )
            phi = from_terms(stats, terms)
            want = coords_by_products(phi, occ)
            assert np.allclose(coords(phi, occ), want, rtol=0, atol=1e-12 * occ.size)
        if n >= 2:  # a ket repeated, and sparse canonical kets
            a, b = random_ket(rng, SPACE), SPACE.ket("B", Spin.UP)
            kets = (a, b, a, SPACE.ket("A", Spin.DOWN))[:n]
            phi = elementary(stats, kets, 0.3 - 1.1j)
            want = coords_by_products(phi, occ)
            assert np.allclose(coords(phi, occ), want, rtol=0, atol=1e-12 * occ.size)


def test_coords_of_proportional_fermion_kets_vanish():
    rng = np.random.default_rng(22)
    a, b = random_ket(rng, SPACE), random_ket(rng, SPACE)
    phi = elementary(Statistics.FERMION, (a, b, a * (0.5 - 2j)))
    v = coords(phi, OccupationBasis(SPACE, 3, Statistics.FERMION))
    assert np.abs(v).max() < 1e-12 * v.size


@pytest.mark.parametrize("modes", [("X", "Y", "Z"), ("A", "B")], ids=["same-dim", "other-dim"])
def test_coords_refuse_a_basis_over_another_frame(modes):
    # as trace_stage and inner do: a frame of the same dimension used to give
    # phi's coordinates as if they were over it, another dimension a numpy
    # broadcast error
    phi = random_state(np.random.default_rng(24), SPACE, 2, Statistics.BOSON)
    other = OccupationBasis(CanonicalBasis(modes), 2, Statistics.BOSON)
    with pytest.raises(IncompatibleStatesError, match="state and basis frames differ"):
        coords(phi, other)


@pytest.mark.parametrize("modes", [("X", "Y", "Z"), ("A", "B")], ids=["same-dim", "other-dim"])
def test_annihilate_refuses_kets_over_another_frame(modes):
    # as trace_stage does: kets over (X, Y, Z) used to be lowered as if they
    # were over (A, B, C), giving a (6, 6) array and no error
    basis = OccupationBasis(SPACE, 2, Statistics.BOSON)
    mb = MeasurementBasis.localized(CanonicalBasis(modes), modes[0])
    factor = np.ones((basis.size, 1), dtype=complex)
    with pytest.raises(IncompatibleStatesError, match="^measurement ket and state bases differ$"):
        annihilate(mb, factor, basis)


@pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
def test_trace_matches_the_projection_algebra_beyond_the_oracle(stats):
    # five particles over three sites: 6**5 labeled slots, past the oracle
    rng = np.random.default_rng(23)
    phi = random_state(rng, SPACE, 5, stats, n_terms=2)
    stage_sets = (
        (random_measurement_basis(rng, SPACE),),
        (random_measurement_basis(rng, SPACE, 3), MeasurementBasis.localized(SPACE, "B")),
    )
    for bases in stage_sets:
        rho = partial_trace_iterate(phi, bases)
        mat, prob = algebra_trace(phi, bases)
        tol = 1e-12 * rho.basis.size
        assert np.abs(rho.mat - mat).max() < tol
        assert abs(rho.prob - prob) < tol


def test_wide_factor_is_compressed_without_changing_the_trace(monkeypatch):
    # three bosons on one site: after two complete stages the factor has
    # four columns over a two-row sector, so it is compressed by QR
    space = CanonicalBasis(("A",))
    rng = np.random.default_rng(24)
    phi = random_state(rng, space, 3, Statistics.BOSON, n_terms=3)
    full = random_measurement_basis(rng, space)
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: calls.append(a.shape) or qr(a, mode))
    rho = partial_trace_iterate(phi, (full, full))
    assert calls == [(4, 2)]
    mat, prob = algebra_trace(phi, (full, full))
    assert np.abs(rho.mat - mat).max() < 1e-12 * rho.basis.size
    assert abs(rho.prob - prob) < 1e-12
    assert np.isclose(rho.prob, 1.0)


def test_second_stage_that_never_fires_is_an_error():
    # the C detector fires once on the separated state, then finds nothing
    loc_c = MeasurementBasis.localized(SPACE, "C")
    assert np.isclose(partial_trace_iterate(separated_state(), (loc_c,)).prob, 1.0 / 3.0)
    with pytest.raises(ZeroProbabilityError):
        partial_trace_iterate(separated_state(), (loc_c, loc_c))


# --- single traces -----------------------------------------------------------


def test_overlap_state_trace_spectrum_is_two_thirds_one_third():
    rho = partial_trace_iterate(overlap_state(), (MeasurementBasis.localized(SPACE, "A"),))
    assert np.isclose(rho.prob, 1.0)
    ev = spectrum(rho)
    assert np.allclose(ev[:2], [2.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(ev[2:], 0.0)


def test_overlap_state_branch_content():
    # the 2/3 branch holds |Adn,Aup>, the 1/3 branch |Adn,Adn>
    rho = partial_trace_iterate(overlap_state(), (MeasurementBasis.localized(SPACE, "A"),))
    occ = rho.basis
    mixed_pair = occ.unit_vector([("A", Spin.DOWN), ("A", Spin.UP)])
    same_pair = occ.unit_vector([("A", Spin.DOWN), ("A", Spin.DOWN)])
    assert np.isclose(mixed_pair @ rho.mat @ mixed_pair, 2.0 / 3.0)
    assert np.isclose(same_pair @ rho.mat @ same_pair, 1.0 / 3.0)
    assert np.isclose(mixed_pair @ rho.mat @ same_pair, 0.0)


def test_delocalized_trace_leaves_an_even_two_branch_mixture():
    mb = delocalized_pair(SPACE, "B", "C")
    rho = partial_trace_iterate(separated_state(), (mb,))
    assert np.isclose(rho.prob, 1.0 / 3.0)
    ev = spectrum(rho)
    assert np.allclose(ev[:2], [0.5, 0.5])
    occ = rho.basis
    for pair in ([("A", Spin.DOWN), ("C", Spin.UP)], [("A", Spin.DOWN), ("B", Spin.DOWN)]):
        v = occ.unit_vector(pair)
        assert np.isclose(np.linalg.norm(rho.mat @ v - 0.5 * v), 0.0, atol=1e-12)


def test_separated_state_localized_traces_are_pure():
    for mode in "ABC":
        rho = partial_trace_iterate(separated_state(), (MeasurementBasis.localized(SPACE, mode),))
        assert np.isclose(rho.prob, 1.0 / 3.0)
        assert np.isclose(spectrum(rho)[0], 1.0)


def test_ghz_localized_trace_is_maximally_mixed_on_two_entries():
    rho = partial_trace_iterate(ghz_state(), (MeasurementBasis.localized(SPACE, "C"),))
    assert np.isclose(rho.prob, 1.0 / 3.0)
    ev = spectrum(rho)
    assert np.allclose(ev[:2], [0.5, 0.5])
    assert np.allclose(ev[2:], 0.0)


# --- iterated traces ---------------------------------------------------------


def test_iterated_trace_multiplies_stage_probabilities():
    loc_c = MeasurementBasis.localized(SPACE, "C")
    loc_a = MeasurementBasis.localized(SPACE, "A")
    rho = partial_trace_iterate(ghz_state(), (loc_c, loc_a))
    assert np.isclose(rho.prob, 1.0 / 6.0)
    ev = spectrum(rho)
    assert np.allclose(ev[:2], [0.5, 0.5])


def test_iterated_trace_of_overlap_state_keeps_the_spectrum():
    loc_a = MeasurementBasis.localized(SPACE, "A")
    rho = partial_trace_iterate(overlap_state(), (loc_a, loc_a))
    assert np.isclose(rho.prob, 1.0)
    assert np.allclose(spectrum(rho)[:2], [2.0 / 3.0, 1.0 / 3.0])


def test_zero_stage_trace_is_the_pure_projector():
    rho = partial_trace_iterate(overlap_state(), ())
    assert rho.prob == 1.0
    assert np.isclose(spectrum(rho)[0], 1.0)
    assert rho.basis.sector == 3


def test_trace_that_never_fires_is_an_error():
    with pytest.raises(ZeroProbabilityError):
        partial_trace_iterate(overlap_state(), (MeasurementBasis.localized(SPACE, "B"),))


def test_trace_needs_a_normalized_state():
    a = SPACE.ket("A", Spin.DOWN)
    with pytest.raises(ValueError):
        partial_trace_iterate(
            elementary(Statistics.BOSON, (a, a)), (MeasurementBasis.localized(SPACE, "A"),)
        )


# --- probabilities -----------------------------------------------------------


def test_localized_probability_is_one_third_on_the_separated_state():
    assert np.isclose(
        probability_of(separated_state(), MeasurementBasis.localized(SPACE, "C")),
        1.0 / 3.0,
    )


def test_complete_basis_probability_is_one():
    rng = np.random.default_rng(5)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        phi = random_state(rng, SPACE, 3, stats)
        assert np.isclose(probability_of(phi, MeasurementBasis.full(SPACE)), 1.0)
        assert np.isclose(
            probability_of(phi, random_measurement_basis(rng, SPACE)), 1.0
        )


def test_probability_is_additive_over_basis_splits():
    rng = np.random.default_rng(6)
    phi = random_state(rng, SPACE, 2, Statistics.BOSON)
    mb = random_measurement_basis(rng, SPACE)
    parts = (
        MeasurementBasis(SPACE, mb.amps[:2]),
        MeasurementBasis(SPACE, mb.amps[2:4]),
        MeasurementBasis(SPACE, mb.amps[4:]),
    )
    assert np.isclose(
        sum(probability_of(phi, p) for p in parts), probability_of(phi, mb)
    )


def test_trace_is_invariant_under_a_unitary_remix_of_a_complete_basis():
    rng = np.random.default_rng(8)
    phi = random_state(rng, SPACE, 3, Statistics.BOSON)
    base = MeasurementBasis.full(SPACE)
    remixed = random_measurement_basis(rng, SPACE)
    r1 = partial_trace_iterate(phi, (base,))
    r2 = partial_trace_iterate(phi, (remixed,))
    assert np.allclose(r1.mat, r2.mat, atol=1e-12)
    assert np.isclose(r1.prob, r2.prob)


# --- density matrix contracts ------------------------------------------------


def test_reduced_matrices_are_hermitian_psd_unit_trace():
    rng = np.random.default_rng(9)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        phi = random_state(rng, SPACE, 3, stats)
        mb = random_measurement_basis(rng, SPACE, 3)
        rho = partial_trace_iterate(phi, (mb,))
        m = rho.mat
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() > -1e-12
        assert np.isclose(m.trace(), 1.0)
        assert 0.0 <= rho.prob <= 1.0


def rank_two_trace():
    phi = random_state(np.random.default_rng(41), SPACE, 3, Statistics.FERMION, n_terms=1)
    return partial_trace_iterate(phi, (MeasurementBasis.localized(SPACE, "B"),))


def compressed_two_stage_trace():
    # as in test_wide_factor_is_compressed_without_changing_the_trace
    space = CanonicalBasis(("A",))
    rng = np.random.default_rng(24)
    phi = random_state(rng, space, 3, Statistics.BOSON, n_terms=3)
    full = random_measurement_basis(rng, space)
    return partial_trace_iterate(phi, (full, full))


def random_labeled_state(rng, n_terms):
    """A normalized labeled state of three slots with random kets."""
    terms = [
        (complex(rng.normal(), rng.normal()), tuple(random_ket(rng, SPACE) for _ in range(3)))
        for _ in range(n_terms)
    ]
    scale = np.linalg.norm(LabeledState(tuple(terms)).vector())
    return LabeledState(tuple((c / scale, kets) for c, kets in terms))


def labeled_trace_with_more_branches_than_rows():
    # two full slot measurements of three slots: 36 branches over 6 rows
    state = random_labeled_state(np.random.default_rng(42), 2)
    full = MeasurementBasis.full(SPACE)
    return distinguishable_trace_iterate(state, (SlotTrace(0, full), SlotTrace(2, full)))


def pure_state_trace():
    return partial_trace_iterate(ghz_state(), ())


@pytest.mark.parametrize(
    "build",
    [rank_two_trace, compressed_two_stage_trace, labeled_trace_with_more_branches_than_rows,
     pure_state_trace],
    ids=lambda f: f.__name__,
)
def test_spectrum_matches_the_dense_eigenvalues(build):
    rho = build()
    dense = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
    assert rho.spectrum.shape == (rho.basis.size,)
    assert np.abs(rho.spectrum - dense).max() < 1e-12 * rho.basis.size
    assert not rho.spectrum.flags.writeable


def test_labeled_factor_is_never_wider_than_its_basis():
    rho = labeled_trace_with_more_branches_than_rows()
    assert rho.factor.shape[1] <= rho.basis.size


def test_dense_matrix_that_is_not_psd_is_rejected():
    with pytest.raises(NotPSDError):
        _checked_eigenvalues(np.diag([1.2, -0.2]), 1.0)
    occ = OccupationBasis(CanonicalBasis(("A",)), 1, Statistics.BOSON)
    factor = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(occ, 2.0 * factor, 1.0)


def test_factor_with_the_wrong_number_of_rows_is_rejected():
    occ = OccupationBasis(CanonicalBasis(("A",)), 1, Statistics.BOSON)
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(occ, np.array([[1.0], [0.0], [0.0]]), 1.0)
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(occ, np.array([1.0, 0.0]), 1.0)


def test_factor_is_kept_read_only_and_the_square_is_formed_on_request():
    # four bosons over five sites, one localized stage: a 220-dim sector
    space = CanonicalBasis(tuple("ABCDE"))
    phi = random_state(np.random.default_rng(43), space, 4, Statistics.BOSON, n_terms=1)
    rho = partial_trace_iterate(phi, (MeasurementBasis.localized(space, "B"),))
    von_neumann_entropy(rho)
    purity(rho)
    assert rho.basis.size == 220 and rho.factor.shape[1] < rho.basis.size
    assert "mat" not in vars(rho)
    assert not rho.factor.flags.writeable
    with pytest.raises(ValueError):
        rho.factor[0, 0] = 1.0
    mat = rho.mat
    assert np.array_equal(mat, rho.factor @ rho.factor.conj().T)
    assert not mat.flags.writeable
    assert rho.mat is mat


def test_measurement_basis_rejects_non_orthonormal_kets():
    a = SPACE.ket("A", Spin.DOWN)
    b = SPACE.ket("B", Spin.DOWN)
    with pytest.raises(ValueError):
        MeasurementBasis(SPACE, (a.amps, ((a + b) * (1.0 / math.sqrt(2.0))).amps))


def test_localized_and_full_bases_equal_the_ket_built_ones_bit_for_bit():
    pairs = [
        (
            MeasurementBasis.localized(SPACE, mode),
            MeasurementBasis(SPACE, [SPACE.ket(mode, s).amps for s in (Spin.UP, Spin.DOWN)]),
        )
        for mode in SPACE.mode_names
    ]
    full = MeasurementBasis(SPACE, [SPACE.ket(m, s).amps for m, s in SPACE.entries])
    pairs.append((MeasurementBasis.full(SPACE), full))
    for ours, theirs in pairs:
        assert ours == theirs and hash(ours) == hash(theirs) and ours._key == theirs._key
        assert ours.amps.tobytes() == theirs.amps.tobytes()
        assert ours.amps.flags.c_contiguous and not ours.amps.flags.writeable
        assert "kets" not in vars(ours)  # built from the stack, kets only on request


def itertools_sector(dim, sector, statistics):
    """Ascending index tuples of one sector in lexicographic order, as the
    sectors were enumerated before they became one array."""
    boson = statistics is Statistics.BOSON
    return tuple((combinations_with_replacement if boson else combinations)(range(dim), sector))


def loop_ladder(dim, sector, statistics):
    """The (row, entry) loop that built the ladder tables before they were
    built a whole table at a time."""
    lower = itertools_sector(dim, sector - 1, statistics)
    index = {occ: i for i, occ in enumerate(itertools_sector(dim, sector, statistics))}
    up = np.zeros((len(lower), dim), dtype=np.intp)
    g = np.zeros((len(lower), dim))
    for r, occ in enumerate(lower):
        for j in range(dim):
            below, upto = bisect_left(occ, j), bisect_right(occ, j)
            if statistics is Statistics.BOSON:
                g[r, j] = math.sqrt(upto - below + 1)
            elif upto > below:
                continue
            else:
                g[r, j] = -1.0 if below % 2 else 1.0
            up[r, j] = index[occ[:below] + (j,) + occ[below:]]
    return up, g


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.name)
def test_ladder_tables_match_the_entry_loop(statistics):
    cases = [(dim, sector) for dim in range(1, 9) for sector in range(1, 6)]
    if statistics is Statistics.FERMION:
        # 18^16 overflows int64, so this sector's codes are Python integers
        cases.append((18, 16))
    for dim, sector in cases:
        up, g = _ladder(dim, sector, statistics)
        want_up, want_g = loop_ladder(dim, sector, statistics)
        assert up.dtype == want_up.dtype and g.dtype == want_g.dtype
        assert np.array_equal(up, want_up), (dim, sector)
        assert np.array_equal(g, want_g), (dim, sector)
        assert not up.flags.writeable and not g.flags.writeable


def test_sector_entries_are_converted_once_and_read_only():
    for statistics in Statistics:
        for dim in range(1, 9):
            for sector in range(7):  # sector 0 and the empty fermion sectors included
                want = itertools_sector(dim, sector, statistics)
                entries = _entries(dim, sector, statistics)
                assert _entries(dim, sector, statistics) is entries
                assert not entries.flags.writeable
                assert entries.dtype == np.intp and entries.shape == (len(want), sector)
                assert entries.tolist() == [list(occ) for occ in want], (dim, sector)
        assert _entries(4, 0, statistics).shape == (1, 0)  # the vacuum is one empty row
        assert OccupationBasis(SPACE, 0, statistics).labels == ("vac",)
    assert _entries(2, 3, Statistics.FERMION).shape == (0, 3)
    with pytest.raises(ValueError, match="empty fermion sector 7 over dim 6"):
        OccupationBasis(SPACE, 7, Statistics.FERMION)


def loop_norm_factors(occupations):
    """sqrt(prod_j n_j!) per occupation, the factor by which the canonical
    elementary state with these entries exceeds the normalized Fock state:
    the exact integer product of each entry's place within its run of equal
    entries."""
    factors = []
    for occ in occupations:
        f = 1
        run = 1
        for a, b in zip(occ, occ[1:]):
            run = run + 1 if a == b else 1
            f *= run
        factors.append(math.sqrt(f))
    return np.array(factors)


# --- lowering through the support of the measurement kets --------------------


def full_table_annihilate(mb, factor, basis):
    """``annihilate`` before it gathered only the kets' support: every column
    of the ladder table, weighted and contracted with the full amplitudes."""
    amps = np.array([k.amps for k in mb.kets])
    up, g = _ladder(basis.space.dim, basis.sector, basis.statistics)
    return (np.conj(amps) @ (factor[up] * g[:, :, None])).reshape(len(up), -1)


def sparse_basis(rng, space, support_size):
    """Random orthonormal kets, as many as 1..``support_size``, all supported
    on the same random ``support_size`` canonical entries."""
    support = np.sort(rng.choice(space.dim, size=support_size, replace=False))
    u = random_unitary(rng, support_size)
    rows = np.zeros((int(rng.integers(1, support_size + 1)), space.dim), dtype=complex)
    rows[:, support] = u[:, : len(rows)].T
    return MeasurementBasis(space, rows)


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.name)
def test_annihilate_matches_the_full_table_formula(statistics):
    rng = np.random.default_rng(56)
    for sites in range(2, 6):  # dims 4-10
        modes = "ABCDE"[:sites]
        space = CanonicalBasis(tuple(modes))
        exact = [MeasurementBasis.localized(space, m) for m in modes]
        exact.append(random_measurement_basis(rng, space))
        sparse = [delocalized_pair(space, a, b) for a, b in combinations(modes, 2)]
        sparse += [sparse_basis(rng, space, int(rng.integers(1, space.dim))) for _ in range(3)]
        for sector in range(1, 7):
            if statistics is Statistics.FERMION and sector > space.dim:
                continue
            basis = OccupationBasis(space, sector, statistics)
            for width in (1, 2, 3):
                factor = rng.normal(size=(basis.size, width)) + 1j * rng.normal(
                    size=(basis.size, width)
                )
                for mb in exact:
                    got = annihilate(mb, factor, basis)
                    assert np.array_equal(got, full_table_annihilate(mb, factor, basis))
                for mb in sparse:
                    got = annihilate(mb, factor, basis)
                    want = full_table_annihilate(mb, factor, basis)
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-12 * basis.size


def test_full_support_gathers_through_the_ladder_table_itself():
    for statistics in Statistics:
        full = _ladder(SPACE.dim, 3, statistics)
        up, g = _support_ladder(SPACE.dim, 3, statistics, tuple(range(SPACE.dim)))
        assert up is full[0] and g is full[1]
        up, g = _support_ladder(SPACE.dim, 3, statistics, (2, 3))
        assert np.array_equal(up, full[0][:, [2, 3]]) and np.array_equal(g, full[1][:, [2, 3]])
        assert up.flags.c_contiguous and not up.flags.writeable and not g.flags.writeable
    mb = MeasurementBasis.localized(SPACE, "B")
    support, conj = mb._support
    assert support == (2, 3) and conj.flags.c_contiguous and not conj.flags.writeable
    assert mb._support is mb._support  # computed once per basis
    dense = random_measurement_basis(np.random.default_rng(0), SPACE)
    assert dense._support == (tuple(range(SPACE.dim)), None)


@pytest.mark.parametrize("stages", [1, 2])
def test_sparse_support_traces_agree_with_the_oracle(stages):
    rng = np.random.default_rng(57)
    compared = 0
    for statistics in Statistics:
        for _ in range(8):
            phi = random_state(rng, SPACE, 3, statistics)
            bases = tuple(
                sparse_basis(rng, SPACE, int(rng.integers(2, SPACE.dim)))
                for _ in range(stages)
            )
            try:
                ours = partial_trace_iterate(phi, bases)
            except ZeroProbabilityError:
                continue
            ref = oracle_trace_iterate(phi, bases)
            tol = 1e-12 * ours.basis.size
            assert np.abs(ours.mat - ref.mat).max() <= tol
            assert abs(ours.prob - ref.prob) <= tol
            compared += 1
    assert compared >= 10


def test_nan_norms_and_probabilities_fail_their_checks():
    with pytest.raises(ValueError, match="normalized"):
        _require_unit_norm(float("nan"))
    occ = OccupationBasis(CanonicalBasis(("A",)), 1, Statistics.BOSON)
    with pytest.raises(ValueError, match="probability"):
        DensityMatrix(occ, np.array([[1.0], [0.0]]), float("nan"))


@pytest.mark.parametrize("stats", list(Statistics))
def test_trace_refuses_a_state_whose_coordinates_overflow(stats):
    # the squared norm comes out NaN; it must fail the start, not the finish
    big = Ket(SPACE, np.full(SPACE.dim, 1e200))
    phi = elementary(stats, (big, big), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="state must be normalized"):
            trace_start(phi)


# --- the coordinate kernel and the purity it feeds ----------------------------


def add_at_coords(phi, occ):
    """Coordinates by the earlier kernel: every term raised at once from
    ``coeff |vac>``, one scatter per particle through a 2-D ``np.add.at``
    index over (lower rows, dim, terms)."""
    dim = occ.space.dim
    terms = np.array([[t.coeff for t in phi.terms]], dtype=complex)
    cols = np.arange(terms.shape[1])
    for k in range(phi.n - 1, -1, -1):
        sector = phi.n - k
        up, g = _ladder(dim, sector, phi.statistics)
        chis = np.array([t.kets[k].amps for t in phi.terms]).T
        size = len(_entries(dim, sector, phi.statistics))
        raised = np.zeros((size, cols.size), dtype=complex)
        hops = g[:, :, None] * chis * terms[:, None, :]
        np.add.at(raised, (up[:, :, None], cols), hops)
        terms = raised
    return terms.sum(axis=1)


@pytest.mark.parametrize("stats", list(Statistics), ids=lambda s: s.name)
def test_coords_equal_the_two_dimensional_scatter_bit_for_bit(stats):
    rng = np.random.default_rng(51)
    for sites in range(1, 6):  # dim 2-10
        space = CanonicalBasis(tuple("ABCDE"[:sites]))
        for n in range(6):
            if stats is Statistics.FERMION and n > space.dim:
                continue
            occ = OccupationBasis(space, n, stats)
            for n_terms in (1, 2, 3):
                phi = from_terms(
                    stats,
                    tuple(
                        ElementaryState(
                            complex(rng.normal(), rng.normal()),
                            tuple(random_ket(rng, space) for _ in range(n)),
                        )
                        for _ in range(n_terms)
                    ),
                )
                want = add_at_coords(phi, occ)
                assert np.array_equal(coords(phi, occ), want), (sites, n, n_terms)


def test_large_boson_coords_equal_the_two_dimensional_scatter_bit_for_bit():
    # eight bosons over six sites: a sector of 75,582
    space = CanonicalBasis(tuple("ABCDEF"))
    phi = random_state(np.random.default_rng(52), space, 8, Statistics.BOSON, n_terms=3)
    occ = OccupationBasis(space, 8, Statistics.BOSON)
    assert occ.size == 75582
    assert np.array_equal(coords(phi, occ), add_at_coords(phi, occ))


def test_coords_hold_one_hop_block_at_a_time():
    # eight fermions over eight sites, three terms; the 2-D scatter held all
    # three terms' hops at once, about five times this bound
    space = CanonicalBasis(tuple("ABCDEFGH"))
    stats = Statistics.FERMION
    phi = random_state(np.random.default_rng(53), space, 8, stats, n_terms=3)
    occ = OccupationBasis(space, 8, stats)
    coords(phi, occ)  # ladder tables are built and cached outside the measurement
    up, _ = _ladder(space.dim, 8, stats)
    hop_block = up.size * 16  # one term's top-layer hops, complex
    raised = len(phi.terms) * occ.size * 16
    gc.collect()
    tracemalloc.start()
    try:
        coords(phi, occ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * hop_block + raised


def test_purity_is_the_squared_norm_of_the_gram_matrix():
    rng = np.random.default_rng(54)
    # narrow factors, from traces: bit for bit the Gram matrix V^dagger V
    for stats in Statistics:
        phi = random_state(rng, SPACE, 3, stats, n_terms=3)
        for mb in (MeasurementBasis.localized(SPACE, "B"), random_measurement_basis(rng, SPACE)):
            rho = partial_trace_iterate(phi, (mb,))
            assert rho.factor.shape[1] < rho.basis.size
            gram = rho.factor.conj().T @ rho.factor
            assert rho.purity == float(np.vdot(gram, gram).real)
            assert purity(rho) == rho.purity
    # square and wide factors: V V^dagger has the same Frobenius norm
    occ = OccupationBasis(SPACE, 1, Statistics.BOSON)
    for width in (occ.size, occ.size + 3):
        v = rng.normal(size=(occ.size, width)) + 1j * rng.normal(size=(occ.size, width))
        rho = DensityMatrix(occ, v / np.linalg.norm(v), 1.0)
        gram = rho.factor.conj().T @ rho.factor
        assert abs(rho.purity - float(np.vdot(gram, gram).real)) < 1e-15


# --- the one-pass finish: every readout off one Gram matrix -------------------


def dense_readouts(rho):
    """Spectrum, purity and entropy of the dense ``rho.mat``, computed apart
    from the Gram matrix the density matrix reads them off."""
    dense = np.linalg.eigvalsh(rho.mat)[::-1]
    p = dense[dense > 0]
    return dense, float((dense**2).sum()), float(-(p * np.log2(p)).sum())


def _finish_cases():
    """Reduced states of all three routes that build a DensityMatrix, with
    narrow factors (a Gram matrix ``V^dagger V``) and wide ones (``V V^dagger``)."""
    rng = np.random.default_rng(61)
    cases = []
    for stats in Statistics:
        phi = random_state(rng, SPACE, 3, stats)
        for what, stages in (
            ("localized", (MeasurementBasis.localized(SPACE, "A"),)),
            ("random", (random_measurement_basis(rng, SPACE),)),
            ("pair, localized",
             (delocalized_pair(SPACE, "A", "B"), MeasurementBasis.localized(SPACE, "C"))),
        ):
            cases.append((f"ladder {stats.value} {what}", partial_trace_iterate, phi, stages))
            cases.append((f"oracle {stats.value} {what}", oracle_trace_iterate, phi, stages))
    full = MeasurementBasis.full(SPACE)
    for name, n_terms in (("product", 1), ("two-term", 2)):
        labeled = random_labeled_state(rng, n_terms)
        for slots, stages in (
            ("one slot", (SlotTrace(1, random_measurement_basis(rng, SPACE, 4)),)),
            ("two slots", (SlotTrace(0, full), SlotTrace(2, full))),
        ):
            route = distinguishable_trace_iterate
            cases.append((f"labeled {name}, {slots}", route, labeled, stages))
    return cases


FINISH_CASES = _finish_cases()


@pytest.mark.parametrize("name, route, state, stages", FINISH_CASES,
                         ids=[c[0] for c in FINISH_CASES])
def test_every_route_reads_spectrum_purity_and_entropy_off_the_dense_matrix(
    name, route, state, stages
):
    rho = route(state, stages)
    dense, dense_purity, dense_entropy = dense_readouts(rho)
    tol = 1e-12 * rho.basis.size
    assert np.abs(spectrum(rho) - dense).max() < tol
    assert abs(purity(rho) - dense_purity) < tol
    assert abs(von_neumann_entropy(rho) - dense_entropy) < tol
    assert von_neumann_entropy(rho) == rho.entropy and type(rho.entropy) is float


@pytest.mark.parametrize("name, route, state, stages", FINISH_CASES,
                         ids=[c[0] for c in FINISH_CASES])
def test_the_spectrum_is_padded_on_first_read_as_the_eager_padding_was(
    name, route, state, stages
):
    rho = route(state, stages)
    assert "spectrum" not in vars(rho)  # nothing padded at construction
    v = rho.factor
    gram = v.conj().T @ v if v.shape[1] < v.shape[0] else v @ v.conj().T
    eager = np.zeros(rho.basis.size)
    eager[: len(gram)] = np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0)
    assert rho.spectrum.tobytes() == eager.tobytes()
    assert spectrum(rho) is rho.spectrum and not rho.spectrum.flags.writeable


def test_a_density_matrix_keeps_no_padded_spectrum_until_it_is_read():
    # 11,440 occupations and a two-column factor: the factor is kept, and
    # the zero padding of its two eigenvalues is made only on first read
    occ = OccupationBasis(CanonicalBasis(tuple("ABCDE")), 7, Statistics.BOSON)
    assert occ.size >= 10_000
    rng = np.random.default_rng(63)
    v = rng.normal(size=(occ.size, 2)) + 1j * rng.normal(size=(occ.size, 2))
    v /= np.linalg.norm(v)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rho = DensityMatrix(occ, v, 1.0)
        kept = tracemalloc.get_traced_memory()[0] - base - rho.factor.nbytes
        rho.spectrum
        padded = tracemalloc.get_traced_memory()[0] - base - rho.factor.nbytes
    finally:
        tracemalloc.stop()
    assert kept < 8 * occ.size
    assert padded >= 8 * occ.size


def test_a_trace_finish_keeps_one_copy_of_its_factor():
    # eight bosons over six sites after one localized stage: a 31,824 x 2
    # factor of 1.02 MB. Dividing it before the constructor copied it again
    # peaked at 3.00 times it; the one division into the kept array and the
    # conjugate of the Gram product peak at 2.00
    space = CanonicalBasis(tuple("ABCDEF"))
    phi = random_state(np.random.default_rng(0), space, 8, Statistics.BOSON, n_terms=3)
    walk = trace_stage(trace_start(phi), MeasurementBasis.localized(space, "A"))
    gc.collect()
    tracemalloc.start()
    try:
        rho = trace_finish(walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.factor.shape == (31_824, 2) and rho.factor.nbytes >= 1_000_000
    assert peak <= 2.5 * rho.factor.nbytes


def test_a_density_matrix_divides_by_its_norm_as_its_caller_did():
    # the division moved into the constructor is the same IEEE operation
    rng = np.random.default_rng(64)
    for stats, width in ((Statistics.BOSON, 2), (Statistics.FERMION, 3), (Statistics.BOSON, 40)):
        occ = OccupationBasis(SPACE, 2, stats)
        v = rng.normal(size=(occ.size, width)) + 1j * rng.normal(size=(occ.size, width))
        norm2 = np.vdot(v, v).real
        inside = DensityMatrix(occ, v, 0.5, norm2=norm2)
        before = DensityMatrix(occ, v / math.sqrt(norm2), 0.5)
        assert inside.factor.tobytes() == before.factor.tobytes()
        assert inside.spectrum.tobytes() == before.spectrum.tobytes()
        assert (inside.entropy, inside.purity) == (before.entropy, before.purity)
        assert not inside.factor.flags.writeable and inside.factor is not v
        assert repr(inside) == repr(before)  # norm2 is no field


def test_the_finish_cases_cover_narrow_and_wide_factors():
    shapes = set()
    for _, route, state, stages in FINISH_CASES:
        v = route(state, stages).factor
        shapes.add(v.shape[1] < v.shape[0])
    assert shapes == {True, False}


def test_a_pure_remainder_reads_plus_zero_bits():
    occ = OccupationBasis(SPACE, 1, Statistics.BOSON)
    # narrow: the Gram matrix diag(1, 0) has an exact zero eigenvalue
    narrow = np.zeros((occ.size, 2))
    narrow[0, 0] = 1.0
    # wide: V V^dagger over a two-row basis
    two = OccupationBasis(CanonicalBasis(("A",)), 1, Statistics.BOSON)
    wide = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    ladder = partial_trace_iterate(separated_state(), (MeasurementBasis.localized(SPACE, "A"),))
    for rho in (DensityMatrix(occ, narrow, 1.0), DensityMatrix(two, wide, 1.0), ladder):
        s = von_neumann_entropy(rho)
        assert s == 0.0 and math.copysign(1.0, s) == 1.0
        assert rho.purity == 1.0


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
def test_a_pure_remainder_of_a_rotated_product_never_reads_below_zero_bits(statistics):
    # one qubit per site with a random spin direction: tracing site A leaves
    # a product of the other two, whose top eigenvalue may round just above 1
    rng = np.random.default_rng(64)
    loc_a = MeasurementBasis.localized(SPACE, "A")
    for _ in range(20):
        kets = []
        for mode in "ABC":
            theta, phase = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
            kets.append(SPACE.superposition([
                (mode, Spin.UP, math.cos(theta / 2)),
                (mode, Spin.DOWN, complex(math.cos(phase), math.sin(phase)) * math.sin(theta / 2)),
            ]))
        rho = partial_trace_iterate(normalize(elementary(statistics, kets)), (loc_a,))
        s = von_neumann_entropy(rho)
        assert 0.0 <= s < 1e-12 and math.copysign(1.0, s) == 1.0


def test_two_equal_eigenvalues_read_exactly_one_bit():
    occ = OccupationBasis(SPACE, 1, Statistics.BOSON)
    narrow = np.zeros((occ.size, 2))
    narrow[0:2, 0] = narrow[2:4, 1] = 0.5  # V^dagger V = diag(1/2, 1/2)
    two = OccupationBasis(CanonicalBasis(("A",)), 1, Statistics.BOSON)
    wide = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])  # V V^dagger = diag(1/2, 1/2)
    for rho in (DensityMatrix(occ, narrow, 1.0), DensityMatrix(two, wide, 1.0)):
        assert von_neumann_entropy(rho) == 1.0
        assert rho.purity == 0.5


def test_a_negative_zero_eigenvalue_is_clamped_to_plus_zero(monkeypatch):
    # LAPACK may return -0.0, as it does for diag(1, -0.0)
    assert np.signbit(np.linalg.eigvalsh(np.diag([1.0, -0.0]))).any()
    ev, _, _ = _checked_eigenvalues(np.diag([1.0, -0.0]), 1.0)
    assert ev.tolist() == [1.0, 0.0] and not np.signbit(ev).any()
    true_eigvalsh = np.linalg.eigvalsh

    def signed_zeros(a):
        ev = true_eigvalsh(a)
        return np.where(ev == 0.0, -0.0, ev)

    monkeypatch.setattr(np.linalg, "eigvalsh", signed_zeros)
    occ = OccupationBasis(SPACE, 1, Statistics.BOSON)
    narrow = np.zeros((occ.size, 2))
    narrow[0, 0] = 1.0
    assert np.signbit(np.linalg.eigvalsh(narrow.T @ narrow)).any()
    rho = DensityMatrix(occ, narrow, 1.0)
    assert rho.spectrum.tolist() == [1.0] + [0.0] * (occ.size - 1)
    assert not np.signbit(rho.spectrum).any()
    assert math.copysign(1.0, von_neumann_entropy(rho)) == 1.0


def _off_trace_factors():
    rng = np.random.default_rng(62)
    occ = OccupationBasis(SPACE, 1, Statistics.BOSON)
    cases = []
    for kind, width in (("narrow", 2), ("wide", occ.size + 2)):
        v = rng.normal(size=(occ.size, width)) + 1j * rng.normal(size=(occ.size, width))
        v /= np.linalg.norm(v)
        for label, scale in (("1+2e-10", 1.0 + 2e-10), ("1-2e-10", 1.0 - 2e-10)):
            cases.append((f"{kind} {label}", occ, v * math.sqrt(scale)))
        bad = v.copy()
        bad[1, 1] = np.nan
        cases.append((f"{kind} NaN", occ, bad))
    return cases


OFF_TRACE = _off_trace_factors()


@pytest.mark.parametrize("name, occ, factor", OFF_TRACE, ids=[c[0] for c in OFF_TRACE])
def test_a_factor_off_unit_trace_is_refused_before_any_eigenvalue_check(
    name, occ, factor, monkeypatch
):
    def no_eigenvalues(*args):
        raise AssertionError("an eigenvalue check ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    monkeypatch.setattr(reduction, "_checked_eigenvalues", no_eigenvalues)
    message = r"^trace is (nan|1\.0000000002|0\.9999999998), expected 1$"
    with pytest.raises(ValueError, match=message):
        DensityMatrix(occ, factor, 1.0)


@pytest.mark.parametrize("scale", [1.0 + 0.5e-10, 1.0 - 0.5e-10])
def test_a_factor_within_the_trace_tolerance_is_accepted(scale):
    for name, occ, factor in OFF_TRACE:
        if not name.endswith("NaN"):
            rho = DensityMatrix(occ, factor / np.linalg.norm(factor) * math.sqrt(scale), 1.0)
            assert abs(rho.spectrum.sum() - scale) < 1e-12


# --- closed-form spectra above the oracle cap ---------------------------------


def orbitals(space, rotated, count):
    """``count`` orthonormal kets: canonical ones, or columns of a random
    unitary (a single-particle unitary applied to the canonical ones)."""
    u = random_unitary(np.random.default_rng(55), space.dim) if rotated else np.eye(space.dim)
    return [Ket(space, u[:, j]) for j in range(count)]


@pytest.mark.parametrize("rotated", [False, True], ids=["canonical", "rotated"])
def test_fermion_slater_determinant_leaves_equal_weights(rotated):
    # seven fermions in orthonormal orbitals over dim 10, three complete
    # stages: C(7, 3) = 35 equal eigenvalues over a sector of 210
    space = CanonicalBasis(tuple("ABCDE"))
    phi = normalize(elementary(Statistics.FERMION, orbitals(space, rotated, 7)))
    full = MeasurementBasis.full(space)
    rho = partial_trace_iterate(phi, (full, full, full))
    want = np.zeros(rho.basis.size)
    want[: math.comb(7, 3)] = 1.0 / math.comb(7, 3)
    assert rho.basis.size == 210
    assert np.abs(rho.spectrum - want).max() < 1e-12 * rho.basis.size
    assert abs(rho.prob - 1.0) < 1e-12 * rho.basis.size


@pytest.mark.parametrize("rotated", [False, True], ids=["canonical", "rotated"])
def test_boson_product_leaves_binomial_weights(rotated):
    # eight bosons with multiplicities (4, 3, 1), two complete stages: the
    # weights prod_j C(n_j, m_j) / C(8, 2) for every |m| = 6
    space = CanonicalBasis(tuple("ABC"))
    occupied = orbitals(space, rotated, 3)
    mult = (4, 3, 1)
    kets = [k for k, n in zip(occupied, mult) for _ in range(n)]
    phi = normalize(elementary(Statistics.BOSON, kets))
    full = MeasurementBasis.full(space)
    rho = partial_trace_iterate(phi, (full, full))
    weights = sorted(
        (
            math.prod(math.comb(n, m) for n, m in zip(mult, ms)) / math.comb(8, 2)
            for ms in product(*(range(n + 1) for n in mult))
            if sum(ms) == 6
        ),
        reverse=True,
    )
    want = np.zeros(rho.basis.size)
    want[: len(weights)] = weights
    assert rho.basis.size == 462
    assert np.abs(rho.spectrum - want).max() < 1e-12 * rho.basis.size
    assert abs(rho.prob - 1.0) < 1e-12 * rho.basis.size


@st.composite
def canonical_products(draw):
    """``(statistics, sites, n, stage sites)``: a product of canonical kets
    with occupations ``n_j`` (``N`` = 6-8 over 3-4 sites) and 1-3 localized
    stages, each at a site that still holds a particle."""
    statistics = draw(st.sampled_from(list(Statistics)))
    sites = draw(st.integers(3, 4))
    dim = 2 * sites
    if statistics is Statistics.BOSON:
        entries = draw(st.lists(st.integers(0, dim - 1), min_size=6, max_size=8))
    else:
        entries = draw(st.permutations(range(dim)))[: draw(st.integers(6, dim))]
    n = np.bincount(entries, minlength=dim)
    left = n.reshape(sites, 2).sum(axis=1)  # entry j is site j // 2
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        site = draw(st.sampled_from([s for s in range(sites) if left[s]]))
        left[site] -= 1
        stages.append(site)
    return statistics, sites, n, stages


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=canonical_products())
def test_canonical_products_leave_binomial_weights(case):
    # removing k_s particles at site s leaves each pattern m with
    # sum_{j in s} m_j = k_s at weight prod_j C(n_j, m_j) / prod_s C(n_s, k_s),
    # after the probability prod_s n_s^(k_s falling) / N^(k falling)
    statistics, sites, n, stages = case
    modes = "ABCD"[:sites]
    space = CanonicalBasis(tuple(modes))
    canonical = MeasurementBasis.full(space).kets
    kets = [canonical[j] for j in range(space.dim) for _ in range(n[j])]
    phi = normalize(elementary(statistics, kets))
    bases = tuple(MeasurementBasis.localized(space, modes[s]) for s in stages)
    rho = partial_trace_iterate(phi, bases)
    k = np.bincount(stages, minlength=sites)
    n_site = n.reshape(sites, 2).sum(axis=1)
    per_site = [
        [
            math.comb(n[2 * s], m) * math.comb(n[2 * s + 1], k[s] - m) / math.comb(n_site[s], k[s])
            for m in range(k[s] + 1)
        ]
        for s in range(sites)
    ]
    weights = sorted((math.prod(ws) for ws in product(*per_site)), reverse=True)
    want = np.zeros(rho.basis.size)
    want[: len(weights)] = weights
    prob = math.prod(math.perm(int(a), int(b)) for a, b in zip(n_site, k)) / math.perm(
        len(kets), len(stages)
    )
    tol = 1e-12 * rho.basis.size
    assert np.abs(rho.spectrum - want).max() <= tol
    assert abs(rho.prob - prob) <= tol


@pytest.mark.parametrize("statistics", ["boson", "fermion", None])
def test_an_occupation_basis_refuses_a_statistics_that_is_not_a_member(statistics):
    # "boson" used to give the fermion sector: 15 entries over three sites
    with pytest.raises(TypeError, match="statistics must be a Statistics member"):
        OccupationBasis(SPACE, 2, statistics)
    assert OccupationBasis(SPACE, 2, Statistics.BOSON).size == 21
    assert OccupationBasis(SPACE, 2, Statistics.FERMION).size == 15
