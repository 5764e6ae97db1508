"""Partial traces, occupation coordinates, and the probability gauge."""

import math
from bisect import bisect_left, bisect_right
from itertools import product

import numpy as np
import pytest

from idqsim import (
    CanonicalBasis,
    Ket,
    DensityMatrix,
    ElementaryState,
    LabeledState,
    MeasurementBasis,
    NotPSDError,
    OccupationBasis,
    ParticleState,
    SlotTrace,
    Spin,
    Statistics,
    ZeroProbabilityError,
    coords,
    delocalized_pair,
    distinguishable_trace_iterate,
    eigenvalues_hermitian,
    elementary,
    inner,
    normalize,
    partial_trace_iterate,
    partial_trace_one,
    probability_of,
    project_single,
    purity,
    spectrum,
    von_neumann_entropy,
)
from idqsim.permanents import permutation_parity
from idqsim.reduction import _entries, _ladder, _occupations, _require_unit_norm, trace_start
from idqsim.verification import random_ket, random_measurement_basis, random_state

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
    index = {o: i for i, o in enumerate(occ.occupations)}
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
    return vec * occ.norm_factors


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
            phi = ParticleState(stats, terms)
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
    assert np.isclose(partial_trace_one(separated_state(), loc_c).prob, 1.0 / 3.0)
    with pytest.raises(ZeroProbabilityError):
        partial_trace_iterate(separated_state(), (loc_c, loc_c))


# --- single traces -----------------------------------------------------------


def test_overlap_state_trace_spectrum_is_two_thirds_one_third():
    rho = partial_trace_one(overlap_state(), MeasurementBasis.localized(SPACE, "A"))
    assert np.isclose(rho.prob, 1.0)
    ev = spectrum(rho)
    assert np.allclose(ev[:2], [2.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(ev[2:], 0.0)


def test_overlap_state_branch_content():
    # the 2/3 branch holds |Adn,Aup>, the 1/3 branch |Adn,Adn>
    rho = partial_trace_one(overlap_state(), MeasurementBasis.localized(SPACE, "A"))
    occ = rho.basis
    mixed_pair = occ.unit_vector([("A", Spin.DOWN), ("A", Spin.UP)])
    same_pair = occ.unit_vector([("A", Spin.DOWN), ("A", Spin.DOWN)])
    assert np.isclose(mixed_pair @ rho.mat @ mixed_pair, 2.0 / 3.0)
    assert np.isclose(same_pair @ rho.mat @ same_pair, 1.0 / 3.0)
    assert np.isclose(mixed_pair @ rho.mat @ same_pair, 0.0)


def test_delocalized_trace_leaves_an_even_two_branch_mixture():
    mb = delocalized_pair(SPACE, "B", "C")
    rho = partial_trace_one(separated_state(), mb)
    assert np.isclose(rho.prob, 1.0 / 3.0)
    ev = spectrum(rho)
    assert np.allclose(ev[:2], [0.5, 0.5])
    occ = rho.basis
    for pair in ([("A", Spin.DOWN), ("C", Spin.UP)], [("A", Spin.DOWN), ("B", Spin.DOWN)]):
        v = occ.unit_vector(pair)
        assert np.isclose(np.linalg.norm(rho.mat @ v - 0.5 * v), 0.0, atol=1e-12)


def test_separated_state_localized_traces_are_pure():
    for mode in "ABC":
        rho = partial_trace_one(separated_state(), MeasurementBasis.localized(SPACE, mode))
        assert np.isclose(rho.prob, 1.0 / 3.0)
        assert np.isclose(spectrum(rho)[0], 1.0)


def test_ghz_localized_trace_is_maximally_mixed_on_two_entries():
    rho = partial_trace_one(ghz_state(), MeasurementBasis.localized(SPACE, "C"))
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
        partial_trace_one(overlap_state(), MeasurementBasis.localized(SPACE, "B"))


def test_trace_needs_a_normalized_state():
    a = SPACE.ket("A", Spin.DOWN)
    with pytest.raises(ValueError):
        partial_trace_one(
            elementary(Statistics.BOSON, (a, a)), MeasurementBasis.localized(SPACE, "A")
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
        MeasurementBasis(mb.kets[:2]),
        MeasurementBasis(mb.kets[2:4]),
        MeasurementBasis(mb.kets[4:]),
    )
    assert np.isclose(
        sum(probability_of(phi, p) for p in parts), probability_of(phi, mb)
    )


def test_trace_is_invariant_under_a_unitary_remix_of_a_complete_basis():
    rng = np.random.default_rng(8)
    phi = random_state(rng, SPACE, 3, Statistics.BOSON)
    base = MeasurementBasis.full(SPACE)
    remixed = random_measurement_basis(rng, SPACE)
    r1 = partial_trace_one(phi, base)
    r2 = partial_trace_one(phi, remixed)
    assert np.allclose(r1.mat, r2.mat, atol=1e-12)
    assert np.isclose(r1.prob, r2.prob)


# --- density matrix contracts ------------------------------------------------


def test_reduced_matrices_are_hermitian_psd_unit_trace():
    rng = np.random.default_rng(9)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        phi = random_state(rng, SPACE, 3, stats)
        mb = random_measurement_basis(rng, SPACE, 3)
        rho = partial_trace_one(phi, mb)
        m = rho.mat
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() > -1e-12
        assert np.isclose(m.trace(), 1.0)
        assert 0.0 <= rho.prob <= 1.0


def rank_two_trace():
    phi = random_state(np.random.default_rng(41), SPACE, 3, Statistics.FERMION, n_terms=1)
    return partial_trace_one(phi, MeasurementBasis.localized(SPACE, "B"))


def compressed_two_stage_trace():
    # as in test_wide_factor_is_compressed_without_changing_the_trace
    space = CanonicalBasis(("A",))
    rng = np.random.default_rng(24)
    phi = random_state(rng, space, 3, Statistics.BOSON, n_terms=3)
    full = random_measurement_basis(rng, space)
    return partial_trace_iterate(phi, (full, full))


def labeled_trace_with_more_branches_than_rows():
    # two full slot measurements of three slots: 36 branches over 6 rows
    rng = np.random.default_rng(42)
    terms = [
        (complex(rng.normal(), rng.normal()), tuple(random_ket(rng, SPACE) for _ in range(3)))
        for _ in range(2)
    ]
    scale = np.linalg.norm(LabeledState(tuple(terms)).vector())
    state = LabeledState(tuple((c / scale, kets) for c, kets in terms))
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
        eigenvalues_hermitian(np.diag([1.2, -0.2]))
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
        MeasurementBasis((a, (a + b) * (1.0 / math.sqrt(2.0))))


def test_measurement_basis_completeness_flag():
    assert MeasurementBasis.full(SPACE).complete
    assert not MeasurementBasis.localized(SPACE, "A").complete


def loop_ladder(dim, sector, statistics):
    """The (row, entry) loop that built the ladder tables before they were
    built a whole table at a time."""
    lower = _occupations(dim, sector - 1, statistics)
    index = {occ: i for i, occ in enumerate(_occupations(dim, sector, statistics))}
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
        entries = _entries(6, 3, statistics)
        assert _entries(6, 3, statistics) is entries
        assert not entries.flags.writeable
        assert entries.tolist() == [list(occ) for occ in _occupations(6, 3, statistics)]


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
    phi = ParticleState(stats, (ElementaryState(1e200, (big, big)),))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="state must be normalized"):
            trace_start(phi)
