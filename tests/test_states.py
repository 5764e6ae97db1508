"""Label-free state algebra: overlaps, projections, exchange behavior."""

import math

import numpy as np
import pytest

from idqsim import (
    CanonicalBasis,
    ElementaryState,
    IncompatibleStatesError,
    Ket,
    NullStateError,
    ParticleState,
    Spin,
    Statistics,
    elementary,
    inner,
    norm,
    normalize,
    project_single,
    states_close,
)
from idqsim.permanents import permanent_naive
from idqsim.reduction import _ladder
from idqsim.states import _stack_terms, overlap_elementary


def three_modes():
    return CanonicalBasis(("A", "B", "C"))


def from_terms(statistics, terms):
    """The state of several ``ElementaryState`` terms, stacked as the
    scenario parser stacks a file's terms."""
    return ParticleState(statistics, *_stack_terms((t.coeff, t.kets) for t in terms))


def test_bosonic_overlap_with_repeated_ket_is_two():
    space = three_modes()
    a_dn, a_up = space.ket("A", Spin.DOWN), space.ket("A", Spin.UP)
    s = elementary(Statistics.BOSON, (a_dn, a_dn, a_up))
    assert inner(s, s) == 2.0 + 0.0j


def test_scaled_overlap_state_is_normalized():
    space = three_modes()
    a_dn, a_up = space.ket("A", Spin.DOWN), space.ket("A", Spin.UP)
    psi = elementary(Statistics.BOSON, (a_dn, a_dn, a_up), 1.0 / math.sqrt(2.0))
    assert np.isclose(inner(psi, psi).real, 1.0)
    assert np.isclose(norm(psi), 1.0)


def test_distinct_mode_product_has_unit_norm_for_both_statistics():
    space = three_modes()
    kets = (
        space.ket("A", Spin.DOWN),
        space.ket("B", Spin.DOWN),
        space.ket("C", Spin.UP),
    )
    for stats in (Statistics.BOSON, Statistics.FERMION):
        s = elementary(stats, kets)
        assert inner(s, s) == 1.0 + 0.0j


def test_list_order_is_presentation_only_up_to_exchange_sign():
    space = three_modes()
    a, b = space.ket("A", Spin.DOWN), space.ket("B", Spin.UP)
    c = space.ket("C", Spin.DOWN)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        orig = elementary(stats, (a, b, c))
        swapped = elementary(stats, (b, a, c))
        assert states_close(swapped, stats.eta * orig)


def test_fermionic_repeated_ket_is_exactly_null():
    space = three_modes()
    a, b = space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN)
    s = elementary(Statistics.FERMION, (a, b, a))
    assert norm(s) == 0.0
    with pytest.raises(NullStateError):
        normalize(s)


def test_fermionic_proportional_pair_is_exactly_null():
    # a phase-rotated copy still violates exclusion; the norm must be an
    # exact zero, not determinant round-off
    space = three_modes()
    a, b = space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN)
    rotated = np.exp(0.3j) * a
    s = elementary(Statistics.FERMION, (a, b, rotated))
    assert norm(s) == 0.0


def test_overlap_of_orthogonal_products_vanishes():
    space = three_modes()
    s1 = elementary(Statistics.BOSON, (space.ket("A", Spin.DOWN),) * 2)
    s2 = elementary(Statistics.BOSON, (space.ket("B", Spin.DOWN),) * 2)
    assert inner(s1, s2) == 0.0


def test_ghz_style_sum_normalizes_to_unit():
    space = three_modes()
    dn = tuple(space.ket(m, Spin.DOWN) for m in "ABC")
    up = tuple(space.ket(m, Spin.UP) for m in "ABC")
    ghz = normalize(
        elementary(Statistics.BOSON, dn) + elementary(Statistics.BOSON, up)
    )
    assert np.isclose(inner(ghz, ghz).real, 1.0)
    assert len(ghz.terms) == 2
    assert np.isclose(abs(ghz.terms[0].coeff), 1.0 / math.sqrt(2.0))


def test_projection_counts_repeated_kets():
    space = three_modes()
    a_dn, a_up = space.ket("A", Spin.DOWN), space.ket("A", Spin.UP)
    s = elementary(Statistics.BOSON, (a_dn, a_dn, a_up))
    down_branch = project_single(a_dn, s)
    # both down entries fire, merging into a single term with weight 2
    assert len(down_branch.terms) == 1
    assert down_branch.terms[0].coeff == 2.0
    assert states_close(down_branch, 2.0 * elementary(Statistics.BOSON, (a_dn, a_up)))
    up_branch = project_single(a_up, s)
    assert states_close(up_branch, elementary(Statistics.BOSON, (a_dn, a_dn)))


def test_projection_weights_of_the_overlap_state():
    space = three_modes()
    a_dn, a_up = space.ket("A", Spin.DOWN), space.ket("A", Spin.UP)
    psi = elementary(Statistics.BOSON, (a_dn, a_dn, a_up), 1.0 / math.sqrt(2.0))
    w_dn = inner(project_single(a_dn, psi), project_single(a_dn, psi)).real
    w_up = inner(project_single(a_up, psi), project_single(a_up, psi)).real
    assert np.isclose(w_dn, 2.0)
    assert np.isclose(w_up, 1.0)
    # gauge: weights over a complete basis sum to N
    total = w_dn + w_up
    for mode in ("B", "C"):
        for spin in (Spin.UP, Spin.DOWN):
            p = project_single(space.ket(mode, spin), psi)
            total += inner(p, p).real
    assert np.isclose(total, 3.0)


def test_fermionic_projection_signs_interfere_correctly():
    # project the middle entry: one transposition, so the sign flips
    space = three_modes()
    a, b, c = (space.ket(m, Spin.DOWN) for m in "ABC")
    s = elementary(Statistics.FERMION, (a, b, c))
    out = project_single(b, s)
    assert states_close(out, -1.0 * elementary(Statistics.FERMION, (a, c)))
    # consistency: <proj|proj> is the same whichever listing produced it
    relisted = elementary(Statistics.FERMION, (b, a, c))
    out2 = project_single(b, relisted)
    assert states_close(out2, elementary(Statistics.FERMION, (a, c)))


def test_projecting_the_last_particle_leaves_a_weighted_vacuum():
    space = three_modes()
    a = space.ket("A", Spin.DOWN)
    s = elementary(Statistics.BOSON, (a,), 0.8)
    vac = project_single(a, s)
    assert vac.n == 0
    assert np.isclose(inner(vac, vac).real, 0.64)


def test_projection_requires_a_normalized_measurement_ket():
    space = three_modes()
    a = space.ket("A", Spin.DOWN)
    s = elementary(Statistics.BOSON, (a, a))
    with pytest.raises(ValueError):
        project_single(2.0 * a, s)


def test_merge_collapses_permuted_duplicate_terms():
    space = three_modes()
    a, b = space.ket("A", Spin.DOWN), space.ket("B", Spin.UP)
    c = space.ket("C", Spin.DOWN)
    s = elementary(Statistics.BOSON, (a, b)) + elementary(Statistics.BOSON, (b, a))
    doubled = project_single(c, elementary(Statistics.BOSON, (a, b, c))) * 2.0
    assert states_close(s, doubled)


def negative_zeros(ket):
    """The same ket with every zero amplitude stored as -0.0."""
    amps = ket.amps.copy()
    amps[amps == 0] = complex(-0.0, -0.0)
    return Ket(ket.basis, amps)


def test_merge_joins_kets_that_differ_only_in_negative_zeros():
    space = three_modes()
    a, b = space.ket("A", Spin.DOWN), space.ket("B", Spin.UP)
    b_neg = negative_zeros(b)
    assert b_neg.amps.tobytes() != b.amps.tobytes()
    s = elementary(Statistics.BOSON, (a, b), 0.6) + elementary(Statistics.BOSON, (a, b_neg), 0.8)
    out = project_single(a, s)  # the remainders |b> and |b'> are one ket
    assert len(out.terms) == 1
    assert np.isclose(out.terms[0].coeff, 1.4)


def test_fermion_remainder_holding_a_ket_twice_up_to_negative_zeros_is_null():
    space = three_modes()
    a, b = space.ket("A", Spin.DOWN), space.ket("B", Spin.UP)
    f = elementary(Statistics.FERMION, (a, b, negative_zeros(b)))
    out = project_single(a, f)
    assert all(t.coeff == 0 for t in out.terms)


def test_mixing_statistics_or_sizes_is_rejected():
    space = three_modes()
    a, b = space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN)
    boson = elementary(Statistics.BOSON, (a, b))
    fermion = elementary(Statistics.FERMION, (a, b))
    with pytest.raises(IncompatibleStatesError):
        inner(boson, fermion)
    with pytest.raises(IncompatibleStatesError):
        boson + elementary(Statistics.BOSON, (a,))
    assert not states_close(boson, elementary(Statistics.BOSON, (a,)))


def test_overlap_elementary_conjugates_the_bra_coefficient():
    space = three_modes()
    a = space.ket("A", Spin.DOWN)
    bra = ElementaryState(2.0 + 1.0j, (a,))
    ket = ElementaryState(1.0 - 1.0j, (a,))
    assert overlap_elementary(bra, ket, Statistics.BOSON) == (2.0 - 1.0j) * (
        1.0 - 1.0j
    )


def test_states_close_tolerates_only_small_differences():
    space = three_modes()
    a, b = space.ket("A", Spin.DOWN), space.ket("B", Spin.DOWN)
    s = elementary(Statistics.BOSON, (a, b))
    assert states_close(s, s * (1.0 + 1e-13))
    assert not states_close(s, s * (1.0 + 1e-6))


def random_terms(rng, space, n, n_terms):
    return tuple(
        ElementaryState(
            complex(rng.normal(), rng.normal()),
            tuple(
                Ket(space, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))
                for _ in range(n)
            ),
        )
        for _ in range(n_terms)
    )


def overlap_by_definition(bra, ket, statistics):
    # independent reference: a Gram matrix of single vdots, then the literal
    # permutation sum or numpy's determinant
    gram = np.array([[np.vdot(b.amps, k.amps) for k in ket.kets] for b in bra.kets])
    if statistics is Statistics.BOSON:
        kernel = permanent_naive(gram.reshape(bra.n, ket.n))
    else:
        kernel = np.linalg.det(gram.reshape(bra.n, ket.n)) if bra.n else 1.0
    return np.conj(bra.coeff) * ket.coeff * kernel


@pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("n", range(7))  # n = 5 and 6 take the Ryser branch
def test_batched_inner_is_the_sum_of_pairwise_overlaps(stats, n):
    space = CanonicalBasis(("A", "B", "C", "D"))
    rng = np.random.default_rng([51, n, stats is Statistics.FERMION])
    for bra_terms in (1, 2, 3):
        for ket_terms in (1, 2, 3):
            psi = from_terms(stats, random_terms(rng, space, n, bra_terms))
            phi = from_terms(stats, random_terms(rng, space, n, ket_terms))
            pairs = [(b, k) for b in psi.terms for k in phi.terms]
            scale = max(1.0, sum(abs(overlap_elementary(b, k, stats)) for b, k in pairs))
            tol = 1e-12 * scale
            for b, k in pairs:
                assert abs(
                    overlap_elementary(b, k, stats) - overlap_by_definition(b, k, stats)
                ) < tol
            pairwise = sum(overlap_elementary(b, k, stats) for b, k in pairs)
            assert abs(inner(psi, phi) - pairwise) < tol
            # the norm shares one stack between bra and ket
            own = sum(overlap_elementary(b, k, stats) for b in psi.terms for k in psi.terms)
            assert abs(inner(psi, psi) - own) < 1e-12 * max(1.0, abs(own))


def test_a_fermion_term_with_a_proportional_pair_has_exactly_zero_overlaps():
    space = three_modes()
    rng = np.random.default_rng(52)
    k, other = random_terms(rng, space, 2, 1)[0].kets
    doubled = ElementaryState(0.7 - 0.2j, (k, other, np.exp(1.1j) * 2.0 * k))
    for n_terms in (1, 2, 3):
        clean = from_terms(Statistics.FERMION, random_terms(rng, space, 3, n_terms))
        null = from_terms(Statistics.FERMION, (doubled,) * n_terms)
        assert inner(null, clean) == 0j
        assert inner(clean, null) == 0j
        assert inner(null, null) == 0j
        assert overlap_elementary(doubled, clean.terms[0], Statistics.FERMION) == 0j
        # next to clean terms, the null term adds nothing
        mixed = from_terms(Statistics.FERMION, clean.terms + (doubled,))
        want = inner(clean, clean)
        assert abs(inner(mixed, clean) - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("stats", list(Statistics), ids=lambda s: s.name)
def test_norms_that_overflow_raise_naming_the_squared_norm(stats):
    # 1e200 squared overflows; the clamp max(x, 0.0) used to keep the NaN
    space = three_modes()
    big = Ket(space, np.full(space.dim, 1e200))
    phi = elementary(stats, (big, big), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        for f in (norm, normalize):
            with pytest.raises(ValueError, match="squared norm is nan"):
                f(phi)


@pytest.mark.parametrize("scale", [
    lambda phi: phi * float("nan"),
    lambda phi: phi * complex(0.0, float("inf")),
    lambda phi: phi * 1e308 * 1e308,  # overflows, without a numpy warning
    lambda phi: 1e308 * (-1e308 * phi),
], ids=["nan", "infinite", "overflow", "negative overflow"])
def test_scaling_to_a_non_finite_coefficient_is_refused(scale):
    space = three_modes()
    phi = elementary(Statistics.BOSON, (space.ket("A", Spin.UP), space.ket("B", Spin.DOWN)), 0.5)
    with pytest.raises(ValueError, match="^coefficient must be finite$"):
        scale(phi)


@pytest.mark.parametrize("stats", list(Statistics), ids=lambda s: s.name)
def test_vacua_from_a_projection_and_from_no_kets_add_and_overlap(stats):
    # the projected vacuum keeps its frame, one built from no kets has none
    space = three_modes()
    a = space.ket("A", Spin.DOWN)
    projected = project_single(a, elementary(stats, (a,), 0.6))
    empty = elementary(stats, (), 0.8j)
    assert projected.n == empty.n == 0
    assert inner(projected, empty) == pytest.approx(0.6 * 0.8j)
    for total, coeffs in (
        (projected + empty, (0.6, 0.8j)),
        (empty + projected, (0.8j, 0.6)),
        (projected - empty, (0.6, -0.8j)),
    ):
        assert total.n == 0
        assert [t.coeff for t in total.terms] == pytest.approx(coeffs)
        assert inner(total, total) == pytest.approx(abs(sum(coeffs)) ** 2)
        assert inner(projected, total) == pytest.approx(0.6 * sum(coeffs))


def test_statistics_looked_up_by_value_hit_the_same_table_entry():
    table = _ladder(4, 2, Statistics.BOSON)
    hits = _ladder.cache_info().hits
    assert _ladder(4, 2, Statistics("boson")) is table
    assert _ladder.cache_info().hits == hits + 1
    assert {Statistics.FERMION: 1}[Statistics("fermion")] == 1


@pytest.mark.parametrize("statistics", ["boson", "fermion", None, 1])
def test_a_statistics_that_is_not_a_member_is_refused(statistics):
    # the string "boson" used to pass every `is Statistics.BOSON` test as a
    # fermion: two bosons in one ket had overlap 0 instead of 2
    a = three_modes().ket("A", Spin.UP)
    with pytest.raises(TypeError, match="statistics must be a Statistics member"):
        elementary(statistics, (a, a))
    with pytest.raises(TypeError, match="statistics must be a Statistics member"):
        ParticleState(statistics, a.basis, [1.0], [[a.amps, a.amps]])
    pair = elementary(Statistics.BOSON, (a, a))
    assert inner(pair, pair) == 2.0
