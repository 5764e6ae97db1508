"""Labeled oracle against the label-free algebra, and the distinguishable runs."""

import math
from functools import reduce
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idqsim import (
    CanonicalBasis,
    IncompatibleStatesError,
    Ket,
    LabeledState,
    MeasurementBasis,
    OccupationBasis,
    OracleScaleError,
    SlotTrace,
    Spin,
    Statistics,
    distinguishable_trace_iterate,
    delocalized_pair,
    elementary,
    inner,
    normalize,
    occupation_isometry,
    oracle_inner,
    oracle_trace_iterate,
    partial_trace_iterate,
    product_state,
    purity,
    spectrum,
    symmetrize_state,
)
from idqsim import comparator
from idqsim.comparator import _products, _symmetrized, symmetrize
from idqsim.permanents import permutation_parity
from idqsim.states import ElementaryState
from idqsim.verification import (
    random_ket,
    random_measurement_basis,
    random_product_labeled,
    random_state,
)

from test_reduction import loop_norm_factors
from test_states import from_terms

SPACE = CanonicalBasis(("A", "B", "C"))


def test_symmetrized_norms_of_reference_states():
    a_dn, a_up = SPACE.ket("A", Spin.DOWN), SPACE.ket("A", Spin.UP)
    piled = elementary(Statistics.BOSON, (a_dn, a_dn, a_up))
    assert np.isclose(oracle_inner(piled, piled), 12.0)  # 3! times 2
    distinct = elementary(
        Statistics.BOSON,
        (SPACE.ket("A", Spin.DOWN), SPACE.ket("B", Spin.DOWN), SPACE.ket("C", Spin.UP)),
    )
    assert np.isclose(oracle_inner(distinct, distinct), 6.0)  # 3! times 1


def test_antisymmetrization_kills_pauli_states():
    a, b = SPACE.ket("A", Spin.DOWN), SPACE.ket("B", Spin.DOWN)
    doubled = elementary(Statistics.FERMION, (a, b, a))
    assert np.linalg.norm(symmetrize_state(doubled)) < 1e-12


def test_oracle_inner_is_factorial_times_the_algebra():
    rng = np.random.default_rng(31)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        for n in (1, 2, 3):
            x = random_state(rng, SPACE, n, stats)
            y = random_state(rng, SPACE, n, stats)
            assert np.isclose(
                oracle_inner(x, y), math.factorial(n) * inner(x, y), atol=1e-12
            )


def test_occupation_isometry_columns_are_orthonormal():
    for stats in (Statistics.BOSON, Statistics.FERMION):
        for sector in (1, 2, 3):
            occ = OccupationBasis(SPACE, sector, stats)
            t = occupation_isometry(occ)
            assert np.allclose(t.conj().T @ t, np.eye(occ.size), atol=1e-12)


def kron_symmetrize(term, statistics):
    """The slot-permutation sum the product-tensor symmetrizer replaced: one
    chain of ``np.kron`` per permutation of the term's kets, signed by its
    parity for fermions."""
    out = np.zeros(SPACE.dim**term.n, dtype=complex)
    for perm in permutations(range(term.n)):
        sign = 1 if statistics is Statistics.BOSON else permutation_parity(perm)
        out += sign * reduce(np.kron, [term.kets[p].amps for p in perm], np.ones(1))
    return term.coeff * out


def kron_isometry(occ):
    kets = MeasurementBasis.full(SPACE).kets
    entries = occ.entries.tolist()
    cols = [
        kron_symmetrize(ElementaryState(1.0, tuple(kets[j] for j in entry)), occ.statistics)
        / (math.sqrt(math.factorial(occ.sector)) * norm)
        for entry, norm in zip(entries, loop_norm_factors(entries))
    ]
    return np.column_stack(cols)


@pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_tensor_symmetrizer_matches_the_kron_permutation_sum(stats, n):
    rng = np.random.default_rng([34, n, stats is Statistics.FERMION])
    for n_terms in (1, 2, 3):
        terms = tuple(
            ElementaryState(
                complex(rng.normal(), rng.normal()),
                tuple(random_ket(rng, SPACE) for _ in range(n)),
            )
            for _ in range(n_terms)
        )
        tol = 1e-12 * SPACE.dim**n
        want = [kron_symmetrize(t, stats) for t in terms]
        for t, w in zip(terms, want):
            assert np.abs(symmetrize(t, stats) - w).max() < tol
        state = symmetrize_state(from_terms(stats, terms))
        assert np.abs(state - np.sum(want, axis=0)).max() < tol
    occ = OccupationBasis(SPACE, n, stats)
    t = occupation_isometry(occ)
    assert np.abs(t - kron_isometry(occ)).max() < 1e-12 * t.size


def transpose_symmetrized(tensors, n, statistics):
    """The symmetrizer the nested coset sums replaced: one strided pass per
    permutation of the last ``n`` axes, signed by its parity for fermions."""
    lead = tuple(range(tensors.ndim - n))
    out = np.zeros_like(tensors)
    for perm in permutations(range(n)):
        moved = tensors.transpose(lead + tuple(len(lead) + p for p in perm))
        if statistics is Statistics.BOSON or permutation_parity(perm) > 0:
            out += moved
        else:
            out -= moved
    return out


# five single-particle states, so that five fermions do not cancel outright
SYM_DIM = 5


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_coset_symmetrizer_matches_the_sum_over_all_transposes(stats, n, lead):
    rng = np.random.default_rng([37, n, len(lead), stats is Statistics.FERMION])
    shape = lead + (SYM_DIM,) * n
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    kept = x.copy()
    got = _symmetrized(x, n, stats)
    assert not np.shares_memory(got, x)
    assert np.array_equal(x, kept)
    tol = 1e-12 * SYM_DIM**n * np.abs(x).max()
    assert np.abs(got - transpose_symmetrized(x, n, stats)).max() < tol


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_coset_symmetrizer_is_exact_on_one_hot_product_stacks(stats, n):
    # canonical products with distinct and with repeated entries, as one
    # stack: the sums are integers, so both routes agree bit for bit
    rng = np.random.default_rng([38, n])
    distinct = [rng.permutation(SYM_DIM)[:n] for _ in range(20)]
    repeated = rng.integers(0, SYM_DIM, size=(20, n))
    entries = np.concatenate([np.reshape(distinct, (20, n)), repeated])
    stack = _products(np.eye(SYM_DIM, dtype=complex)[entries])
    got = _symmetrized(stack, n, stats)
    assert got.tobytes() == transpose_symmetrized(stack, n, stats).tobytes()
    assert np.abs(got).max() >= 1  # the distinct rows survive antisymmetrization


@pytest.mark.parametrize("stats", list(Statistics))
def test_oracle_agrees_with_the_algebra_at_its_scale_cap(stats):
    n, space = comparator.MAX_PARTICLES, CanonicalBasis(("A", "B", "C", "D"))
    assert space.dim == comparator.MAX_DIM
    rng = np.random.default_rng(38)
    a = random_state(rng, space, n, stats)
    b = random_state(rng, space, n, stats)
    scale = math.factorial(n) * math.sqrt(inner(a, a).real * inner(b, b).real)
    for bra, ket in ((a, b), (a, a)):
        assert abs(oracle_inner(bra, ket) - math.factorial(n) * inner(bra, ket)) < 1e-12 * scale
    for mb in (MeasurementBasis.localized(space, "B"), random_measurement_basis(rng, space)):
        ours = partial_trace_iterate(a, (mb,))
        ref = oracle_trace_iterate(a, (mb,))
        tol = 1e-12 * ref.basis.size
        assert np.abs(ours.mat - ref.mat).max() < tol
        assert abs(ours.prob - ref.prob) < tol


def test_occupation_isometry_is_cached_and_read_only():
    occ = OccupationBasis(SPACE, 2, Statistics.FERMION)
    t = occupation_isometry(occ)
    assert occupation_isometry(OccupationBasis(SPACE, 2, Statistics.FERMION)) is t
    with pytest.raises(ValueError):
        t[0, 0] = 1.0
    # another frame of the same dimension shares the table
    other = CanonicalBasis(("X", "Y", "Z"))
    assert occupation_isometry(OccupationBasis(other, 2, Statistics.FERMION)) is t


def test_the_isometry_cache_keeps_only_the_tables_used_last():
    cached = comparator._isometry
    size = cached.cache_info().maxsize
    assert size is not None
    keys = [(dim, 1, Statistics.BOSON) for dim in range(1, size + 2)]
    for key in keys:
        cached(*key)
    info = cached.cache_info()
    assert info.currsize == size
    cached(*keys[-1])
    assert cached.cache_info().hits == info.hits + 1
    cached(*keys[0])  # the table used longest ago was dropped
    assert cached.cache_info().misses == info.misses + 1


def test_labeled_and_label_free_traces_agree_on_the_benchmarks():
    a_dn, a_up = SPACE.ket("A", Spin.DOWN), SPACE.ket("A", Spin.UP)
    overlap = elementary(Statistics.BOSON, (a_dn, a_dn, a_up), 1.0 / math.sqrt(2.0))
    loc_a = MeasurementBasis.localized(SPACE, "A")
    ours = partial_trace_iterate(overlap, (loc_a,))
    ref = oracle_trace_iterate(overlap, (loc_a,))
    assert np.allclose(ours.mat, ref.mat, atol=1e-12)
    assert np.isclose(ours.prob, ref.prob)

    sep = elementary(
        Statistics.BOSON,
        (SPACE.ket("A", Spin.DOWN), SPACE.ket("B", Spin.DOWN), SPACE.ket("C", Spin.UP)),
    )
    deloc = delocalized_pair(SPACE, "B", "C")
    ours = partial_trace_iterate(sep, (deloc,))
    ref = oracle_trace_iterate(sep, (deloc,))
    assert np.allclose(ours.mat, ref.mat, atol=1e-12)
    assert np.isclose(ours.prob, 1.0 / 3.0)
    assert np.isclose(ref.prob, 1.0 / 3.0)


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("scale", [1e-5, 1e-20])
def test_the_oracle_calls_a_state_null_by_the_rule_normalize_uses(stats, scale):
    # the symmetrized vector of these kets has norm sqrt(6) scale^3: an
    # absolute floor refused the state that normalize and the ladder accept
    kets = (SPACE.ket("A", Spin.DOWN), SPACE.ket("B", Spin.DOWN), SPACE.ket("C", Spin.UP))
    phi = elementary(stats, [scale * k for k in kets])
    loc_a = (MeasurementBasis.localized(SPACE, "A"),)
    ref = oracle_trace_iterate(phi, loc_a)
    ours = partial_trace_iterate(normalize(phi), loc_a)
    assert np.allclose(ref.mat, ours.mat, atol=1e-12)
    assert np.isclose(ref.prob, 1.0 / 3.0)


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e-20])
def test_the_oracle_still_refuses_a_null_state_at_any_scale(scale):
    a_dn = scale * SPACE.ket("A", Spin.DOWN)
    phi = elementary(Statistics.FERMION, (a_dn, a_dn, scale * SPACE.ket("B", Spin.UP)))
    with pytest.raises(ValueError, match="symmetrizes to zero"):
        oracle_trace_iterate(phi, (MeasurementBasis.localized(SPACE, "A"),))


def test_labeled_and_label_free_traces_agree_on_random_states():
    rng = np.random.default_rng(32)
    compared = 0
    for stats in (Statistics.BOSON, Statistics.FERMION):
        for _ in range(8):
            phi = random_state(rng, SPACE, int(rng.integers(2, 4)), stats)
            mb = random_measurement_basis(rng, SPACE, int(rng.integers(1, 7)))
            ours = partial_trace_iterate(phi, (mb,))
            ref = oracle_trace_iterate(phi, (mb,))
            assert np.allclose(ours.mat, ref.mat, atol=1e-10)
            assert np.isclose(ours.prob, ref.prob, atol=1e-12)
            compared += 1
    assert compared == 16


def test_iterated_traces_agree_between_routes():
    rng = np.random.default_rng(33)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        phi = random_state(rng, SPACE, 3, stats)
        stages = (
            random_measurement_basis(rng, SPACE, 4),
            random_measurement_basis(rng, SPACE, 3),
        )
        ours = partial_trace_iterate(phi, stages)
        ref = oracle_trace_iterate(phi, stages)
        assert np.allclose(ours.mat, ref.mat, atol=1e-10)
        assert np.isclose(ours.prob, ref.prob, atol=1e-12)


def dense_oracle_trace(phi, bases):
    """The dense labeled route the factor oracle replaced: ``einsum`` partial
    traces of the full ``dim^n x dim^n`` density matrix. Returns
    ``(mat, prob)``."""
    dim = phi.basis.dim
    vec = symmetrize_state(phi)
    vec = vec / np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    prob, m = 1.0, phi.n
    for mb in bases:
        size = dim ** (m - 1)
        r = rho.reshape(dim, size, dim, size)
        nxt = np.zeros((size, size), dtype=complex)
        for psi in mb.kets:
            nxt += np.einsum("a,abcd,c->bd", psi.amps.conj(), r, psi.amps)
        stage = nxt.trace().real
        rho = nxt / stage
        prob *= stage
        m -= 1
    t = occupation_isometry(OccupationBasis(phi.basis, m, phi.statistics))
    mat = t.conj().T @ rho @ t
    return mat / mat.trace().real, prob


@pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
def test_factor_oracle_matches_the_dense_einsum_oracle(stats):
    rng = np.random.default_rng(35)
    for n in (2, 3):
        for n_stages in (1, 2):
            for size in (None, 4):  # complete, then post-selective
                phi = random_state(rng, SPACE, n, stats)
                stages = tuple(
                    random_measurement_basis(rng, SPACE, size) for _ in range(n_stages)
                )
                rho = oracle_trace_iterate(phi, stages)
                mat, prob = dense_oracle_trace(phi, stages)
                tol = 1e-12 * rho.basis.size
                assert np.abs(rho.mat - mat).max() < tol
                assert abs(rho.prob - prob) < tol


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stats=st.sampled_from((Statistics.BOSON, Statistics.FERMION)),
    n=st.integers(2, 3),
    n_terms=st.integers(1, 3),
    sizes=st.lists(st.one_of(st.none(), st.integers(1, SPACE.dim)), min_size=1, max_size=2),
)
def test_generated_reductions_agree_with_their_dense_square_and_the_oracle(
    seed, stats, n, n_terms, sizes
):
    # a size of None draws a complete basis, an integer a post-selective one
    rng = np.random.default_rng(seed)
    phi = random_state(rng, SPACE, n, stats, n_terms=n_terms)
    stages = tuple(random_measurement_basis(rng, SPACE, k) for k in sizes)
    rho = partial_trace_iterate(phi, stages)
    tol = 1e-12 * rho.basis.size
    assert np.abs(rho.spectrum - np.linalg.eigvalsh(rho.mat)[::-1]).max() < tol
    assert abs(purity(rho) - np.vdot(rho.mat, rho.mat).real) < tol
    ref = oracle_trace_iterate(phi, stages)
    assert np.abs(rho.mat - ref.mat).max() < 1e-10
    assert abs(rho.prob - ref.prob) < 1e-12


def test_the_oracle_refuses_states_that_inner_refuses():
    """Another frame, statistics or particle number: the oracle raises what
    ``inner`` raises rather than compare coordinates over different modes."""
    other = CanonicalBasis(("X", "Y", "Z"))

    def pair(space, stats=Statistics.BOSON, n=2):
        kets = (space.ket(space.mode_names[0], Spin.UP), space.ket(space.mode_names[1], Spin.DOWN))
        return elementary(stats, kets[:n])

    for bra, ket, message in (
        (pair(SPACE), pair(other), "states live in different bases"),
        (pair(SPACE), pair(SPACE, Statistics.FERMION), "statistics differ"),
        (pair(SPACE), pair(SPACE, n=1), "particle numbers differ"),
    ):
        for product in (inner, oracle_inner):
            with pytest.raises(IncompatibleStatesError, match=message):
                product(bra, ket)


def test_the_oracle_refuses_a_stage_from_another_frame():
    """A stage over other modes is refused by the oracle as by the walk."""
    phi = elementary(Statistics.BOSON, (SPACE.ket("A", Spin.UP), SPACE.ket("B", Spin.DOWN)))
    here = MeasurementBasis.localized(SPACE, "A")
    foreign = MeasurementBasis.localized(CanonicalBasis(("A", "B", "D")), "A")
    for stages in ((foreign,), (here, foreign)):
        for route in (partial_trace_iterate, oracle_trace_iterate):
            with pytest.raises(IncompatibleStatesError, match="measurement ket and state bases"):
                route(phi, stages)


def test_oracle_respects_its_scale_cap():
    big = CanonicalBasis(("A", "B", "C", "D", "E"))  # dim 10 > cap
    s = elementary(Statistics.BOSON, (big.ket("A", Spin.UP),) * 2)
    with pytest.raises(OracleScaleError):
        oracle_inner(s, s)


# --- distinguishable particles ----------------------------------------------


def separated_product():
    return product_state(
        (
            SPACE.ket("A", Spin.DOWN),
            SPACE.ket("B", Spin.DOWN),
            SPACE.ket("C", Spin.UP),
        )
    )


def test_slot_traces_of_a_product_are_pure_with_unit_probability():
    state = separated_product()
    for slot, mode in ((0, "A"), (1, "B"), (2, "C")):
        rho = distinguishable_trace_iterate(state, (SlotTrace(slot, MeasurementBasis.localized(SPACE, mode)),))
        assert np.isclose(rho.prob, 1.0)
        assert np.isclose(purity(rho), 1.0)
        assert np.isclose(spectrum(rho)[0], 1.0)


def test_nonlocal_slot_measurement_halves_the_probability_but_stays_pure():
    state = separated_product()
    deloc = delocalized_pair(SPACE, "A", "B")
    rho = distinguishable_trace_iterate(state, (SlotTrace(0, deloc),))
    assert np.isclose(rho.prob, 0.5)
    assert np.isclose(purity(rho), 1.0)


def test_fully_overlapped_product_still_never_mixes():
    state = product_state(
        (
            SPACE.ket("A", Spin.DOWN),
            SPACE.ket("A", Spin.DOWN),
            SPACE.ket("A", Spin.UP),
        )
    )
    loc_a = MeasurementBasis.localized(SPACE, "A")
    for slot in (0, 1, 2):
        rho = distinguishable_trace_iterate(state, (SlotTrace(slot, loc_a),))
        assert np.isclose(rho.prob, 1.0)
        assert np.isclose(purity(rho), 1.0)
    rho = distinguishable_trace_iterate(
        state, (SlotTrace(2, loc_a), SlotTrace(0, loc_a))
    )
    assert np.isclose(purity(rho), 1.0)


def test_random_products_stay_pure_under_any_slot_sequence():
    rng = np.random.default_rng(34)
    for _ in range(6):
        state = random_product_labeled(rng, SPACE, 3)
        steps = (
            SlotTrace(1, random_measurement_basis(rng, SPACE)),
            SlotTrace(2, random_measurement_basis(rng, SPACE, 4)),
        )
        rho = distinguishable_trace_iterate(state, steps)
        assert np.isclose(purity(rho), 1.0, atol=1e-10)


def test_slot_labels_follow_the_remaining_particles():
    state = separated_product()
    rho = distinguishable_trace_iterate(state, (SlotTrace(1, MeasurementBasis.localized(SPACE, "B")),))
    i = rho.basis.index_of([("A", Spin.DOWN), ("C", Spin.UP)])
    assert rho.basis.labels[i] == "A↓⊗C↑"
    assert np.isclose(rho.mat[i, i].real, 1.0)


def test_consumed_slots_cannot_be_measured_twice():
    state = separated_product()
    loc_a = MeasurementBasis.localized(SPACE, "A")
    with pytest.raises(ValueError):
        distinguishable_trace_iterate(state, (SlotTrace(0, loc_a), SlotTrace(0, loc_a)))


def ensemble_trace(state, steps):
    """The ensemble route the labeled factor trace replaced: a list of
    normalized (weight, tensor) branches, one per ket outcome, dropping
    branches of weight up to 1e-30. Returns ``(mat, prob, labels)``, with
    the labels decoded mixed-radix, most significant remaining slot first."""
    space = state.space
    dim = space.dim
    vec = state.vector()
    remaining = list(range(state.n))
    ensemble = [(1.0, (vec / np.linalg.norm(vec)).reshape((dim,) * state.n))]
    prob = 1.0
    for step in steps:
        axis = remaining.index(step.slot)
        nxt = []
        for w, tensor in ensemble:
            for psi in step.basis.kets:
                branch = np.tensordot(psi.amps.conj(), tensor, axes=([0], [axis]))
                bn = float(np.vdot(branch, branch).real)
                if w * bn > 1e-30:
                    nxt.append((w * bn, branch / math.sqrt(bn)))
        stage = sum(w for w, _ in nxt)
        ensemble = [(w / stage, t) for w, t in nxt]
        prob *= stage
        remaining.remove(step.slot)
    size = dim ** len(remaining)
    mat = sum(w * np.outer(t.reshape(size), t.reshape(size).conj()) for w, t in ensemble)
    labels = []
    for flat in range(size):
        digits = []
        for _ in remaining:
            digits.append(flat % dim)
            flat //= dim
        labels.append("⊗".join(space.labels[d] for d in reversed(digits)) or "vac")
    return mat, prob, tuple(labels)


def random_labeled_state(rng, n, n_terms):
    terms = [
        (complex(rng.normal(), rng.normal()), tuple(random_ket(rng, SPACE) for _ in range(n)))
        for _ in range(n_terms)
    ]
    scale = np.linalg.norm(LabeledState(tuple(terms)).vector())
    return LabeledState(tuple((c / scale, kets) for c, kets in terms))


def assert_matches_the_ensemble_route(state, steps):
    rho = distinguishable_trace_iterate(state, steps)
    mat, prob, labels = ensemble_trace(state, steps)
    tol = 1e-12 * rho.basis.size
    assert np.abs(rho.mat - mat).max() < tol
    assert abs(rho.prob - prob) < tol
    assert rho.basis.labels == labels
    assert rho.factor.shape[1] <= rho.basis.size
    return rho


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factor_trace_matches_the_ensemble_route_on_random_states(n):
    rng = np.random.default_rng(36 + n)
    for n_terms in (1, 2, 3):
        for size in (None, 1, 4):  # complete, then post-selective
            state = random_labeled_state(rng, n, n_terms)
            # at most three slots remain, so the dense squares stay small
            k = int(rng.integers(max(n - 3, 0), n + 1))
            steps = tuple(
                SlotTrace(int(s), random_measurement_basis(rng, SPACE, size))
                for s in rng.permutation(n)[:k]
            )
            assert_matches_the_ensemble_route(state, steps)


def test_factor_trace_matches_the_ensemble_route_when_every_slot_is_measured():
    rng = np.random.default_rng(41)
    state = random_labeled_state(rng, 3, 2)
    steps = tuple(SlotTrace(s, random_measurement_basis(rng, SPACE)) for s in (2, 0, 1))
    rho = assert_matches_the_ensemble_route(state, steps)
    assert rho.basis.labels == ("vac",)
    assert rho.factor.shape == (1, 1)


def test_factor_trace_matches_the_ensemble_route_when_a_ket_misses_the_state():
    # the A-up ket of the localized A basis never fires on slot 0 (A-down)
    steps = (
        SlotTrace(0, MeasurementBasis.localized(SPACE, "A")),
        SlotTrace(2, delocalized_pair(SPACE, "B", "C")),
    )
    assert_matches_the_ensemble_route(separated_product(), steps)


@pytest.mark.parametrize("stats", list(Statistics))
def test_coefficient_sums_are_the_tensordot_ones_bit_for_bit(stats):
    # np.dot on the flattened products is the dot that tensordot runs;
    # ``coeffs @ products`` rounds differently
    rng = np.random.default_rng(17)
    for n in range(1, 5):
        for n_terms in (1, 2, 3):
            phi = random_state(rng, SPACE, n, stats, n_terms)
            coeffs = np.array([t.coeff for t in phi.terms])
            amps = np.array([[k.amps for k in t.kets] for t in phi.terms])
            summed = np.tensordot(coeffs, _products(amps), axes=1)
            assert np.array_equal(
                symmetrize_state(phi), _symmetrized(summed, n, stats).reshape(-1)
            )
            labeled = LabeledState(tuple((t.coeff, t.kets) for t in phi.terms))
            assert np.array_equal(labeled.vector(), summed.reshape(-1))


def test_labeled_states_reject_non_finite_coefficients():
    kets = (random_ket(np.random.default_rng(0), SPACE),) * 2
    for bad in (float("nan"), complex(0.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            LabeledState(((bad, kets),))


def test_a_labeled_state_needs_at_least_one_slot():
    with pytest.raises(ValueError, match="labeled state needs at least one slot"):
        product_state([])
    with pytest.raises(ValueError, match="labeled state needs at least one slot"):
        LabeledState(((1.0, ()), (0.5, ())))
    # the terms are stacked as the scenario parser stacks a state's, with its refusals
    ket = random_ket(np.random.default_rng(0), SPACE)
    with pytest.raises(IncompatibleStatesError, match=r"^terms mix particle numbers \[0, 1\]$"):
        LabeledState(((1.0, ()), (1.0, (ket,))))
    with pytest.raises(ValueError, match="^state needs at least one term$"):
        LabeledState(())


def test_labeled_states_compare_by_the_values_of_their_kets():
    """Kets compare by value, so labeled states built from distinct but
    equal kets are equal and hash alike, signed zeros merged; the stack is
    complex even when every coefficient is real."""
    def build(coeff=1.0, up=Spin.UP):
        return LabeledState(((coeff, (SPACE.ket("A", Spin.DOWN), SPACE.ket("B", up))),))

    a, b = build(), build()
    assert a.terms[0][1][0] is not b.terms[0][1][0]
    assert a == b and hash(a) == hash(b)
    signed = Ket(SPACE, np.where(SPACE.ket("A", Spin.DOWN).amps == 0, -0.0, 1.0))
    c = LabeledState(((1.0 + 0j, (signed, SPACE.ket("B", Spin.UP))),))
    assert np.signbit(c._stack[1].real).any()
    assert a == c and hash(a) == hash(c)
    assert a != build(coeff=-1.0) and a != build(up=Spin.DOWN)
    coeffs, amps = a._stack
    assert coeffs.dtype == amps.dtype == np.complex128
    assert not coeffs.flags.writeable and not amps.flags.writeable
    assert a.terms == ((1.0, (SPACE.ket("A", Spin.DOWN), SPACE.ket("B", Spin.UP))),)


def test_labeled_states_compare_and_hash_without_building_kets(monkeypatch):
    """``==`` and ``hash`` read the stack and build no ``Ket``, for a
    product state and a two-term state alike."""
    down, up = (SPACE.ket(m, s) for m, s in (("A", Spin.DOWN), ("B", Spin.UP)))
    r = 1 / math.sqrt(2)
    a, b = product_state((down, up)), product_state((down, up))
    c = LabeledState(((r, (down, up)), (r, (up, down))))
    built = []
    original = Ket.__init__

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(Ket, "__init__", counting)
    assert a == b and hash(a) == hash(b) and a != c and len({a, b, c}) == 2
    assert not built


def test_labeled_trace_refuses_a_state_whose_norm_overflows_to_nan():
    # 1e200 * 1e200 overflows, and inf * 0 fills the vector with NaN
    big = Ket(SPACE, [1e200] + [0.0] * (SPACE.dim - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        state = LabeledState(((1.0, (big, big)),))
        assert np.isnan(np.linalg.norm(state.vector()))
        with pytest.raises(ValueError, match="normalized"):
            comparator.trace_start(state)
