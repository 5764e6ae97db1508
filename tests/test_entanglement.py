"""Entropy diagnostics and the bipartition analyzer."""

import math

import numpy as np
import pytest

import idqsim.comparator
import idqsim.reduction
from idqsim import (
    CanonicalBasis,
    LabeledState,
    MeasurementBasis,
    NotPSDError,
    SlotTrace,
    Spin,
    Statistics,
    TracePlan,
    analyze,
    builtin_names,
    distinguishable_trace_iterate,
    elementary,
    get_builtin,
    normalize,
    partial_trace_iterate,
    partial_trace_one,
    product_state,
    purity,
    von_neumann_entropy,
)
from idqsim.errors import IncompatibleStatesError, SimulationError, ZeroProbabilityError
from idqsim.reduction import _checked_eigenvalues
from idqsim.verification import (
    random_ket,
    random_measurement_basis,
    random_state,
    random_unitary,
)

SPACE = CanonicalBasis(("A", "B", "C"))
OVERLAP_ENTROPY = math.log2(3.0) - 2.0 / 3.0


def overlap_state():
    a_dn, a_up = SPACE.ket("A", Spin.DOWN), SPACE.ket("A", Spin.UP)
    return elementary(Statistics.BOSON, (a_dn, a_dn, a_up), 1.0 / math.sqrt(2.0))


def test_eigenvalues_come_out_descending_and_clamped():
    ev, _, _ = _checked_eigenvalues(np.diag([0.25, 0.75, -1e-12]), 1.0 - 1e-12)
    assert ev[0] == pytest.approx(0.75)
    assert ev[1] == pytest.approx(0.25)
    assert ev[2] == 0.0


def test_clearly_negative_matrices_are_rejected():
    with pytest.raises(NotPSDError):
        _checked_eigenvalues(np.diag([1.1, -0.1]), 1.0)


def test_entropy_of_known_spectra():
    rho = partial_trace_one(overlap_state(), MeasurementBasis.localized(SPACE, "A"))
    assert np.isclose(von_neumann_entropy(rho), OVERLAP_ENTROPY, atol=1e-12)
    assert np.isclose(purity(rho), 5.0 / 9.0, atol=1e-12)


def test_entropy_is_basis_independent():
    rng = np.random.default_rng(21)
    p = np.array([0.5, 0.3, 0.2])
    s_ref = -(p * np.log2(p)).sum()
    u = random_unitary(rng, 3)
    m = (u * p) @ u.conj().T
    ev, _, _ = _checked_eigenvalues(m, np.trace(m).real)
    ev = ev[ev > 0]
    assert np.isclose(-(ev * np.log2(ev)).sum(), s_ref)


def test_analyze_runs_every_plan_and_aggregates_the_flag():
    loc_a = MeasurementBasis.localized(SPACE, "A")
    plan = TracePlan("(AA)-A", one_stages=(loc_a, loc_a), two_stages=(loc_a,))
    report = analyze(overlap_state(), (plan,))
    b = report["(AA)-A"]
    assert np.isclose(b.rho_one.entropy, OVERLAP_ENTROPY)
    assert np.isclose(b.rho_two.entropy, OVERLAP_ENTROPY)
    assert np.isclose(b.rho_one.purity, 5.0 / 9.0)
    assert b.mixed
    assert report.genuine_multipartite is True


def test_pure_cuts_unset_the_flag():
    kets = (
        SPACE.ket("A", Spin.DOWN),
        SPACE.ket("B", Spin.DOWN),
        SPACE.ket("C", Spin.UP),
    )
    sep = elementary(Statistics.BOSON, kets)
    plans = tuple(
        TracePlan(f"({m})", two_stages=(MeasurementBasis.localized(SPACE, m),))
        for m in "ABC"
    )
    report = analyze(sep, plans)
    assert all(not b.mixed for b in report.bipartitions)
    assert report.genuine_multipartite is False
    assert all(b.rho_one is None for b in report.bipartitions)


def test_non_bipartition_plans_do_not_vote():
    loc_a = MeasurementBasis.localized(SPACE, "A")
    plan = TracePlan("probe", two_stages=(loc_a,), bipartition=False)
    report = analyze(overlap_state(), (plan,))
    assert report["probe"].mixed
    assert report.genuine_multipartite is None


def test_ghz_is_genuinely_multipartite():
    dn = tuple(SPACE.ket(m, Spin.DOWN) for m in "ABC")
    up = tuple(SPACE.ket(m, Spin.UP) for m in "ABC")
    ghz = normalize(
        elementary(Statistics.BOSON, dn) + elementary(Statistics.BOSON, up)
    )
    plans = tuple(
        TracePlan(f"cut {m}", two_stages=(MeasurementBasis.localized(SPACE, m),))
        for m in "ABC"
    )
    report = analyze(ghz, plans)
    assert report.genuine_multipartite is True
    for b in report.bipartitions:
        assert np.isclose(b.rho_two.entropy, 1.0)
        assert np.isclose(b.rho_two.purity, 0.5)


def test_plan_labels_must_be_distinct():
    loc_a = MeasurementBasis.localized(SPACE, "A")
    plan = TracePlan("dup", two_stages=(loc_a,))
    with pytest.raises(ValueError):
        analyze(overlap_state(), (plan, plan))


def test_empty_plans_are_rejected():
    with pytest.raises(ValueError):
        TracePlan("nothing")


@pytest.mark.parametrize("side", ["one", "two"])
def test_a_plan_side_with_no_stages_is_refused(side):
    # on ghz the empty side reported the untraced state, pure, as its remainder
    loc_a = MeasurementBasis.localized(SPACE, "A")
    sides = {"one_stages": (loc_a, loc_a), "two_stages": (loc_a,), f"{side}_stages": iter(())}
    with pytest.raises(ValueError, match=rf"^plan 'p', side {side}: no stages to trace$"):
        TracePlan("p", **sides)


@pytest.mark.parametrize("name", ["ghz", "distinguishable"])
def test_remainders_of_one_sector_share_one_basis_object(name):
    spec = get_builtin(name)
    report = analyze(spec.state, spec.plans)
    groups: dict[tuple, list] = {}
    for b in report.bipartitions:
        for rho in (b.rho_one, b.rho_two):
            if rho is not None:  # a labeled sector is also keyed by the slots it keeps
                key = (rho.basis.sector, getattr(rho.basis, "slots", None))
                groups.setdefault(key, []).append(rho.basis)
    assert max(map(len, groups.values())) > 1
    assert all(basis is group[0] for group in groups.values() for basis in group)


# --- the prefix-tree runner ---------------------------------------------------


def trace_of(state):
    if isinstance(state, LabeledState):
        return distinguishable_trace_iterate
    return partial_trace_iterate


def assert_matches_per_side_traces(state, plans):
    """``analyze`` gives, bit for bit, what tracing every side on its own gives."""
    report = analyze(state, plans)
    for plan in plans:
        for side, stages in plan.sides():
            got = getattr(report[plan.label], f"rho_{side}")
            want = trace_of(state)(state, stages)
            assert np.array_equal(got.factor, want.factor), (plan.label, side)
            assert got.prob == want.prob
            assert np.array_equal(got.spectrum, want.spectrum)
            assert got.basis.size == want.basis.size


def first_side_error(state, plans):
    """Type and message of the first failing side, traced one side at a time."""
    for plan in plans:
        for side, stages in plan.sides():
            try:
                trace_of(state)(state, stages)
            except (SimulationError, ArithmeticError, ValueError) as exc:
                return type(exc), f"plan {plan.label!r}, side {side}: {exc}"
    return None


def copied(basis):
    """A basis equal in value to ``basis`` that shares no object with it."""
    return MeasurementBasis(basis.space, basis.amps.copy())


def counted(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def separated_state():
    kets = (SPACE.ket("A", Spin.DOWN), SPACE.ket("B", Spin.DOWN), SPACE.ket("C", Spin.UP))
    return elementary(Statistics.BOSON, kets)


def random_labeled_state(rng, slots, terms):
    raw = tuple(
        (complex(rng.normal(), rng.normal()), tuple(random_ket(rng, SPACE) for _ in range(slots)))
        for _ in range(terms)
    )
    norm = np.linalg.norm(LabeledState(raw).vector())
    return LabeledState(tuple((c / norm, kets) for c, kets in raw))


@pytest.mark.parametrize("name", builtin_names())
def test_analyze_matches_per_side_traces_on_the_builtins(name):
    spec = get_builtin(name)
    assert_matches_per_side_traces(spec.state, spec.plans)


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.name)
def test_analyze_matches_per_side_traces_on_random_plans(statistics):
    rng = np.random.default_rng(83)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        phi = random_state(rng, SPACE, n, statistics, n_terms=int(rng.integers(1, 4)))
        pool = (
            random_measurement_basis(rng, SPACE),
            random_measurement_basis(rng, SPACE, size=3),
            random_measurement_basis(rng, SPACE, size=4),
        )

        def side():
            picks = rng.integers(0, len(pool), size=int(rng.integers(1, n)))
            return tuple(copied(pool[i]) if rng.random() < 0.5 else pool[i] for i in picks)

        plans = [TracePlan(f"p{k}", one_stages=side(), two_stages=side()) for k in range(4)]
        assert_matches_per_side_traces(phi, plans)


def test_analyze_matches_per_side_traces_on_random_labeled_plans():
    rng = np.random.default_rng(84)
    for _ in range(8):
        state = random_labeled_state(rng, 3, int(rng.integers(1, 4)))
        pool = (random_measurement_basis(rng, SPACE), MeasurementBasis.localized(SPACE, "B"))

        def side():
            slots = rng.permutation(3)[: int(rng.integers(1, 3))]
            return tuple(SlotTrace(int(s), pool[int(rng.integers(0, 2))]) for s in slots)

        plans = [TracePlan(f"p{k}", one_stages=side(), two_stages=side()) for k in range(4)]
        assert_matches_per_side_traces(state, plans)


def test_one_start_and_one_lowering_per_distinct_prefix(monkeypatch):
    starts = counted(monkeypatch, idqsim.reduction, "coords")
    lowerings = counted(monkeypatch, idqsim.reduction, "annihilate")
    spec = get_builtin("separated")
    analyze(spec.state, spec.plans)
    # 3 cuts, 9 stages; the one-particle sides begin with the stages of the
    # two-particle sides, so 6 distinct prefixes
    assert len(starts) == 1
    assert len(lowerings) == 6


def test_labeled_states_start_once_and_share_prefixes(monkeypatch):
    starts = counted(monkeypatch, LabeledState, "vector")
    lowerings = counted(monkeypatch, idqsim.comparator, "_contract_slot")
    spec = get_builtin("distinguishable")
    analyze(spec.state, spec.plans)
    assert len(starts) == 1
    assert len(lowerings) == 8  # 11 stages, 8 distinct (slot, basis) prefixes


def test_bases_equal_in_value_share_one_lowering(monkeypatch):
    lowerings = counted(monkeypatch, idqsim.reduction, "annihilate")
    loc = MeasurementBasis.localized
    plans = [
        TracePlan(f"p{k}", one_stages=(loc(SPACE, "A"), loc(SPACE, "B")),
                  two_stages=(loc(SPACE, "A"),))
        for k in range(3)
    ]
    report = analyze(separated_state(), plans)
    assert len(lowerings) == 2  # (A) and (A, B)
    assert report["p2"].rho_one.prob == report["p0"].rho_one.prob


def test_bases_differing_only_in_signed_zeros_share_one_lowering(monkeypatch):
    lowerings = counted(monkeypatch, idqsim.reduction.OccupationBasis, "lower")
    eye = np.eye(SPACE.dim, dtype=complex)[:2]
    signed = np.where(eye == 0, complex(-0.0, -0.0), eye)
    plus = MeasurementBasis(SPACE, eye)
    minus = MeasurementBasis(SPACE, signed)
    assert plus.amps.tobytes() != minus.amps.tobytes()
    assert plus == minus
    plans = [
        TracePlan("plus", two_stages=(plus,), bipartition=False),
        TracePlan("minus", two_stages=(minus,), bipartition=False),
    ]
    report = analyze(separated_state(), plans)
    assert len(lowerings) == 1
    assert np.array_equal(report["minus"].rho_two.mat, report["plus"].rho_two.mat)


def test_labeled_slots_key_the_prefix(monkeypatch):
    lowerings = counted(monkeypatch, idqsim.comparator, "_contract_slot")
    state = product_state((SPACE.ket("A", Spin.DOWN), SPACE.ket("A", Spin.UP)))
    loc_a = MeasurementBasis.localized(SPACE, "A")
    plans = [
        TracePlan("slot 0", two_stages=(SlotTrace(0, loc_a),), bipartition=False),
        TracePlan("slot 1", two_stages=(SlotTrace(1, copied(loc_a)),), bipartition=False),
        TracePlan("slot 0 again", two_stages=(SlotTrace(0, copied(loc_a)),), bipartition=False),
    ]
    assert_matches_per_side_traces(state, plans)
    lowerings.clear()
    analyze(state, plans)
    assert len(lowerings) == 2


OTHER = CanonicalBasis(("X", "Y", "Z"))
LOC_A = MeasurementBasis.localized(SPACE, "A")
LOC_X = MeasurementBasis.localized(OTHER, "X")


def labeled_pair():
    return product_state((SPACE.ket("A", Spin.DOWN), SPACE.ket("B", Spin.UP)))


@pytest.mark.parametrize(
    "state, plans, want",
    [
        # a stored stage with the same amplitude bytes over another frame
        (
            separated_state,
            (TracePlan("home", one_stages=(LOC_A,)), TracePlan("away", one_stages=(LOC_X,))),
            IncompatibleStatesError,
        ),
        # too deep a side fails before its first stage, even a foreign one
        (
            separated_state,
            (TracePlan("ok", two_stages=(LOC_A,)), TracePlan("deep", one_stages=(LOC_X,) * 4)),
            ValueError,
        ),
        # the first failing side wins, even when a later one fails sooner
        (
            separated_state,
            (
                TracePlan("c twice", one_stages=(MeasurementBasis.localized(SPACE, "C"),) * 2),
                TracePlan("too deep", one_stages=(LOC_A,) * 4),
            ),
            ZeroProbabilityError,
        ),
        # the same two errors on labeled states: a frame mismatch is not a ValueError
        (
            labeled_pair,
            (
                TracePlan("home", two_stages=(SlotTrace(0, LOC_A),)),
                TracePlan("away", two_stages=(SlotTrace(0, LOC_X),)),
            ),
            IncompatibleStatesError,
        ),
        # more stages than slots fail before the foreign first stage runs
        (
            labeled_pair,
            (
                TracePlan("ok", two_stages=(SlotTrace(0, LOC_A),)),
                TracePlan("deep", one_stages=tuple(SlotTrace(k, LOC_X) for k in range(3))),
            ),
            ValueError,
        ),
    ],
    ids=["foreign frame", "depth first", "plan order", "labeled foreign frame", "labeled depth first"],
)
def test_errors_are_those_of_the_first_failing_side(state, plans, want):
    want_type, want_message = first_side_error(state(), plans)
    assert want_type is want
    if want is ValueError:
        assert "cannot trace" in want_message
    with pytest.raises(want_type) as caught:
        analyze(state(), plans)
    assert type(caught.value) is want_type
    assert str(caught.value) == want_message


def test_unnormalized_state_fails_on_the_first_side():
    phi = 2.0 * separated_state()
    plans = (
        TracePlan("first", two_stages=(MeasurementBasis.localized(SPACE, "A"),)),
        TracePlan("second", two_stages=(MeasurementBasis.localized(SPACE, "B"),)),
    )
    with pytest.raises(ValueError, match=r"^plan 'first', side two: state must be normalized"):
        analyze(phi, plans)


def test_labeled_errors_are_those_of_the_first_failing_side():
    state = labeled_pair()
    plans = (
        TracePlan("fine", two_stages=(SlotTrace(0, LOC_A),)),
        TracePlan("twice", one_stages=(SlotTrace(0, LOC_A), SlotTrace(0, LOC_A))),
    )
    want_type, want_message = first_side_error(state, plans)
    with pytest.raises(want_type) as caught:
        analyze(state, plans)
    assert str(caught.value) == want_message


@pytest.mark.parametrize(
    "state, trace, stage, want",
    [
        (separated_state, partial_trace_iterate, SlotTrace(0, LOC_A),
         "identical particles are traced through MeasurementBasis stages, not SlotTrace"),
        (labeled_pair, distinguishable_trace_iterate, LOC_A,
         "labeled states are traced through SlotTrace stages, not MeasurementBasis"),
    ],
    ids=["slot trace on identical particles", "measurement basis on labeled particles"],
)
def test_a_stage_of_the_wrong_particle_kind_is_refused(state, trace, stage, want):
    with pytest.raises(IncompatibleStatesError) as caught:
        trace(state(), (stage,))
    assert str(caught.value) == want
    with pytest.raises(IncompatibleStatesError) as caught:
        analyze(state(), (TracePlan("p", two_stages=(stage,)),))
    assert str(caught.value) == f"plan 'p', side two: {want}"


def test_nan_matrices_fail_the_reconstruction_check(monkeypatch):
    def lapack_refuses(m):  # as some LAPACK builds treat NaN
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", lapack_refuses)
    for bad in (np.nan, np.inf):
        with pytest.raises(ArithmeticError, match="residual"):
            _checked_eigenvalues(np.array([[bad, 0.0], [0.0, 1.0]]), 1.0)


def test_a_wrong_eigendecomposition_is_caught(monkeypatch):
    true_eigvalsh = np.linalg.eigvalsh
    m = np.diag([0.25, 0.75])
    assert np.array_equal(_checked_eigenvalues(m, 1.0)[0], [0.75, 0.25])
    # a shift the sum of the eigenvalues sees, and one only their squares see
    for shift in ([0.0, 1e-6], [1e-6, -1e-6]):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, s=shift: true_eigvalsh(a) + s)
        with pytest.raises(ArithmeticError, match="residual"):
            _checked_eigenvalues(m, 1.0)
        with pytest.raises(ArithmeticError, match="residual"):
            partial_trace_one(overlap_state(), MeasurementBasis.localized(SPACE, "A"))


def test_eigenvalues_out_of_order_are_caught(monkeypatch):
    true_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: true_eigvalsh(a)[::-1])
    with pytest.raises(ArithmeticError, match="order"):
        _checked_eigenvalues(np.diag([0.25, 0.75]), 1.0)
    with pytest.raises(ArithmeticError, match="order"):
        partial_trace_one(overlap_state(), MeasurementBasis.localized(SPACE, "A"))


def test_rounding_off_hermitian_is_accepted():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 4)
    m = (u * np.array([0.1, 0.2, 0.3, 0.4])) @ u.conj().T  # Hermitian up to rounding
    assert not np.array_equal(m, m.conj().T)
    ev, _, _ = _checked_eigenvalues(m, np.trace(m).real)
    assert np.allclose(ev, [0.4, 0.3, 0.2, 0.1], atol=1e-12)


def test_the_clamp_is_the_boundary_of_the_psd_check():
    assert _checked_eigenvalues(np.diag([1.0, -0.9e-10]), 1.0 - 0.9e-10)[0][1] == 0.0
    with pytest.raises(NotPSDError):
        _checked_eigenvalues(np.diag([1.0, -1.1e-10]), 1.0 - 1.1e-10)
    with pytest.raises(ValueError):  # empty: no lowest eigenvalue to check
        _checked_eigenvalues(np.zeros((0, 0)), 0.0)
