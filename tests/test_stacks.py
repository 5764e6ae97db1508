"""States and measurement bases built from amplitude stacks
(``ParticleState``, ``MeasurementBasis``) against the same objects built
ket by ket: equal bit for bit, refused with the stated errors, and no
``Ket`` made unless one is read."""

import json
import math

import numpy as np
import pytest

from idqsim import (
    BasisMismatchError,
    CanonicalBasis,
    ElementaryState,
    EmptyStateError,
    IncompatibleStatesError,
    Ket,
    LabeledState,
    MeasurementBasis,
    OccupationBasis,
    ParticleState,
    SlotTrace,
    Spin,
    Statistics,
    coords,
    delocalized_pair,
    inner,
    elementary,
    normalize,
    partial_trace_iterate,
    project_single,
    states_close,
)
from idqsim.comparator import (
    _contract_slot, oracle_inner, oracle_trace_iterate, symmetrize_state
)
from idqsim.entanglement import _stage_key
from idqsim.errors import ScenarioError
from idqsim.reduction import annihilate
from idqsim.scenarios import _BUILTIN_DIR, parse_scenario
from idqsim.states import _stack_terms
from idqsim.verification import random_measurement_basis, random_state, random_unitary

SPACE = CanonicalBasis(("A", "B", "C"))
B, F = Statistics.BOSON, Statistics.FERMION


def per_object_state(statistics, space, coeffs, amps):
    """The state of checked kets' terms, stacked as the scenario parser
    stacks a file's terms."""
    return ParticleState(statistics, *_stack_terms(
        (c, tuple(Ket(space, a) for a in kets)) for c, kets in zip(coeffs, amps)
    ))


def per_object_basis(space, amps):
    """The basis of checked kets' rows, as the scenario parser builds it."""
    return MeasurementBasis(space, [Ket(space, a).amps for a in amps])


def bits(x) -> bytes:
    """Bit for bit, so 0.0 and -0.0 differ."""
    return np.asarray(x).tobytes()


def unit_rows(rng, shape):
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _state_cases():
    rng = np.random.default_rng(20)
    dim = SPACE.dim
    pair = delocalized_pair(SPACE, "A", "B").amps  # rows supported on A and B only
    repeated = unit_rows(rng, (2, 3, dim))
    repeated[0, 2] = repeated[0, 0]  # a fermion term with a repeated row is null
    cases = [
        ("no particles", B, np.array([0.6, 0.8j]), np.zeros((2, 0, dim))),
        ("no fermions", F, np.array([1.0]), np.zeros((1, 0, dim))),
        ("one boson term", B, np.array([0.3 - 0.2j]), unit_rows(rng, (1, 3, dim))),
        ("one fermion term", F, np.array([1.1j]), unit_rows(rng, (1, 2, dim))),
        ("repeated fermion rows", F, np.array([0.5, -0.7j]), repeated),
        ("delocalized pair rows", B, np.array([1.0, 0.5j]),
         np.stack([pair[[0, 1, 0]], pair[[1, 1, 0]]])),
        ("delocalized fermion rows", F, np.array([0.9]),
         np.vstack([pair, np.eye(dim)[4:5]])[None]),
    ]
    for statistics in (B, F):
        for n in (1, 2, 3):
            cases.append((f"random {statistics.value} {n}", statistics,
                          rng.normal(size=3) + 1j * rng.normal(size=3),
                          unit_rows(rng, (3, n, dim))))
    return cases


STATE_CASES = _state_cases()


@pytest.mark.parametrize("name, statistics, coeffs, amps", STATE_CASES,
                         ids=[c[0] for c in STATE_CASES])
def test_states_from_a_stack_equal_the_states_from_ket_terms_bit_for_bit(
    name, statistics, coeffs, amps
):
    ours = ParticleState(statistics, SPACE, coeffs, amps)
    theirs = per_object_state(statistics, SPACE, coeffs, amps)
    n = amps.shape[1]
    assert ours.n == theirs.n == n and ours.statistics is theirs.statistics
    if n:
        assert ours.basis == theirs.basis == SPACE
    else:
        for state in (ours, theirs):
            with pytest.raises(EmptyStateError):
                state.basis
    assert len(ours.terms) == len(theirs.terms) == len(coeffs)
    for got, want in zip(ours.terms, theirs.terms):
        assert bits(got.coeff) == bits(want.coeff)
        assert len(got.kets) == len(want.kets) == n
        for g, w in zip(got.kets, want.kets):
            assert g.basis == w.basis and bits(g.amps) == bits(w.amps)
            assert not g.amps.flags.writeable
    (c, a), (want_c, want_a) = ours._stack, theirs._stack
    assert bits(c) == bits(want_c)
    assert a.flags.c_contiguous and not a.flags.writeable and not c.flags.writeable
    if n:  # a zero-particle stack built from no kets has no frame and no dimension
        assert a.shape == want_a.shape and bits(a) == bits(want_a)
    # the kernels read the stacks: same numbers from either state, with
    # itself, with the other kind and with an independent partner
    partner = ParticleState(
        statistics, SPACE, np.array([0.2, 1.0j]), np.roll(np.resize(amps, (2,) + amps.shape[1:]), 1)
    )
    assert bits(inner(ours, ours)) == bits(inner(theirs, theirs))
    assert bits(inner(ours, theirs)) == bits(inner(theirs, theirs))
    assert bits(inner(ours, partner)) == bits(inner(theirs, partner))
    assert bits(inner(partner, ours)) == bits(inner(partner, theirs))
    occ = OccupationBasis(SPACE, n, statistics)
    assert bits(coords(ours, occ)) == bits(coords(theirs, occ))
    assert bits(symmetrize_state(ours)) == bits(symmetrize_state(theirs))


def _basis_cases():
    rng = np.random.default_rng(21)
    u = random_unitary(rng, SPACE.dim)
    eye = np.eye(SPACE.dim)
    return [
        ("full random", u.T.copy()),
        # an F-ordered view: the stack must still be stored C-contiguous
        ("partial random, F-ordered", u[:, :4].T),
        ("one row", u[:, 2:3].T),
        ("localized rows", eye[[2, 3]]),
        ("delocalized pair rows", delocalized_pair(SPACE, "A", "C").amps),
        ("full canonical", eye),
    ]


BASIS_CASES = _basis_cases()


@pytest.mark.parametrize("name, amps", BASIS_CASES, ids=[c[0] for c in BASIS_CASES])
def test_bases_from_a_stack_equal_the_bases_from_ket_rows_bit_for_bit(name, amps):
    ours = MeasurementBasis(SPACE, amps)
    theirs = per_object_basis(SPACE, amps)
    assert ours.space == theirs.space == SPACE
    assert ours.amps.flags.c_contiguous and not ours.amps.flags.writeable
    assert bits(ours.amps) == bits(theirs.amps)
    assert len(ours.kets) == len(theirs.kets) == len(amps)
    for g, w in zip(ours.kets, theirs.kets):
        assert g.basis == w.basis and bits(g.amps) == bits(w.amps)
    (support, conj), (want_support, want_conj) = ours._support, theirs._support
    assert support == want_support
    assert (conj is None) == (want_conj is None) == (len(support) == SPACE.dim)
    if conj is not None:
        assert bits(conj) == bits(want_conj) and conj.flags.c_contiguous
    assert _stage_key(ours) == _stage_key(theirs)
    assert _stage_key(SlotTrace(1, ours)) == _stage_key(SlotTrace(1, theirs))
    # one lowering on each route: the ladder gather and the labeled contraction
    rng = np.random.default_rng(22)
    for statistics in (B, F):
        phi = random_state(rng, SPACE, 3, statistics)
        occ = OccupationBasis(SPACE, 3, statistics)
        factor = coords(phi, occ)[:, None]
        assert bits(annihilate(ours, factor, occ)) == bits(annihilate(theirs, factor, occ))
        labeled = symmetrize_state(phi)[:, None]
        assert bits(_contract_slot(labeled, ours, 1)) == bits(_contract_slot(labeled, theirs, 1))


def refusal(build):
    with pytest.raises(Exception) as info:
        build()
    return info.type, str(info.value)


def scenario_payload(statistics, terms):
    """A scenario file's object whose state holds ``terms``, ``(coeff,
    kets)`` pairs with each ket written as a list of ``[mode, spin, re,
    im]`` components, and one plan that a state of any particle number fits."""
    raw = json.loads((_BUILTIN_DIR / "separated.json").read_text(encoding="utf-8"))
    raw["statistics"] = statistics.value
    raw["state"] = [{"coeff": [c.real, c.imag], "kets": kets} for c, kets in terms]
    raw["plans"] = [{"label": "A", "one": raw["plans"][0]["one"][:1]}]
    raw["expectations"] = []
    return raw


def _state_refusals():
    """``(name, build, exception type, message)``: ``build(statistics)``
    makes a malformed state through the constructor, ``elementary`` or
    ``parse_scenario``, or makes a malformed term list into a
    ``LabeledState``, which stacks terms as they do. Each must meet the
    refusal written here, word for word."""
    rng = np.random.default_rng(23)
    coeffs, amps = np.array([1.0, 0.5j]), unit_rows(rng, (2, 3, SPACE.dim))
    kets = tuple(Ket(SPACE, r) for r in amps[0])
    other_frame = CanonicalBasis(("A", "B", "D"))
    coefficient = (ValueError, "coefficient must be finite")
    no_terms = (ValueError, "state needs at least one term")
    cases = []
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        a = amps.copy()
        a[1, 2, 4] = bad
        cases.append((f"amplitude {bad}", lambda st, a=a: ParticleState(st, SPACE, coeffs, a),
                      ValueError, "amplitudes must be finite"))
        c = coeffs.copy()
        c[1] = bad
        cases.append((f"coefficient {bad}", lambda st, c=c: ParticleState(st, SPACE, c, amps),
                      *coefficient))
        cases.append((f"elementary coefficient {bad}",
                      lambda st, bad=bad: elementary(st, kets, bad), *coefficient))
    big, small = unit_rows(rng, (2, 3, SPACE.dim + 2)), amps[..., :-1]
    cases += [
        ("a dimension too large", lambda st: ParticleState(st, SPACE, coeffs, big),
         BasisMismatchError, "amplitude vector has shape (8,), basis dim is 6"),
        ("a dimension too small", lambda st: ParticleState(st, SPACE, coeffs, small),
         BasisMismatchError, "amplitude vector has shape (5,), basis dim is 6"),
        ("no terms", lambda st: ParticleState(st, SPACE, coeffs[:0], amps[:0]), *no_terms),
        ("empty lists", lambda st: ParticleState(st, SPACE, [], []), *no_terms),
        ("kets without a term axis",
         lambda st: ParticleState(st, SPACE, [1.0], np.zeros((1, SPACE.dim))),
         BasisMismatchError, "amplitude vector has shape (), basis dim is 6"),
        ("an axis too many",
         lambda st: ParticleState(st, SPACE, [1.0], np.zeros((1, 1, 2, SPACE.dim))),
         BasisMismatchError, "amplitude vector has shape (2, 6), basis dim is 6"),
        ("more coefficients than terms",
         lambda st: ParticleState(st, SPACE, [1.0, 1.0], np.zeros((1, 2, SPACE.dim))),
         ValueError, "coefficients (2,) do not fit amplitudes (1, 2, 6)"),
        ("a coefficient matrix",
         lambda st: ParticleState(st, SPACE, [[1.0]], np.zeros((1, 2, SPACE.dim))),
         ValueError, "coefficients (1, 1) do not fit amplitudes (1, 2, 6)"),
        ("elementary kets of two frames",
         lambda st: elementary(st, kets[:2] + (Ket(other_frame, amps[1, 0]),)),
         IncompatibleStatesError, "all kets of a term must share one basis"),
    ]
    # term lists that no stack can hold: ket counts or frames that differ
    one_up = [["A", "up", 1.0, 0.0]]
    uneven = [(1.0 + 0j, [one_up, [["B", "up", 1.0, 0.0]]]), (0.5j, [one_up] * 3)]
    cases.append(("scenario terms of different ket counts",
                  lambda st: parse_scenario(scenario_payload(st, uneven)),
                  ScenarioError, "scenario.state: terms mix particle numbers [2, 3]"))
    first = (1.0, kets)
    labeled = [
        ("no terms", (), *no_terms),
        ("a coefficient nan", ((np.nan, kets),), *coefficient),
        ("different ket counts", (first, (0.5j, kets[:2])),
         IncompatibleStatesError, "terms mix particle numbers [2, 3]"),
        ("a term over another frame",
         (first, (0.5j, tuple(Ket(other_frame, r) for r in amps[1]))),
         IncompatibleStatesError, "kets live in different bases"),
    ]
    for name, terms, kind, message in labeled:
        cases.append((f"labeled {name}", lambda st, terms=terms: LabeledState(terms),
                      kind, message))
    return cases


STATE_REFUSALS = _state_refusals()


@pytest.mark.parametrize("statistics", [B, F], ids=["boson", "fermion"])
@pytest.mark.parametrize("name, build, kind, message", STATE_REFUSALS,
                         ids=[c[0] for c in STATE_REFUSALS])
def test_malformed_stacks_and_term_lists_are_refused_with_the_stated_errors(
    statistics, name, build, kind, message
):
    assert refusal(lambda: build(statistics)) == (kind, message)


def old_term_stack(terms):
    """The stack that the term-taking ``ParticleState`` constructor of
    earlier versions built from ``(coeff, kets)`` terms: each coefficient as
    a Python complex and the kets' rows as one array, reshaped to ``(T, N,
    dim)``, or ``(T, 0, 0)`` for terms without kets. The reference for
    ``elementary`` and the parser."""
    coeffs = np.array([complex(c) for c, _ in terms], dtype=complex)
    amps = np.array([[k.amps for k in kets] for _, kets in terms], dtype=complex)
    n = len(terms[0][1])
    return coeffs, amps.reshape(len(terms), n, terms[0][1][0].basis.dim if n else 0)


def assert_same_stack(state, coeffs, amps):
    c, a = state._stack
    assert c.shape == coeffs.shape and bits(c) == bits(coeffs)
    assert a.shape == amps.shape and bits(a) == bits(amps)
    assert a.flags.c_contiguous and not a.flags.writeable and not c.flags.writeable


@pytest.mark.parametrize("statistics", [B, F], ids=["boson", "fermion"])
def test_a_state_rebuilt_from_its_stack_is_bit_identical(statistics):
    rng = np.random.default_rng(27)
    states = [random_state(rng, SPACE, n, statistics, n_terms)
              for n in range(5) for n_terms in (1, 2, 3)]
    # the zero-particle states without a frame and with one
    vacuum = elementary(statistics, (), 0.8j)
    states += [vacuum, project_single(SPACE.ket("A", Spin.UP), states[3])]
    for s in states:
        again = ParticleState(s.statistics, s._space, *s._stack)
        assert again.statistics is s.statistics and again.n == s.n and again._space == s._space
        assert_same_stack(again, *s._stack)
    # a stack over no frame holds no kets
    assert vacuum._space is None and vacuum._stack[1].shape == (1, 0, 0)
    assert refusal(lambda: ParticleState(statistics, None, [1.0], np.zeros((1, 2, 6)))) == (
        BasisMismatchError, "amplitude vector has shape (6,), basis dim is 0"
    )


@pytest.mark.parametrize("statistics", [B, F], ids=["boson", "fermion"])
def test_elementary_and_the_parser_stack_terms_as_the_term_constructor_did(statistics):
    rng = np.random.default_rng(28)
    entries = [(m, s) for m in SPACE.mode_names for s in ("up", "down")]
    for n in range(5):
        for n_terms in (1, 2, 3):
            written = [  # each ket as a scenario file writes it
                (complex(*rng.normal(size=2).tolist()),
                 [[[m, s, *rng.normal(size=2).tolist()] for m, s in entries] for _ in range(n)])
                for _ in range(n_terms)
            ]
            terms = [
                (c, tuple(SPACE.superposition((m, Spin(s), complex(re, im)) for m, s, re, im in ket)
                          for ket in kets))
                for c, kets in written
            ]
            one = elementary(statistics, terms[0][1], terms[0][0])
            assert one._space == (SPACE if n else None)
            assert_same_stack(one, *old_term_stack(terms[:1]))
            if n:  # the parser refuses a term without kets
                parsed = parse_scenario(scenario_payload(statistics, written)).state
                want = normalize(ParticleState(statistics, SPACE, *old_term_stack(terms)))
                assert_same_stack(parsed, *want._stack)


def _bad_basis_stacks():
    """``(name, stack, exception type, message)``: each stack and the
    refusal it must meet, word for word."""
    u = random_unitary(np.random.default_rng(24), SPACE.dim)
    rows = u.T.copy()
    cases = []
    for bad in (np.nan, np.inf, complex(np.nan, 1.0)):
        a = rows[:3].copy()
        a[2, 0] = bad
        cases.append((f"amplitude {bad}", a, ValueError, "amplitudes must be finite"))
    cases.append(("a dimension too large", np.eye(SPACE.dim + 2)[:3],
                  BasisMismatchError, "amplitude vector has shape (8,), basis dim is 6"))
    cases.append(("a dimension too small", rows[:2, :-1],
                  BasisMismatchError, "amplitude vector has shape (5,), basis dim is 6"))
    cases.append(("one row without a row axis", np.eye(SPACE.dim)[0],
                  BasisMismatchError, "amplitude vector has shape (), basis dim is 6"))
    empty = (ValueError, "measurement basis needs at least one ket")
    cases.append(("no rows", rows[:0], *empty))
    cases.append(("an empty list", [], *empty))
    cases.append(("more rows than dim", np.vstack([rows, rows[:1]]),
                  ValueError, "more kets than the space dimension"))
    scaled = rows[:4].copy()
    scaled[2] *= 1.0 + 1e-6
    cases.append(("an unnormalized row", scaled,
                  ValueError, "measurement ket 2 is not normalized (deviation 2e-06)"))
    leaning = rows[:4].copy()
    leaning[3] = (rows[3] + 1e-6 * rows[1]) / math.sqrt(1 + 1e-12)
    cases.append(("a non-orthogonal pair", leaning,
                  ValueError, "measurement kets 1 and 3 are not orthonormal (deviation 1e-06)"))
    return cases


BAD_BASIS_STACKS = _bad_basis_stacks()


@pytest.mark.parametrize("name, amps, kind, message", BAD_BASIS_STACKS,
                         ids=[c[0] for c in BAD_BASIS_STACKS])
def test_basis_stacks_are_refused_with_the_stated_errors(name, amps, kind, message):
    assert refusal(lambda: MeasurementBasis(SPACE, amps)) == (kind, message)


def test_a_state_and_a_basis_keep_a_copy_of_their_input():
    coeffs, amps = np.array([1.0 + 0j]), np.eye(SPACE.dim, dtype=complex)[None, :2]
    phi = ParticleState(B, SPACE, coeffs, amps)
    mb = MeasurementBasis(SPACE, amps[0])
    amps[0, 0, 0] = coeffs[0] = 5.0
    assert phi._stack[0][0] == 1.0 and phi.terms[0].kets[0].amps[0] == 1.0
    assert mb.amps[0, 0] == 1.0 and amps.flags.writeable


@pytest.fixture
def built_kets(monkeypatch):
    """Every ``Ket`` constructed while the test runs."""
    built = []
    init = Ket.__init__

    def counting(self, basis, amps):
        init(self, basis, amps)
        built.append(self)

    monkeypatch.setattr(Ket, "__init__", counting)
    return built


def test_a_verify_shaped_round_builds_no_ket(built_kets):
    """The oracle cross-checks as ``idqsim verify`` and the benchmark's
    ``verify`` workload make them: random states and a random basis, the
    label-free and labeled traces, and both inner products. Each reads the
    amplitude stacks; terms and kets stay unbuilt."""
    states = []
    for k in range(8):
        rng = np.random.default_rng([k])
        statistics, n = (B if k % 2 == 0 else F), 2 + (k // 2) % 2
        phi = random_state(rng, SPACE, n, statistics)
        other = random_state(rng, SPACE, n, statistics)
        size = None if k < 4 else int(rng.integers(1, SPACE.dim))
        stages = (random_measurement_basis(rng, SPACE, size),)
        ours = partial_trace_iterate(phi, stages)
        ref = oracle_trace_iterate(phi, stages)
        assert np.abs(ours.mat - ref.mat).max() < 1e-12 * ours.basis.size
        lhs, rhs = math.factorial(n) * inner(phi, other), oracle_inner(phi, other)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        states.append(phi)
    assert len(built_kets) == 0
    # the counter does see kets, once something reads the terms
    for phi in states:
        assert len(phi.terms) == 2
    assert len(built_kets) == sum(2 * phi.n for phi in states)


@pytest.fixture
def built_terms(monkeypatch):
    """Every ``ElementaryState`` constructed while the test runs."""
    built = []
    init = ElementaryState.__init__

    def counting(self, coeff, kets):
        init(self, coeff, kets)
        built.append(self)

    monkeypatch.setattr(ElementaryState, "__init__", counting)
    return built


@pytest.mark.parametrize("statistics", [B, F], ids=["boson", "fermion"])
def test_the_algebra_on_stacks_builds_no_ket_and_no_term(statistics, built_kets, built_terms):
    """``normalize``, ``+``, ``-``, scaling and ``project_single`` read and
    write stacks; the results agree with the per-object states'."""
    rng = np.random.default_rng(25)
    meas = Ket(SPACE, unit_rows(rng, (SPACE.dim,)))
    built_kets.clear()
    coeffs, amps = np.array([1.0, 0.5j, -0.3]), unit_rows(rng, (3, 3, SPACE.dim))
    phi = ParticleState(statistics, SPACE, coeffs, amps)
    other = ParticleState(statistics, SPACE, coeffs[::-1], amps[::-1])
    unit = normalize(phi)
    results = [unit, phi + other, phi - other, 2.0 * phi, -phi, project_single(meas, unit)]
    results.append(project_single(meas, results[-1]))
    assert abs(inner(unit, unit) - 1.0) < 1e-12
    assert built_kets == [] and built_terms == []
    # the same states, built and combined term by term
    theirs = per_object_state(statistics, SPACE, coeffs, amps)
    them = per_object_state(statistics, SPACE, coeffs[::-1], amps[::-1])
    once = project_single(meas, normalize(theirs))
    wants = [normalize(theirs), theirs + them, theirs - them, 2.0 * theirs, -theirs, once,
             project_single(meas, once)]
    for got, want in zip(results, wants):
        assert got.n == want.n and states_close(got, want, 1e-12)


def test_bases_compare_and_hash_by_value(built_kets):
    """A basis is its space and its stack: equal stacks over equal spaces are
    equal bases, with equal hashes, however they were built. Signed zeros
    are merged, as ``project_single`` merges them; ``==``, ``hash`` and
    ``repr`` build no ``Ket``."""
    def same(a, b):
        return a == b and not a != b and hash(a) == hash(b)

    loc_a, loc_a2, loc_b = (MeasurementBasis.localized(SPACE, m) for m in "AAB")
    amps = random_unitary(np.random.default_rng(24), SPACE.dim)[:3]
    theirs = per_object_basis(SPACE, amps)
    eye = np.eye(SPACE.dim, dtype=complex)[:2]
    signed = eye.copy()
    signed[eye == 0] = complex(-0.0, -0.0)
    built = len(built_kets)
    ours = MeasurementBasis(SPACE, amps)
    twin = MeasurementBasis(CanonicalBasis(("A", "B", "C")), amps.copy())
    plus = MeasurementBasis(SPACE, eye)
    minus = MeasurementBasis(SPACE, signed)
    others = (  # unequal kets: another phase, order, subset or space
        MeasurementBasis(SPACE, amps * 1j),
        MeasurementBasis(SPACE, amps[::-1]),
        MeasurementBasis(SPACE, amps[:2]),
        MeasurementBasis(CanonicalBasis(("A", "B", "D")), amps),
    )
    assert same(loc_a, loc_a2) and loc_a != loc_b
    assert same(ours, theirs) and same(ours, twin)
    for other in others:
        assert ours != other and not ours == other
    # -0.0 against 0.0, in the real and the imaginary parts
    assert bits(plus.amps) != bits(minus.amps) and same(plus, minus) and same(plus, loc_a)
    # slot traces compare by slot and basis
    assert same(SlotTrace(1, ours), SlotTrace(1, theirs))
    assert SlotTrace(1, ours) != SlotTrace(2, ours) and SlotTrace(1, ours) != SlotTrace(1, plus)
    assert len({SlotTrace(0, plus), SlotTrace(0, minus), SlotTrace(0, theirs)}) == 2
    text = repr(SlotTrace(1, ours))
    assert text.startswith("SlotTrace(slot=1, basis=MeasurementBasis(space=CanonicalBasis(")
    assert "amps=array(" in text and "|" not in text
    # the whole text of a small basis: its fields, as Frozen prints them
    assert repr(MeasurementBasis(CanonicalBasis(("A",)), [[1, 0], [0, 1j]])) == (
        "MeasurementBasis(space=CanonicalBasis(modes=('A',)), amps=array([[1.+0.j, 0.+0.j],\n"
        "       [0.+0.j, 0.+1.j]]))"
    )
    assert len(built_kets) == built
    assert all("kets" not in vars(b) for b in (ours, twin, plus, minus) + others)
