"""The seeded property-check battery and its sensitivity to planted bugs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import idqsim.entanglement
import idqsim.reduction
import idqsim.scenarios
import idqsim.states
import idqsim.verification
from idqsim.errors import ZeroProbabilityError
from idqsim.hilbert import CanonicalBasis, Ket
from idqsim.states import ElementaryState, Statistics, inner, normalize
from idqsim.verification import (
    PROPERTY_NAMES,
    _unit_rows,
    random_ket,
    random_measurement_basis,
    random_product_labeled,
    random_state,
    run_all,
)

from test_states import from_terms

ROOT = Path(__file__).resolve().parents[1]


def test_all_properties_pass_on_default_seed():
    results = run_all(0)
    assert len(results) == len(PROPERTY_NAMES) == 19
    bad = [r.name for r in results if not r.passed]
    assert not bad, bad


def test_property_names_are_unique_and_ordered():
    assert len(set(PROPERTY_NAMES)) == len(PROPERTY_NAMES)
    results = run_all(3)
    assert tuple(r.name for r in results) == PROPERTY_NAMES
    assert all(r.passed for r in results)


def test_same_seed_gives_identical_details():
    a = run_all(11)
    b = run_all(11)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]


def test_sign_bug_in_fermionic_removal_is_caught(monkeypatch):
    # plant the classic bug: drop the exchange sign when a fermion is
    # removed from deep inside a product
    monkeypatch.setattr(
        idqsim.states, "_removal_phase", lambda statistics, i: 1
    )
    results = run_all(0)
    failed = {r.name for r in results if not r.passed}
    assert "oracle-trace-agreement" in failed
    # the battery must report, never raise
    assert len(results) == 19


@pytest.mark.parametrize("seed", range(4))
def test_sign_bug_in_fermionic_removal_fails_the_complete_basis_probability(monkeypatch, seed):
    # the unsigned removal inflates the projected norms: a total above 1 must
    # be refused, since clamping it to 1 hides the fault at seeds 1-3
    monkeypatch.setattr(
        idqsim.states, "_removal_phase", lambda statistics, i: 1
    )
    failed = {r.name: r for r in run_all(seed)}["probability-complete-basis"]
    assert not failed.passed
    assert "outside [0, 1]" in failed.detail


def test_entropy_bug_in_the_density_matrix_is_caught(monkeypatch):
    # plant an entropy in nats: the entropy properties read it off a
    # DensityMatrix, as every reduction does
    finish = idqsim.reduction.DensityMatrix.__post_init__

    def in_nats(self):
        finish(self)
        self._set("entropy", self.entropy * math.log(2.0))

    monkeypatch.setattr(idqsim.reduction.DensityMatrix, "__post_init__", in_nats)
    results = {r.name: r for r in run_all(0)}
    failed = results["entropy-unitary-invariance"]
    assert not failed.passed
    assert "entropy moved under conjugation" in failed.detail


def test_sign_bug_on_the_sparse_support_gather_is_caught(monkeypatch):
    # drop the fermionic exchange sign only where a stage gathers a sparse
    # support: the Haar bases of the earlier draws never take that path
    support_ladder = idqsim.reduction._support_ladder

    def unsigned(dim, sector, statistics, support):
        up, g = support_ladder(dim, sector, statistics, support)
        return (up, g) if len(support) == dim else (up, np.abs(g))

    monkeypatch.setattr(idqsim.reduction, "_support_ladder", unsigned)
    results = {r.name: r for r in run_all(0)}
    failed = results["oracle-trace-agreement"]
    assert not failed.passed
    assert "labeled and label-free traces differ" in failed.detail


def _raise_value_error(*args, **kwargs):
    raise ValueError("planted failure")


@pytest.mark.parametrize(
    "route, properties",
    [
        ("distinguishable_trace_iterate", {"distinguishable-product-purity"}),
        ("partial_trace_iterate", {"oracle-trace-agreement", "density-matrix-contracts"}),
        ("oracle_trace_iterate", {"oracle-trace-agreement"}),
    ],
)
def test_a_route_that_raises_fails_its_property_instead_of_skipping(
    monkeypatch, route, properties
):
    # only a measurement that never fires is a legitimate skip
    monkeypatch.setattr(idqsim.verification, route, _raise_value_error)
    results = {r.name: r for r in run_all(0)}
    for name in properties:
        assert not results[name].passed, name
        assert "ValueError: planted failure" in results[name].detail


def test_too_many_skipped_draws_fail_the_property(monkeypatch):
    def never_fires(*args, **kwargs):
        raise ZeroProbabilityError("planted zero probability")

    monkeypatch.setattr(idqsim.verification, "distinguishable_trace_iterate", never_fires)
    results = {r.name: r for r in run_all(0)}
    failed = results["distinguishable-product-purity"]
    assert not failed.passed
    assert "only 0 comparable draws" in failed.detail


def test_random_state_refuses_an_empty_sector_at_once():
    # 12 fermions over 10 single-particle states: every draw is null. Run in a
    # child process with a time limit, so a retry loop that never ends fails
    # the test instead of hanging the suite.
    code = (
        "import numpy as np\n"
        "from idqsim.hilbert import CanonicalBasis\n"
        "from idqsim.states import Statistics\n"
        "from idqsim.verification import random_state\n"
        "random_state(np.random.default_rng(0), CanonicalBasis(tuple('ABCDE')), 12,"
        " Statistics.FERMION)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "ValueError: no state of 12 fermions over 10 single-particle states" in proc.stderr


def test_random_state_refuses_no_terms_before_drawing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="n_terms"):
        random_state(rng, CanonicalBasis(("A", "B")), 2, Statistics.BOSON, n_terms=0)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("size", [0, 7])
def test_random_measurement_basis_refuses_a_size_outside_the_space(size):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="size"):
        random_measurement_basis(rng, CanonicalBasis(("A", "B", "C")), size)
    assert rng.bit_generator.state == before


def test_random_state_gives_up_after_a_bounded_number_of_null_draws(monkeypatch):
    monkeypatch.setattr(idqsim.verification, "overlaps", lambda *args: np.zeros((1, 1)))
    rng = np.random.default_rng(0)
    with pytest.raises(ArithmeticError, match="100 draws of 2 bosons"):
        random_state(rng, CanonicalBasis(("A", "B")), 2, Statistics.BOSON)


# --- the block draws against the per-ket loop they replaced -----------------


def _per_ket_amps(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _per_ket_state(rng, space, n, statistics, n_terms):
    """``random_state`` as a loop over kets: one ``random_ket`` at a time, the
    norm from ``inner`` and once more inside ``normalize``."""
    for _ in range(100):
        terms = []
        for _ in range(n_terms):
            kets = tuple(Ket(space, _per_ket_amps(rng, space.dim)) for _ in range(n))
            terms.append(ElementaryState(complex(rng.normal(), rng.normal()), kets))
        psi = from_terms(statistics, terms)
        if inner(psi, psi).real > 1e-6:
            return normalize(psi)
    raise ArithmeticError("null draws")


def _same_stream_after(a, b):
    return a.bit_generator.state == b.bit_generator.state and a.normal() == b.normal()


@pytest.mark.parametrize("statistics", list(Statistics))
def test_random_state_draws_what_the_per_ket_loop_draws(statistics):
    for modes in range(1, 7):  # dim 2-12
        space = CanonicalBasis(tuple("ABCDEF"[:modes]))
        for n in range(5):
            if statistics is Statistics.FERMION and n > space.dim:
                continue
            for n_terms in (1, 2, 3):
                for seed in range(3):
                    key = [seed, modes, n, n_terms]
                    ours, theirs = np.random.default_rng(key), np.random.default_rng(key)
                    got = random_state(ours, space, n, statistics, n_terms)
                    want = _per_ket_state(theirs, space, n, statistics, n_terms)
                    assert got.statistics is want.statistics
                    assert len(got.terms) == len(want.terms) == n_terms
                    for g, w in zip(got.terms, want.terms):
                        assert np.array_equal(g.coeff, w.coeff), key
                        assert len(g.kets) == len(w.kets) == n
                        for gk, wk in zip(g.kets, w.kets):
                            assert np.array_equal(gk.amps, wk.amps), key
                    assert _same_stream_after(ours, theirs), key


def test_random_kets_are_those_of_the_per_ket_draw():
    for dim in range(2, 13, 2):
        space = CanonicalBasis(tuple("ABCDEF"[: dim // 2]))
        for seed in range(20):
            ours, theirs = np.random.default_rng([seed, dim]), np.random.default_rng([seed, dim])
            assert np.array_equal(random_ket(ours, space).amps, _per_ket_amps(theirs, dim))
            assert _same_stream_after(ours, theirs)
            if dim > 8:
                continue  # labeled states are capped at dimension 8
            got = random_product_labeled(ours, space, 3)
            want = [_per_ket_amps(theirs, dim) for _ in range(3)]
            for gk, wk in zip(got.terms[0][1], want):
                assert np.array_equal(gk.amps, wk)
            assert _same_stream_after(ours, theirs)


def test_stacked_row_norms_round_as_linalg_norm_does():
    # np.linalg.norm sums re.re + im.im through dot on strided views;
    # norm(axis=-1) and einsum differ from it in the last bits
    rng = np.random.default_rng(5)
    for dim in range(2, 13):
        draws = rng.normal(size=(500, 4, 2, dim))  # 2,000 rows per dim
        units = _unit_rows(draws)
        v = draws[..., 0, :] + 1j * draws[..., 1, :]
        want = np.array([[row / np.linalg.norm(row) for row in term] for term in v])
        assert np.array_equal(units, want), dim


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_random_state_refuses_a_statistics_that_is_not_a_member_before_drawing(statistics):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(TypeError, match="statistics must be a Statistics member"):
        random_state(rng, CanonicalBasis(("A", "B", "C")), 2, statistics)
    assert rng.bit_generator.state == before


# the properties that draw their states of both statistics through random_state
STATE_DRAWING_PROPERTIES = (
    "oracle-inner-factorial",
    "oracle-trace-agreement",
    "projection-completeness",
    "probability-complete-basis",
    "probability-additivity",
    "trace-unitary-invariance",
    "density-matrix-contracts",
    "entropy-purity-consistency",
    "coords-isometry",
)


@pytest.mark.parametrize("name", STATE_DRAWING_PROPERTIES)
def test_each_cross_route_property_draws_four_particles_over_four_sites(monkeypatch, name):
    # the shapes that the wide sweep runs: 4 bosons and 4 fermions over
    # four sites (dim 8), beside N = 1-3 over three sites
    drawn = set()
    draw = idqsim.verification.random_state

    def recording(rng, space, n, statistics, *args, **kwargs):
        drawn.add((statistics, n, space.dim))
        return draw(rng, space, n, statistics, *args, **kwargs)

    monkeypatch.setattr(idqsim.verification, "random_state", recording)
    k = PROPERTY_NAMES.index(name)
    prop = dict(idqsim.verification._PROPERTIES)[name]
    prop(np.random.default_rng([0, k]))
    assert {(Statistics.BOSON, 4, 8), (Statistics.FERMION, 4, 8)} <= drawn, drawn
    assert any(dim == 6 for _, _, dim in drawn)


# the frame each random builder draws on, and the state's frame of a reduction
FRAME_OF = {
    "random_state": lambda args: args[1],
    "random_ket": lambda args: args[1],
    "random_product_labeled": lambda args: args[1],
    "random_measurement_basis": lambda args: args[1],
    "partial_trace_iterate": lambda args: args[0].basis,
}


def test_every_property_that_draws_reaches_dimension_eight(monkeypatch):
    # every property on the shape schedule: what it draws or traces reaches
    # the four-site frame (dim 8) as well as the three-site one (dim 6)
    seen = []
    for name, frame_of in FRAME_OF.items():
        original = getattr(idqsim.verification, name)

        def recording(*args, _original=original, _frame_of=frame_of, **kwargs):
            seen.append(_frame_of(args).dim)
            return _original(*args, **kwargs)

        monkeypatch.setattr(idqsim.verification, name, recording)
    dims = {}
    for k, (name, prop) in enumerate(idqsim.verification._PROPERTIES):
        seen.clear()
        prop(np.random.default_rng([0, k]))
        dims[name] = set(seen)
    drawless = {name for name, found in dims.items() if not found}
    assert drawless == {
        "permanent-consistency",  # random matrices
        "entropy-unitary-invariance",  # random spectra
        "entropy-concavity",
    }
    short = {name: found for name, found in dims.items() if found and found != {6, 8}}
    assert short == {"benchmark-reductions": {6}}, short  # the builtin files' three sites


def test_a_stage_key_of_the_frame_alone_fails_benchmark_reductions(monkeypatch):
    # every stage of a frame shares one memo key, so analyze hands a side the
    # walk of another stage; verify sees it only by running the builtins
    monkeypatch.setattr(idqsim.entanglement, "_stage_key", lambda stage: stage.space.mode_names)
    idqsim.scenarios._load_builtin.cache_clear()  # the shared specs re-key their plans
    try:
        results = {r.name: r for r in run_all(0)}
    finally:
        idqsim.scenarios._load_builtin.cache_clear()
    assert not results["benchmark-reductions"].passed
    assert [name for name, r in results.items() if not r.passed] == ["benchmark-reductions"]


def test_benchmark_reductions_compares_each_remainder_with_its_side_traced_alone(monkeypatch):
    # a remainder of analyze that the files' checks do not read: the
    # sequential trace of the same side must still match it entry by entry
    trace = idqsim.verification.partial_trace_iterate

    def shifted(state, stages):
        rho = trace(state, stages)
        return idqsim.reduction.DensityMatrix(rho.basis, rho.factor, rho.prob * (1 + 1e-9))

    monkeypatch.setattr(idqsim.verification, "partial_trace_iterate", shifted)
    result = dict((r.name, r) for r in run_all(0))["benchmark-reductions"]
    assert not result.passed
    assert "a remainder of analyze differs from its side traced alone by" in result.detail
