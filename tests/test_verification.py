"""The seeded property-check battery and its sensitivity to planted bugs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import idqsim.states
import idqsim.verification
from idqsim.errors import ZeroProbabilityError
from idqsim.hilbert import CanonicalBasis
from idqsim.states import Statistics
from idqsim.verification import PROPERTY_NAMES, random_state, run_all

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


def _raise_value_error(*args, **kwargs):
    raise ValueError("planted failure")


@pytest.mark.parametrize(
    "route, properties",
    [
        ("distinguishable_trace_iterate", {"distinguishable-product-purity"}),
        ("partial_trace_one", {"oracle-trace-agreement", "density-matrix-contracts"}),
        ("partial_trace_iterate", {"oracle-trace-agreement"}),
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


def test_random_state_gives_up_after_a_bounded_number_of_null_draws(monkeypatch):
    monkeypatch.setattr(idqsim.verification, "inner", lambda a, b: 0j)
    rng = np.random.default_rng(0)
    with pytest.raises(ArithmeticError, match="100 draws of 2 bosons"):
        random_state(rng, CanonicalBasis(("A", "B")), 2, Statistics.BOSON)
