"""Builtin scenarios, scenario files, and report rendering."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idqsim.cli as cli
from idqsim import (
    CanonicalBasis,
    Expectation,
    Ket,
    MeasurementBasis,
    ParticleState,
    ScenarioError,
    Statistics,
    builtin_names,
    delocalized_pair,
    entanglement,
    get_builtin,
    load_scenario,
    partial_trace_iterate,
    run_spec,
    scenarios,
    standard_space,
)
from idqsim.comparator import LabeledProductBasis
from idqsim.reduction import DensityMatrix, OccupationBasis
from idqsim.scenarios import parse_scenario
from idqsim.verification import random_state

RT2 = 1.0 / math.sqrt(2.0)
EIGS_OVERLAP = (2.0 / 3.0, 1.0 / 3.0)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILTINS = SRC / "idqsim" / "builtins"


def load_builtin_file(name: str):
    """A fresh spec of builtin ``name``, parsed anew from its shipped file."""
    return load_scenario(BUILTINS / f"{name}.json")


def test_builtin_names_are_stable():
    assert builtin_names() == (
        "separated",
        "induced",
        "ghz",
        "overlap",
        "distinguishable",
        "distinguishable-overlapped",
    )


def test_every_builtin_passes_its_own_expectations():
    for name in builtin_names():
        report = run_spec(get_builtin(name))
        failed = [c for c in report.checks if not c.passed]
        assert not failed, f"{name}: {[c.expectation.describe() for c in failed]}"


def test_unknown_builtin_is_a_scenario_error():
    with pytest.raises(ScenarioError):
        get_builtin("no-such-thing")


def test_unhashable_builtin_name_is_a_scenario_error_and_is_not_remembered():
    before = scenarios._load_builtin.cache_info()
    for name in (["x"], {"ghz": 1}, "no-such-thing"):
        with pytest.raises(ScenarioError, match=r"no builtin scenario .*; available: separated, "):
            get_builtin(name)
    assert scenarios._load_builtin.cache_info() == before


def test_delocalized_pair_rejects_equal_sites():
    with pytest.raises(ValueError, match="'B' and 'B'"):
        delocalized_pair(standard_space(), "B", "B")


def test_delocalized_pair_rejects_an_unknown_site():
    with pytest.raises(ValueError, match="'B' and 'Z'"):
        delocalized_pair(standard_space(), "B", "Z")


# --- shared builtin specs -------------------------------------------------------


def spec_stages(spec) -> list:
    return [st for p in spec.plans for _, side in p.sides() for st in side]


def spec_bases(spec) -> list:
    """The measurement basis of every stage of every plan, in plan order."""
    return [getattr(st, "basis", st) for st in spec_stages(spec)]  # a SlotTrace wraps its basis


def densities(run) -> list:
    return [
        rho
        for b in run.report.bipartitions
        for rho in (b.rho_one, b.rho_two)
        if rho is not None
    ]


def test_each_builtin_is_one_shared_spec():
    for name in builtin_names():
        assert get_builtin(name) is get_builtin(name), name


def test_a_repeat_get_builtin_builds_no_ket_or_basis(monkeypatch):
    for name in builtin_names():
        get_builtin(name)
    built = []
    for cls in (Ket, MeasurementBasis):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    for name in builtin_names():
        get_builtin(name)
    assert built == []
    load_builtin_file("induced")  # the counters do see a build
    assert {"Ket", "MeasurementBasis"} <= set(built)


def test_shared_specs_cannot_be_changed():
    for name in builtin_names():
        spec = get_builtin(name)
        state = spec.state
        identical = isinstance(state, ParticleState)
        bases = spec_bases(spec)
        records = [spec, state, *spec.plans, *spec.expectations, *spec_stages(spec), *bases]
        if identical:
            records += state.terms
        for r in records:
            for field in r._fields:
                with pytest.raises(AttributeError):
                    setattr(r, field, None)
        state_kets = [k for t in state.terms for k in (t.kets if identical else t[1])]
        for k in state_kets + [k for b in bases for k in b.kets]:
            assert not k.amps.flags.writeable
            with pytest.raises(ValueError):
                k.amps[0] = 1.0


def test_a_tolerance_override_leaves_the_shared_spec_as_it_was():
    for name in builtin_names():
        tight = run_spec(get_builtin(name), tolerance=1e-30)
        assert all(c.tolerance == 1e-30 for c in tight.checks), name
        fresh = run_spec(load_builtin_file(name))
        assert run_spec(get_builtin(name)).to_json() == fresh.to_json(), name


def test_repeated_runs_of_a_shared_spec_reuse_its_supports():
    for name in builtin_names():
        spec = get_builtin(name)
        bases = spec_bases(spec)
        first = run_spec(spec).to_json()
        supports = [vars(b).get("_support") for b in bases]
        if isinstance(spec.state, ParticleState):  # labeled traces never lower
            # equal-valued stages are one object, lowered on the first run
            assert all(s is not None for s in supports), name
        assert run_spec(spec).to_json() == first, name
        # a second run lowers nothing anew: no basis gains a support, and
        # every support found on the first run is the same object after it
        assert all(vars(b).get("_support") is s for b, s in zip(bases, supports)), name
        # a spec's first run finds the supports and reads the same
        fresh = load_builtin_file(name)
        assert all("_support" not in vars(b) for b in spec_bases(fresh)), name
        assert run_spec(fresh).to_json() == first, name


@pytest.mark.parametrize(
    "name, stages, distinct, lowered",
    [
        ("separated", 9, 3, 3),
        ("ghz", 9, 3, 3),
        ("overlap", 3, 1, 1),
        ("distinguishable", 11, 4, 0),  # labeled traces never lower
        ("distinguishable-overlapped", 9, 1, 0),
    ],
)
def test_equal_stages_of_one_file_share_one_basis(name, stages, distinct, lowered):
    spec = load_builtin_file(name)
    bases = spec_bases(spec)
    objects = list({id(b): b for b in bases}.values())
    assert len(bases) == stages
    assert len(objects) == len(set(bases)) == distinct  # one object per value
    run_spec(spec)
    assert sum("_support" in vars(b) for b in objects) == lowered


def test_equal_stages_of_different_files_stay_apart():
    # the parser shares a basis within one file only, so no spec holds
    # another's objects and no cache outlives a parse
    a, b = spec_bases(load_builtin_file("separated")), spec_bases(load_builtin_file("ghz"))
    assert set(a) & set(b)
    assert not {id(x) for x in a} & {id(x) for x in b}


def test_a_repeat_run_computes_no_stage_key(monkeypatch):
    keys = []
    stage_key = entanglement._stage_key

    def counting(stage):
        keys.append(stage)
        return stage_key(stage)

    monkeypatch.setattr(entanglement, "_stage_key", counting)
    for name in builtin_names():
        spec = get_builtin(name)
        first = run_spec(spec).to_json()
        keys.clear()
        assert run_spec(get_builtin(name)).to_json() == first, name
        assert keys == [], name
        # equal-valued plans built anew are keyed anew, to the same keys
        fresh = load_builtin_file(name)
        assert all(a is not b for a, b in zip(fresh.plans, spec.plans)), name
        assert run_spec(fresh).to_json() == first, name
        assert keys, name
        assert [p._paths for p in fresh.plans] == [p._paths for p in spec.plans], name


def test_a_check_on_a_missing_plan_reads_no_such_plan():
    spec = get_builtin("overlap")
    report = entanglement.analyze(spec.state, spec.plans)
    for e in (
        Expectation("entropy_two", 0.0, "absent"),
        Expectation("eigenvalues", (1.0,), "absent", "two"),
        Expectation("probability", 1.0, "absent", "one"),
    ):
        check = scenarios._evaluate(e, report, None)
        assert (check.actual, check.passed, check.note) == (None, False, "no such plan")
    with pytest.raises(KeyError):
        report["absent"]
    assert [report[p.label] for p in spec.plans] == list(report.bipartitions)
    # of equal labels, the first is found, as a scan in order finds it
    first, second = (entanglement.BipartitionReport("x", mixed) for mixed in (True, False))
    assert entanglement.EntanglementReport((first, second), None)["x"] is first


def test_a_check_on_a_side_its_plan_does_not_trace_is_refused_when_parsed(tmp_path):
    # induced's one plan traces only the two-particle side
    payload = json.loads((BUILTINS / "induced.json").read_text(encoding="utf-8"))
    payload["expectations"].append(
        {"quantity": "entropy_one", "label": "(BC)-delocalized", "value": 0.0}
    )
    path = tmp_path / "untraced.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError) as info:
        run_spec(load_scenario(path))
    assert str(info.value) == (
        "scenario.expectations[4]: plan '(BC)-delocalized' does not trace side 'one'"
    )
    # a spec built through the API still runs, and the check reads the note
    spec = get_builtin("induced")
    untraced = (
        Expectation("entropy_one", 0.0, "(BC)-delocalized"),
        Expectation("probability", 1.0, "(BC)-delocalized", "one"),
    )
    report = run_spec(scenarios.ScenarioSpec("api", "api", spec.state, spec.plans, untraced))
    assert [(c.actual, c.passed, c.note) for c in report.checks] == [
        (None, False, "side not traced")
    ] * 2


def test_eigenvalue_checks_pad_with_zeros_and_fail_on_nan():
    spec = get_builtin("overlap")
    report = entanglement.analyze(spec.state, spec.plans)
    label = spec.plans[0].label
    for value, passed in (
        (EIGS_OVERLAP, True),
        (EIGS_OVERLAP + (0.0, 0.0, 0.0, 0.0), True),  # longer than the spectrum
        (EIGS_OVERLAP[:1], False),  # the missing 1/3 is read as 0
        ((math.nan,) + EIGS_OVERLAP[1:], False),
        (EIGS_OVERLAP[:1] + (math.nan,), False),
    ):
        check = scenarios._evaluate(Expectation("eigenvalues", value, label, "two"), report, None)
        assert check.passed is passed, value
        assert check.actual == tuple(report[label].rho_two.spectrum.tolist())


def test_runs_of_a_shared_spec_return_new_results():
    for name in builtin_names():
        a, b = run_spec(get_builtin(name)), run_spec(get_builtin(name))
        assert a is not b and a.report is not b.report, name
        pairs = list(zip(densities(a), densities(b)))
        assert pairs and all(x is not y for x, y in pairs), name


def test_rounds_of_the_shared_specs_keep_memory_bounded():
    # one report of a builtin holds about 10 KB, so keeping the reports, or
    # a cache that grows per run, passes the slack within a few rounds;
    # working code grows about 28 KB over the 50 rounds, less each round
    slack = 128 * 1024
    tracemalloc.start()
    try:
        sizes = []
        for _ in range(50):
            for name in builtin_names():
                run_spec(get_builtin(name))
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(sizes) - sizes[0] <= slack, [s - sizes[0] for s in sizes[::10]]


def test_every_builtin_finishes_within_a_second():
    import time

    for name in builtin_names():
        start = time.perf_counter()
        run_spec(get_builtin(name))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


def test_builtin_expectations_carry_the_frozen_reference_values():
    # single source of truth: the numbers the whole suite is anchored to, as
    # the builtin scenario files state them, against their closed forms
    overlap = get_builtin("overlap")
    by_key = {
        (e.quantity, e.stage): e
        for e in overlap.expectations
        if e.quantity != "genuine_multipartite"
    }
    for side in ("one", "two"):
        entropy = by_key[(f"entropy_{side}", None)]
        assert entropy.value == math.log2(3.0) - 2.0 / 3.0
        assert entropy.tolerance == 1e-9
        eigs = by_key[("eigenvalues", side)]
        assert eigs.value == (2 / 3, 1 / 3)
        assert eigs.tolerance == 1e-10
        purity = by_key[(f"purity_{side}", None)]
        assert purity.value == 5 / 9
        assert purity.tolerance == 1e-10

    induced = get_builtin("induced")
    eig = [e for e in induced.expectations if e.quantity == "eigenvalues"][0]
    assert eig.value == (0.5, 0.5)
    assert eig.tolerance == 1e-10
    prob = [e for e in induced.expectations if e.quantity == "probability"][0]
    assert prob.value == 1 / 3
    assert prob.tolerance == 1e-10

    for name, flag in (("separated", False), ("ghz", True), ("overlap", True),
                       ("distinguishable", False)):
        flags = [
            e.value
            for e in get_builtin(name).expectations
            if e.quantity == "genuine_multipartite"
        ]
        assert flags == [flag]

    ghz = get_builtin("ghz")
    for e in ghz.expectations:
        if e.quantity in ("entropy_one", "entropy_two"):
            assert e.value == 1.0 and e.tolerance == 1e-9

    for name in ("separated", "distinguishable", "distinguishable-overlapped"):
        for e in get_builtin(name).expectations:
            if e.quantity.startswith("purity"):
                assert e.value == 1.0 and e.tolerance == 1e-10
            if e.quantity.startswith("entropy"):
                assert e.value == 0.0 and e.tolerance == 1e-9


def test_builtin_files_are_exactly_the_builtins():
    assert sorted(p.stem for p in BUILTINS.iterdir()) == sorted(builtin_names())
    for name in builtin_names():
        raw = json.loads((BUILTINS / f"{name}.json").read_text(encoding="utf-8"))
        assert raw["name"] == name


def test_each_builtin_file_runs_to_its_recorded_digest(capsys):
    refs = json.loads((ROOT / "perfbench" / "refs" / "paper.json").read_text())
    for name in builtin_names():
        path = BUILTINS / f"{name}.json"
        assert cli.main(["run", "--file", str(path), "--format", "machine"]) == 0, name
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == refs[name], name


LAZY_PROBE = """
import json, sys
opened = []
sys.addaudithook(
    lambda event, args: opened.append(str(args[0]))
    if event == "open" and str(args[0]).endswith(".json") else None
)
import idqsim
idqsim.builtin_names()
print(json.dumps(opened))
for name in idqsim.builtin_names():
    opened.clear()
    first = idqsim.get_builtin(name)
    assert idqsim.get_builtin(name) is first
    print(json.dumps(opened))
"""


def test_builtins_load_lazily_each_from_its_own_file_once():
    # in a fresh process: this one has loaded the builtins already
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[0] == []  # importing and listing the names reads no file
    for name, opened in zip(builtin_names(), lines[1:], strict=True):
        assert [Path(p).resolve() for p in opened] == [(BUILTINS / f"{name}.json").resolve()]


def induced_file_payload():
    return {
        "name": "induced-from-file",
        "title": "file twin of the induced builtin",
        "kind": "identical",
        "statistics": "boson",
        "modes": ["A", "B", "C"],
        "state": [
            {
                "coeff": [1.0, 0.0],
                "kets": [
                    [["A", "down", 1.0, 0.0]],
                    [["B", "down", 1.0, 0.0]],
                    [["C", "up", 1.0, 0.0]],
                ],
            }
        ],
        "plans": [
            {
                "label": "(BC)-delocalized",
                "bipartition": False,
                "two": [
                    [
                        [["B", "down", RT2, 0.0], ["C", "down", RT2, 0.0]],
                        [["B", "up", RT2, 0.0], ["C", "up", RT2, 0.0]],
                    ]
                ],
            }
        ],
        "expectations": [
            {
                "quantity": "probability",
                "label": "(BC)-delocalized",
                "stage": "two",
                "value": 1.0 / 3.0,
                "tolerance": 1e-10,
            },
            {
                "quantity": "entropy_two",
                "label": "(BC)-delocalized",
                "value": 1.0,
                "tolerance": 1e-9,
            },
            {
                "quantity": "eigenvalues",
                "label": "(BC)-delocalized",
                "stage": "two",
                "value": [0.5, 0.5],
                "tolerance": 1e-10,
            },
            {
                "quantity": "purity_two",
                "label": "(BC)-delocalized",
                "value": 0.5,
                "tolerance": 1e-10,
            },
        ],
    }


def test_file_scenario_reproduces_the_induced_builtin(tmp_path):
    path = tmp_path / "induced.json"
    path.write_text(json.dumps(induced_file_payload()))
    from_file = run_spec(load_scenario(path))
    assert from_file.passed
    builtin = run_spec(get_builtin("induced"))
    d_file = from_file.to_dict()
    d_builtin = builtin.to_dict()
    # identical physics output, field by field
    assert d_file["bipartitions"] == d_builtin["bipartitions"]
    assert d_file["genuine_multipartite"] == d_builtin["genuine_multipartite"]


def labeled_file_payload():
    return {
        "name": "labeled-pair-check",
        "kind": "distinguishable",
        "modes": ["A", "B", "C"],
        "state": [
            {
                "kets": [
                    [["A", "down", 1.0, 0.0]],
                    [["B", "down", 1.0, 0.0]],
                    [["C", "up", 1.0, 0.0]],
                ]
            }
        ],
        "plans": [
            {
                "label": "(12)-3",
                "two": [{"slot": 2, "kets": [[["C", "up", 1.0, 0.0]],
                                             [["C", "down", 1.0, 0.0]]]}],
            }
        ],
        "expectations": [
            {"quantity": "purity_two", "label": "(12)-3", "value": 1.0,
             "tolerance": 1e-10},
            {"quantity": "probability", "label": "(12)-3", "stage": "two",
             "value": 1.0, "tolerance": 1e-10},
        ],
    }


def test_distinguishable_file_round_trip(tmp_path):
    path = tmp_path / "labeled.json"
    path.write_text(json.dumps(labeled_file_payload()))
    report = run_spec(load_scenario(path))
    assert report.passed


def test_tolerance_override_only_tightens(tmp_path):
    payload = induced_file_payload()
    # deliberately off in the 4th decimal, hidden by a loose tolerance
    payload["expectations"] = [
        {
            "quantity": "probability",
            "label": "(BC)-delocalized",
            "stage": "two",
            "value": 0.3334,
            "tolerance": 1e-3,
        }
    ]
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(payload))
    assert run_spec(load_scenario(path)).passed
    assert not run_spec(load_scenario(path), tolerance=1e-6).passed
    # an override looser than the stated tolerance must not widen it
    spec = load_scenario(path)
    assert run_spec(spec, tolerance=1.0).checks[0].tolerance == 1e-3


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_a_tolerance_override_must_be_positive_and_finite(tolerance):
    # a NaN override kept every stated tolerance; a negative one failed every check
    with pytest.raises(ScenarioError, match="tolerance override must be a positive finite"):
        run_spec(get_builtin("induced"), tolerance=tolerance)
    with pytest.raises(ScenarioError, match="tolerance override"):
        run_spec(get_builtin("overlap"), tolerance=tolerance)


def test_bad_files_fail_with_field_paths(tmp_path):
    base = induced_file_payload()

    cases = []

    missing_name = dict(base)
    del missing_name["name"]
    cases.append((missing_name, "scenario.name"))

    bad_stats = dict(base, statistics="anyon")
    cases.append((bad_stats, "scenario.statistics"))

    bad_mode = json.loads(json.dumps(base))
    bad_mode["state"][0]["kets"][0] = [["Z", "down", 1.0, 0.0]]
    cases.append((bad_mode, "unknown mode"))

    bad_quantity = json.loads(json.dumps(base))
    bad_quantity["expectations"][0]["quantity"] = "negativity"
    cases.append((bad_quantity, "expectations[0]"))

    bad_label = json.loads(json.dumps(base))
    bad_label["expectations"][0]["label"] = "missing-plan"
    cases.append((bad_label, "no plan named"))

    nan_value = json.loads(json.dumps(base))
    nan_value["expectations"][0]["value"] = math.nan
    cases.append((nan_value, "expectations[0].value"))

    nan_eigenvalue = json.loads(json.dumps(base))
    nan_eigenvalue["expectations"][2]["value"] = [0.5, math.nan]
    cases.append((nan_eigenvalue, "expectations[2].value"))

    for tol in (math.nan, math.inf):
        bad_tol = json.loads(json.dumps(base))
        bad_tol["expectations"][0]["tolerance"] = tol
        cases.append((bad_tol, "expectations[0].tolerance"))

    too_many_stages = json.loads(json.dumps(base))
    too_many_stages["plans"][0]["two"] *= 4
    cases.append((too_many_stages, "plans[0].two: 4 stages"))

    # JSON integers have no size limit; one too large for a float is bad input
    huge = 10**400
    huge_coeff = json.loads(json.dumps(base))
    huge_coeff["state"][0]["coeff"] = [huge, 0]
    cases.append((huge_coeff, "state[0].coeff"))

    huge_amplitude = json.loads(json.dumps(base))
    huge_amplitude["state"][0]["kets"][0] = [["A", "down", huge, 0]]
    cases.append((huge_amplitude, "state[0].kets[0][0]: amplitude must be two finite"))

    huge_value = json.loads(json.dumps(base))
    huge_value["expectations"][0]["value"] = huge
    cases.append((huge_value, "expectations[0].value"))

    huge_tol = json.loads(json.dumps(base))
    huge_tol["expectations"][0]["tolerance"] = huge
    cases.append((huge_tol, "expectations[0].tolerance"))

    slot_twice = labeled_file_payload()
    loc_a = [[["A", "down", 1.0, 0.0]], [["A", "up", 1.0, 0.0]]]
    slot_twice["plans"][0]["one"] = [{"slot": 0, "kets": loc_a}] * 2
    cases.append((slot_twice, "plans[0].one[1].slot"))

    # labeled terms are stacked as identical-particle terms are, with their errors
    mixed_slots = labeled_file_payload()
    mixed_slots["state"].append({"kets": mixed_slots["state"][0]["kets"][:2]})
    cases.append((mixed_slots, "scenario.state: terms mix particle numbers"))

    # beyond the labeled size cap: six slots, and two slots over dimension 10
    six_slots = labeled_file_payload()
    six_slots["state"][0]["kets"] *= 2
    cases.append((six_slots, "scenario.state: labeled vectors are capped"))

    five_modes = labeled_file_payload()
    five_modes["modes"] = ["A", "B", "C", "D", "E"]
    five_modes["state"][0]["kets"] = five_modes["state"][0]["kets"][:2]
    cases.append((five_modes, "scenario.state: labeled vectors are capped"))

    for payload, fragment in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioError, match="(?i)" + fragment.replace("[", r"\[")):
            run_spec(load_scenario(path))


# each position the parser reads as a JSON object or as a nonempty list, with
# the field path its refusal names
OBJECT_POSITIONS = [
    (induced_file_payload, (), "scenario"),
    (induced_file_payload, ("state", 0), "scenario.state[0]"),
    (labeled_file_payload, ("plans", 0, "two", 0), "scenario.plans[0].two[0]"),
    (induced_file_payload, ("plans", 0), "scenario.plans[0]"),
    (induced_file_payload, ("expectations", 0), "scenario.expectations[0]"),
]
LIST_POSITIONS = [
    (induced_file_payload, ("modes",), "scenario.modes"),
    (induced_file_payload, ("state",), "scenario.state"),
    (induced_file_payload, ("state", 0, "kets"), "scenario.state[0].kets"),
    (induced_file_payload, ("state", 0, "kets", 0), "scenario.state[0].kets[0]"),
    (induced_file_payload, ("plans", 0, "two", 0), "scenario.plans[0].two[0]"),
    (induced_file_payload, ("plans",), "scenario.plans"),
    (induced_file_payload, ("plans", 0, "two"), "scenario.plans[0].two"),
]


@pytest.mark.parametrize(
    "payload, at, where, wrong",
    [(*pos, wrong) for pos in OBJECT_POSITIONS for wrong in ("x", 7, None, [], [{}])]
    + [(*pos, wrong) for pos in LIST_POSITIONS for wrong in ("x", 7, None, {}, [])],
)
def test_a_wrong_json_type_is_refused_with_its_field_path(payload, at, where, wrong):
    raw = payload()
    if at:
        parent = raw
        for key in at[:-1]:
            parent = parent[key]
        parent[at[-1]] = wrong
    else:
        raw = wrong
    with pytest.raises(ScenarioError) as info:
        parse_scenario(raw)
    assert str(info.value).startswith(f"{where}: expected "), str(info.value)


@pytest.mark.parametrize(
    "where, value, error",
    [
        # the squared norm overflows
        (("state", 0, "coeff"), [1e300, 1e300], "error: scenario.state"),
        (("state", 0, "kets", 0), [["A", "down", 1e308, 0], ["A", "down", 1e308, 0]],
         "error: scenario.state"),
        # a stage ket: the Gram matrix of the basis overflows
        (("plans", 0, "two", 0, 0), [["B", "down", 1e200, 0], ["C", "down", 1e200, 0]],
         "error: scenario.plans[0].two[0]: measurement ket 0 is not normalized"),
    ],
    ids=["state coefficient", "state ket", "stage ket"],
)
def test_huge_amplitudes_print_only_the_error_line(tmp_path, where, value, error):
    # in a fresh process: pytest would swallow numpy's RuntimeWarnings
    payload = induced_file_payload()
    target = payload
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "idqsim.cli", "run", "--file", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(error)
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize("huge", ["coeff", "kets"])
def test_huge_labeled_amplitudes_exit_2_with_only_the_error_line(tmp_path, huge):
    # coefficient: the squared norm overflows; kets: their product is inf * 0
    payload = labeled_file_payload()
    term = payload["state"][0]
    if huge == "coeff":
        term["coeff"] = [1e300, 1e300]
    else:
        term["kets"] = [[[mode, spin, 1e200, 0.0]] for [[mode, spin, _, _]] in term["kets"]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "idqsim.cli", "run", "--file", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error: scenario.state")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_non_orthonormal_basis_names_the_offending_pair(tmp_path):
    payload = induced_file_payload()
    payload["plans"][0]["two"] = [
        [
            [["B", "down", 1.0, 0.0]],
            [["B", "down", RT2, 0.0], ["C", "down", RT2, 0.0]],
        ]
    ]
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError, match="not orthonormal"):
        run_spec(load_scenario(path))


@pytest.mark.parametrize(
    "bad_ket",
    [
        [["B", "down", 1e-200, 0.0]],  # underflows to a zero ket
        [["C", "up", 1.0, 0.0], ["C", "up", -1.0, 0.0]],  # components cancel
        [["C", "up", 0.5, 0.0]],
    ],
    ids=["tiny", "cancelling", "short"],
)
def test_unnormalized_basis_ket_is_named_alone(tmp_path, bad_ket):
    payload = induced_file_payload()
    payload["plans"][0]["two"] = [[[["B", "down", 1.0, 0.0]], bad_ket]]
    path = tmp_path / "unnormalized.json"
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "idqsim.cli", "run", "--file", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(
        "error: scenario.plans[0].two[0]: measurement ket 1 is not normalized (deviation "
    ), proc.stderr


def test_fermionic_null_state_error_carries_the_scenario_name(tmp_path):
    payload = {
        "name": "pauli-trap",
        "kind": "identical",
        "statistics": "fermion",
        "modes": ["A", "B"],
        "state": [
            {
                "kets": [
                    [["A", "down", 1.0, 0.0]],
                    [["A", "down", 1.0, 0.0]],
                ]
            }
        ],
        "plans": [{"label": "p", "two": [[[["A", "down", 1.0, 0.0]]]]}],
    }
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError, match="pauli-trap"):
        run_spec(load_scenario(path))


@pytest.mark.parametrize("scale", [1e-5, 1e-20])
@pytest.mark.parametrize("name", ["overlap", "ghz", "separated", "distinguishable"])
def test_a_scaled_down_builtin_file_reproduces_its_builtin(tmp_path, name, scale):
    # the null floor is relative to the state's scale, for identical and
    # labeled particles alike: at 1e-5 both used to read "zero norm"
    payload = json.loads((BUILTINS / f"{name}.json").read_text(encoding="utf-8"))
    for term in payload["state"]:
        for ket in term["kets"]:
            for component in ket:
                component[2] *= scale
                component[3] *= scale
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    assert run_spec(load_scenario(path)).to_json() == run_spec(get_builtin(name)).to_json()


def test_missing_file_and_broken_json_are_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "nope.json")
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


def record_diagonalizations(monkeypatch) -> list:
    """Patch ``eigh`` and ``eigvalsh`` to record ``(name, size, limit)`` per
    call: which of the two ran, the order of the matrix diagonalized and,
    when the call comes from a
    ``DensityMatrix`` under construction, the smaller of its basis size and
    its factor's width (None outside any construction)."""
    calls, limits = [], []

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            calls.append((fn.__name__, np.shape(a)[-1], limits[-1] if limits else None))
            return fn(a, *args, **kwargs)

        return wrapper

    post_init = DensityMatrix.__post_init__

    def bounded_post_init(self):
        limits.append(min(self.basis.size, np.shape(self.factor)[1]))
        try:
            post_init(self)
        finally:
            limits.pop()

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    monkeypatch.setattr(DensityMatrix, "__post_init__", bounded_post_init)
    return calls


def test_each_density_matrix_is_diagonalized_at_most_once(monkeypatch):
    calls = record_diagonalizations(monkeypatch)
    for name in builtin_names():
        calls.clear()
        report = run_spec(get_builtin(name))
        report.to_json()
        report.to_table()
        matrices = [
            rho
            for b in report.report.bipartitions
            for rho in (b.rho_one, b.rho_two)
            if rho is not None
        ]
        assert matrices
        assert len(calls) <= len(matrices), name
        for solver, size, limit in calls:
            assert limit is not None and size <= limit, (name, size, limit)
            assert solver == "eigvalsh", name


def test_sweep_shaped_trace_diagonalizes_only_the_gram_matrix(monkeypatch):
    # four bosons over five sites, one localized stage: a rank-2 matrix over
    # a 220-entry sector, whose spectrum comes from a 2 x 2 Gram matrix
    space = CanonicalBasis(tuple("ABCDE"))
    phi = random_state(np.random.default_rng(31), space, 4, Statistics.BOSON, n_terms=1)
    calls = record_diagonalizations(monkeypatch)
    rho = partial_trace_iterate(phi, (MeasurementBasis.localized(space, "C"),))
    assert rho.basis.size == 220
    assert calls == [("eigvalsh", 2, 2)]  # no eigh
    assert np.count_nonzero(rho.spectrum) <= 2


def test_machine_dict_is_rounded_and_ascii_safe():
    report = run_spec(get_builtin("overlap"))
    d = report.to_dict()
    assert d["status"] == "pass"
    assert d["genuine_multipartite"] is True
    side = d["bipartitions"][0]["two"]
    assert side["eigenvalues"][0] == 0.666666666667
    assert side["eigenvalues"][1] == 0.333333333333
    # matrices are [re, im] pairs, row-major, labeled
    assert side["matrix"][0][0] == [0.0, 0.0] or isinstance(side["matrix"][0][0], list)
    assert len(side["matrix"]) == len(side["basis"])
    blob = report.to_json()
    assert blob == report.to_json()  # deterministic
    assert blob.encode("ascii")  # ensure_ascii output
    assert "-0.0" not in blob


# --- the table prints the report document --------------------------------------


def reference_table(report) -> str:
    """The table as ``to_table`` rendered it when it walked the report itself
    with its own formatters, rounding each raw number on its way out: the
    reference the table printed from the one report document must equal."""

    def rounded(x):
        v = float(f"{float(x):.12g}")
        return 0.0 if v == 0 else v

    def fmt(x):
        return f"{rounded(x):.12g}"

    def fmt_values(values, sep):
        shown = [fmt(x) for x in values if abs(x) > 5e-13]
        tail = len(values) - len(shown)
        return (" ".join(shown) or "0") + (f"{sep}(+{tail} zeros)" if tail else "")

    def fmt_actual(v):
        if isinstance(v, bool):
            return "yes" if v else "no"
        if v is None:
            return "n/a"
        if isinstance(v, (tuple, list, np.ndarray)):
            return fmt_values(v, " ")
        return fmt(float(v))

    lines = [f"scenario: {report.name} — {report.title}"]
    n_pass = sum(c.passed for c in report.checks)
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"status: {verdict} ({n_pass}/{len(report.checks)} checks)")
    genuine = report.report.genuine_multipartite
    lines.append(
        "genuine multipartite: " + ("n/a" if genuine is None else ("yes" if genuine else "no"))
    )
    for b in report.report.bipartitions:
        lines.append("")
        kind = "" if b.bipartition else "  (not a bipartition)"
        lines.append(f"plan {b.label}{kind}")
        for side, rho in (("two", b.rho_two), ("one", b.rho_one)):
            if rho is None:
                continue
            lines.append(
                f"  {side}-particle side: probability {fmt(rho.prob)}, "
                f"entropy {fmt(rho.entropy)} bits, purity {fmt(rho.purity)}"
            )
            lines.append(f"    eigenvalues: {fmt_values(rho.spectrum, '  ')}")
    if report.checks:
        lines.append("")
        lines.append("checks")
        for c in report.checks:
            mark = "pass" if c.passed else "FAIL"
            tol = "" if isinstance(c.expectation.value, bool) else f" ± {c.tolerance:g}"
            lines.append(
                f"  [{mark}] {c.expectation.describe()}: {fmt_actual(c.actual)}"
                f" (expected {fmt_actual(c.expectation.value)}{tol})"
                + (f"  {c.note}" if c.note else "")
            )
    return "\n".join(lines)


def api_report():
    """A spec built through the API whose rows read "no such plan" and "side
    not traced" beside passing and failing checks: ``induced``'s state and
    its one plan, which is not a bipartition."""
    spec = get_builtin("induced")
    label = spec.plans[0].label
    expectations = (
        Expectation("entropy_two", 1.0, label),
        Expectation("eigenvalues", (0.5, 0.5, 0.0), label, "two", tolerance=1e-12),
        Expectation("purity_two", 0.25, label, tolerance=0.125),
        Expectation("entropy_one", 0.0, label),
        Expectation("probability", 1.0, label, "one"),
        Expectation("entropy_two", 0.0, "absent"),
        Expectation("eigenvalues", (1.0,), "absent", "two"),
        Expectation("genuine_multipartite", True),
    )
    return run_spec(scenarios.ScenarioSpec("api", "an API spec", spec.state, spec.plans,
                                           expectations))


def table_cases():
    for name in builtin_names():
        for tolerance in (None, 1e-30):
            yield f"{name} tolerance={tolerance}", run_spec(get_builtin(name), tolerance)
    yield "api", api_report()


def test_the_table_is_byte_identical_to_the_reference_rendering():
    seen = set()
    for case, report in table_cases():
        table = report.to_table()
        assert table == reference_table(report), case
        seen.update(line.split("  ")[-1] for line in table.splitlines())
    # the cases cover failing checks, both notes and a plan that is not a bipartition
    assert {"no such plan", "side not traced", "(not a bipartition)"} <= seen
    assert any(not report.passed for _, report in table_cases())


def test_the_table_forms_no_dense_matrix_and_no_basis_labels(monkeypatch):
    reports = [report for _, report in table_cases()]
    tables = [report.to_table() for report in reports]

    def refused(self):
        raise AssertionError("the table read a dense matrix or basis labels")

    for cls, name in ((DensityMatrix, "mat"), (OccupationBasis, "labels"),
                      (LabeledProductBasis, "labels")):
        monkeypatch.setattr(cls, name, property(refused))
    for report, table in zip(reports, tables):
        assert report.to_table() == table
    with pytest.raises(AssertionError, match="dense matrix or basis labels"):
        reports[0].to_dict()  # the machine format still reads both


def test_expectation_validation():
    with pytest.raises(ScenarioError):
        Expectation("negativity", 1.0, "x")
    with pytest.raises(ScenarioError):
        Expectation("entropy_one", 1.0)  # no label
    with pytest.raises(ScenarioError):
        Expectation("eigenvalues", (0.5, 0.5), "x")  # no stage
    with pytest.raises(ScenarioError):
        Expectation("genuine_multipartite", 1.0)  # not a bool
    with pytest.raises(ScenarioError, match="takes no stage"):
        Expectation("entropy_two", 1.0, "x", "one")
    with pytest.raises(ScenarioError, match="takes no plan label"):
        Expectation("genuine_multipartite", True, "x")
    for tol in (math.inf, math.nan):  # either would let every check pass
        with pytest.raises(ScenarioError, match="tolerance"):
            Expectation("entropy_two", 42.0, "(AA)-A", tolerance=tol)


# --- fuzzing the file parser ---------------------------------------------

FIELDS = (
    "name", "title", "kind", "statistics", "modes", "state", "coeff", "kets",
    "plans", "label", "one", "two", "bipartition", "slot", "expectations",
    "quantity", "value", "stage", "tolerance",
)
WORDS = FIELDS + (
    "A", "B", "C", "up", "down", "boson", "fermion", "identical", "distinguishable",
    "entropy_one", "entropy_two", "purity_one", "purity_two", "eigenvalues",
    "probability", "genuine_multipartite", "(BC)-delocalized", "(12)-3", "",
)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, path=()):
    """Every position in a JSON tree, as the keys and indices that reach it."""
    yield path
    if isinstance(node, list):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))


def _parse_or_reject(raw) -> None:
    """Parse ``raw``; a refusal must name where in the file it is, so its
    message starts at the scenario."""
    try:
        parse_scenario(raw)
    except ScenarioError as exc:
        assert str(exc).startswith("scenario"), str(exc)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(tree=JSON_TREES)
def test_any_json_tree_parses_or_is_a_scenario_error(tree):
    _parse_or_reject(tree)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(tree=JSON_TREES)
def test_any_json_tree_in_any_one_field_of_a_valid_file(tree):
    for payload in (induced_file_payload(), labeled_file_payload()):
        for *head, last in list(_paths(payload))[1:]:
            parent = payload
            for key in head:
                parent = parent[key]
            kept, parent[last] = parent[last], tree
            _parse_or_reject(payload)
            parent[last] = kept
