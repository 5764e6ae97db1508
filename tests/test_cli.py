"""Command-line behavior: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import idqsim.cli as cli
from idqsim import NotPSDError, builtin_names, scenarios
from idqsim.cli import EXIT_FAILED, EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main

SRC = Path(__file__).resolve().parents[1] / "src"
BUILTINS = SRC / "idqsim" / "builtins"


def test_list_names_every_builtin(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in builtin_names():
        assert name in out


def test_run_builtin_table(capsys):
    assert main(["run", "overlap"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: PASS" in out
    assert "genuine multipartite: yes" in out
    assert "0.918295834054" in out


def test_run_unknown_scenario_is_input_error(capsys):
    assert main(["run", "perpetual-motion"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "no builtin scenario" in err


def test_run_needs_exactly_one_source(capsys):
    assert main(["run"]) == EXIT_INPUT
    assert main(["run", "overlap", "--file", "x.json"]) == EXIT_INPUT


def test_nonpositive_tolerance_is_input_error(capsys):
    assert main(["run", "overlap", "--tolerance", "0"]) == EXIT_INPUT
    assert main(["run", "overlap", "--tolerance=-1e-6"]) == EXIT_INPUT
    assert main(["run", "overlap", "--tolerance", "nan"]) == EXIT_INPUT
    assert main(["run", "overlap", "--tolerance", "inf"]) == EXIT_INPUT


def test_labeled_state_of_zero_norm_is_input_error_without_the_fermion_hint(tmp_path, capsys):
    payload = json.loads((BUILTINS / "distinguishable.json").read_text(encoding="utf-8"))
    payload["state"][0]["coeff"] = [0, 0]
    path = tmp_path / "null.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario 'distinguishable': the state has zero norm\n"


def test_a_file_state_that_cancels_exactly_is_input_error(tmp_path, capsys):
    # |a, b, c> - |b, a, c> of bosons is exactly null: the rounding of its
    # term-pair sum is no norm, and the noise normalized from it would fail
    # the trace's unit-norm check (exit 3) instead of reading as bad input
    rng = np.random.default_rng(37)
    path = tmp_path / "cancelling.json"
    for _ in range(40):
        a, b, c = (
            [[m, s, *rng.normal(size=2).tolist()] for m in "ABC" for s in ("up", "down")]
            for _ in range(3)
        )
        path.write_text(json.dumps({
            "name": "cancelling",
            "kind": "identical",
            "statistics": "boson",
            "modes": ["A", "B", "C"],
            "state": [{"kets": [a, b, c]}, {"coeff": [-1.0, 0.0], "kets": [b, a, c]}],
            "plans": [{"label": "p", "two": [[[["A", "down", 1.0, 0.0]],
                                              [["A", "up", 1.0, 0.0]]]]}],
        }))
        assert main(["run", "--file", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: scenario 'cancelling': the state has zero norm"
            " (for fermions, check for repeated kets)\n"
        )


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["run", "--file", str(tmp_path / "absent.json")]) == EXIT_INPUT
    assert "not found" in capsys.readouterr().err


@pytest.fixture
def install_without_ghz(tmp_path, monkeypatch):
    """The builtins of an install that lost ``ghz.json``; yields that path."""
    broken = tmp_path / "builtins"
    shutil.copytree(BUILTINS, broken)
    (broken / "ghz.json").unlink()
    monkeypatch.setattr(scenarios, "_BUILTIN_DIR", broken)
    scenarios._load_builtin.cache_clear()
    yield broken / "ghz.json"
    scenarios._load_builtin.cache_clear()


@pytest.mark.parametrize("args", [["run", "ghz"], ["list"]], ids=["run", "list"])
def test_a_builtin_file_missing_from_the_install_is_a_broken_install(
    install_without_ghz, capsys, args
):
    assert main(args) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: builtin scenario 'ghz': {install_without_ghz} is missing from the "
        "installed package; reinstall idqsim\n"
    )
    # the builtins still installed run as before
    assert main(["run", "overlap"]) == EXIT_OK


def test_machine_output_is_json_and_deterministic(capsys):
    assert main(["run", "ghz", "--format", "machine"]) == EXIT_OK
    first = capsys.readouterr().out
    d = json.loads(first)
    assert d["scenario"] == "ghz"
    assert d["status"] == "pass"
    assert d["genuine_multipartite"] is True
    assert main(["run", "ghz", "--format", "machine"]) == EXIT_OK
    assert capsys.readouterr().out == first


def wrong_number_payload():
    """A scenario whose one expectation fails: its verdict is exit 1."""
    return {
        "name": "wrong-number",
        "kind": "identical",
        "statistics": "boson",
        "modes": ["A", "B"],
        "state": [
            {
                "kets": [
                    [["A", "down", 1.0, 0.0]],
                    [["B", "up", 1.0, 0.0]],
                    [["B", "down", 1.0, 0.0]],
                ]
            }
        ],
        "plans": [{"label": "p", "two": [[[["A", "down", 1.0, 0.0]],
                                          [["A", "up", 1.0, 0.0]]]]}],
        "expectations": [
            {"quantity": "purity_two", "label": "p", "value": 0.25,
             "tolerance": 1e-10}
        ],
    }


def test_failed_expectation_exits_one(tmp_path, capsys):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(wrong_number_payload()))
    assert main(["run", "--file", str(path)]) == EXIT_FAILED
    out = capsys.readouterr().out
    assert "status: FAIL" in out
    assert "[FAIL] purity_two" in out


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"quantity": "entropy_two", "value": 1.0, "label": "(BC)-delocalized",
          "stage": "one"}, "entropy_two takes no stage"),
        ({"quantity": "genuine_multipartite", "value": False,
          "label": "(BC)-delocalized"}, "genuine_multipartite takes no plan label"),
    ],
    ids=["stage", "label"],
)
def test_stage_or_label_the_quantity_does_not_take_is_input_error(
    tmp_path, capsys, extra, message
):
    payload = json.loads((BUILTINS / "induced.json").read_text(encoding="utf-8"))
    payload["expectations"].append(extra)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "--file", str(path), "--format", "machine"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: scenario.expectations[4]: {message}\n"


def renamed(obj: dict, key: str, new: str) -> None:
    obj[new] = obj.pop(key)


@pytest.mark.parametrize(
    "builtin, edit, where",
    [
        ("induced", lambda d: renamed(d, "expectations", "expectation"),
         "scenario.expectation"),
        ("distinguishable", lambda d: d.update(statistics="boson"), "scenario.statistics"),
        ("induced", lambda d: renamed(d["state"][0], "coeff", "coef"), "scenario.state[0].coef"),
        ("induced", lambda d: renamed(d["plans"][0], "bipartition", "bipartite"),
         "scenario.plans[0].bipartite"),
        ("distinguishable", lambda d: renamed(d["plans"][1]["one"][1], "slot", "slots"),
         "scenario.plans[1].one[1].slots"),
        ("induced", lambda d: renamed(d["expectations"][2], "tolerance", "tol"),
         "scenario.expectations[2].tol"),
    ],
    ids=["scenario", "statistics of labeled particles", "state term", "plan", "slot stage",
         "expectation"],
)
def test_a_field_the_parser_does_not_read_is_input_error(tmp_path, capsys, builtin, edit, where):
    # a misspelled "expectations" ran with no checks at all: PASS (0/0), exit 0
    payload = json.loads((BUILTINS / f"{builtin}.json").read_text(encoding="utf-8"))
    edit(payload)
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: unknown field\n"


def one_particle(d: dict) -> None:
    d["state"][0]["kets"] = d["state"][0]["kets"][:1]
    d["plans"][0] = {"label": "p", "one": d["plans"][0]["one"][:1]}


@pytest.mark.parametrize(
    "builtin, edit, message",
    [
        ("overlap", lambda d: d["plans"][0].update(one=d["plans"][0]["one"][:1]),
         'scenario.plans[0].one: 1 stage leaves 2 particles; side "one" keeps 1'),
        ("overlap", lambda d: d["plans"][0].update(two=d["plans"][0]["one"]),
         'scenario.plans[0].two: 2 stages leave 1 particle; side "two" keeps 2'),
        ("distinguishable", lambda d: d["plans"][2].update(one=d["plans"][2]["one"][:1]),
         'scenario.plans[2].one: 1 stage leaves 2 particles; side "one" keeps 1'),
        ("overlap", one_particle,
         'scenario.plans[0].one: 1 stage leaves 0 particles; side "one" keeps 1'),
    ],
    ids=["one side too short", "two side too long", "labeled one side", "one particle"],
)
def test_a_side_that_leaves_another_particle_count_is_input_error(
    tmp_path, capsys, builtin, edit, message
):
    # overlap with a one-stage side "one" exited 0 and printed its
    # two-particle remainder as the one-particle side
    payload = json.loads((BUILTINS / f"{builtin}.json").read_text(encoding="utf-8"))
    edit(payload)
    path = tmp_path / "side.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ definitely not json")
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python reads integers of any length"
)
def test_an_integer_literal_over_the_digit_limit_is_input_error(tmp_path, capsys):
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    payload = json.loads((BUILTINS / "overlap.json").read_text(encoding="utf-8"))
    payload["expectations"][0]["tolerance"] = 0
    path = tmp_path / "long.json"
    path.write_text(json.dumps(payload).replace('"tolerance": 0', '"tolerance": ' + "7" * 5000, 1))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: a number is too long to read (")
    assert "set_int_max_str_digits" not in captured.err


def free_text_payload(field: str, char: str = "\ud800") -> dict:
    """The ``overlap`` builtin with ``char`` (a lone surrogate unless named)
    in one free-text field."""
    payload = json.loads((BUILTINS / "overlap.json").read_text(encoding="utf-8"))
    if field == "modes":
        payload["modes"][1] = f"B{char}"
    elif field == "label":
        payload["plans"][0]["label"] = f"(AA)-A {char}"
    else:
        payload[field] = f"bad {char} {field}"
    return payload


@pytest.mark.parametrize(
    "field, where",
    [
        ("name", "scenario.name: lone surrogate '\\ud800' at character 4"),
        ("title", "scenario.title: lone surrogate '\\ud800' at character 4"),
        ("modes", "scenario.modes[1]: lone surrogate '\\ud800' at character 1"),
        ("label", "scenario.plans[0].label: lone surrogate '\\ud800' at character 7"),
    ],
    ids=["name", "title", "modes", "label"],
)
def test_a_lone_surrogate_in_a_free_text_field_is_input_error(tmp_path, capsys, field, where):
    # valid JSON (the file holds the escape), but no UTF-8 output can print it
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(free_text_payload(field)))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}, which UTF-8 cannot write\n"


@pytest.mark.parametrize("char", ["\n", "\x1b"], ids=["newline", "escape"])
@pytest.mark.parametrize(
    "field, where",
    [
        ("name", "scenario.name: control character {} at character 4"),
        ("title", "scenario.title: control character {} at character 4"),
        ("modes", "scenario.modes[1]: control character {} at character 1"),
        ("label", "scenario.plans[0].label: control character {} at character 7"),
    ],
    ids=["name", "title", "modes", "label"],
)
def test_a_control_character_in_a_free_text_field_is_input_error(
    tmp_path, capsys, field, where, char
):
    # the table printed it raw: a newline split a line, an escape restyled
    # the terminal
    path = tmp_path / "control.json"
    path.write_text(json.dumps(free_text_payload(field, char)))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where.format(repr(char))}\n"


def test_a_lone_surrogate_title_exits_two_without_a_traceback_on_real_stdout(tmp_path):
    # pytest's capture is not the interpreter's UTF-8 stdout: only a child
    # process shows the crash that writing the table used to end in
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(free_text_payload("title")))
    proc = subprocess.run(
        [sys.executable, "-m", "idqsim.cli", "run", "--file", str(path)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8"),
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: scenario.title: lone surrogate")


def test_directory_in_place_of_a_file_is_input_error(tmp_path, capsys):
    assert main(["run", "--file", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}: cannot read")


def test_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "Zürich"}'.encode("latin-1"))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    assert f"{path}: not UTF-8" in capsys.readouterr().err


def test_file_nested_past_the_recursion_limit_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    assert f"{path}: JSON nested too deeply" in capsys.readouterr().err


def test_stage_that_never_fires_names_its_plan_and_side(tmp_path, capsys):
    # no particle sits at C, so the C-down detector of plan "at-c" never fires
    payload = {
        "name": "empty-detector",
        "kind": "identical",
        "statistics": "boson",
        "modes": ["A", "B", "C"],
        "state": [{"kets": [[["A", "down", 1.0, 0.0]], [["B", "up", 1.0, 0.0]]]}],
        "plans": [
            {"label": "at-a", "one": [[[["A", "down", 1.0, 0.0]]]]},
            {"label": "at-c", "one": [[[["C", "down", 1.0, 0.0]]]]},
        ],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: plan 'at-c', side one: ")
    assert "never fires" in err


def test_numerical_trouble_exits_three(monkeypatch, capsys):
    def boom(spec, tolerance=None):
        raise NotPSDError("eigenvalue -0.2 below tolerance")

    monkeypatch.setattr(cli, "run_spec", boom)
    assert main(["run", "overlap"]) == EXIT_NUMERICAL
    assert "numerical error" in capsys.readouterr().err


# SHA-256 of `idqsim run <name> --format machine`, recorded at commit c31c31a
# (the same digests as perfbench/refs/paper.json).
MACHINE_OUTPUT_SHA256 = {
    "separated": "b04606447ca90ec2ac328e0aa509236dc957ef9aac90c411efae39ef9161e0b7",
    "induced": "0aa389f361e123ae0371a6075513dc357e4c7380241de59e77554cefea8ecaab",
    "ghz": "3646f6a485fca8e7f157eda0a20976af0a803b2cf2278952b2daf9b945de466a",
    "overlap": "fc06a3b57742ada9b0150c3c6ec3fcdd1411573574b480d65f9ca0f64c4368a7",
    "distinguishable":
        "6855b00b9fd7f800476d108608215325b6e492a41a4a5b048d76c71005b7307c",
    "distinguishable-overlapped":
        "d9cfa76ffba19b81aebd9c8f67341ae165896a38659d91ba952d88ff5b11918a",
}


def test_machine_output_is_byte_identical_to_the_recorded_digests(capsys):
    assert set(MACHINE_OUTPUT_SHA256) == set(builtin_names())
    for name, digest in MACHINE_OUTPUT_SHA256.items():
        assert main(["run", name, "--format", "machine"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name


# SHA-256 of the table `idqsim run <name>` prints, recorded at commit 41f7962;
# the same by name and by `--file` on the builtin's scenario file.
TABLE_OUTPUT_SHA256 = {
    "separated": "491c35be7ffe013a980a11253b895552956c2ba925f7002365626d92e64e05f8",
    "induced": "fd23c993507833efe641b2f044f45c78a4a1f0d6b553a82d9e2a7d9168021183",
    "ghz": "861382b4486a4b277525ed9a699f4de0ba023f70a495c63413631c534d88b6fc",
    "overlap": "fe1ab4e37afb5ac122c331437f3d1c8c3b4822bdafd7d737c428ef1adf15340f",
    "distinguishable":
        "591f742cd0f24882350761eec9a28927ca491ca43085f269ba01bb15c741dd9b",
    "distinguishable-overlapped":
        "2a0abdb6e5c58736b2931a4a69b869abee037e3bede7b60a191207c403523b89",
}


def test_table_output_is_byte_identical_to_the_recorded_digests(capsys):
    assert set(TABLE_OUTPUT_SHA256) == set(builtin_names())
    for name, digest in TABLE_OUTPUT_SHA256.items():
        for source in ([name], ["--file", str(BUILTINS / f"{name}.json")]):
            assert main(["run", *source]) == EXIT_OK
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, source


@pytest.mark.parametrize(
    "args, verdict",
    [
        (["list"], EXIT_OK),
        (["run", "separated"], EXIT_OK),
        (["run", "ghz", "--format", "machine"], EXIT_OK),
        (["run", "--file", "WRONG"], EXIT_FAILED),
        (["verify", "--seed", "0"], EXIT_OK),
    ],
    ids=["list", "run table", "run machine", "run failing", "verify"],
)
def test_a_closed_output_pipe_keeps_the_verdict_and_prints_nothing(tmp_path, args, verdict):
    """As ``idqsim ... | head -n 1`` when head has already exited: stdout is
    a pipe whose reader is gone before the command writes. No traceback, no
    "Exception ignored" line from the final flush, and the command's own
    exit code."""
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(wrong_number_payload()))
    args = [str(wrong) if a == "WRONG" else a for a in args]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the child's first write meets a closed pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "idqsim.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == verdict


def test_verify_reports_every_property(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verified 19/19 properties (seed 0)" in out
    assert out.count("[pass]") == 19
    assert "FAIL" not in out


def test_verify_same_seed_is_byte_identical(capsys):
    assert main(["verify", "--seed", "7"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "7"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_verify_does_not_depend_on_the_string_hash_seed():
    # one interpreter has one hash seed, so only child processes can differ
    # in it; every draw, set and dict order must give the same report
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "idqsim.cli", "verify", "--seed", "7"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
            text=True,
            timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "verified 19/19 properties (seed 7)" in outputs[0]


@pytest.mark.parametrize("seed", ["-1", "seven"])
def test_bad_verify_seed_is_input_error(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", seed])
    assert exc.value.code == EXIT_INPUT
    assert "--seed" in capsys.readouterr().err


def test_verify_accepts_seeds_beyond_32_bits(monkeypatch, capsys):
    seeds = []
    monkeypatch.setattr(cli, "run_all", lambda seed: seeds.append(seed) or [])
    assert main(["verify", "--seed", str(2**32 + 5)]) == EXIT_OK
    assert seeds == [2**32 + 5]
    capsys.readouterr()


def test_every_builtin_passes_through_the_cli(capsys):
    for name in builtin_names():
        assert main(["run", name]) == EXIT_OK, name
    capsys.readouterr()


def test_a_problem_too_large_for_memory_is_input_error(tmp_path, monkeypatch, capsys):
    # a valid file whose 4-boson sector over 400 modes would take 512 GiB;
    # the patched table raises as numpy does, without allocating anything
    import idqsim.reduction

    def unable(dim, sector, statistics):
        raise MemoryError(f"Unable to allocate the sector of {sector} over dim {dim}")

    monkeypatch.setattr(idqsim.reduction, "_entries", unable)
    modes = [f"M{i}" for i in range(400)]
    ket = lambda mode, spin: [[mode, spin, 1.0, 0.0]]
    spec = {
        "name": "wide",
        "title": "four bosons over 400 modes",
        "kind": "identical",
        "statistics": "boson",
        "modes": modes,
        "state": [{"coeff": [1.0, 0.0], "kets": [ket(m, "up") for m in modes[:4]]}],
        "plans": [{"label": "p", "two": [[ket("M0", "up"), ket("M0", "down")]] * 2}],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--file", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in captured.err and captured.out == ""
