"""The README's examples hold: its scenario-file block is the shipped
``induced.json``, its list of expectation quantities is
``scenarios.QUANTITIES``, and its Library snippet prints what its comments
state. A name the package no longer has fails here."""

import contextlib
import io
import re
from pathlib import Path

from idqsim import scenarios

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    """The README's fenced blocks of one language, each with its last newline."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_the_scenario_file_example_is_the_shipped_induced_file():
    (block,) = blocks("json")
    assert block == (ROOT / "src" / "idqsim" / "builtins" / "induced.json").read_text(
        encoding="utf-8"
    )


def test_the_listed_expectation_quantities_are_the_parsers():
    (listed,) = re.findall(r"Expectation quantities:\n(.*?)\.\n", README, flags=re.S)
    assert tuple(re.findall(r"`(\w+)`", listed)) == scenarios.QUANTITIES


def test_the_library_snippet_prints_what_its_comments_state():
    (snippet,) = blocks("python")
    stated = [line.split("# ", 1)[1] for line in snippet.splitlines() if line.startswith("print(")]
    assert len(stated) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == stated
