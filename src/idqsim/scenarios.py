"""Named measurement scenarios with frozen expected outcomes.

A scenario bundles a state, a set of trace plans, and a list of numeric
expectations. Running one produces a :class:`ScenarioReport`, whose one
report document rounds every number once, to 12 significant digits with
negative zero flattened. Both output formats print that document: the human
table, and the machine JSON (stable key order, ``ensure_ascii``), which adds
each remainder's basis labels and matrix. Repeated runs are byte-identical,
and the two formats show the same numbers.

The builtin scenarios freeze the reference numbers for three qubits in three
sites: a fully separated product, the delocalized-measurement reduction that
leaves an entangled pair, a GHZ-type superposition, the full-overlap state
with both particles-in-one-site reductions, and the two distinguishable
comparators that show none of this happens for labeled particles. Each is a
scenario file, ``builtins/<name>.json``, read by the same checked parser as
any user's file and holding the only copy of its reference values. A file is
read once per process, on its first request, and that one spec is shared by
every later call. Sharing is safe because a spec is immutable all the way
down: the records are ``Frozen`` and every ``Ket``'s amplitudes are read-only.
The measurement bases therefore keep the supports found on their first
lowering. Only inputs are shared; every run computes and returns a new report.

The file parser has one reader per JSON shape, ``_object`` (an object holding
only known fields) and ``_items`` (a nonempty list), and checks each rule in
one place. A record's own rules belong to its constructor: ``Expectation``
checks the quantity, the flag's type, which quantities take a plan label or a
stage and the stage's domain, ``TracePlan`` that a plan traces a side, and the
parser prefixes their messages with the field path. The parser itself checks
only what needs a path or the whole file: JSON types and finite numbers,
free text (name, title, modes, plan labels) that UTF-8 can write and that
holds no control character, stage counts against the particle number,
labeled slots, distinct plan labels, and that an expectation's label names
a plan that traces the side it reads.
``run_spec`` refuses a tolerance override that is not positive and finite.
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import zip_longest
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .comparator import (
    LabeledState,
    SlotTrace,
    distinguishable_trace_iterate,  # noqa: F401 - perfbench/tracer.py wraps this name
)
from .entanglement import BipartitionReport, EntanglementReport, TracePlan, analyze, spectrum
from .errors import NullStateError, ScenarioError, SimulationError
from .hilbert import CanonicalBasis, Frozen, Ket, Spin
from .reduction import DensityMatrix, MeasurementBasis
from .states import ParticleState, Statistics, _is_null, _stack_terms, normalize

QUANTITIES = (
    "entropy_one",
    "entropy_two",
    "purity_one",
    "purity_two",
    "eigenvalues",
    "probability",
    "genuine_multipartite",
)


class Expectation(Frozen):
    """One frozen number (or flag) a scenario run must reproduce.

    ``label`` names the trace plan, for every quantity but
    ``genuine_multipartite``, which takes none; ``stage`` ("one"/"two")
    picks the remainder for the quantities that need it (eigenvalues,
    probability), and the others take none.
    """

    def __init__(
        self,
        quantity: str,
        value: Union[float, tuple, bool],
        label: Optional[str] = None,
        stage: Optional[str] = None,
        tolerance: float = 1e-10,
    ):
        if quantity not in QUANTITIES:
            raise ScenarioError(f"unknown quantity {quantity!r}; choose from {QUANTITIES}")
        if quantity == "genuine_multipartite":
            if not isinstance(value, bool):
                raise ScenarioError("genuine_multipartite expects true/false")
            if label is not None:
                raise ScenarioError("genuine_multipartite takes no plan label")
        elif label is None:
            raise ScenarioError(f"{quantity} needs a plan label")
        if quantity in ("eigenvalues", "probability"):
            if stage not in ("one", "two"):
                raise ScenarioError(f"{quantity} needs stage 'one' or 'two'")
        elif stage is not None:
            raise ScenarioError(f"{quantity} takes no stage")
        if quantity == "eigenvalues":
            vals = tuple(float(v) for v in np.atleast_1d(np.asarray(value, float)))
            value = tuple(sorted(vals, reverse=True))
        if not 0 <= tolerance < math.inf:
            raise ScenarioError("tolerance must be finite and nonnegative")
        self._set("quantity", quantity)
        self._set("value", value)
        self._set("label", label)
        self._set("stage", stage)
        self._set("tolerance", tolerance)

    def describe(self) -> str:
        where = ""
        if self.label is not None:
            inside = self.label if self.stage is None else f"{self.label}, {self.stage}"
            where = f"[{inside}]"
        return f"{self.quantity}{where}"


class ScenarioSpec(Frozen):
    def __init__(
        self,
        name: str,
        title: str,
        state: Union[ParticleState, LabeledState],
        plans: tuple[TracePlan, ...],
        expectations: tuple[Expectation, ...] = (),
    ):
        self._set("name", name)
        self._set("title", title)
        self._set("state", state)
        self._set("plans", plans)
        self._set("expectations", expectations)


class ExpectationResult(Frozen):
    def __init__(
        self,
        expectation: Expectation,
        tolerance: float,  # effective tolerance used for the comparison
        actual: object,
        passed: bool,
        note: str = "",
    ):
        self._set("expectation", expectation)
        self._set("tolerance", tolerance)
        self._set("actual", actual)
        self._set("passed", passed)
        self._set("note", note)


class ScenarioReport(Frozen):
    def __init__(
        self,
        name: str,
        title: str,
        report: EntanglementReport,
        checks: tuple[ExpectationResult, ...],
    ):
        self._set("name", name)
        self._set("title", title)
        self._set("report", report)
        self._set("checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    # -- rendering ---------------------------------------------------------

    def _document(self) -> dict:
        """The report as the machine JSON holds it, every number rounded once
        to 12 significant digits, without each remainder's ``basis`` labels
        and dense ``matrix``: what both output formats print."""
        bips = []
        for b in self.report.bipartitions:
            entry: dict = {"label": b.label, "bipartition": b.bipartition,
                           "mixed": b.mixed}
            for side, rho in _remainders(b):
                entry[side] = {
                    "probability": _round_float(rho.prob),
                    "entropy_bits": _round_float(rho.entropy),
                    "purity": _round_float(rho.purity),
                    "eigenvalues": [_round_float(v) for v in spectrum(rho)],
                }
            bips.append(entry)
        return {
            "scenario": self.name,
            "title": self.title,
            "status": "pass" if self.passed else "fail",
            "genuine_multipartite": self.report.genuine_multipartite,
            "bipartitions": bips,
            "checks": [
                {
                    "quantity": c.expectation.quantity,
                    "label": c.expectation.label,
                    "stage": c.expectation.stage,
                    "expected": _jsonable(c.expectation.value),
                    "actual": _jsonable(c.actual),
                    "tolerance": _round_float(c.tolerance),
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }

    def to_dict(self) -> dict:
        """The document with each remainder's basis labels and matrix."""
        doc = self._document()
        for b, entry in zip(self.report.bipartitions, doc["bipartitions"]):
            for side, rho in _remainders(b):
                entry[side]["basis"] = list(rho.basis.labels)
                entry[side]["matrix"] = [[_round_complex(z) for z in row] for row in rho.mat]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=True)

    def to_table(self) -> str:
        doc = self._document()
        checks = doc["checks"]
        n_pass = sum(c["passed"] for c in checks)
        lines = [
            f"scenario: {doc['scenario']} — {doc['title']}",
            f"status: {doc['status'].upper()} ({n_pass}/{len(checks)} checks)",
            f"genuine multipartite: {_show(doc['genuine_multipartite'])}",
        ]
        for b in doc["bipartitions"]:
            kind = "" if b["bipartition"] else "  (not a bipartition)"
            lines += ["", f"plan {b['label']}{kind}"]
            for side in ("two", "one"):
                if side in b:
                    r = b[side]
                    lines.append(
                        f"  {side}-particle side: probability {_show(r['probability'])}, "
                        f"entropy {_show(r['entropy_bits'])} bits, purity {_show(r['purity'])}"
                    )
                    lines.append(f"    eigenvalues: {_show(r['eigenvalues'], '  ')}")
        if checks:
            lines += ["", "checks"]
        for result, c in zip(self.checks, checks):
            tol = "" if isinstance(c["expected"], bool) else f" ± {c['tolerance']:g}"
            lines.append(
                f"  [{'pass' if c['passed'] else 'FAIL'}] {result.expectation.describe()}: "
                f"{_show(c['actual'])} (expected {_show(c['expected'])}{tol})"
                + (f"  {result.note}" if result.note else "")
            )
        return "\n".join(lines)


def _remainders(b: BipartitionReport) -> list[tuple[str, DensityMatrix]]:
    """The traced sides of ``b`` with their remainders, "two" first."""
    sides = (("two", b.rho_two), ("one", b.rho_one))
    return [(side, rho) for side, rho in sides if rho is not None]


# --- number formatting -------------------------------------------------------


def _round_float(x: float) -> float:
    """12 significant digits, with negative zero flattened."""
    v = float(f"{float(x):.12g}")
    return 0.0 if v == 0 else v


def _round_complex(z: complex) -> list[float]:
    return [_round_float(z.real), _round_float(z.imag)]


def _jsonable(v):
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, (int, float, np.floating)):
        return _round_float(float(v))
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_jsonable(x) for x in v]
    return str(v)


def _show(v, sep: str = " ") -> str:
    """A rounded value of the document as the table prints it: a flag as
    yes/no, None as n/a, a number to 12 significant digits, and a list of
    eigenvalues as those above 5e-13 in size ("0" if none is), then
    ``(+N zeros)`` after ``sep`` for the N others."""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "n/a"
    if isinstance(v, list):
        shown = [_show(x) for x in v if abs(x) > 5e-13]
        tail = len(v) - len(shown)
        return (" ".join(shown) or "0") + (f"{sep}(+{tail} zeros)" if tail else "")
    return f"{v:.12g}"


# --- running ----------------------------------------------------------------


def run_spec(spec: ScenarioSpec, tolerance: Optional[float] = None) -> ScenarioReport:
    """Run every plan and evaluate the expectations.

    ``tolerance`` can only tighten: the effective tolerance of each check is
    the minimum of its own and the override, which must be positive and
    finite (else ``ScenarioError``).
    """
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise ScenarioError(
            f"the tolerance override must be a positive finite number, not {tolerance!r}"
        )
    report = analyze(spec.state, spec.plans)
    checks = tuple(_evaluate(e, report, tolerance) for e in spec.expectations)
    return ScenarioReport(spec.name, spec.title, report, checks)


def _evaluate(
    e: Expectation, report: EntanglementReport, override: Optional[float]
) -> ExpectationResult:
    tol = e.tolerance if override is None else min(e.tolerance, override)
    if e.quantity == "genuine_multipartite":
        actual = report.genuine_multipartite
        return ExpectationResult(e, tol, actual, actual is e.value)
    try:
        b = report[e.label]
    except KeyError:
        return ExpectationResult(e, tol, None, False, note="no such plan")
    rho = getattr(b, f"rho_{_side(e)}")
    if rho is None:  # a spec built through the API; a file's is refused when parsed
        return ExpectationResult(e, tol, None, False, note="side not traced")
    quantity = e.quantity.partition("_")[0]
    if quantity == "eigenvalues":  # padded with zeros to a common length
        ev = tuple(spectrum(rho).tolist())
        close = all(abs(h - w) <= tol for h, w in zip_longest(ev, e.value, fillvalue=0.0))
        return ExpectationResult(e, tol, ev, close)
    actual = getattr(rho, "prob" if quantity == "probability" else quantity)
    return ExpectationResult(e, tol, actual, abs(actual - e.value) <= tol)


def _side(e: Expectation) -> str:
    """The remainder a check with a plan label reads, "one" or "two": named
    by the quantity's suffix (entropy_one), else by its stage."""
    return e.quantity.partition("_")[2] or e.stage


# --- builtin scenarios -------------------------------------------------------


def standard_space() -> CanonicalBasis:
    """Three spatial modes A, B, C with spin up/down: the reference frame."""
    return CanonicalBasis(("A", "B", "C"))


def delocalized_pair(space: CanonicalBasis, left: str, right: str) -> MeasurementBasis:
    """Spin kets of the balanced superposition of two sites,
    {(left+right) down, (left+right) up} each over sqrt(2)."""
    if left == right or left not in space.mode_names or right not in space.mode_names:
        raise ValueError(
            f"a delocalized pair needs two distinct sites of {space.mode_names}, "
            f"not {left!r} and {right!r}"
        )
    r = 1.0 / math.sqrt(2.0)
    mk = lambda s: space.superposition([(left, s, r), (right, s, r)]).amps
    return MeasurementBasis(space, (mk(Spin.DOWN), mk(Spin.UP)))


_BUILTIN_DIR = Path(__file__).with_name("builtins")
_BUILTIN_NAMES = (
    "separated",
    "induced",
    "ghz",
    "overlap",
    "distinguishable",
    "distinguishable-overlapped",
)


def builtin_names() -> tuple[str, ...]:
    return _BUILTIN_NAMES


def get_builtin(name: str) -> ScenarioSpec:
    """The builtin scenario ``name``, loaded from ``builtins/<name>.json`` on
    its first request and then shared: later calls in the process return the
    same spec. A spec holds only immutable parts (``Frozen`` records,
    read-only ``Ket`` amplitudes), so no caller can change what another one
    runs, and its bases keep their supports from one run to the next. An
    unknown name, hashable or not, is a ``ScenarioError`` and is not
    remembered; so is a builtin whose file is missing from the installed
    package, which is a broken install, not bad input."""
    if name not in _BUILTIN_NAMES:  # a tuple: an unhashable name is just absent
        raise ScenarioError(
            f"no builtin scenario {name!r}; available: {', '.join(_BUILTIN_NAMES)}"
        )
    return _load_builtin(name)


@cache
def _load_builtin(name: str) -> ScenarioSpec:
    path = _BUILTIN_DIR / f"{name}.json"
    if not path.is_file():
        raise ScenarioError(
            f"builtin scenario {name!r}: {path} is missing from the installed package; "
            "reinstall idqsim"
        )
    return load_scenario(path)


# --- scenario files ----------------------------------------------------------


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Parse a scenario JSON file; errors carry the offending field path."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {p}") from None
    except OSError as exc:  # a directory, no permission
        raise ScenarioError(f"{p}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{p}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: not valid JSON ({exc})") from None
    except ValueError as exc:  # an integer literal over Python's digit limit
        limit = str(exc).partition(";")[0]  # not the advice to raise the limit
        raise ScenarioError(f"{p}: a number is too long to read ({limit})") from None
    except RecursionError:
        raise ScenarioError(f"{p}: JSON nested too deeply") from None
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> ScenarioSpec:
    fields = ("name", "title", "kind", "modes", "state", "plans", "expectations")
    labeled = isinstance(raw, dict) and raw.get("kind") == "distinguishable"
    _object(raw, "scenario", fields if labeled else fields + ("statistics",))
    name = _need_str(raw, "name", "scenario")
    title = raw.get("title", name)
    if not isinstance(title, str):
        raise ScenarioError("scenario.title: expected a string")
    _printable(title, "scenario.title")
    kind = raw.get("kind", "identical")
    if kind not in ("identical", "distinguishable"):
        raise ScenarioError(f"scenario.kind: {kind!r} is not 'identical' or 'distinguishable'")
    modes = _items(raw.get("modes"), "scenario.modes", "strings")
    if not all(isinstance(m, str) for m in modes):
        raise ScenarioError("scenario.modes: expected a nonempty list of strings")
    for j, m in enumerate(modes):
        _printable(m, f"scenario.modes[{j}]")
    try:
        space = CanonicalBasis(modes)
    except ValueError as exc:
        raise ScenarioError(f"scenario.modes: {exc}") from None
    statistics = None  # labeled particles
    if not labeled:
        stats_name = _need_str(raw, "statistics", "scenario")
        try:
            statistics = Statistics(stats_name)
        except ValueError:
            raise ScenarioError(
                f"scenario.statistics: {stats_name!r} is not 'boson' or 'fermion'"
            ) from None
    state = _parse_state(raw, space, statistics, name)
    plans = _parse_plans(raw, space, state.n, labeled)
    return ScenarioSpec(name, title, state, plans, _parse_expectations(raw, plans))


def _object(v, where: str, fields: Sequence[str]) -> None:
    """Refuse ``v`` unless it is a JSON object with no field outside
    ``fields``, so that a field the parser would not read, such as a
    misspelled ``expectations``, is an error rather than silently ignored."""
    if not isinstance(v, dict):
        raise ScenarioError(f"{where}: expected an object")
    for key in v:
        if key not in fields:
            raise ScenarioError(f"{where}.{key}: unknown field")


def _items(v, where: str, what: str) -> list:
    """``v``, which must be a nonempty JSON list (of ``what``, for the message)."""
    if not isinstance(v, list) or not v:
        raise ScenarioError(f"{where}: expected a nonempty list of {what}")
    return v


def _need_str(obj: dict, key: str, where: str) -> str:
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        raise ScenarioError(f"{where}.{key}: expected a nonempty string")
    return _printable(v, f"{where}.{key}")


def _printable(v: str, where: str) -> str:
    """``v``, unless the table cannot print it as it stands: JSON admits a
    lone surrogate such as ``"\\ud800"``, which no UTF-8 output can hold,
    and control characters (Unicode category Cc: U+0000-U+001F and
    U+007F-U+009F), such as a newline that splits a line of the table or
    an escape that restyles the terminal."""
    try:
        v.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ScenarioError(
            f"{where}: lone surrogate {v[exc.start]!r} at character {exc.start}, "
            "which UTF-8 cannot write"
        ) from None
    for j, ch in enumerate(v):
        if ch < " " or "\x7f" <= ch <= "\x9f":
            raise ScenarioError(f"{where}: control character {ch!r} at character {j}")
    return v


def _is_finite_number(x) -> bool:
    """A JSON number, not a boolean, with a finite float value; integers too
    large for a float (JSON sets no size limit) are not."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _parse_ket(v, space: CanonicalBasis, where: str) -> Ket:
    comps = []
    for j, rec in enumerate(_items(v, where, "components")):
        here = f"{where}[{j}]"
        if not isinstance(rec, list) or len(rec) != 4:
            raise ScenarioError(f"{here}: expected [mode, spin, re, im]")
        mode, spin_name, re, im = rec
        if spin_name not in ("up", "down"):
            raise ScenarioError(f"{here}: spin must be 'up' or 'down'")
        if not (_is_finite_number(re) and _is_finite_number(im)):
            raise ScenarioError(f"{here}: amplitude must be two finite numbers")
        if mode not in space.mode_names:  # modes are strings: this refuses any other value
            raise ScenarioError(f"{here}: unknown mode {mode!r}")
        comps.append((mode, Spin(spin_name), complex(re, im)))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return space.superposition(comps)
    except ValueError as exc:  # components of one entry can add up to infinity
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_state(
    raw: dict, space: CanonicalBasis, statistics: Optional[Statistics], name: str
) -> Union[ParticleState, LabeledState]:
    """The normalized ``scenario.state``: of identical particles with
    ``statistics``, or of labeled ones when it is None."""
    terms = []
    for i, t in enumerate(_items(raw.get("state"), "scenario.state", "terms")):
        where = f"scenario.state[{i}]"
        _object(t, where, ("coeff", "kets"))
        coeff = t.get("coeff", [1.0, 0.0])
        if not (isinstance(coeff, list) and len(coeff) == 2 and all(map(_is_finite_number, coeff))):
            raise ScenarioError(f"{where}.coeff: expected [re, im], two finite numbers")
        kets_raw = _items(t.get("kets"), f"{where}.kets", "kets")
        kets = tuple(_parse_ket(k, space, f"{where}.kets[{j}]") for j, k in enumerate(kets_raw))
        terms.append((complex(*coeff), kets))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # huge amplitudes overflow
            if statistics is not None:
                return normalize(ParticleState(statistics, *_stack_terms(terms)))
            state = LabeledState(terms)
            nrm = float(np.linalg.norm(state.vector()))
            if not math.isfinite(nrm * nrm):
                raise ValueError(f"the squared norm is {nrm * nrm} (amplitudes too large)")
            if _is_null(state, nrm * nrm):  # the rule normalize applies
                raise NullStateError("state has zero norm")
        return LabeledState([(c / nrm, kets) for c, kets in terms])
    except NullStateError:
        hint = "" if statistics is None else " (for fermions, check for repeated kets)"
        raise ScenarioError(f"scenario {name!r}: the state has zero norm{hint}") from None
    except (SimulationError, ValueError) as exc:
        raise ScenarioError(f"scenario.state: {exc}") from None


def _parse_basis(v, space: CanonicalBasis, where: str, bases: dict) -> MeasurementBasis:
    """The basis of one stage entry; a value already in ``bases`` (the
    file's earlier stages) is returned as that object, so equal stages share
    one basis and one ``_support``."""
    kets = _items(v, where, "kets")
    rows = [_parse_ket(k, space, f"{where}[{j}]").amps for j, k in enumerate(kets)]
    try:
        basis = MeasurementBasis(space, rows)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    return bases.setdefault(basis, basis)


def _parse_slot_trace(
    v, space: CanonicalBasis, n: int, where: str, earlier: Sequence[SlotTrace], bases: dict
) -> SlotTrace:
    _object(v, where, ("slot", "kets"))
    slot = v.get("slot")
    if not isinstance(slot, int) or isinstance(slot, bool):
        raise ScenarioError(f"{where}.slot: expected an integer")
    if not 0 <= slot < n:
        raise ScenarioError(f"{where}.slot: {slot} outside 0..{n - 1}")
    if any(st.slot == slot for st in earlier):
        raise ScenarioError(f"{where}.slot: slot {slot} already measured on this side")
    return SlotTrace(slot, _parse_basis(v.get("kets"), space, f"{where}.kets", bases))


def _parse_plans(raw: dict, space: CanonicalBasis, n: int, labeled: bool) -> tuple[TracePlan, ...]:
    """``scenario.plans`` for a state of ``n`` particles, whose stages are
    ``SlotTrace`` entries for labeled particles and ``MeasurementBasis``
    entries for identical ones. A side must leave the particles it is named
    for: side "one" traces ``n - 1`` stages and side "two" ``n - 2``."""
    bases: dict = {}  # every basis parsed so far, so that equal stages share one
    plans = []
    for i, p in enumerate(_items(raw.get("plans"), "scenario.plans", "plans")):
        where = f"scenario.plans[{i}]"
        _object(p, where, ("label", "one", "two", "bipartition"))
        label = _need_str(p, "label", where)
        if any(q.label == label for q in plans):
            raise ScenarioError(f"{where}.label: {label!r} already labels an earlier plan")
        sides: dict = {}
        for side in ("one", "two"):
            if side not in p:
                continue
            stages_raw = _items(p[side], f"{where}.{side}", "stages")
            if len(stages_raw) > n:
                raise ScenarioError(
                    f"{where}.{side}: {len(stages_raw)} stages, but the state has "
                    f"only {n} particles"
                )
            keep, left = (1 if side == "one" else 2), n - len(stages_raw)
            if left != keep:  # the side's remainder is named for what it keeps
                traced = "1 stage leaves" if len(stages_raw) == 1 else f"{len(stages_raw)} stages leave"
                raise ScenarioError(
                    f"{where}.{side}: {traced} {left} particle{'s' * (left != 1)}; "
                    f'side "{side}" keeps {keep}'
                )
            stages: list = []
            for j, s in enumerate(stages_raw):
                here = f"{where}.{side}[{j}]"
                stages.append(
                    _parse_slot_trace(s, space, n, here, stages, bases)
                    if labeled
                    else _parse_basis(s, space, here, bases)
                )
            sides[f"{side}_stages"] = tuple(stages)
        bip = p.get("bipartition", True)
        if not isinstance(bip, bool):
            raise ScenarioError(f"{where}.bipartition: expected true/false")
        try:
            plans.append(TracePlan(label, bipartition=bip, **sides))
        except ValueError as exc:  # a plan with neither side
            raise ScenarioError(f"{where}: {exc}") from None
    return tuple(plans)


def _parse_expectations(raw: dict, plans: Sequence[TracePlan]) -> tuple[Expectation, ...]:
    """``scenario.expectations``. ``Expectation`` checks each one's rules
    (the quantity, the flag's type, which quantities take a label or a
    stage, the stage's domain); read here, with a field path, are only the
    numbers, a label naming a plan and that plan tracing the side read."""
    exp_raw = raw.get("expectations", [])
    if not isinstance(exp_raw, list):
        raise ScenarioError("scenario.expectations: expected a list")
    out = []
    for i, e in enumerate(exp_raw):
        where = f"scenario.expectations[{i}]"
        _object(e, where, Expectation._fields)
        quantity = _need_str(e, "quantity", where)
        value = e.get("value")
        if quantity == "eigenvalues":
            value = _items(value, f"{where}.value", "finite numbers")
            if not all(_is_finite_number(x) for x in value):
                raise ScenarioError(f"{where}.value: expected a nonempty list of finite numbers")
        elif quantity != "genuine_multipartite":
            if not _is_finite_number(value):
                raise ScenarioError(f"{where}.value: expected a finite number")
            value = float(value)
        label = e.get("label")
        plan = next((p for p in plans if p.label == label), None)
        if label is not None and plan is None:
            raise ScenarioError(f"{where}.label: no plan named {label!r}")
        tol = e.get("tolerance", 1e-10)
        if not _is_finite_number(tol) or tol < 0:
            raise ScenarioError(f"{where}.tolerance: expected a finite nonnegative number")
        try:
            out.append(Expectation(quantity, value, label, e.get("stage"), float(tol)))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        if plan is not None and (side := _side(out[-1])) not in dict(plan.sides()):
            raise ScenarioError(f"{where}: plan {label!r} does not trace side {side!r}")
    return tuple(out)
