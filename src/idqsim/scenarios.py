"""Named measurement scenarios with frozen expected outcomes.

A scenario bundles a state, a set of trace plans, and a list of numeric
expectations. Running one produces a :class:`ScenarioReport` that can render
itself as a human table or as deterministic machine JSON (stable key order,
floats rounded to 12 significant digits, ``ensure_ascii``), so repeated runs
are byte-identical.

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
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .comparator import (
    LabeledState,
    SlotTrace,
    distinguishable_trace_iterate,  # noqa: F401 - perfbench/tracer.py wraps this name
)
from .entanglement import EntanglementReport, TracePlan, analyze, spectrum
from .errors import NullStateError, ScenarioError, SimulationError
from .hilbert import CanonicalBasis, Frozen, Ket, Spin
from .reduction import MeasurementBasis
from .states import ElementaryState, ParticleState, Statistics, normalize

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

    def to_dict(self) -> dict:
        bips = []
        for b in self.report.bipartitions:
            entry: dict = {"label": b.label, "bipartition": b.bipartition,
                           "mixed": b.mixed}
            for side in ("two", "one"):
                rho = getattr(b, f"rho_{side}")
                if rho is None:
                    continue
                entry[side] = {
                    "probability": _round_float(rho.prob),
                    "entropy_bits": _round_float(getattr(b, f"entropy_{side}")),
                    "purity": _round_float(getattr(b, f"purity_{side}")),
                    "eigenvalues": [_round_float(v) for v in spectrum(rho)],
                    "basis": list(rho.basis.labels),
                    "matrix": [
                        [_round_complex(z) for z in row] for row in rho.mat
                    ],
                }
            bips.append(entry)
        genuine = self.report.genuine_multipartite
        return {
            "scenario": self.name,
            "title": self.title,
            "status": "pass" if self.passed else "fail",
            "genuine_multipartite": genuine,
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=True)

    def to_table(self) -> str:
        lines = [f"scenario: {self.name} — {self.title}"]
        n_pass = sum(c.passed for c in self.checks)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"status: {verdict} ({n_pass}/{len(self.checks)} checks)")
        genuine = self.report.genuine_multipartite
        lines.append(
            "genuine multipartite: "
            + ("n/a" if genuine is None else ("yes" if genuine else "no"))
        )
        for b in self.report.bipartitions:
            lines.append("")
            kind = "" if b.bipartition else "  (not a bipartition)"
            lines.append(f"plan {b.label}{kind}")
            for side, word in (("two", "two-particle"), ("one", "one-particle")):
                rho = getattr(b, f"rho_{side}")
                if rho is None:
                    continue
                s = getattr(b, f"entropy_{side}")
                p = getattr(b, f"purity_{side}")
                lines.append(
                    f"  {word} side: probability {_fmt(rho.prob)}, "
                    f"entropy {_fmt(s)} bits, purity {_fmt(p)}"
                )
                ev = spectrum(rho)
                main = [v for v in ev if v > 5e-13]
                tail = len(ev) - len(main)
                shown = " ".join(_fmt(v) for v in main) or "0"
                suffix = f"  (+{tail} zeros)" if tail else ""
                lines.append(f"    eigenvalues: {shown}{suffix}")
        if self.checks:
            lines.append("")
            lines.append("checks")
            for c in self.checks:
                mark = "pass" if c.passed else "FAIL"
                tol = (
                    ""
                    if isinstance(c.expectation.value, bool)
                    else f" ± {c.tolerance:g}"
                )
                lines.append(
                    f"  [{mark}] {c.expectation.describe()}: {_fmt_actual(c.actual)}"
                    f" (expected {_fmt_actual(c.expectation.value)}{tol})"
                    + (f"  {c.note}" if c.note else "")
                )
        return "\n".join(lines)


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


def _fmt(x: float) -> str:
    return f"{_round_float(x):.12g}"


def _fmt_actual(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "n/a"
    if isinstance(v, (tuple, list, np.ndarray)):
        vals = [float(x) for x in v]
        main = [x for x in vals if abs(x) > 5e-13]
        tail = len(vals) - len(main)
        body = " ".join(_fmt(x) for x in main) or "0"
        return body + (f" (+{tail} zeros)" if tail else "")
    return _fmt(float(v))


# --- running ----------------------------------------------------------------


def run_spec(spec: ScenarioSpec, tolerance: Optional[float] = None) -> ScenarioReport:
    """Run every plan and evaluate the expectations.

    ``tolerance`` can only tighten: the effective tolerance of each check is
    the minimum of its own and the override.
    """
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
    if e.quantity in ("entropy_one", "entropy_two", "purity_one", "purity_two"):
        actual = getattr(b, e.quantity)
        if actual is None:
            return ExpectationResult(e, tol, None, False, note="side not traced")
        return ExpectationResult(e, tol, actual, abs(actual - e.value) <= tol)
    rho = getattr(b, f"rho_{e.stage}")
    if rho is None:
        return ExpectationResult(e, tol, None, False, note="side not traced")
    if e.quantity == "probability":
        return ExpectationResult(e, tol, rho.prob, abs(rho.prob - e.value) <= tol)
    # eigenvalues, padded with zeros to a common length
    ev = tuple(spectrum(rho).tolist())
    close = all(abs(h - w) <= tol for h, w in zip_longest(ev, e.value, fillvalue=0.0))
    return ExpectationResult(e, tol, ev, close)


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
    mk = lambda s: space.superposition([(left, s, r), (right, s, r)])
    return MeasurementBasis((mk(Spin.DOWN), mk(Spin.UP)))


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
    remembered."""
    if name not in _BUILTIN_NAMES:  # a tuple: an unhashable name is just absent
        raise ScenarioError(
            f"no builtin scenario {name!r}; available: {', '.join(_BUILTIN_NAMES)}"
        )
    return _load_builtin(name)


@cache
def _load_builtin(name: str) -> ScenarioSpec:
    return load_scenario(_BUILTIN_DIR / f"{name}.json")


def run_builtin(name: str, tolerance: Optional[float] = None) -> ScenarioReport:
    return run_spec(get_builtin(name), tolerance)


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
    except RecursionError:
        raise ScenarioError(f"{p}: JSON nested too deeply") from None
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> ScenarioSpec:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: expected a JSON object")
    name = _need_str(raw, "name", "scenario")
    title = raw.get("title", name)
    if not isinstance(title, str):
        raise ScenarioError("scenario.title: expected a string")
    kind = raw.get("kind", "identical")
    if kind not in ("identical", "distinguishable"):
        raise ScenarioError(
            f"scenario.kind: {kind!r} is not 'identical' or 'distinguishable'"
        )
    known = ("name", "title", "kind", "modes", "state", "plans", "expectations")
    _refuse_unknown(raw, "scenario", known + (("statistics",) if kind == "identical" else ()))
    modes = raw.get("modes")
    if (
        not isinstance(modes, list)
        or not modes
        or not all(isinstance(m, str) for m in modes)
    ):
        raise ScenarioError("scenario.modes: expected a nonempty list of strings")
    try:
        space = CanonicalBasis(modes)
    except ValueError as exc:
        raise ScenarioError(f"scenario.modes: {exc}") from None

    bases: dict = {}  # every basis parsed so far, so that equal stages share one
    if kind == "identical":
        stats_name = _need_str(raw, "statistics", "scenario")
        try:
            statistics = Statistics(stats_name)
        except ValueError:
            raise ScenarioError(
                f"scenario.statistics: {stats_name!r} is not 'boson' or 'fermion'"
            ) from None
        state = _parse_identical_state(raw, space, statistics, name)

        def parse_stage(v, where: str, earlier) -> MeasurementBasis:
            return _parse_basis(v, space, where, bases)

    else:
        state = _parse_labeled_state(raw, space, name)

        def parse_stage(v, where: str, earlier) -> SlotTrace:
            return _parse_slot_trace(v, space, state.n, where, earlier, bases)

    plans = _parse_plans(raw, state.n, parse_stage)
    expectations = _parse_expectations(raw, [p.label for p in plans])
    return ScenarioSpec(name, title, state, plans, expectations)


def _refuse_unknown(obj: dict, where: str, fields: Sequence[str]) -> None:
    """Refuse a field of ``obj`` that the parser would not read, such as a
    misspelled ``expectations``, rather than silently ignore it."""
    for key in obj:
        if key not in fields:
            raise ScenarioError(f"{where}.{key}: unknown field")


def _need_str(obj: dict, key: str, where: str) -> str:
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        raise ScenarioError(f"{where}.{key}: expected a nonempty string")
    return v


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """A JSON number with a finite float value; integers too large for a
    float (JSON sets no size limit) are not."""
    try:
        return _is_number(x) and math.isfinite(x)
    except OverflowError:
        return False


def _parse_complex(v, where: str) -> complex:
    if not isinstance(v, list) or len(v) != 2 or not all(_is_number(x) for x in v):
        raise ScenarioError(f"{where}: expected [re, im]")
    if not all(_is_finite_number(x) for x in v):
        raise ScenarioError(f"{where}: numbers must be finite")
    return complex(v[0], v[1])


def _parse_ket(v, space: CanonicalBasis, where: str) -> Ket:
    if not isinstance(v, list) or not v:
        raise ScenarioError(f"{where}: expected a nonempty list of components")
    comps = []
    for j, rec in enumerate(v):
        here = f"{where}[{j}]"
        if not isinstance(rec, list) or len(rec) != 4:
            raise ScenarioError(f"{here}: expected [mode, spin, re, im]")
        mode, spin_name, re, im = rec
        if not isinstance(mode, str):
            raise ScenarioError(f"{here}: mode must be a string")
        if spin_name not in ("up", "down"):
            raise ScenarioError(f"{here}: spin must be 'up' or 'down'")
        if not (_is_finite_number(re) and _is_finite_number(im)):
            raise ScenarioError(f"{here}: amplitude must be two finite numbers")
        if mode not in space.mode_names:
            raise ScenarioError(f"{here}: unknown mode {mode!r}")
        comps.append((mode, Spin(spin_name), complex(re, im)))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return space.superposition(comps)
    except ValueError as exc:  # components of one entry can add up to infinity
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_terms(raw: dict, space: CanonicalBasis):
    terms_raw = raw.get("state")
    if not isinstance(terms_raw, list) or not terms_raw:
        raise ScenarioError("scenario.state: expected a nonempty list of terms")
    parsed = []
    for i, t in enumerate(terms_raw):
        where = f"scenario.state[{i}]"
        if not isinstance(t, dict):
            raise ScenarioError(f"{where}: expected an object")
        _refuse_unknown(t, where, ("coeff", "kets"))
        coeff = (
            _parse_complex(t["coeff"], f"{where}.coeff") if "coeff" in t else 1.0 + 0j
        )
        kets_raw = t.get("kets")
        if not isinstance(kets_raw, list) or not kets_raw:
            raise ScenarioError(f"{where}.kets: expected a nonempty list")
        kets = tuple(
            _parse_ket(k, space, f"{where}.kets[{j}]") for j, k in enumerate(kets_raw)
        )
        parsed.append((coeff, kets))
    return parsed


def _parse_identical_state(
    raw: dict, space: CanonicalBasis, statistics: Statistics, name: str
) -> ParticleState:
    terms = _parse_terms(raw, space)
    try:
        state = ParticleState(
            statistics, tuple(ElementaryState(c, kets) for c, kets in terms)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            return normalize(state)
    except NullStateError:
        raise ScenarioError(
            f"scenario {name!r}: the state has zero norm "
            "(for fermions, check for repeated kets)"
        ) from None
    except (SimulationError, ValueError) as exc:
        raise ScenarioError(f"scenario.state: {exc}") from None


def _parse_labeled_state(raw: dict, space: CanonicalBasis, name: str) -> LabeledState:
    terms = _parse_terms(raw, space)
    try:
        state = LabeledState(terms)
    except (SimulationError, ValueError) as exc:
        raise ScenarioError(f"scenario.state: {exc}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # huge amplitudes overflow
        nrm = float(np.linalg.norm(state.vector()))
    if not math.isfinite(nrm):
        raise ScenarioError(f"scenario.state: the norm is {nrm} (amplitudes too large)")
    if nrm < 1e-12:
        raise ScenarioError(f"scenario {name!r}: the state has zero norm")
    return LabeledState([(c / nrm, kets) for c, kets in terms])


def _parse_basis(v, space: CanonicalBasis, where: str, bases: dict) -> MeasurementBasis:
    """The basis of one stage entry; a value already in ``bases`` (the
    file's earlier stages) is returned as that object, so equal stages share
    one basis and one ``_support``."""
    if not isinstance(v, list) or not v:
        raise ScenarioError(f"{where}: expected a nonempty list of kets")
    kets = tuple(_parse_ket(k, space, f"{where}[{j}]") for j, k in enumerate(v))
    try:
        basis = MeasurementBasis(kets)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    return bases.setdefault(basis, basis)


def _parse_slot_trace(
    v, space: CanonicalBasis, n: int, where: str, earlier: Sequence[SlotTrace], bases: dict
) -> SlotTrace:
    if not isinstance(v, dict):
        raise ScenarioError(f"{where}: expected an object")
    _refuse_unknown(v, where, ("slot", "kets"))
    slot = v.get("slot")
    if not isinstance(slot, int) or isinstance(slot, bool):
        raise ScenarioError(f"{where}.slot: expected an integer")
    if not 0 <= slot < n:
        raise ScenarioError(f"{where}.slot: {slot} outside 0..{n - 1}")
    if any(st.slot == slot for st in earlier):
        raise ScenarioError(f"{where}.slot: slot {slot} already measured on this side")
    return SlotTrace(slot, _parse_basis(v.get("kets"), space, f"{where}.kets", bases))


def _parse_plans(
    raw: dict, n: int, parse_stage: Callable[[object, str, list], object]
) -> tuple[TracePlan, ...]:
    """Parse ``scenario.plans`` for a state of ``n`` particles.

    ``parse_stage(value, where, earlier)`` turns one stage entry into a stage;
    ``earlier`` holds the stages already parsed on the same side.
    """
    plans_raw = raw.get("plans")
    if not isinstance(plans_raw, list) or not plans_raw:
        raise ScenarioError("scenario.plans: expected a nonempty list")
    plans = []
    for i, p in enumerate(plans_raw):
        where = f"scenario.plans[{i}]"
        if not isinstance(p, dict):
            raise ScenarioError(f"{where}: expected an object")
        _refuse_unknown(p, where, ("label", "one", "two", "bipartition"))
        label = _need_str(p, "label", where)
        sides: dict = {}
        for side in ("one", "two"):
            if side not in p:
                continue
            stages_raw = p[side]
            if not isinstance(stages_raw, list) or not stages_raw:
                raise ScenarioError(f"{where}.{side}: expected a nonempty list")
            if len(stages_raw) > n:
                raise ScenarioError(
                    f"{where}.{side}: {len(stages_raw)} stages, but the state has "
                    f"only {n} particles"
                )
            stages: list = []
            for j, s in enumerate(stages_raw):
                stages.append(parse_stage(s, f"{where}.{side}[{j}]", stages))
            sides[f"{side}_stages"] = tuple(stages)
        if not sides:
            raise ScenarioError(f"{where}: needs a 'one' or 'two' side")
        bip = p.get("bipartition", True)
        if not isinstance(bip, bool):
            raise ScenarioError(f"{where}.bipartition: expected true/false")
        plans.append(TracePlan(label, bipartition=bip, **sides))
    labels = [p.label for p in plans]
    if len(set(labels)) != len(labels):
        raise ScenarioError("scenario.plans: labels must be distinct")
    return tuple(plans)


def _parse_expectations(raw: dict, labels: Sequence[str]) -> tuple[Expectation, ...]:
    exp_raw = raw.get("expectations", [])
    if not isinstance(exp_raw, list):
        raise ScenarioError("scenario.expectations: expected a list")
    out = []
    for i, e in enumerate(exp_raw):
        where = f"scenario.expectations[{i}]"
        if not isinstance(e, dict):
            raise ScenarioError(f"{where}: expected an object")
        _refuse_unknown(e, where, ("quantity", "value", "label", "stage", "tolerance"))
        quantity = _need_str(e, "quantity", where)
        value = e.get("value")
        if quantity == "genuine_multipartite":
            if not isinstance(value, bool):
                raise ScenarioError(f"{where}.value: expected true/false")
        elif quantity == "eigenvalues":
            if not isinstance(value, list) or not value or not all(
                _is_finite_number(x) for x in value
            ):
                raise ScenarioError(f"{where}.value: expected a list of finite numbers")
            value = tuple(float(x) for x in value)
        else:
            if not _is_finite_number(value):
                raise ScenarioError(f"{where}.value: expected a finite number")
            value = float(value)
        label = e.get("label")
        if label is not None and label not in labels:
            raise ScenarioError(f"{where}.label: no plan named {label!r}")
        stage = e.get("stage")
        if stage is not None and stage not in ("one", "two"):
            raise ScenarioError(f"{where}.stage: expected 'one' or 'two'")
        tol = e.get("tolerance", 1e-10)
        if not _is_finite_number(tol) or tol < 0:
            raise ScenarioError(
                f"{where}.tolerance: expected a finite nonnegative number"
            )
        try:
            out.append(Expectation(quantity, value, label, stage, float(tol)))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    return tuple(out)


def run_file(path: Union[str, Path], tolerance: Optional[float] = None) -> ScenarioReport:
    return run_spec(load_scenario(path), tolerance)
