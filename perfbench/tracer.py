"""In-memory span tracer that wraps idqsim functions from outside the package.

Each wrapper is installed at the name its callers look up at call time (a
module global or a class attribute), so no file of the package changes. A
wrapper records one span per call (name, start, end, parent span, case id),
keeps running totals per layer (calls, inclusive and self seconds, errors)
and, through an optional hook, deterministic work counters such as support
tuples enumerated or permanents by size. Totals cover every call; spans are
kept up to ``SPAN_CAP`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from idqsim import comparator, entanglement, hilbert, reduction, scenarios, states, verification

# Spans kept per run; at about 100 bytes of JSON each, the trace file stays
# near 5 MB. Totals and counts cover every call.
SPAN_CAP = 50_000


class Layer:
    __slots__ = ("calls", "s", "self_s", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.active = 0  # nesting depth, so recursion is not counted twice in .s


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = defaultdict(Layer)
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.case = -1
        self.paused = False
        self._stack: list[list] = []  # [name, child_seconds, span_id]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        layer = self.layers[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = -1
            if len(self.spans) < SPAN_CAP:
                span_id = len(self.spans)
                self.spans.append(
                    [name, 0.0, 0.0, parent[2] if parent else -1, self.case]
                )
            else:
                self.spans_dropped += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            layer.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                layer.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                layer.active -= 1
                dur = end - start
                layer.calls += 1
                layer.self_s += dur - frame[1]
                if not layer.active:
                    layer.s += dur
                if span_id >= 0:
                    span = self.spans[span_id]
                    span[1], span[2] = start, end
                if parent is not None:
                    parent[1] += dur
            if hook is not None:
                hook(self, parent, args, result)
                if parent is not None:
                    # the parent's self time excludes the counting as well
                    parent[1] += clock() - end
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def maximum(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value


# --- counter hooks: computed from arguments and results, outside the timing --


def _coords_hook(tr: Tracer, parent, args, result) -> None:
    phi = args[0]
    products = 0
    for term in phi.terms:
        if term.coeff == 0:
            continue
        n = 1
        for k in term.kets:
            n *= int(np.count_nonzero(k.amps))
        products += n
    tr.count("reduction.coords.products", products)
    if parent is not None and parent[0] == "reduction.partial_trace_iterate":
        tr.count("reduction.partial_trace_iterate.members")


def _trace_hook(tr: Tracer, parent, args, result) -> None:
    tr.maximum("reduction.sector_size.max", result.basis.size)


def _project_hook(tr: Tracer, parent, args, result) -> None:
    meas, phi = args[0], args[1]
    fired = 0
    for term in phi.terms:
        for chi in term.kets:
            fired += complex(np.vdot(meas.amps, chi.amps)) != 0
    tr.count("states.project_single.terms_in", fired)
    tr.count("states.project_single.terms_out", len(result.terms))


def _matrix_hook(kind: str):
    def hook(tr: Tracer, parent, args, result) -> None:
        n = int(np.shape(args[0])[0])
        tr.count(f"permanents.{kind}.n{n}")
        tr.maximum(f"permanents.{kind}.n_max", n)

    return hook


def _symmetrize_hook(tr: Tracer, parent, args, result) -> None:
    tr.maximum("comparator.labeled_dim.max", int(np.size(result)))


# Every name a caller inside the package (or the benchmark) binds, mapped to
# the layer it is reported under.
_TARGETS = (
    (reduction, "coords", "reduction.coords", _coords_hook),
    (verification, "coords", "reduction.coords", _coords_hook),
    (reduction, "partial_trace_iterate", "reduction.partial_trace_iterate", _trace_hook),
    (entanglement, "partial_trace_iterate", "reduction.partial_trace_iterate", _trace_hook),
    (verification, "partial_trace_iterate", "reduction.partial_trace_iterate", _trace_hook),
    (reduction.DensityMatrix, "__post_init__", "reduction.DensityMatrix", None),
    (reduction, "project_single", "states.project_single", _project_hook),
    (states, "project_single", "states.project_single", _project_hook),
    (verification, "project_single", "states.project_single", _project_hook),
    (reduction, "inner", "states.inner", None),
    (states, "inner", "states.inner", None),
    (verification, "inner", "states.inner", None),
    (states, "overlap_elementary", "states.overlap_elementary", None),
    (states, "permanent", "permanents.permanent", _matrix_hook("permanent")),
    (verification, "permanent", "permanents.permanent", _matrix_hook("permanent")),
    (states, "determinant", "permanents.determinant", _matrix_hook("determinant")),
    (states, "sp_inner", "hilbert.sp_inner", None),
    (hilbert, "sp_inner", "hilbert.sp_inner", None),
    (verification, "sp_inner", "hilbert.sp_inner", None),
    (entanglement, "spectrum", "entanglement.spectrum", None),
    (scenarios, "spectrum", "entanglement.spectrum", None),
    (verification, "spectrum", "entanglement.spectrum", None),
    (scenarios, "analyze", "entanglement.analyze", None),
    (scenarios, "get_builtin", "scenarios.get_builtin", None),
    (scenarios, "run_spec", "scenarios.run_spec", None),
    (comparator, "symmetrize", "comparator.symmetrize", _symmetrize_hook),
    (comparator, "oracle_inner", "comparator.oracle_inner", None),
    (verification, "oracle_inner", "comparator.oracle_inner", None),
    (comparator, "oracle_trace_iterate", "comparator.oracle_trace_iterate", None),
    (verification, "oracle_trace_iterate", "comparator.oracle_trace_iterate", None),
    (comparator, "occupation_isometry", "comparator.occupation_isometry", None),
    (verification, "occupation_isometry", "comparator.occupation_isometry", None),
    (comparator, "distinguishable_trace_iterate", "comparator.distinguishable_trace_iterate", None),
    (scenarios, "distinguishable_trace_iterate", "comparator.distinguishable_trace_iterate", None),
    (verification, "distinguishable_trace_iterate", "comparator.distinguishable_trace_iterate", None),
    (verification, "random_state", "verification.random_state", None),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in _TARGETS))


def install(tracer: Tracer) -> Tracer:
    for owner, attr, name, hook in _TARGETS:
        tracer.patch(owner, attr, name, hook)
    return tracer
