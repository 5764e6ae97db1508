"""The four benchmark workloads: seeded inputs, one timed case, its checks.

Every workload is a closed loop of cases run back to back on one thread,
grouped into rounds of a fixed composition so that a run of whole rounds
always measures the same mix of work, whatever the seed:

* ``paper``: ``run_spec(get_builtin(name))`` round-robin over the six
  builtin scenarios in a seeded order; the states are tiny, so per-call
  overhead dominates.
* ``sweep-wide``: single-term random states of 4 particles over 4-6 sites,
  one localized or delocalized stage, then entropy and purity; the
  occupation coordinates (``coords``) dominate.
* ``sweep-deep``: two- and three-term random states of 3 particles over 3 sites,
  two stages, then entropy and purity; inner products (permanents and
  determinants of Gram matrices) dominate.
* ``verify``: single-stage labeled-oracle cross-checks like those of
  ``idqsim verify``, one per case, the only place the oracle runs;
  ``run_all`` itself runs after the timed phase over a fixed list of seeds.

Every case takes 2-60 ms. On a shared machine whose speed drifts by up to
2x over minutes, only the fastest of many short samples per input repeated
within the bounds from run to run; cases of 0.1-3 s moved 23-33%.

Sweep inputs come from a fixed pool per shape, so that every case has a
reference recorded at the baseline commit; the run seed picks which pool
entry each round uses and the order of the builtins and the cross-checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from idqsim import comparator, entanglement, hilbert, reduction, scenarios, states, verification
from idqsim.reduction import MeasurementBasis
from idqsim.states import ParticleState, Statistics

REFS = Path(__file__).resolve().parent / "refs"

B, F = Statistics.BOSON, Statistics.FERMION

# Pool entries per sweep shape; references exist for every one of them.
POOL = 4
# Agreement with the references and the oracle: per basis dimension of the
# sector, so the tolerance grows with the number of entries summed.
TOL_PER_DIM = 1e-12
# Entropy sums -p log2 p over the spectrum; near p = 0 a perturbation d
# moves it by about d log2(1/d) < 64 d for d > 1e-19.
ENTROPY_TOL_FACTOR = 64
# The oracle's density matrix is dense over d**N labeled slots; 4096 slots
# (N=4 over 4 sites) needs about 0.3 GB, the next size up is N=5 at 17 GB.
ORACLE_MAX_LABELED_DIM = 4096
# Eigenvalues above this are stored in the references; the rest must stay
# within the tolerance of zero.
REF_EIGEN_FLOOR = 1e-12


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Shape:
    statistics: Statistics
    n: int
    sites: int
    terms: int
    stages: int

    @property
    def key(self) -> str:
        return (
            f"{self.statistics.value}-n{self.n}-m{self.sites}"
            f"-t{self.terms}-s{self.stages}"
        )

    @property
    def oracle_fits(self) -> bool:
        """Inside the oracle's cap, with a labeled density matrix of at most
        ``ORACLE_MAX_LABELED_DIM`` squared entries."""
        dim = 2 * self.sites
        return (
            self.n <= comparator.MAX_PARTICLES
            and dim <= comparator.MAX_DIM
            and dim**self.n <= ORACLE_MAX_LABELED_DIM
        )


# Wide cases take 15-60 ms: coords must outweigh the inner products ten to
# one, which at N=3 it does not. Deep cases take 5-20 ms: N=4 deep cases
# (70 ms) drifted by up to 60% when a whole run fell into a slow period of
# the shared machine, while cases of a few milliseconds, like the paper's,
# kept their fastest time within 10%.
WIDE_SHAPES = (
    Shape(B, 4, 4, 1, 1),
    Shape(F, 4, 5, 1, 1),
    Shape(B, 4, 5, 1, 1),
    Shape(F, 4, 6, 1, 1),
)
DEEP_SHAPES = (
    Shape(B, 3, 3, 2, 2),
    Shape(F, 3, 3, 2, 2),
    Shape(B, 3, 3, 3, 2),
    Shape(F, 3, 3, 3, 2),
)
# Oracle cross-checks per verify round, and the seeds whose 19 properties
# all pass at the baseline commit.
VERIFY_CASES = 8
VERIFY_SEEDS = (0, 1, 2)

_MODES = "ABCDEF"


@dataclass(frozen=True)
class SweepCase:
    key: str
    shape: Shape
    state: ParticleState
    stages: tuple[MeasurementBasis, ...]


def sweep_case(shape: Shape, variant: int) -> SweepCase:
    """Pool entry ``variant`` of ``shape``; depends on nothing else."""
    stats_code = 0 if shape.statistics is B else 1
    rng = np.random.default_rng(
        [variant, stats_code, shape.n, shape.sites, shape.terms, shape.stages]
    )
    modes = _MODES[: shape.sites]
    space = hilbert.CanonicalBasis(tuple(modes))
    state = verification.random_state(rng, space, shape.n, shape.statistics, shape.terms)
    stages = []
    for _ in range(shape.stages):
        if rng.random() < 0.5:
            stages.append(MeasurementBasis.localized(space, modes[rng.integers(shape.sites)]))
        else:
            left, right = sorted(rng.choice(shape.sites, size=2, replace=False))
            stages.append(scenarios.delocalized_pair(space, modes[left], modes[right]))
    return SweepCase(f"{shape.key}/{variant}", shape, state, tuple(stages))


def oracle_cross_check(k: int):
    """Cross-check ``k`` as most of ``run_all``'s oracle agreement draws are
    made: draw a random state of 2 or 3 bosons or fermions over three sites
    and one measurement basis, full for ``k < 4`` and of random size after,
    then compare the label-free trace, entropy and inner product with the
    labeled oracle's. A single stage keeps every case under 20 ms; with
    two stages the 3-particle cases took 40-50 ms, nearly all of it in the
    label-free trace, and the round's fastest time spread up to 24% between
    runs."""
    rng = np.random.default_rng([k])
    stats = B if k % 2 == 0 else F
    n = 2 + (k // 2) % 2
    space = hilbert.CanonicalBasis(("A", "B", "C"))
    phi = verification.random_state(rng, space, n, stats)
    other = verification.random_state(rng, space, n, stats)
    size = None if k < 4 else int(rng.integers(1, space.dim))
    stages = (verification.random_measurement_basis(rng, space, size),)
    ours = reduction.partial_trace_iterate(phi, stages)
    ref = comparator.oracle_trace_iterate(phi, stages)
    return (
        ours,
        ref,
        entanglement.von_neumann_entropy(ours) - entanglement.von_neumann_entropy(ref),
        math.factorial(n) * states.inner(phi, other),
        comparator.oracle_inner(phi, other),
    )


def trace_and_measure(case: SweepCase):
    rho = reduction.partial_trace_iterate(case.state, case.stages)
    return rho, entanglement.von_neumann_entropy(rho), entanglement.purity(rho)


def reference_record(rho, entropy: float, purity: float) -> dict:
    ev = entanglement.spectrum(rho)
    return {
        "sector": rho.basis.size,
        "prob": rho.prob,
        "entropy_bits": entropy,
        "purity": purity,
        "eigenvalues": [float(v) for v in ev if v > REF_EIGEN_FLOOR],
    }


def compare_record(have: dict, want: dict) -> Optional[str]:
    """None when ``have`` matches ``want`` within the sector-scaled tolerance."""
    if have["sector"] != want["sector"]:
        return f"sector {have['sector']} != {want['sector']}"
    tol = TOL_PER_DIM * want["sector"]
    for key, scale in (("prob", 1), ("purity", 1), ("entropy_bits", ENTROPY_TOL_FACTOR)):
        if abs(have[key] - want[key]) > scale * tol:
            return f"{key} {have[key]!r} vs {want[key]!r} (tol {scale * tol:.3g})"
    a = np.zeros(max(len(have["eigenvalues"]), len(want["eigenvalues"])))
    b = np.zeros_like(a)
    a[: len(have["eigenvalues"])] = have["eigenvalues"]
    b[: len(want["eigenvalues"])] = want["eigenvalues"]
    worst = float(np.abs(a - b).max()) if a.size else 0.0
    if worst > tol:
        return f"eigenvalues off by {worst:.3g} (tol {tol:.3g})"
    return None


class Workload:
    """Inputs built from a seed, an endless stream of rounds, and checks."""

    name: str

    def build(self, seed: int):
        """Everything the timed phase needs; this is what ``setup_s`` times."""
        raise NotImplementedError

    def rounds(self, inputs, seed: int):
        """Endless rounds; by default every input once, in a seeded order."""
        rng = np.random.default_rng(seed)
        while True:
            yield [inputs[i] for i in rng.permutation(len(inputs))]

    def run(self, case):
        raise NotImplementedError

    def key(self, case):
        """Cases with one key do the same work; ``round_s.best`` sums the
        fastest time of each key."""
        return case

    def check(self, case, out) -> Optional[str]:
        raise NotImplementedError

    def finish(self, inputs, cases, root: Path, env: dict) -> tuple[int, list[str], dict]:
        """Checks and measurements after the timed phase.

        Returns operations attempted, failure messages, and extra metrics.
        """
        return 0, [], {}


class Paper(Workload):
    name = "paper"

    def __init__(self):
        self._checked = 0

    def build(self, seed: int):
        return scenarios.builtin_names()

    def run(self, name: str):
        return scenarios.run_spec(scenarios.get_builtin(name))

    def check(self, name: str, report) -> Optional[str]:
        """Every report must pass. The 1st, 2nd, 4th, 8th, ... case checked
        also renders, as ``idqsim run`` would, to the reference machine output;
        rendering costs about four times the case itself."""
        self._checked += 1
        if not report.passed:
            return f"{name}: expectations failed"
        render = self._checked & (self._checked - 1) == 0
        if render and digest(report.to_json() + "\n") != self.refs[name]:
            return f"{name}: machine output differs from the reference"
        return None

    def finish(self, inputs, cases, root: Path, env: dict):
        """Each builtin once through the command line, in the first round's order."""
        failures, times = [], []
        for name in cases[: len(inputs)]:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "idqsim.cli", "run", name, "--format", "machine"],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0 or digest(proc.stdout) != self.refs[name]:
                failures.append(f"cli run {name}: exit {proc.returncode} or output differs")
        return len(times), failures, {"cli_s.p50": (float(np.median(times)), "s")}

    @cached_property
    def refs(self) -> dict:
        return json.loads((REFS / "paper.json").read_text())


class Sweep(Workload):
    def __init__(self, name: str, shapes: tuple[Shape, ...]):
        self.name = name
        self.shapes = shapes

    def build(self, seed: int):
        return {
            (s.key, v): sweep_case(s, v) for s in self.shapes for v in range(POOL)
        }

    def rounds(self, inputs, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield [inputs[(s.key, int(rng.integers(POOL)))] for s in self.shapes]

    def run(self, case: SweepCase):
        return trace_and_measure(case)

    def key(self, case: SweepCase) -> str:
        return case.shape.key

    def check(self, case: SweepCase, out) -> Optional[str]:
        want = self.refs.get(case.key)
        if want is None:
            return f"{case.key}: no reference"
        problem = compare_record(reference_record(*out), want)
        return f"{case.key}: {problem}" if problem else None

    def finish(self, inputs, cases, root: Path, env: dict):
        """Compare every distinct small enough case with the labeled oracle."""
        distinct = {c.key: c for c in cases if c.shape.oracle_fits}
        failures = []
        for key in sorted(distinct):
            case = distinct[key]
            try:
                ours = reduction.partial_trace_iterate(case.state, case.stages)
                ref = comparator.oracle_trace_iterate(case.state, case.stages)
            except Exception as exc:  # noqa: BLE001 - a failed check is a result
                failures.append(f"{key}: oracle check raised {type(exc).__name__}: {exc}")
                continue
            tol = TOL_PER_DIM * ours.basis.size
            worst = max(float(np.abs(ours.mat - ref.mat).max()), abs(ours.prob - ref.prob))
            if worst > tol:
                failures.append(f"{key}: oracle differs by {worst:.3g} (tol {tol:.3g})")
        return len(distinct), failures, {"oracle_checks": (len(distinct), "count")}

    @cached_property
    def refs(self) -> dict:
        return json.loads((REFS / f"{self.name}.json").read_text())["cases"]


class Verify(Workload):
    name = "verify"

    def build(self, seed: int):
        return tuple(range(VERIFY_CASES))

    def run(self, k: int):
        return oracle_cross_check(k)

    def check(self, k: int, out) -> Optional[str]:
        ours, ref, entropy_gap, inner, oracle_inner = out
        tol = TOL_PER_DIM * ours.basis.size
        worst = max(
            float(np.abs(ours.mat - ref.mat).max()),
            abs(ours.prob - ref.prob),
            abs(entropy_gap) / ENTROPY_TOL_FACTOR,
        )
        if worst > tol:
            return f"cross-check {k}: traces differ by {worst:.3g} (tol {tol:.3g})"
        if abs(inner - oracle_inner) > tol * max(1.0, abs(inner)):
            return f"cross-check {k}: inner products differ by {abs(inner - oracle_inner):.3g}"
        return None

    def finish(self, inputs, cases, root: Path, env: dict):
        """``run_all`` over the fixed seeds: every property must pass."""
        failures, times, failed = [], [], 0
        for seed in VERIFY_SEEDS:
            t0 = time.perf_counter()
            results = verification.run_all(seed)
            times.append(time.perf_counter() - t0)
            bad = [r.name for r in results if not r.passed]
            failed += len(bad)
            if bad:
                failures.append(f"run_all({seed}) failed {', '.join(bad)}")
        return len(VERIFY_SEEDS), failures, {
            "run_all_s.p50": (float(np.median(times)), "s"),
            "verification.properties.checked": (len(VERIFY_SEEDS) * len(results), "count"),
            "verification.properties.failed": (failed, "count"),
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Paper(),
        Sweep("sweep-wide", WIDE_SHAPES),
        Sweep("sweep-deep", DEEP_SHAPES),
        Verify(),
    )
}
