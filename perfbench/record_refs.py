"""Record the reference outputs the benchmark checks every case against.

    python3 perfbench/record_refs.py

Writes ``perfbench/refs/paper.json`` (the SHA-256 of the exact stdout of
``idqsim run <builtin> --format machine``) and ``perfbench/refs/<sweep>.json``
(probability, entropy, purity and the nonzero spectrum of every sweep pool
entry). It also confirms that every pool entry small enough for the labeled
oracle agrees with it and that every verify seed passes. References pin the
numbers of the commit they were recorded at; record them again only when a
change to the numbers is intended and explained.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from idqsim import scenarios, verification  # noqa: E402

import workloads as wl  # noqa: E402


def record_paper() -> None:
    digests = {}
    for name in scenarios.builtin_names():
        proc = subprocess.run(
            [sys.executable, "-m", "idqsim.cli", "run", name, "--format", "machine"],
            cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
            capture_output=True,
            text=True,
            check=True,
        )
        digests[name] = wl.digest(proc.stdout)
    path = wl.REFS / "paper.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{path.relative_to(ROOT)}: {len(digests)} builtins")


def record_sweep(workload: wl.Sweep) -> None:
    cases = {}
    for shape in workload.shapes:
        for variant in range(wl.POOL):
            case = wl.sweep_case(shape, variant)
            cases[case.key] = wl.reference_record(*wl.trace_and_measure(case))
    pool = [wl.sweep_case(s, v) for s in workload.shapes for v in range(wl.POOL)]
    checked, failures, _ = workload.finish(None, pool, ROOT, {})
    if failures:
        raise SystemExit("\n".join(failures))
    path = wl.REFS / f"{workload.name}.json"
    path.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"{path.relative_to(ROOT)}: {len(cases)} cases, {checked} checked by the oracle")


def main() -> None:
    record_paper()
    for workload in wl.WORKLOADS.values():
        if isinstance(workload, wl.Sweep):
            record_sweep(workload)
    for seed in wl.VERIFY_SEEDS:
        failed = [r.name for r in verification.run_all(seed) if not r.passed]
        if failed:
            raise SystemExit(f"verify seed {seed} fails {failed}")
    print(f"verify seeds {wl.VERIFY_SEEDS} pass")


if __name__ == "__main__":
    main()
