"""Measure the baseline: run-to-run spread, repeatable counts, layer split.

    python3 perfbench/baseline.py [--write]

Runs every workload ten times untraced, with seeds 0 to 9, and reports per
end-to-end metric the median, the quartiles and their distance as a share of
the median (``statistics.quantiles(n=4)``), next to the metric's bound from
``BENCHMARK.json``. Every spread must stay within its bound; one above a
third of the bound is flagged. It then runs every workload traced twice with
seed 0, requires every count to repeat exactly, and checks the layer split
the workloads were sized for. ``--write`` stores all of it, with the
environment, in ``perfbench/baseline.json``. Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(10)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported failures:\n{proc.stdout}")
    report = {}
    if trace:
        report = json.loads((BENCH / "out" / f"trace-{workload}-seed{seed}.json").read_text())
    return result, report


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def counts(report: dict) -> dict:
    return {k: v["value"] for k, v in report["metrics"].items() if v["unit"] == "count"}


# The split each sweep was sized for (see workloads.py); checked at the
# baseline commit only, since an optimisation is meant to move it.
SPLIT_RULES = {
    "sweep-wide": lambda s: s["coords_self_is_largest"] and s["inner_share"] < 0.1,
    "sweep-deep": lambda s: s["inner_is_largest"] and s["coords_self_share"] < 1 / 3,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in NAMES}
    for seed in SEEDS:  # workloads inner, so drifting machine load hits all alike
        for w in NAMES:
            result, _ = run(w, seed, 0)
            for m, v in result["metrics"].items():
                values[w][m].append(v["value"])
    ok = True
    e2e = {}
    for w in NAMES:
        e2e[w] = {}
        for m, vals in values[w].items():
            s = spread(vals)
            e2e[w][m] = s
            ok &= s["spread"] <= bounds[m]
            note = ""
            if s["spread"] > bounds[m]:
                note = "  (ABOVE THE BOUND)"
            elif s["spread"] > bounds[m] / 3:
                note = "  (above a third of the bound)"
            print(f"{w:<11} {m:<12} median {s['median']:<12.6g} spread "
                  f"{s['spread']:7.2%}  bound {bounds[m]:.0%}{note}"
                  f"  values {' '.join(f'{v:.4g}' for v in vals)}")

    traced = {}
    for w in NAMES:
        (_, report), (_, again) = (run(w, SEEDS[0], 1) for _ in range(2))
        repeat = counts(report) == counts(again)
        split = report["split"]
        rule = SPLIT_RULES.get(w)
        split_ok = rule(split) if rule else True
        oracle_ok = (split["oracle_calls"] > 0) == (w == "verify")
        ok &= repeat and split_ok and oracle_ok
        traced[w] = {
            "counts_repeat": repeat,
            "split": split,
            "split_holds": split_ok and oracle_ok,
            "metrics": {k: v["value"] for k, v in report["metrics"].items()},
        }
        print(f"{w:<11} counts repeat {repeat}, split {json.dumps(split)}, "
              f"holds {split_ok and oracle_ok}")

    if args.write:
        out = {
            "environment": report["environment"],
            "run_seconds": SPEC["run_seconds"],
            "seeds": list(SEEDS),
            "end_to_end": e2e,
            "traced": traced,
            "checks_pass": ok,
        }
        (BENCH / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
