"""Benchmark entry point for idqsim.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Builds nothing: it imports idqsim from ``src/`` of the checkout it sits in
and refuses to run without it. With ``--trace 0`` it times whole rounds of
the workload's cases until ``--seconds`` have passed and reports the
end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1`` it replays a
case list fixed by the seed and ``--seconds``, each round once plainly and
once with every layer wrapped, and reports the per-layer metrics; the full report,
spans included, goes to ``perfbench/out/``. Every line but the last is
for people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs each
workload in its own process and prints their reports one after another.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("paper", "sweep-wide", "sweep-deep", "verify")
# Set-up probes per run. The machine's speed drifts by up to a third within
# seconds, so a gated run spreads its probes over the timed phase and
# setup_s is the fastest of them, as round_s.best takes each input's
# fastest case; the median of probes made back to back moved 16-28%.
SETUP_PROBES = 20
# Untraced seconds of one round on the baseline machine. The traced run
# replays ceil(seconds / 2 / NOMINAL_ROUND_S) rounds: a case list that
# depends on the seed and --seconds only, so its counters repeat exactly.
NOMINAL_ROUND_S = {"paper": 0.02, "sweep-wide": 0.3, "sweep-deep": 0.05, "verify": 0.1}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cpu_model() -> str:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(nproc: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "commit": commit,
    }


def setup_probe(workload: str, seed: int) -> dict:
    """One fresh process that imports idqsim and builds the inputs."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cases(workload, cases, tracer=None):
    """Run ``cases`` back to back; time each call, check it untimed.

    Returns wall seconds per case, failure messages, and the process CPU
    seconds spent inside the cases.
    """
    durations, failures, cpu_s = [], [], 0.0
    for case in cases:
        if tracer is not None:
            tracer.case, tracer.paused = tracer.case + 1, False
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            out = workload.run(case)
        except Exception as exc:  # noqa: BLE001 - a failed case is a result
            problem = f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        durations.append(time.perf_counter() - t0)
        cpu_s += time.process_time() - cpu0
        if tracer is not None:
            tracer.paused = True
        if problem is None:
            problem = workload.check(case, out)
        if problem is not None:
            failures.append(problem)
    return durations, failures, cpu_s


def timed_rounds(workload, rounds, seconds: float, probe, probes: list):
    """Whole rounds until ``seconds`` of wall time have passed, with a set-up
    probe between rounds every ``seconds / SETUP_PROBES``."""
    cases, durations, failures, cpu_s = [], [], [], 0.0
    start = next_probe = time.perf_counter()
    while True:
        if time.perf_counter() >= next_probe:
            probes.append(probe())
            next_probe += seconds / SETUP_PROBES
        batch = next(rounds)
        d, f, c = run_cases(workload, batch)
        cases += batch
        durations += d
        failures += f
        cpu_s += c
        if time.perf_counter() - start >= seconds:
            return cases, durations, failures, cpu_s


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_round_s(workload, cases, durations) -> float:
    """One round with every input at its fastest time in the run."""
    fastest = {}
    for case, d in zip(cases, durations):
        k = workload.key(case)
        fastest[k] = min(d, fastest.get(k, d))
    return sum(fastest.values())


def case_peak_mb(workload, cases) -> float:
    """The largest ``tracemalloc`` peak of one case, over every distinct case.

    Untimed. It counts what the case allocates (Python objects and numpy
    arrays), not the interpreter and libraries that make up most of the
    process's resident memory.
    """
    peak = 0
    tracemalloc.start()
    try:
        for case in {id(c): c for c in cases}.values():
            gc.collect()  # garbage left by earlier work would count towards the peak
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                workload.run(case)
            except Exception:  # noqa: BLE001 - the timed phase counted it
                continue
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def gated_run(name: str, workload, inputs, seed: int, seconds: float, probe, probes):
    cases, durations, failures, cpu_s = timed_rounds(
        workload, workload.rounds(inputs, seed), seconds, probe, probes
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "round_s.best": (best_round_s(workload, cases, durations), "s"),
        "case_peak_mb": (case_peak_mb(workload, cases), "MB"),
        "cases_per_s": (len(durations) / sum(durations), "1/s"),
        "case_s.p50": (statistics.median(durations), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    attempted, more_failures, extra = workload.finish(inputs, cases, ROOT, child_env())
    if len(durations) >= 100:
        metrics["case_s.p90"] = (percentile(durations, 90), "s")
    metrics["cases"] = (len(durations), "count")
    metrics["proc.cpu_s"] = (cpu_s, "s")
    metrics.update(extra)
    failures += more_failures
    metrics["failed_frac"] = (len(failures) / (len(durations) + attempted), "1")
    return len(durations) + attempted, failures, metrics, None


def traced_run(name: str, workload, inputs, seed: int, seconds: float, probe, probes):
    """Every round runs plain and traced, in turn first, so warm caches favour
    neither side; tracing overhead compares the two sides' fastest round, as
    ``round_s.best`` does."""
    import tracer as tracing

    probes += [probe() for _ in range(SETUP_PROBES)]
    rounds = workload.rounds(inputs, seed)
    n_rounds = max(1, math.ceil(seconds / 2 / NOMINAL_ROUND_S[name]))
    tr = tracing.Tracer()
    cases, plain, traced, failures, cpu_s = [], [], [], [], 0.0
    for i in range(n_rounds):
        batch = next(rounds)
        for side in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                d, f, c = run_cases(workload, batch)
                plain += d
                cpu_s += c
            else:
                tracing.install(tr)
                try:
                    d, f, _ = run_cases(workload, batch, tr)
                finally:
                    tr.uninstall()
                traced += d
            failures += f
        cases += batch
    attempted, more_failures, extra = workload.finish(inputs, cases, ROOT, child_env())
    failures += more_failures

    metrics = {}
    for layer in tracing.LAYERS:
        agg = tr.layers[layer]
        metrics[f"{layer}.calls"] = (agg.calls, "count")
        metrics[f"{layer}.s"] = (agg.s, "s")
        metrics[f"{layer}.self_s"] = (agg.self_s, "s")
        metrics[f"{layer}.errors"] = (agg.errors, "count")
    for key, value in sorted(tr.counts.items()):
        metrics[key] = (value, "count")
    untraced_s = best_round_s(workload, cases, plain)
    traced_s = best_round_s(workload, cases, traced)
    metrics["proc.cpu_s"] = (cpu_s, "s")
    metrics["trace.cases"] = (len(cases), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(tr.spans), "count")
    metrics["trace.spans_dropped"] = (tr.spans_dropped, "count")
    metrics.update(extra)

    base = min((s[1] for s in tr.spans if s[2]), default=0.0)
    spans = [
        [i, s[0], round(s[1] - base, 9), round(s[2] - base, 9), s[3], s[4]]
        for i, s in enumerate(tr.spans)
    ]
    report = {
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "case"],
        "spans": spans,
        "split": layer_split(metrics, sum(traced)),
    }
    return len(cases) * 2 + attempted, failures, metrics, report


# Layers under states.inner; inner's inclusive time counts them.
_INNER_CHILDREN = (
    "states.overlap_elementary", "permanents.permanent", "permanents.determinant",
)
_ORACLE = (
    "comparator.symmetrize", "comparator.oracle_inner",
    "comparator.oracle_trace_iterate", "comparator.occupation_isometry",
)


def layer_split(metrics: dict, traced_s: float) -> dict:
    """Shares of the traced case time: coords self time, inner with children."""
    self_times = {
        layer[: -len(".self_s")]: v
        for layer, (v, _) in metrics.items()
        if layer.endswith(".self_s")
    }
    inner = metrics["states.inner.s"][0]
    outside_inner = {
        k: v for k, v in self_times.items()
        if k not in ("states.inner", "hilbert.sp_inner") + _INNER_CHILDREN
    }
    return {
        "coords_self_share": self_times["reduction.coords"] / traced_s,
        "coords_self_is_largest": max(self_times, key=self_times.get) == "reduction.coords",
        "inner_share": inner / traced_s,
        "inner_is_largest": inner >= max(outside_inner.values()),
        "oracle_calls": sum(metrics[f"{k}.calls"][0] for k in _ORACLE),
    }


def run_one(args, declared: dict) -> int:
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    probes = []
    try:
        import idqsim

        if Path(idqsim.__file__).resolve().parent != SRC / "idqsim":
            raise RuntimeError(f"idqsim imported from {idqsim.__file__}, not {SRC}")
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        inputs = workload.build(args.seed)
        run = traced_run if args.trace else gated_run
        attempted, failures, metrics, report = run(
            args.workload, workload, inputs, args.seed, args.seconds,
            lambda: setup_probe(args.workload, args.seed), probes,
        )
    except Exception as exc:  # noqa: BLE001 - report and exit non-zero
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    metrics["setup_s"] = (min(p["setup_s"] for p in probes), "s")
    metrics["setup_s.p50"] = (statistics.median(p["setup_s"] for p in probes), "s")
    metrics["setup_probes"] = (len(probes), "count")
    metrics["cli.import_s"] = (min(p["import_s"] for p in probes), "s")
    env = environment(nproc, args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:<48} {value:>14.6g} {unit}")
    for problem in failures[:20]:
        print(f"  FAILED {problem}")
    if report is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        report.update(
            environment=env,
            workload=args.workload,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        )
        path.write_text(json.dumps(report))
        print(f"  split {json.dumps(report['split'])}")
        print(f"  trace written to {path.relative_to(ROOT)}")

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        if m["unit"] == "count":
            metrics.setdefault(m["name"], (0, "count"))  # the event never happened
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr, flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "idqsim" / "__init__.py").is_file():
        print(f"perfbench: no idqsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        print(f"perfbench: {spec} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, json.loads(spec.read_text()))


if __name__ == "__main__":
    sys.exit(main())
