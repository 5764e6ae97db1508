"""Command line front end: run scenarios, list them, verify invariants.

Exit codes: 0 all good, 1 an expectation or property failed, 2 bad input
(unknown scenario, malformed file, non-finite number, plan that does not fit
the state, measurement that cannot fire), a broken install (a builtin
scenario file missing from the package) or a problem too large for memory
(reported as ``error: out of memory: ...``, without a traceback), 3
numerical trouble (a matrix that should be a state is not).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from .errors import NotPSDError, SimulationError
from .scenarios import builtin_names, get_builtin, run_file, run_spec
from .verification import run_all

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idqsim",
        description="entanglement scenarios for identical qubits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run a builtin or file scenario")
    p_run.add_argument("name", nargs="?", help="builtin scenario name")
    p_run.add_argument("--file", metavar="PATH", help="scenario JSON file")
    p_run.add_argument(
        "--format",
        choices=("table", "machine"),
        default="table",
        help="human table or deterministic JSON (default: table)",
    )
    p_run.add_argument(
        "--tolerance",
        type=float,
        metavar="T",
        help="tighten every expectation tolerance to at most T",
    )
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the seeded property checks")
    p_verify.add_argument("--seed", type=_seed, default=0, help="base seed (default 0)")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def _seed(text: str) -> int:
    """``--seed`` value: numpy seeds must be non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _cmd_list(args) -> tuple[int, str]:
    return EXIT_OK, "".join(f"{name:<28} {get_builtin(name).title}\n" for name in builtin_names())


def _cmd_run(args) -> tuple[int, str]:
    if (args.name is None) == (args.file is None):
        print("error: give exactly one of a scenario name or --file", file=sys.stderr)
        return EXIT_INPUT, ""
    if args.tolerance is not None and not 0 < args.tolerance < math.inf:
        print("error: --tolerance must be a positive finite number", file=sys.stderr)
        return EXIT_INPUT, ""
    if args.file is not None:
        report = run_file(args.file, args.tolerance)
    else:
        report = run_spec(get_builtin(args.name), args.tolerance)
    text = report.to_json() if args.format == "machine" else report.to_table()
    return (EXIT_OK if report.passed else EXIT_FAILED), text + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    results = run_all(args.seed)
    good = sum(r.passed for r in results)
    lines = [f"[{'pass' if r.passed else 'FAIL'}] {r.name}: {r.detail}\n" for r in results]
    lines.append(f"verified {good}/{len(results)} properties (seed {args.seed})\n")
    return (EXIT_OK if good == len(results) else EXIT_FAILED), "".join(lines)


def _write(text: str) -> None:
    """Write ``text`` to stdout. A reader that closed the pipe early (as
    ``| head`` does) wants no more of it: the rest is dropped without a
    word, and stdout is pointed at the null device, so the interpreter's
    final flush has nothing left to fail on."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code. A command computes its
    verdict and its whole output before anything is written, so a closed
    output pipe cannot change the verdict."""
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
    except NotPSDError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SimulationError as exc:  # ScenarioError, ZeroProbabilityError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # numpy's "Unable to allocate ..." among them
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
