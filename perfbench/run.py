"""Run one benchmark workload, or all of them, and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload city --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed; ``--workload all`` runs each
workload in its own process (so each peak RSS is that workload's own)
and fails if any of them does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("city", "soak", "storm", "storm_async")


def use_checkout() -> bool:
    """Put the checkout's ``src`` first on the import path; False if the
    program's source is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1, also write every span as "
                             "JSON lines to FILE when the run ends")
    return parser.parse_args(argv)


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = parse(argv)
    if not use_checkout():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Telemetry stays off, as shipped, whatever the caller's environment.
    os.environ.pop("ANDRONE_TRACE", None)
    from perfbench.metrics import END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import WORKLOADS

    measure, trace = WORKLOADS[args.workload]
    if args.trace:
        report = trace(args.seed, spans_path=args.spans)
    else:
        report = measure(args.seed, args.seconds)
    missing = [name for name in (PER_LAYER if args.trace else END_TO_END)
               if name not in report.metrics]
    report.check(not missing, f"metrics not measured: {missing}")
    for name, value in report.metrics.items():
        print(f"{args.workload:12} {name:36} {value:>16.6g} {UNITS[name]}")
    for note in report.notes:
        print(f"{args.workload:12} note: {note}")
    for problem in report.problems:
        print(f"{args.workload:12} CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in report.metrics.items()},
    }), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
