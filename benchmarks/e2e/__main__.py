"""Command line of the end-to-end benchmark.

From the repository root, either form works::

    python -m benchmarks.e2e run --seed 0 [--workload NAME] [--trace] [--out RUN.json]
    python3 benchmarks/e2e/__main__.py run --workload region_map --seed 3 --seconds 15 --trace 0
    python -m benchmarks.e2e layers RUN.json
    python -m benchmarks.e2e record [--runs 10]

``run`` builds nothing and needs no ``PYTHONPATH``: the workload processes
import the program from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

if not __package__:  # run as a script: make the checkout root importable
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import ROOT, RUN_SECONDS, WORKLOADS, layers  # noqa: E402
from benchmarks.e2e.harness import HarnessError, run  # noqa: E402
from benchmarks.e2e.record import record  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run workloads and print their metrics")
    p_run.add_argument("--workload", choices=WORKLOADS, default=None,
                       help="one workload (default: all four)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                       help="length of each workload's timed window")
    p_run.add_argument("--ops", type=int, default=None,
                       help="run exactly this many operations instead of a timed window")
    p_run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                       help="report per-layer metrics from a traced run")
    p_run.add_argument("--out", default=None, metavar="RUN.json",
                       help="also write the full result, layer table included")

    p_layers = sub.add_parser("layers", help="print the per-layer table of a traced RUN.json")
    p_layers.add_argument("path")

    p_record = sub.add_parser(
        "record", help="append median and quartiles of repeated runs, plus a "
                       "traced layer table, to benchmarks/history/BENCH_e2e.json")
    p_record.add_argument("--runs", type=int, default=10,
                          help="untraced runs per workload, seeds 0..runs-1")
    p_record.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so running workload processes are killed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if args.command == "layers":
        return layers.main(args.path)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        if args.command == "record":
            return record(runs=args.runs, seconds=args.seconds)
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return run(workloads, seed=args.seed, seconds=args.seconds, ops=args.ops,
                   trace=bool(args.trace), out=args.out)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
