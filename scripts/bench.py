"""Run the two component ratio sections of ``repro.experiments.bench``.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench.py                 # full run
    PYTHONPATH=src python scripts/bench.py --quick         # CI smoke
    PYTHONPATH=src python scripts/bench.py --out report.json

Prints a human summary and optionally writes the machine-readable JSON
report (schema in docs/PERFORMANCE.md).  End-to-end speed is the gate
benchmark's job: ``python3 bench/run.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.bench import format_report, run_benchmarks  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Component ratio benchmarks (see docs/PERFORMANCE.md)."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: tiny workloads, a few seconds total",
    )
    parser.add_argument(
        "--label", default="pr2", help="report label (default pr2)"
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write the JSON report here",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(quick=args.quick, label=args.label, out=args.out)
    print(format_report(report))
    if args.out is not None:
        print(f"\nreport written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
