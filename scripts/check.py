"""Run the repository's static analysis gate (lint + typing).

Usage (from the repository root)::

    PYTHONPATH=src python scripts/check.py                # human output
    PYTHONPATH=src python scripts/check.py --format json  # CI / tooling
    PYTHONPATH=src python scripts/check.py --no-mypy      # AST lint only

Runs Pack A (the ``RDnnn`` codebase-contract rules) and the static
half of Pack C (the ``CC0xx`` concurrency rules, see
docs/STATIC_ANALYSIS.md and docs/CONCURRENCY.md) over ``src/repro`` in
one walk, and then mypy with the ``pyproject.toml`` configuration.
This is the one entry point for both packs' source rules.  Exits 0 only
when both halves are clean.
Environments without mypy still run the full AST lint — including the
RD009 annotation gate — and report the mypy half as skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.runner import run_checks  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Self-lint src/repro and run the mypy typing gate."
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--no-mypy", action="store_true",
        help="skip the mypy half (AST lint only)",
    )
    args = parser.parse_args(argv)
    report = run_checks(repo_root=REPO_ROOT, with_mypy=not args.no_mypy)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render_text())
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
