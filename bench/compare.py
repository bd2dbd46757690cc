"""Compare two result files of the gate benchmark.

    python3 bench/compare.py A.json B.json

prints one row per workload x end-to-end metric: the base value (A), the
change to B, the bound ``BENCHMARK.json`` fixes for that metric, the
run-to-run spread when the files hold repeated runs (``run.py --repeat
N``), and a verdict:

* ``worse``        B's median is worse than A's by more than the bound;
* ``better``       every run of B reads better than every run of A, or
                   B's median is better by more than the spread;
* ``within-bound`` neither;
* ``unresolved``   the spread is wider than the bound, so the runs cannot
                   tell (reported instead of "unchanged").

It refuses (exit 2) to compare results whose seed, inputs digest or
``BENCHMARK.json`` hash differ: those are different experiments.  Exit 1
when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:] = [str(ROOT)] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != BENCH_DIR
]

from bench.stats import median, spread_share  # noqa: E402


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> tuple[str, float, Optional[float]]:
    """(verdict, share by which ``new`` is worse, spread or None)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = median(base), median(new)
    worse = sign * (new_median - base_median) / abs(base_median)
    spread = None
    if len(base) > 1 and len(new) > 1:
        spread = max(spread_share(base), spread_share(new))
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if spread is not None and spread > bound:
        return ("better" if all_better else "unresolved"), worse, spread
    if worse > bound:
        return "worse", worse, spread
    if all_better and len(new) > 1:
        return "better", worse, spread
    if -worse > (spread if spread is not None else bound):
        return "better", worse, spread
    return "within-bound", worse, spread


def _runs(metric: dict) -> list[float]:
    return list(metric.get("runs") or [metric["value"]])


def mismatches(a: dict, b: dict) -> list[str]:
    """Reasons the two documents are not the same experiment."""
    reasons = []
    for key in ("benchmark_hash", "seed", "seconds", "smoke"):
        if a.get(key) != b.get(key):
            reasons.append(f"{key}: {a.get(key)!r} vs {b.get(key)!r}")
    for name in sorted(set(a["results"]) & set(b["results"])):
        left = a["results"][name]["inputs_digest"]
        right = b["results"][name]["inputs_digest"]
        if left != right:
            reasons.append(f"{name} inputs_digest: {left[:12]} vs {right[:12]}")
    if not set(a["results"]) & set(b["results"]):
        reasons.append("no workload in common")
    return reasons


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["results"] or name not in b["results"]:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            base = _runs(a["results"][name]["metrics"][key])
            new = _runs(b["results"][name]["metrics"][key])
            outcome, worse, spread = verdict(
                base, new, metric["better"], metric["bound"]
            )
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "base": median(base), "new": median(new),
                "delta_share": (median(new) - median(base)) / abs(median(base)),
                "worse_share": worse, "bound": metric["bound"],
                "spread_share": spread, "verdict": outcome,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(args.base.read_text())
    b = json.loads(args.new.read_text())
    if a.get("trace") or b.get("trace"):
        print("refusing to compare: traced runs carry no end-to-end metrics")
        return 2
    reasons = mismatches(a, b)
    if reasons:
        print("refusing to compare different experiments:")
        for reason in reasons:
            print(f"  {reason}")
        return 2
    rows = compare(a, b, spec)
    print(f"{'workload':15s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'delta':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        spread = "n/a" if row["spread_share"] is None else f"{row['spread_share']:.1%}"
        print(f"{row['workload']:15s} {row['metric']:18s} {row['base']:12.5g} "
              f"{row['new']:12.5g} {row['delta_share']:+8.1%} {row['bound']:6.0%} "
              f"{spread:>7s}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
