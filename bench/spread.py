"""Run-to-run spread of every end-to-end metric, the way the gate takes it.

    python3 bench/spread.py [--seeds 10] [--first-seed 100] [--workload NAME]

runs each workload once per seed through ``bench/run.py`` (a fresh
process each time, as the gate does), and prints for each metric the
median, the inter-quartile distance as a share of the median, and the
bound from ``BENCHMARK.json``.  A spread above its bound would make the
gate reject the benchmark itself; aim for a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:] = [str(ROOT)] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != BENCH_DIR
]

from bench.stats import quartiles, spread_share  # noqa: E402


def run(workload: str, seed: int, seconds: float) -> dict:
    finished = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if finished.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {finished.returncode}:\n"
            f"{finished.stdout[-2000:]}\n{finished.stderr[-2000:]}"
        )
    return json.loads(finished.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict = {}
    wide = 0
    for name in names:
        series: dict[str, list[float]] = {key: [] for key in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.perf_counter()
            result = run(name, seed, spec["run_seconds"])
            walls.append(time.perf_counter() - started)
            for key in bounds:
                series[key].append(result["metrics"][key]["value"])
        print(f"== {name}  (wall per run: median {quartiles(walls)[1]:.1f} s, "
              f"max {max(walls):.1f} s)")
        table[name] = {}
        for key, values in series.items():
            q1, q2, q3 = quartiles(values)
            spread = spread_share(values)
            flag = ""
            if key != "setup_s" and spread > bounds[key]:
                flag, wide = "  <-- wider than the bound", wide + 1
            elif key != "setup_s" and spread > bounds[key] / 3:
                flag = "  (over a third of the bound)"
            print(f"{key:20s} median {q2:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[key]:.2f}{flag}")
            table[name][key] = {
                "median": q2, "q1": q1, "q3": q3, "spread_share": spread,
                "runs": values,
            }
    if args.out:
        args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
