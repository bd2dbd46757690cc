"""The gate benchmark's one command.

    python3 bench/run.py --workload serve_open --seed 31 --seconds 10 --trace 0

prints every metric of that run by name with its unit, checks the
program's outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every check passed.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is a separate, shorter run that
records spans around calls into each layer and reports the per-layer
metrics.  ``BENCHMARK.json`` (one directory up) names the workloads and
fixes every metric's unit, direction and bound.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Import ``bench`` as a package and ``repro`` from this checkout's sources,
# and keep this directory itself off the path so that no file here can
# shadow a standard-library module.
sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != BENCH_DIR
]


def load_spec() -> tuple[dict, str]:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    return json.loads(raw), hashlib.sha256(raw).hexdigest()


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N times, report median and quartiles")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every path in seconds")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: bench/out/result-*.json)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    args.names = names if args.workload == "all" else [args.workload]
    return args


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_once(name: str, args, spec: dict) -> dict:
    """One run of one workload: its metrics, checks and detail."""
    from repro import ioutils

    from bench import layers
    from bench.served import reset_peak_rss
    from bench.sizes import cpu_budget, full, smoke
    from bench.spans import Tracer
    from bench.stats import median
    from bench.workloads import WORKLOADS, Context

    traced = bool(args.trace)
    sizes = smoke() if args.smoke else full()
    seconds = args.seconds
    if traced:
        sizes = replace(sizes, setup_repeats=1)
        seconds *= sizes.trace_seconds_share
    OUT_DIR.mkdir(exist_ok=True)
    reset_peak_rss()
    tracer = Tracer(enabled=traced)
    with ExitStack() as stack:
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        stack.callback(shutil.rmtree, workdir, ignore_errors=True)
        ctx = Context(
            workload=name, seed=args.seed, seconds=seconds, sizes=sizes,
            jobs=cpu_budget(), senders=cpu_budget(), workdir=workdir,
            tracer=tracer, stack=stack,
        )
        measured = WORKLOADS[name](ctx)
        if traced:
            values = layers.measure_all(ctx, measured.detail)
            ctx.checks.add(
                "api.layer_coverage_share >= floor",
                values["api.layer_coverage_share"] >= sizes.coverage_floor,
                f"{values['api.layer_coverage_share']:.3f} (floor {sizes.coverage_floor})",
            )
        else:
            values = {
                "setup_s": median(measured.setup_s),
                "latency_p50_ms": measured.summary["latency_p50_ms"],
                "throughput_per_s": measured.summary["throughput_per_s"],
                "slo_met_share": measured.summary["slo_met_share"],
                "within20_elapsed": measured.within20_elapsed,
                "peak_rss_mb": measured.peak_rss_mb,
            }
    # Everything the run held open is released by now.
    ctx.checks.add(
        "daemon reaped",
        ctx.daemon is None or ctx.daemon.process.poll() is not None,
    )
    ctx.checks.add("temporary directory removed", not workdir.exists())
    planes = ioutils.active_plane_names()
    ctx.checks.add("no shared-memory plane left", not planes, ", ".join(planes))
    if traced:
        tracer.write(OUT_DIR / f"spans-{name}-seed{args.seed}.json")

    declared = spec["per_layer" if traced else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    ctx.checks.add(
        "metrics are exactly those BENCHMARK.json declares",
        set(values) == set(units),
        ", ".join(sorted(set(values) ^ set(units))),
    )
    return {
        "workload": name,
        "correct": ctx.checks.ok,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": units.get(key, "")}
            for key in sorted(values)
        },
        "checks": ctx.checks.results,
        "inputs_digest": measured.inputs_digest,
        "setup_s_all": measured.setup_s,
        "summary": measured.summary,
        "detail": measured.detail,
        "jobs": ctx.jobs,
        "senders": ctx.senders,
    }


def combine(runs: list[dict]) -> dict:
    """Median and quartiles per metric over repeated runs of one workload."""
    from bench.stats import quartiles, spread_share

    combined = dict(runs[-1])
    combined["correct"] = all(run["correct"] for run in runs)
    combined["attempted"] = sum(run["attempted"] for run in runs)
    combined["failed"] = sum(run["failed"] for run in runs)
    combined["repeats"] = len(runs)
    for key, metric in combined["metrics"].items():
        series = [run["metrics"][key]["value"] for run in runs]
        q1, q2, q3 = quartiles(series)
        combined["metrics"][key] = {
            "value": q2, "unit": metric["unit"], "q1": q1, "q3": q3,
            "spread_share": spread_share(series), "runs": series,
        }
    combined["checks"] = [check for run in runs for check in run["checks"]]
    return combined


def report(result: dict) -> None:
    print(f"== {result['workload']}: {result['detail']['loop']}")
    for key, metric in result["metrics"].items():
        line = f"{key:40s} {metric['value']:14.6g} {metric['unit']}"
        if "q1" in metric:
            line += f"   [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}]"
        print(line)
    pooled = result["summary"]["pooled"]
    print(
        f"pooled over {pooled['samples']} operations: "
        f"p50 {pooled['latency_p50_ms']:.3f} ms, "
        f"p{pooled['tail_percentile']:g} {pooled['latency_tail_ms']:.3f} ms, "
        f"{pooled['throughput_per_s']:.2f}/s, "
        f"within limit {pooled['slo_met_share']:.4f}"
    )
    for key, value in result["detail"].items():
        print(f"  {key}: {value}")
    print(f"  inputs_digest: {result['inputs_digest']}")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['name']}  {check['detail']}")


def main(argv=None) -> int:
    from bench import procs

    # Unwind (and so reap the daemon, drop the temp dir) when asked to stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    procs.adopt_orphans()
    try:
        return run(argv)
    finally:
        # Last thing on every path out: no process this run started is
        # left, not even the shared-memory tracker multiprocessing keeps.
        ioutils = sys.modules.get("repro.ioutils")
        if ioutils is not None:
            ioutils.close_all_planes()
        procs.reap_children()


def run(argv) -> int:
    spec, spec_hash = load_spec()
    args = parse_args(argv, spec)
    results = {}
    for name in args.names:
        runs = [run_once(name, args, spec) for _ in range(args.repeat)]
        results[name] = combine(runs) if args.repeat > 1 else runs[0]
        report(results[name])
    document = {
        "benchmark_hash": spec_hash,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(),
        "results": results,
    }
    out = args.out or OUT_DIR / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")

    last = results[args.names[-1]]
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {
            key: {"value": metric["value"], "unit": metric["unit"]}
            for key, metric in last["metrics"].items()
        },
    }))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
