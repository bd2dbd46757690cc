"""A tiny run of every workload emits exactly what BENCHMARK.json names."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_keeps_to_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 20) < 3420, "no room for set-up"


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_exactly_the_declared_names(trace, tmp_path):
    started = time.perf_counter()
    out = tmp_path / "result.json"
    finished = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
         "--smoke", "--seconds", "1", "--seed", "47", "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert finished.returncode == 0, finished.stdout[-3000:] + finished.stderr[-3000:]
    assert time.perf_counter() - started < 30
    last = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    document = json.loads(out.read_text())
    assert set(document["results"]) == {w["name"] for w in SPEC["workloads"]}
    assert {"nproc", "python", "numpy", "platform"} <= set(document["machine"])
    for result in document["results"].values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(NAME.match(key) for key in result["metrics"])
        assert all(check["ok"] for check in result["checks"])
        assert result["jobs"] >= 1 and result["senders"] >= 1
        assert len(result["inputs_digest"]) == 64
    if trace:
        spans = json.loads(
            (ROOT / "bench" / "out" / "spans-serve_open-seed47.json").read_text()
        )["spans"]
        assert {"name", "start", "end", "parent", "request_id"} <= set(spans[0])
        children = [s for s in spans if s["name"] == "sql.parse"]
        assert children and all(s["parent"] is not None for s in children)
