"""No process the benchmark starts is left when it exits."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Runs in an interpreter of its own: reaping waits for *every* child, and
# adopting orphans changes the process, neither of which pytest should see.
SCRIPT = textwrap.dedent("""
    import json, subprocess, time
    from multiprocessing import resource_tracker
    from bench import procs

    assert procs.adopt_orphans()
    resource_tracker.ensure_running()      # what a shared-memory plane starts
    direct = subprocess.Popen(["sleep", "300"])
    # a grandchild whose parent is gone, deaf to SIGTERM
    shell = subprocess.run(
        ["sh", "-c", "trap '' TERM; sleep 300 >/dev/null 2>&1 & echo $!"],
        capture_output=True, text=True, check=True)
    time.sleep(0.2)
    before = procs.child_pids()
    started = time.monotonic()
    procs.reap_children(grace_s=0.5)
    print(json.dumps({"before": len(before), "after": procs.child_pids(),
                      "orphan": int(shell.stdout),
                      "took_s": time.monotonic() - started}))
""")


def test_reap_children_leaves_nothing_running():
    finished = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        cwd=ROOT, timeout=60,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    seen = json.loads(finished.stdout)
    # tracker, direct child, adopted grandchild: all gone, the deaf one killed
    assert seen["before"] == 3 and seen["after"] == [] and seen["took_s"] < 5
    assert not os.path.exists(f"/proc/{seen['orphan']}")
