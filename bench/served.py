"""The serving daemon as its own process, always reaped."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from repro.errors import ServeError
from repro.serve import ServeClient

from bench.procs import die_with_parent

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
HOST = "127.0.0.1"
_BANNER = re.compile(r"serving on http://[^:]+:(\d+)\s")


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` importable,
    stdout unbuffered so the readiness banner arrives when it is printed."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited if inherited else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    status = Path(f"/proc/{pid if pid is not None else os.getpid()}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def reset_peak_rss() -> None:
    """Start this process's ``VmHWM`` afresh, so that a run in a process
    that already ran others reports its own peak.  Best effort: without
    the kernel interface the peak simply carries over."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


class DaemonProcess:
    """``python -m repro serve --model ART --port 0`` with default knobs.

    ``spawn_to_ready_s`` covers process start to the first ``/healthz``
    200.  ``stop`` terminates, waits, and kills if the drain overruns, so
    no child outlives the benchmark whatever happened in between.
    """

    def __init__(self, artifact: Path, ready_timeout_s: float = 60.0) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model", str(artifact), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            text=True,
            preexec_fn=die_with_parent,
        )
        try:
            banner = self.process.stdout.readline()
            match = _BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"daemon did not announce a port: {banner!r}")
            self.port = int(match.group(1))
            deadline = started + ready_timeout_s
            while True:
                try:
                    self.model_version = self.client().health()["model_version"]
                    break
                except ServeError:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.spawn_to_ready_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    def client(self) -> ServeClient:
        return ServeClient(HOST, self.port, client_id="bench")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
