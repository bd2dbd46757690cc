"""Self-healing serving: the daemon as a supervised, restartable child.

A crashed serving process should be a blip, not an outage.
:class:`Supervisor` owns the listening socket and runs the
:class:`~repro.serve.daemon.PredictionDaemon` in a forked child
process; the parent does nothing but watch and heal:

* **The socket outlives the child.**  The parent binds and listens once;
  every child generation inherits the same file descriptor across
  :func:`os.fork`, so the address never closes.  While no child is
  alive (a restart gap, or after give-up) the parent itself answers
  accepted connections with a minimal structured 503 + ``Retry-After``
  — clients never see a connection reset.
* **Crash → restart with backoff.**  The parent reaps the child with
  ``waitpid`` and health-checks it over ``GET /healthz``; a death (any
  exit code or signal, including ``kill -9``) or a wedged child
  (consecutive failed health checks → SIGKILL) triggers a respawn after
  an exponentially growing backoff.
* **Crash loops give up loudly.**  More than ``max_restarts`` restarts
  inside ``restart_window_s`` means the fault is deterministic —
  restarting forever would just burn the machine.  The supervisor stops
  respawning, keeps serving structured 503s, and the journal says why.
* **Everything is journaled.**  Spawns, exits (with code/signal),
  hang-kills, restarts and give-up are appended as JSONL with
  *monotonic offsets* (never wall-clock) to the crash journal, so a
  post-mortem can replay the timeline of a chaos drill exactly.

The module is also the process-control chokepoint: rule RD013 confines
``os.fork``/``os.kill``/``signal.signal`` to this file and
``repro/resilience/``, so stray process management cannot grow
elsewhere in the tree.  See docs/SERVING.md for the operational guide
and ``tests/test_serve_chaos.py`` for the kill -9 drills.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.analysis.sanitizer import guarded_by, make_lock, note_access
from repro.errors import ReproError, SupervisorError
from repro.obs.metrics import get_registry, metrics_enabled
from repro.resilience.faults import fault_site
from repro.serve import wire
from repro.serve.config import ServeConfig

__all__ = ["Supervisor", "SupervisorConfig", "install_signal_handler"]

#: Largest request body the parent reads before answering its 503.
_DRAIN_BYTES = 1 << 16
#: Multiplier applied to the respawn backoff per consecutive restart.
_BACKOFF_FACTOR = 2.0
#: Per-health-check HTTP timeout.
_HEALTH_TIMEOUT_S = 1.0
#: Consecutive failed health checks after which a live-but-wedged child
#: is SIGKILLed and restarted.
_HANG_CHECKS = 5
#: Graceful SIGTERM drain allowance at :meth:`Supervisor.stop` before
#: escalating to SIGKILL.
_STOP_TIMEOUT_S = 5.0
#: The ``Retry-After`` hint on parent-served 503s.
_RETRY_AFTER_S = 0.5


def install_signal_handler(signame: str, handler):
    """Install ``handler`` for the named signal, main thread only.

    The one sanctioned ``signal.signal`` wrapper (rule RD013): the
    daemon's SIGHUP reload and the child's SIGTERM drain both route
    through here.  Returns the previous handler, or None when not on
    the main thread (signals cannot be installed there; callers treat
    that as "no handler installed").
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    signum = getattr(signal, signame) if isinstance(signame, str) else signame
    return signal.signal(signum, handler)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs.

    Attributes:
        max_restarts: restarts tolerated inside ``restart_window_s``
            before the supervisor gives up (crash-loop detection).
        restart_window_s: the sliding window those restarts are counted
            in.
        backoff_initial_s: delay before the first respawn; each
            consecutive restart doubles it, up to ``backoff_max_s``.
        backoff_max_s: backoff ceiling.
        health_interval_s: delay between child health checks.
        crash_journal: JSONL journal path; None keeps events in memory
            only.
    """

    max_restarts: int = 5
    restart_window_s: float = 30.0
    backoff_initial_s: float = 0.05
    backoff_max_s: float = 2.0
    health_interval_s: float = 0.1
    crash_journal: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise SupervisorError("max_restarts must be non-negative")
        if self.restart_window_s <= 0:
            raise SupervisorError("restart_window_s must be positive")


class Supervisor:
    """Run a serving daemon as a health-checked, auto-restarted child.

    Args:
        daemon_factory: zero-argument callable building a *fresh,
            unstarted* :class:`~repro.serve.daemon.PredictionDaemon`.
            Called inside each child generation after fork, so every
            restart serves from a cleanly constructed daemon.
        serve_config: the daemon's :class:`ServeConfig` — the supervisor
            binds ``host:port`` from here (the factory's daemon serves
            on the inherited socket, so its own port field is unused).
        config: supervision policy (:class:`SupervisorConfig`).
        clock: monotonic time source (injectable; drives backoff,
            restart windows and journal offsets).

    Usage::

        sup = Supervisor(make_daemon, serve_config)
        host, port = sup.start()      # child is up and healthy
        ...                           # kill -9 the child: it comes back
        sup.stop()
    """

    def __init__(
        self,
        daemon_factory: Callable[[], object],
        serve_config: Optional[ServeConfig] = None,
        config: Optional[SupervisorConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._daemon_factory = daemon_factory
        self.serve_config = serve_config or ServeConfig()
        self.config = config or SupervisorConfig()
        self._clock = clock
        self._epoch = clock()
        self._socket: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._journal_lock = make_lock("serve.supervisor.journal")
        guarded_by("serve.supervisor.journal", self._journal_lock)
        self.child_pid: Optional[int] = None
        self.generation = 0
        self.restarts = 0
        self.gave_up = False
        self.state = "new"
        self.events: list[dict] = []
        self._restart_offsets: deque[float] = deque()

    # -- journal ---------------------------------------------------------

    def _journal(self, event: str, **fields) -> None:
        """Append one supervision event (memory + optional JSONL file).

        Offsets are monotonic seconds since the supervisor was built —
        the journal is a replayable timeline, not a wall-clock log.
        """
        record = {
            "offset_s": round(self._clock() - self._epoch, 6),
            "event": event,
            "generation": self.generation,
            "restarts": self.restarts,
            **fields,
        }
        with self._journal_lock:
            note_access("serve.supervisor.journal")
            self.events.append(record)
            del self.events[:-256]  # bounded in-memory history
            path = self.config.crash_journal
            if path is not None:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._socket is None:
            raise SupervisorError("supervisor is not started")
        host, port = self._socket.getsockname()[:2]
        return str(host), int(port)

    def start(self, wait_healthy_s: float = 10.0) -> tuple[str, int]:
        """Bind, spawn the first child, start supervising; returns the
        address once the child answers ``/healthz``."""
        if self._socket is not None:
            raise SupervisorError("supervisor already started")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.serve_config.host, self.serve_config.port))
        sock.listen(128)
        self._socket = sock
        self._journal("listen", address=list(self.address))
        self._spawn()
        self._thread = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._thread.start()
        if wait_healthy_s > 0 and not self.wait_healthy(wait_healthy_s):
            raise SupervisorError(
                f"child did not become healthy within {wait_healthy_s}s"
            )
        return self.address

    def _spawn(self) -> None:
        """Fork one child generation serving on the inherited socket."""
        fault_site("serve.supervisor", generation=self.generation + 1)
        # The parent only timeouts the socket while answering 503s in a
        # down window; the flag is shared with the fd, so clear it
        # before the child inherits.
        self._socket.setblocking(True)
        pid = os.fork()
        if pid == 0:
            self._child_main()  # never returns
        self.generation += 1
        self.child_pid = pid
        self.state = "running"
        self._journal("spawn", pid=pid)
        if metrics_enabled():
            get_registry().gauge(
                "repro_serve_supervisor_up",
                "1 while a supervised child is believed alive",
            ).set(1.0)

    def _child_main(self) -> None:
        """The child: build a daemon, serve on the inherited socket.

        Exits *only* via ``os._exit`` so a crashed child can never fall
        back into the parent's (forked copy of the) test harness or
        CLI stack.
        """
        try:
            stop_event = threading.Event()

            def _on_term(signum, frame) -> None:
                stop_event.set()

            install_signal_handler("SIGTERM", _on_term)
            daemon = self._daemon_factory()
            daemon.start_on_socket(self._socket)
            stop_event.wait()
            daemon.stop(drain=True)
        except BaseException:
            os._exit(11)
        os._exit(0)

    # -- health ----------------------------------------------------------

    def _health_ok(self) -> bool:
        """One ``GET /healthz`` probe against the child."""
        host, port = self.address
        try:
            with socket.create_connection(
                (host, port), timeout=_HEALTH_TIMEOUT_S
            ) as sock, sock.makefile("rb") as rfile:
                sock.sendall(
                    wire.request(
                        "GET", "/healthz", f"{host}:{port}",
                        headers={"Connection": "close"},
                    )
                )
                return wire.read_response(rfile).status == 200
        except (OSError, wire.WireError):
            return False

    def wait_healthy(self, timeout_s: float) -> bool:
        """Poll ``/healthz`` until it answers 200 (or the timeout)."""
        deadline = self._clock() + timeout_s
        while self._clock() < deadline:
            if self.gave_up:
                return False
            if self._health_ok():
                return True
            time.sleep(0.02)
        return self._health_ok()

    # -- the supervision loop --------------------------------------------

    def _supervise(self) -> None:
        failed_checks = 0
        while not self._stopping.is_set():
            pid = self.child_pid
            if pid is None:
                return
            try:
                reaped, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                reaped, status = pid, 0
            if reaped == pid:
                self._on_child_death(status)
                if self.gave_up or self._stopping.is_set():
                    return
                failed_checks = 0
                continue
            if self._health_ok():
                failed_checks = 0
            else:
                failed_checks += 1
                if failed_checks >= _HANG_CHECKS:
                    # Alive but wedged: treat like a crash, only louder.
                    self._journal("hang_kill", pid=pid, checks=failed_checks)
                    os.kill(pid, signal.SIGKILL)
                    _, status = os.waitpid(pid, 0)
                    self._on_child_death(status, hang=True)
                    if self.gave_up or self._stopping.is_set():
                        return
                    failed_checks = 0
                    continue
            self._stopping.wait(self.config.health_interval_s)

    def _on_child_death(self, status: int, hang: bool = False) -> None:
        """Journal a death, decide restart vs give-up, respawn."""
        if os.WIFSIGNALED(status):
            cause = {"signal": os.WTERMSIG(status)}
        else:
            cause = {"exit_code": os.WEXITSTATUS(status)}
        self.state = "restarting"
        self._journal("exit", pid=self.child_pid, hang=hang, **cause)
        self.child_pid = None
        if metrics_enabled():
            get_registry().gauge(
                "repro_serve_supervisor_up",
                "1 while a supervised child is believed alive",
            ).set(0.0)
        if self._stopping.is_set():
            return
        now = self._clock()
        self._restart_offsets.append(now)
        while (
            self._restart_offsets
            and now - self._restart_offsets[0] > self.config.restart_window_s
        ):
            self._restart_offsets.popleft()
        if len(self._restart_offsets) > self.config.max_restarts:
            # A deterministic fault: restarting forever only burns the
            # machine.  Keep answering structured 503s, but stop
            # respawning — and say so in the journal.
            self.gave_up = True
            self.state = "gave_up"
            self._journal(
                "give_up",
                window_s=self.config.restart_window_s,
                restarts_in_window=len(self._restart_offsets),
            )
            self._respond_503_until_stopped()
            return
        self.restarts += 1
        if metrics_enabled():
            get_registry().counter(
                "repro_serve_supervisor_restarts_total",
                "supervised child restarts",
            ).inc()
        backoff = min(
            self.config.backoff_initial_s
            * _BACKOFF_FACTOR ** max(0, len(self._restart_offsets) - 1),
            self.config.backoff_max_s,
        )
        self._journal("restart", backoff_s=round(backoff, 6))
        # Answer 503s (instead of letting the backlog rot) for the
        # whole down window, then hand the socket to the next child.
        self._respond_503_for(backoff)
        if self._stopping.is_set():
            return
        try:
            self._spawn()
        except ReproError as error:
            # An injected spawn fault counts like an instant crash.
            self._journal("spawn_failed", error=str(error))
            self._on_child_death(11 << 8)

    # -- the parent's 503 responder --------------------------------------

    def _respond_503_once(self) -> bool:
        """Accept one queued connection and answer a structured 503.

        Returns False when the accept timed out (nothing queued).
        """
        try:
            conn, _ = self._socket.accept()
        except (socket.timeout, TimeoutError):
            return False
        except OSError:
            return False
        try:
            conn.settimeout(0.25)
            try:
                with conn.makefile("rb") as rfile:  # read the request politely
                    wire.read_request(rfile, _DRAIN_BYTES)
            except (OSError, wire.WireError):
                pass
            body = json.dumps(
                {
                    "error": "restarting",
                    "detail": "serving child is restarting; retry shortly",
                    "retry_after_s": _RETRY_AFTER_S,
                }
            ).encode("utf-8")
            conn.sendall(
                wire.response(
                    503,
                    body,
                    connection="close",
                    retry_after_s=_RETRY_AFTER_S,
                )
            )
        except OSError:
            pass  # client went away; the next accept matters more
        finally:
            try:
                conn.close()
            except OSError:
                pass
        return True

    def _respond_503_for(self, duration_s: float) -> None:
        """Serve 503s on the listening socket for a down window."""
        end = self._clock() + duration_s
        self._socket.settimeout(0.05)
        try:
            while self._clock() < end and not self._stopping.is_set():
                self._respond_503_once()
        finally:
            self._socket.settimeout(None)

    def _respond_503_until_stopped(self) -> None:
        """After give-up: structured 503s until the supervisor stops."""
        self._socket.settimeout(0.05)
        try:
            while not self._stopping.is_set():
                self._respond_503_once()
        finally:
            try:
                self._socket.settimeout(None)
            except OSError:
                pass

    # -- shutdown / introspection ----------------------------------------

    def stop(self) -> None:
        """Graceful stop: SIGTERM the child, escalate, close the socket."""
        if self._socket is None:
            return
        self._stopping.set()
        pid = self.child_pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pid = None
        if pid is not None:
            deadline = self._clock() + _STOP_TIMEOUT_S
            reaped = False
            while self._clock() < deadline:
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    reaped = True
                    break
                if done == pid:
                    reaped = True
                    break
                time.sleep(0.01)
            if not reaped:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
        if self._thread is not None:
            self._thread.join(timeout=_STOP_TIMEOUT_S)
            self._thread = None
        self.child_pid = None
        self.state = "stopped"
        self._journal("stop")
        try:
            self._socket.close()
        finally:
            self._socket = None

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def status(self) -> dict:
        """JSON-able supervision state (tests, CLI, post-mortems)."""
        return {
            "state": self.state,
            "child_pid": self.child_pid,
            "generation": self.generation,
            "restarts": self.restarts,
            "gave_up": self.gave_up,
            "max_restarts": self.config.max_restarts,
            "restart_window_s": self.config.restart_window_s,
            "crash_journal": (
                str(self.config.crash_journal)
                if self.config.crash_journal
                else None
            ),
            "events": list(self.events[-8:]),
        }
