"""Pack C and the runtime sanitizer: static concurrency rules over the
fixture pairs, the tracked-lock checkers (CC101/CC102/CC103), and
thread-stress drills over the migrated serving primitives.

Static rules are linted under a virtual ``repro/serve/`` path so the
:data:`~repro.analysis.concurrency.CONCURRENCY_DIRS` scoping sees the
directory it guards; runtime tests enable the sanitizer per-test via a
fixture that resets the global store on both sides.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.concurrency import (
    CONCURRENCY_DIRS,
    CONCURRENCY_RULES,
    FACTORY_PATH,
)
from repro.analysis.findings import LINT_SCHEMA_VERSION
from repro.analysis.rules import all_rules, get
from repro.analysis.sanitizer import (
    disable_sanitizer,
    dump_sanitizer_report,
    enable_sanitizer,
    guarded_by,
    make_condition,
    make_lock,
    make_rlock,
    note_access,
    reset_sanitizer,
    sanitizer_enabled,
    sanitizer_findings,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Inside the concurrency scope — where Pack C fires.
SERVE_PATH = "repro/serve/fixture.py"
#: Outside every concurrency dir — Pack C must stay silent here.
NEUTRAL_PATH = "repro/workloads/fixture.py"


def lint_fixture(name: str, relpath: str = SERVE_PATH):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, relpath, CONCURRENCY_RULES)


# ----------------------------------------------------------------------
# Static Pack C: per-rule fixture pairs
# ----------------------------------------------------------------------

PAIRS = [
    ("cc001", "CC001"),
    ("cc003", "CC003"),
    ("cc007", "CC007"),
    ("cc008", "CC008"),
]


class TestPackCPairs:
    @pytest.mark.parametrize("stem,rule_id", PAIRS)
    def test_bad_fixture_flags_exactly_its_rule(self, stem, rule_id):
        findings = lint_fixture(f"{stem}_bad.py")
        assert findings, f"{stem}_bad.py produced no findings"
        assert {f.rule_id for f in findings} == {rule_id}

    @pytest.mark.parametrize("stem,rule_id", PAIRS)
    def test_ok_fixture_is_clean(self, stem, rule_id):
        assert lint_fixture(f"{stem}_ok.py") == []

    @pytest.mark.parametrize("stem,rule_id", PAIRS)
    def test_findings_carry_rule_metadata(self, stem, rule_id):
        for finding in lint_fixture(f"{stem}_bad.py"):
            info = get(finding.rule_id)
            assert finding.severity == info.severity
            assert finding.path == SERVE_PATH
            assert finding.line >= 1

    def test_cc003_flags_each_mutation_shape(self):
        findings = lint_fixture("cc003_bad.py")
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 3
        assert "augmented assignment" in messages
        assert "store into" in messages
        assert ".pop()" in messages


class TestPackCScoping:
    @pytest.mark.parametrize("stem,rule_id", PAIRS)
    def test_silent_outside_the_concurrency_dirs(self, stem, rule_id):
        assert lint_fixture(f"{stem}_bad.py", NEUTRAL_PATH) == []

    def test_cc001_exempts_the_factory_module(self):
        assert lint_fixture("cc001_bad.py", FACTORY_PATH) == []

    def test_scope_covers_the_threaded_packages(self):
        assert "repro/serve/" in CONCURRENCY_DIRS
        assert "repro/obs/" in CONCURRENCY_DIRS
        assert "repro/resilience/" in CONCURRENCY_DIRS
        assert "repro/cli.py" in CONCURRENCY_DIRS

    def test_suppression_comment_silences_cc(self):
        source = (
            "import threading\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()"
            "  # repro: allow[CC001]\n"
        )
        assert lint_source(source, SERVE_PATH, CONCURRENCY_RULES) == []

    def test_registry_knows_the_concurrency_pack(self):
        ids = {info.id for info in all_rules(pack="concurrency")}
        static = {"CC001", "CC003", "CC007", "CC008"}
        runtime = {"CC101", "CC102", "CC103"}
        assert static | runtime == ids


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------


@pytest.fixture()
def sanitizer(monkeypatch):
    """Enable the sanitizer with a clean store; restore on exit.

    The CC103 hold-time budget is a wall clock, so a host stall inside
    any ``with lock:`` would add a warning to tests that assert on
    ordering or lockset findings only.  Pin it far above any stall; the
    watchdog's own tests set the budget they need.
    """
    monkeypatch.setenv("REPRO_SANITIZE_HOLD_MS", "600000")
    was_enabled = sanitizer_enabled()
    reset_sanitizer()
    enable_sanitizer()
    yield
    reset_sanitizer()
    if not was_enabled:
        disable_sanitizer()


def _in_thread(fn) -> None:
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join()


def _in_two_threads(fn_a, fn_b) -> None:
    """Run both closures on threads that are alive *simultaneously*.

    Sequential short-lived threads can be handed the same
    ``threading.get_ident()`` (idents are reused), which would make the
    lockset checker's two-accessor requirement vacuous; a barrier pins
    two distinct idents.
    """
    barrier = threading.Barrier(2)

    def wrap(fn):
        def run():
            barrier.wait()
            fn()

        return run

    threads = [
        threading.Thread(target=wrap(fn_a)),
        threading.Thread(target=wrap(fn_b)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _rule_ids() -> set:
    return {f.rule_id for f in sanitizer_findings()}


class TestLockOrderGraph:
    def test_inversion_detected_with_both_names(self, sanitizer):
        a = make_lock("test.order.a")
        b = make_lock("test.order.b")

        def a_then_b():
            with a:
                with b:
                    pass

        def b_then_a():
            with b:
                with a:
                    pass

        _in_thread(a_then_b)
        _in_thread(b_then_a)
        findings = sanitizer_findings()
        assert [f.rule_id for f in findings] == ["CC101"]
        message = findings[0].message
        assert "test.order.a" in message and "test.order.b" in message
        assert "stack:" in message
        assert findings[0].severity == "error"
        assert findings[0].path == "tests/test_concurrency.py"

    def test_consistent_order_is_clean(self, sanitizer):
        a = make_lock("test.order.first")
        b = make_lock("test.order.second")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert sanitizer_findings() == []

    def test_same_name_never_self_inverts(self, sanitizer):
        # Two bucket instances share one semantic name; holding one
        # while taking the other is striping, not an ordering cycle.
        left = make_lock("test.order.stripe")
        right = make_lock("test.order.stripe")
        with left:
            with right:
                pass
        with right:
            with left:
                pass
        assert sanitizer_findings() == []

    def test_inversion_reported_once(self, sanitizer):
        a = make_lock("test.order.dup_a")
        b = make_lock("test.order.dup_b")
        for _ in range(3):
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        assert [f.rule_id for f in sanitizer_findings()] == ["CC101"]


class TestLocksetChecker:
    def test_unlocked_multithread_access_fires(self, sanitizer):
        guard = make_lock("test.eraser.guard")
        guarded_by("test.eraser.state", guard)

        def access():
            note_access("test.eraser.state")

        _in_two_threads(access, access)
        findings = sanitizer_findings()
        assert [f.rule_id for f in findings] == ["CC102"]
        assert "test.eraser.state" in findings[0].message
        assert "test.eraser.guard" in findings[0].message

    def test_locked_access_is_clean(self, sanitizer):
        guard = make_lock("test.eraser.clean_guard")
        guarded_by("test.eraser.clean", guard)

        def access():
            with guard:
                note_access("test.eraser.clean")

        _in_two_threads(access, access)
        assert sanitizer_findings() == []

    def test_single_thread_needs_no_lock(self, sanitizer):
        guarded_by("test.eraser.solo", make_lock("test.eraser.solo_guard"))
        for _ in range(5):
            note_access("test.eraser.solo")
        assert sanitizer_findings() == []

    def test_unregistered_state_is_ignored(self, sanitizer):
        def access():
            note_access("test.eraser.nobody")

        _in_two_threads(access, access)
        assert sanitizer_findings() == []

    def test_reregistration_resets_history(self, sanitizer):
        guard = make_lock("test.eraser.rebuild_guard")
        guarded_by("test.eraser.rebuild", guard)
        _in_thread(lambda: note_access("test.eraser.rebuild"))
        # A rebuilt daemon re-registers; stale bare-access history from
        # the old object must not poison the fresh candidate set.
        guarded_by("test.eraser.rebuild", guard)

        def access():
            with guard:
                note_access("test.eraser.rebuild")

        _in_two_threads(access, access)
        assert sanitizer_findings() == []

    def test_guard_accepts_the_lock_object(self, sanitizer):
        lock = make_lock("test.eraser.obj_guard")
        guarded_by("test.eraser.obj", lock)

        def access():
            note_access("test.eraser.obj")

        _in_two_threads(access, access)
        assert "test.eraser.obj_guard" in sanitizer_findings()[0].message


class TestHoldWatchdog:
    def test_long_hold_fires_cc103(self, sanitizer, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_HOLD_MS", "10")
        lock = make_lock("test.hold.slow")
        with lock:
            time.sleep(0.03)
        findings = sanitizer_findings()
        assert [f.rule_id for f in findings] == ["CC103"]
        assert findings[0].severity == "warning"
        assert "test.hold.slow" in findings[0].message

    def test_short_hold_is_clean(self, sanitizer, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_HOLD_MS", "200")
        lock = make_lock("test.hold.fast")
        with lock:
            pass
        assert sanitizer_findings() == []

    def test_condition_wait_does_not_count_as_holding(
        self, sanitizer, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE_HOLD_MS", "20")
        cond = make_condition("test.hold.cond")
        with cond:
            cond.wait(timeout=0.08)  # parked, not holding
        assert sanitizer_findings() == []


class TestTrackedPrimitives:
    def test_disabled_mode_records_nothing(self, sanitizer):
        disable_sanitizer()
        a = make_lock("test.off.a")
        b = make_lock("test.off.b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert sanitizer_findings() == []

    def test_rlock_reentry_is_not_an_edge(self, sanitizer):
        rlock = make_rlock("test.rlock.outer")
        other = make_lock("test.rlock.other")
        with rlock:
            with rlock:  # inner re-acquire: no new hold, no edges
                with other:
                    pass
        with rlock:
            pass
        assert sanitizer_findings() == []

    def test_locked_probe(self, sanitizer):
        lock = make_lock("test.probe.lock")
        rlock = make_rlock("test.probe.rlock")
        assert not lock.locked() and not rlock.locked()
        with lock, rlock:
            assert lock.locked() and rlock.locked()
        assert not lock.locked() and not rlock.locked()

    def test_condition_wait_for_and_notify(self, sanitizer):
        cond = make_condition("test.cond.pipe")
        ready = []

        def producer():
            time.sleep(0.01)
            with cond:
                ready.append(1)
                cond.notify_all()

        thread = threading.Thread(target=producer)
        thread.start()
        with cond:
            assert cond.wait_for(lambda: ready, timeout=2.0)
        thread.join()
        assert sanitizer_findings() == []

    def test_repr_carries_the_name(self, sanitizer):
        assert "test.repr.x" in repr(make_lock("test.repr.x"))
        assert "test.repr.c" in repr(make_condition("test.repr.c"))

    def test_dump_report_text_and_json(self, sanitizer):
        count, text = dump_sanitizer_report()
        assert count == 0 and "clean" in text
        a = make_lock("test.dump.a")
        b = make_lock("test.dump.b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        count, payload = dump_sanitizer_report(as_json=True)
        assert count == 1
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["findings"][0]["rule_id"] == "CC101"
        count, text = dump_sanitizer_report()
        assert "1 finding(s)" in text


# ----------------------------------------------------------------------
# Thread-stress drills over the migrated primitives (satellite 3)
# ----------------------------------------------------------------------

THREADS = 8
ROUNDS = 300


def _hammer(worker) -> None:
    barrier = threading.Barrier(THREADS)

    def run():
        barrier.wait()
        worker()

    threads = [threading.Thread(target=run) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestStressUnderSanitizer:
    def test_metrics_registry_counts_exactly(self, sanitizer):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()

        def worker():
            for _ in range(ROUNDS):
                registry.counter("stress_total", "stress").inc()

        _hammer(worker)
        assert registry.counter("stress_total").value == THREADS * ROUNDS
        assert sanitizer_findings() == []

    def test_timed_first_call_race_is_idempotent(self, sanitizer, monkeypatch):
        from repro.obs.metrics import (
            disable_metrics,
            enable_metrics,
            get_registry,
            reset_metrics,
        )
        from repro.obs.seam import STAGES, StageRow, stage

        monkeypatch.setitem(
            STAGES, "stress.stage",
            StageRow(histogram="stress_latency_seconds", counter="stress_done"),
        )
        reset_metrics()
        enable_metrics()
        try:
            def worker():
                for _ in range(ROUNDS):
                    with stage("stress.stage"):
                        pass

            _hammer(worker)
            registry = get_registry()
            assert (
                registry.counter("stress_done").value == THREADS * ROUNDS
            )
            assert (
                registry.histogram("stress_latency_seconds").count
                == THREADS * ROUNDS
            )
        finally:
            disable_metrics()
            reset_metrics()
        assert sanitizer_findings() == []

    def test_token_bucket_never_overspends(self, sanitizer):
        from repro.serve.admission import TokenBucket

        bucket = TokenBucket(rate=0.0, burst=100.0, clock=lambda: 0.0)
        admitted = []
        admitted_lock = threading.Lock()

        def worker():
            hits = 0
            for _ in range(50):
                ok, _retry = bucket.try_charge(1.0)
                if ok:
                    hits += 1
            with admitted_lock:
                admitted.append(hits)

        _hammer(worker)
        # rate=0: exactly the initial burst is admitted, never more.
        assert sum(admitted) == 100
        assert bucket.balance() == 0.0
        assert sanitizer_findings() == []

    def test_statement_memo_under_eight_threads(
        self, sanitizer, monkeypatch, tpcds_catalog, config, mini_corpus
    ):
        """The statement memo: eight threads forecasting an overlapping
        statement set through a memo small enough to evict on every
        pass."""
        import repro.api as api
        from repro.workloads.generator import generate_pool

        monkeypatch.setattr(api, "_MEMO_ENTRIES", 6)
        service = api.QueryPerformancePredictor(tpcds_catalog, config=config)
        service.fit_corpus(mini_corpus)
        sqls = [q.sql for q in generate_pool(12, seed=77, workload="oltp")]
        expected = dict(zip(sqls, service.forecast_many(sqls)))
        lookups_before = service.memo.stats()["misses"]
        wrong = []
        rounds = 40

        def worker():
            for i in range(rounds):
                batch = [sqls[(i + k) % len(sqls)] for k in range(3)]
                if service.forecast_many(batch) != [expected[s] for s in batch]:
                    wrong.append(batch)
                held = service.held_forecasts(batch[:1])
                if held is not None and held != [expected[batch[0]]]:
                    wrong.append(batch[:1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        # The counters are exact, not approximately right: every lookup
        # (three a forecast; a probe is a peek, not a lookup) is a hit or
        # a miss, and the bytes are those of the keys retained.
        status = service.memo.stats()
        assert status["hits"] + status["misses"] - lookups_before == (
            THREADS * rounds * 3
        )
        assert status["size"] <= 6
        assert status["bytes"] == sum(
            len(sql.encode()) for sql in sqls
            if service.held_forecasts([sql]) is not None
        )
        assert sanitizer_findings() == []

    def test_memo_answered_requests_beside_the_collector(
        self, sanitizer, tpcds_catalog, config, mini_corpus
    ):
        """Eight handler threads send repeats, which run on those threads,
        while two more send misses, which the collector batches: every
        answer is the one an in-process service that never served gives."""
        from repro.api import QueryPerformancePredictor
        from repro.serve import PredictionDaemon, ServeClient, ServeConfig
        from repro.serve.daemon import forecast_payload
        from repro.workloads.generator import generate_pool

        def trained():
            service = QueryPerformancePredictor(tpcds_catalog, config=config)
            return service.fit_corpus(mini_corpus)

        service, reference = trained(), trained()
        pool = list(dict.fromkeys(
            query.sql for query in generate_pool(80, seed=313, workload="oltp")
        ))
        assert len(pool) > 24
        hot, cold = pool[:8], pool[8:]
        expected = {sql: forecast_payload(reference.forecast(sql)) for sql in pool}
        service.forecast_many(hot)
        daemon = PredictionDaemon(service=service, config=ServeConfig(max_batch=4))
        host, port = daemon.start()
        wrong = []
        rounds = 40

        def send(sqls):
            with ServeClient(host, port, client_id="c") as client:
                for sql in sqls:
                    if client.forecast(sql)["forecast"] != expected[sql]:
                        wrong.append(sql)

        senders = [[hot[(i + k) % 8] for i in range(rounds)] for k in range(8)]
        senders += [cold[0::2], cold[1::2]]
        threads = [threading.Thread(target=send, args=(sqls,)) for sqls in senders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = daemon.batcher.stats()
        finally:
            sys.setswitchinterval(interval)
            daemon.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert stats["inline_batches"] == 8 * rounds
        assert stats["batched_statements"] == len(cold)
        assert sanitizer_findings() == []

    def test_the_old_served_stale_race_shape_is_caught(self, sanitizer):
        # What the pre-fix daemon did: bare read-modify-write on state
        # declared lock-guarded.  The lockset checker must flag it.
        guard = make_lock("test.race.stale_guard")
        guarded_by("test.race.served_stale", guard)

        def bare_increment():
            note_access("test.race.served_stale")

        _in_two_threads(bare_increment, bare_increment)
        assert "CC102" in _rule_ids()


# ----------------------------------------------------------------------
# CLI: serve SIGTERM
# ----------------------------------------------------------------------


class TestServeSigterm:
    def test_foreground_serve_drains_on_sigterm(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "--scale", "0.05",
                "serve", "--port", "0", "--queries", "40",
            ],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout is not None
            deadline = time.monotonic() + 120.0
            banner = ""
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on"):
                    banner = line
                    break
            assert banner.startswith("serving on"), (
                "daemon never came up: " + (proc.stderr.read() or "")
            )
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60.0)
            stderr = proc.stderr.read() if proc.stderr else ""
            assert code == 0, stderr
            assert "draining and shutting down" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
