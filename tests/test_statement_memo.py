"""The statement memo in ``repro.api``: a service that has seen a
statement answers exactly as one that has not.

The memo keeps, per statement text, what compiling yields — plan-feature
row, optimizer cost, warnings — so a repeated forecast skips parse and
plan, and the forecast, which a repeat is answered with.  Everything here compares whole
:class:`~repro.api.Forecast` values (metrics, ``confidence``,
``warnings``, cost) with ``==``, which is bitwise on their floats,
against a reference computed with the memo's bound at zero, i.e. with
nothing ever retained.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.api import QueryPerformancePredictor, StatementMemo
from repro.core.features import PLAN_FEATURE_NAMES
from repro.errors import (
    DeadlineExceededError,
    InjectedFault,
    OptimizerError,
    SQLError,
)
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.faults import FaultPlan, armed
from repro.workloads.generator import generate_pool
from repro.workloads.tpcds import build_tpcds_catalog

#: The gate's statement mix (``bench/workloads.py`` BATCH_MIX), 1 000 strong.
MIX = (("tpcds", 500), ("analytics", 250), ("oltp", 250))

BAD_SQL = "selec 1"
BAD_PLAN = "SELECT i.i_brand FROM item i GROUP BY i.i_item_sk + 1"
PRICE_SQL = "SELECT count(*) AS c FROM item i WHERE i.i_current_price > 5"
#: The generated mix lints clean; these carry PL001 so that ``warnings``
#: is compared on something other than ``()``.
CROSS_JOINS = [
    f"SELECT count(*) AS c FROM store_sales ss, promotion p WHERE p.p_promo_sk > {n}"
    for n in range(4)
]


@pytest.fixture(scope="module")
def statements():
    pool = []
    for workload, count in MIX:
        pool += generate_pool(count, seed=2203, workload=workload)
    return CROSS_JOINS + [instance.sql for instance in pool]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, serve_service):
    path = tmp_path_factory.mktemp("memo") / "model.npz"
    serve_service.save(path)
    return path


@pytest.fixture()
def fresh(artifact, tpcds_catalog, config):
    """A service loaded from the artifact: it has seen nothing."""
    return QueryPerformancePredictor.load(
        artifact, catalog=tpcds_catalog, config=config
    )


@pytest.fixture(scope="module")
def reference(artifact, tpcds_catalog, config, statements):
    """Every statement's forecast from a service that retains nothing."""
    service = QueryPerformancePredictor.load(
        artifact, catalog=tpcds_catalog, config=config
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service.memo, "max_entries", 0)
        answers = [service.forecast_many([sql])[0] for sql in statements]
    assert service.memo.stats()["hits"] == 0
    return answers


def chunks(items, size):
    return [items[start:start + size] for start in range(0, len(items), size)]


class TestWarmedEqualsFresh:
    def test_single_and_batched(self, fresh, statements, reference):
        assert len(statements) >= 1000 and len(set(statements)) > 256
        assert all(f.warnings for f in reference[:4])
        assert fresh.held_forecasts(statements[:5]) is None
        first = [fresh.forecast_many([sql])[0] for sql in statements]
        assert first == reference
        assert fresh.held_forecasts(statements[-5:]) == reference[-5:]
        seen = fresh.memo.stats()
        assert seen["size"] == len(set(statements))
        # Second pass: every lookup is a hit, every answer the same.
        again = [fresh.forecast_many([sql])[0] for sql in statements]
        assert again == reference
        assert fresh.memo.stats()["hits"] == seen["hits"] + len(statements)
        assert fresh.memo.stats()["misses"] == seen["misses"]
        batched = [
            forecast
            for chunk in chunks(statements, 64)
            for forecast in fresh.forecast_many(chunk)
        ]
        assert batched == reference

    def test_duplicates_inside_one_batch(self, fresh, statements, reference):
        """A cold batch holding the same text three times compiles it
        once and answers all three places."""
        picks = [0, 9, 0, 7, 9, 0]
        batch = [statements[i] for i in picks]
        assert fresh.forecast_many(batch) == [reference[i] for i in picks]
        assert fresh.memo.stats()["size"] == 3
        assert fresh.forecast_many(batch) == [reference[i] for i in picks]
        # What the serving daemon asks: all held, or nothing.
        assert fresh.held_forecasts(batch) == [reference[i] for i in picks]
        assert fresh.held_forecasts([statements[0], statements[1]]) is None

    def test_eviction_at_the_bound(self, fresh, statements, reference, monkeypatch):
        monkeypatch.setattr(fresh.memo, "max_entries", 8)
        probe = statements[:60]
        for _ in range(2):
            for chunk in chunks(probe, 5):
                got = fresh.forecast_many(chunk)
                at = probe.index(chunk[0])
                assert got == reference[at:at + len(chunk)]
                assert fresh.memo.stats()["size"] <= 8


@pytest.fixture()
def scored_rows(monkeypatch):
    """Rows handed to each ``score_many`` call, and kernel crosses made."""
    import repro.core.predictor as predictor_module
    from repro.pipeline.pipeline import PredictionPipeline

    seen = {"rows": [], "crosses": 0}
    score_many = PredictionPipeline.score_many
    cross = predictor_module.gaussian_kernel_cross

    def counting_score_many(self, features, *args, **kwargs):
        seen["rows"].append(len(features))
        return score_many(self, features, *args, **kwargs)

    def counting_cross(*args, **kwargs):
        seen["crosses"] += 1
        return cross(*args, **kwargs)

    monkeypatch.setattr(PredictionPipeline, "score_many", counting_score_many)
    monkeypatch.setattr(predictor_module, "gaussian_kernel_cross", counting_cross)
    return seen


class TestReuse:
    """What a repeat costs: it is answered with the forecast the memo
    holds, and nothing is scored."""

    def test_a_repeat_on_a_plain_service_scores_nothing(
        self, fresh, statements, reference, scored_rows
    ):
        batch = statements[:20]
        assert fresh.forecast_many(batch) == reference[:20]
        assert scored_rows["rows"] == [20] and scored_rows["crosses"] > 0
        scored_rows.update(rows=[], crosses=0)
        again = fresh.forecast_many(batch)
        single = [fresh.forecast(sql) for sql in batch]
        assert again == single == reference[:20]
        assert scored_rows == {"rows": [], "crosses": 0}
        # Each statement of each call is still one memo lookup.
        assert fresh.memo.stats()["hits"] == 40

    def test_duplicate_texts_in_one_batch_score_one_row(
        self, fresh, statements, reference, scored_rows
    ):
        picks = [3, 3, 5, 3, 5]
        got = fresh.forecast_many([statements[i] for i in picks])
        assert got == [reference[i] for i in picks]
        assert scored_rows["rows"] == [2]


class TestInvalidation:
    def test_failing_statement_is_reraised_and_never_retained(self, fresh):
        good = "SELECT count(*) AS c FROM item i"
        for bad, kind in ((BAD_SQL, SQLError), (BAD_PLAN, OptimizerError)):
            messages = []
            for _ in range(2):
                with pytest.raises(kind) as raised:
                    fresh.forecast(bad)
                messages.append((type(raised.value), str(raised.value)))
            assert messages[0] == messages[1]
            with pytest.raises(kind):
                fresh.forecast_many([good, bad])
        assert fresh.memo.stats()["size"] == 0
        assert fresh.held_forecasts([good]) is None

    def test_a_hit_is_still_a_fault_site_and_a_cancellation_point(self, fresh):
        sql = "SELECT count(*) AS c FROM item i"
        answer = fresh.forecast(sql)
        plan = FaultPlan(seed=3).on("optimizer.optimize", mode="raise", rate=1.0)
        with armed(plan), pytest.raises(InjectedFault):
            fresh.forecast(sql)
        # A clock that moves a second a reading: the deadline starts at 0
        # and is spent at the next reading, which is the memoised
        # statement's own check (later stages would name themselves).
        ticks = iter(range(100))
        deadline = Deadline(budget_s=0.5, clock=lambda: float(next(ticks)))
        with deadline_scope(deadline), pytest.raises(DeadlineExceededError) as spent:
            fresh.forecast(sql)
        assert spent.value.stage == "optimize"
        # Answered, the hit still has its optimize stage, charged nothing.
        unbounded = Deadline()
        with deadline_scope(unbounded):
            assert fresh.forecast(sql) == answer
        assert unbounded.stage_ms["optimize"] == 0.0

    def test_analyze_starts_the_memo_over(self, config):
        """Statistics the plans were costed from changed: the next
        forecast is what a service first built on the new catalog says.
        (Remove the version check and the old cost comes back.)"""
        catalog = build_tpcds_catalog(scale_factor=0.05, seed=5)
        pool = generate_pool(40, seed=5, problem_fraction=0.2)
        service = QueryPerformancePredictor(catalog, config=config).fit_pool(pool)
        before = service.forecast(PRICE_SQL)
        assert service.forecast(PRICE_SQL) == before
        catalog.table("item").column("i_current_price")[:] *= 0.25
        catalog.analyze("item")
        after = service.forecast(PRICE_SQL)
        rebuilt = QueryPerformancePredictor(catalog, config=config).fit_corpus(
            service.training_corpus
        )
        assert after == rebuilt.forecast(PRICE_SQL)
        assert after.optimizer_cost != before.optimizer_cost
        assert service.memo.stats()["size"] == 1

    def test_refit_drops_warnings_of_the_old_corpus(
        self, tpcds_catalog, config, mini_corpus
    ):
        """PL005 compares a plan with the training corpus's operators;
        a warmed service refitted on another corpus must not repeat
        what it concluded about the first."""
        join = (
            "SELECT count(*) AS c FROM store_sales ss "
            "JOIN item i ON ss.ss_item_sk = i.i_item_sk"
        )
        service = QueryPerformancePredictor(tpcds_catalog, config=config)
        service.fit_corpus(mini_corpus)
        assert "PL005" not in {w.rule_id for w in service.forecast(join).warnings}
        narrow = _corpus_without_joins(mini_corpus)
        service.fit_corpus(narrow)
        assert "PL005" in {w.rule_id for w in service.forecast(join).warnings}
        service.fit_corpus(mini_corpus)
        assert "PL005" not in {w.rule_id for w in service.forecast(join).warnings}


def _corpus_without_joins(corpus):
    column = PLAN_FEATURE_NAMES.index("hash_join_count")
    keep = [
        index
        for index, row in enumerate(corpus.feature_matrix())
        if row[column] == 0
    ]
    assert len(keep) > 10
    return corpus.subset(keep)


class TestBounds:
    def test_retained_bytes_stay_under_the_bound(self, fresh):
        """2 000 distinct statements of almost the most one may weigh:
        the text held never passes entries x bytes-per-statement."""
        padding = f" AND i.i_brand <> '{'x' * (api._MEMO_STATEMENT_BYTES - 200)}'"
        for chunk in chunks(range(2000), 50):
            fresh.forecast_many(
                [
                    f"SELECT count(*) AS c FROM item i WHERE i.i_item_sk > {n}"
                    + padding
                    for n in chunk
                ]
            )
            status = fresh.memo.stats()
            assert status["bytes"] <= status["max_bytes"]
            assert status["size"] <= status["max_entries"]
        assert status["size"] == status["max_entries"]
        assert status["bytes"] > 0.9 * status["max_bytes"]

    def test_oversize_statement_is_compiled_but_not_retained(self, fresh):
        long = (
            "SELECT count(*) AS c FROM item i "
            f"WHERE i.i_brand <> '{'x' * api._MEMO_STATEMENT_BYTES}'"
        )
        assert len(long) > api._MEMO_STATEMENT_BYTES
        assert fresh.forecast(long) == fresh.forecast(long)
        stats = fresh.memo.stats()
        assert (stats["size"], stats["bytes"]) == (0, 0)
        assert (stats["hits"], stats["misses"]) == (0, 2)


class TestStatementMemo:
    """The LRU itself (what the ``StalePredictionCache`` tests checked
    of that class, now of the one cache there is)."""

    def test_hits_misses_and_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(api, "_MEMO_ENTRIES", 2)
        memo = StatementMemo()
        a, b, c = "a", "b", "c"
        assert memo.lookup(1, [a]) == ({}, 0)
        memo.store(1, {a: "A", b: "B"})
        assert memo.lookup(1, [a]) == ({a: "A"}, 1)  # refreshes a: b is now LRU
        memo.store(1, {c: "C"})  # evicts b
        assert memo.lookup(1, [b]) == ({}, 0)
        assert memo.lookup(1, [c, a, c]) == ({c: "C", a: "A"}, 3)
        stats = memo.stats()
        assert (stats["hits"], stats["misses"]) == (4, 2)
        assert (stats["size"], stats["max_entries"]) == (2, 2)
        assert stats["bytes"] == 2

    def test_new_stamp_empties_and_old_stamp_cannot_store(self):
        memo = StatementMemo()
        key = "a"
        memo.lookup(1, [key])
        memo.store(1, {key: "A"})
        assert memo.lookup(2, [key]) == ({}, 0)  # statistics moved on
        memo.store(1, {key: "computed under the old statistics"})
        assert memo.lookup(2, [key]) == ({}, 0)
        assert memo.stats()["bytes"] == 0
