"""Executor-level behaviour: metric accounting, configs, determinism."""

import pytest

from repro.engine import Executor
from repro.engine.plan import OperatorKind
from repro.engine.system import production_32node, research_4node
from repro.errors import PlanError
from repro.optimizer import Optimizer
from repro.rng import child_generator

JOIN_SQL = (
    "SELECT i.i_category, count(*) AS c, sum(ss.ss_sales_price) AS r "
    "FROM store_sales ss, item i "
    "WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_quantity > 10 "
    "GROUP BY i.i_category ORDER BY r DESC"
)


class TestMetricAccounting:
    def test_records_accessed_counts_all_scans(
        self, tpcds_catalog, optimizer, executor
    ):
        result = executor.execute(optimizer.optimize(JOIN_SQL).plan)
        expected = (
            tpcds_catalog.table("store_sales").n_rows
            + tpcds_catalog.table("item").n_rows
        )
        assert result.metrics.records_accessed == expected

    def test_records_used_reflects_filters(
        self, tpcds_catalog, optimizer, executor
    ):
        result = executor.execute(optimizer.optimize(JOIN_SQL).plan)
        metrics = result.metrics
        assert 0 < metrics.records_used < metrics.records_accessed

    def test_unfiltered_scan_uses_all_records(
        self, tpcds_catalog, optimizer, executor
    ):
        result = executor.execute(
            optimizer.optimize("SELECT count(*) AS c FROM item i").plan
        )
        n = tpcds_catalog.table("item").n_rows
        assert result.metrics.records_accessed == n
        assert result.metrics.records_used == n

    def test_messages_scale_with_exchanges(self, optimizer, executor):
        simple = executor.execute(
            optimizer.optimize("SELECT count(*) AS c FROM item i").plan
        )
        joined = executor.execute(optimizer.optimize(JOIN_SQL).plan)
        assert joined.metrics.message_count > simple.metrics.message_count
        assert joined.metrics.message_bytes > simple.metrics.message_bytes

    def test_cpu_seconds_positive(self, optimizer, executor):
        result = executor.execute(optimizer.optimize(JOIN_SQL).plan)
        assert result.metrics.cpu_seconds > 0

    def test_rows_returned_matches_batch(self, optimizer, executor):
        result = executor.execute(optimizer.optimize(JOIN_SQL).plan)
        assert result.metrics.rows_returned == result.n_rows


class TestDeterminism:
    def test_same_rng_same_elapsed(self, optimizer, executor):
        plan = optimizer.optimize(JOIN_SQL).plan
        a = executor.execute(plan, rng=child_generator(1, "q"))
        b = executor.execute(plan, rng=child_generator(1, "q"))
        assert a.metrics.elapsed_time == b.metrics.elapsed_time

    def test_different_rng_different_elapsed(self, optimizer, executor):
        plan = optimizer.optimize(JOIN_SQL).plan
        a = executor.execute(plan, rng=child_generator(1, "q1"))
        b = executor.execute(plan, rng=child_generator(1, "q2"))
        assert a.metrics.elapsed_time != b.metrics.elapsed_time

    def test_noise_free_without_rng(self, optimizer, executor):
        plan = optimizer.optimize(JOIN_SQL).plan
        a = executor.execute(plan)
        b = executor.execute(plan)
        assert a.metrics.elapsed_time == b.metrics.elapsed_time

    def test_counts_unaffected_by_noise(self, optimizer, executor):
        plan = optimizer.optimize(JOIN_SQL).plan
        noisy = executor.execute(plan, rng=child_generator(3, "x"))
        clean = executor.execute(plan)
        assert noisy.metrics.records_used == clean.metrics.records_used
        assert noisy.metrics.message_count == clean.metrics.message_count


class TestConfigurations:
    def test_more_nodes_faster(self, tpcds_catalog):
        times = {}
        for nodes in (4, 32):
            config = production_32node(nodes)
            optimizer = Optimizer(tpcds_catalog, config)
            executor = Executor(tpcds_catalog, config)
            result = executor.execute(optimizer.optimize(JOIN_SQL).plan)
            times[nodes] = result.metrics.elapsed_time
        assert times[32] < times[4]

    def test_plans_differ_across_systems(self, tpcds_catalog):
        """The paper: plans on the 32-node system differed from the 4-node
        system's (resources differ).  At minimum the estimated plan must
        execute with different message traffic."""
        counts = {}
        for config in (research_4node(), production_32node(32)):
            optimizer = Optimizer(tpcds_catalog, config)
            executor = Executor(tpcds_catalog, config)
            result = executor.execute(optimizer.optimize(JOIN_SQL).plan)
            counts[config.name] = result.metrics.message_count
        values = list(counts.values())
        assert values[0] != values[1]

    def test_small_memory_config_does_disk_io(self, tpcds_catalog):
        from dataclasses import replace

        config = replace(
            research_4node(), mem_per_node_bytes=64 * 1024, name="tiny-mem"
        )
        optimizer = Optimizer(tpcds_catalog, config)
        executor = Executor(tpcds_catalog, config)
        result = executor.execute(
            optimizer.optimize("SELECT count(*) AS c FROM store_sales ss").plan
        )
        assert result.metrics.disk_ios > 0

    def test_big_memory_config_no_disk_io(self, tpcds_catalog):
        from dataclasses import replace

        config = replace(
            research_4node(),
            mem_per_node_bytes=1024 * 1024 * 1024,
            name="big-mem",
        )
        optimizer = Optimizer(tpcds_catalog, config)
        executor = Executor(tpcds_catalog, config)
        result = executor.execute(
            optimizer.optimize("SELECT count(*) AS c FROM store_sales ss").plan
        )
        assert result.metrics.disk_ios == 0


class TestScanProjection:
    def test_output_columns_dropped_after_filter(self, optimizer, executor):
        from repro.engine.metrics import MetricsAccumulator
        from repro.engine.timing import ResourceModel

        plan = optimizer.optimize(
            "SELECT sum(ss.ss_sales_price) AS r FROM store_sales ss "
            "WHERE ss.ss_quantity > 20"
        ).plan
        scan = next(
            n for n in plan.walk() if n.kind == OperatorKind.FILE_SCAN
        )
        model = ResourceModel(
            executor.config, executor.buffer_pool, MetricsAccumulator()
        )
        batch = executor._run_scan(scan, model)
        assert set(batch.columns) == {"ss.ss_sales_price"}


class TestErrors:
    def test_unsupported_plan_node(self, executor):
        from repro.engine.plan import PlanNode

        bogus = PlanNode(kind=OperatorKind.FILE_SCAN)
        with pytest.raises(PlanError):
            executor.execute(bogus)

    def test_merge_join_is_refused(self, optimizer, executor):
        """The planner never chooses a merge join, and the executor has no
        body for one: a plan carrying it ends in a PlanError before any
        of its inputs is read."""
        from repro.engine.plan import PlanNode

        plan = optimizer.optimize(JOIN_SQL).plan
        join = next(n for n in plan.walk() if n.kind == OperatorKind.HASH_JOIN)
        merge = PlanNode(
            kind=OperatorKind.MERGE_JOIN,
            children=join.children,
            join_pairs=join.join_pairs,
        )
        with pytest.raises(PlanError, match="merge_join"):
            executor.execute(merge)
