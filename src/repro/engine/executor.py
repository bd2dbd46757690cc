"""Plan executor: runs physical plans and measures their performance.

The executor walks a :class:`~repro.engine.plan.PlanNode` tree bottom-up,
building each operator's output with the algorithms in
:mod:`repro.engine.operators` and charging resource usage through the
:class:`~repro.engine.timing.ResourceModel`.  The result is both the real
query answer and a :class:`~repro.engine.metrics.PerformanceMetrics` record
— the "ground truth" the machine-learning models train against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PlanError
from repro.engine.metrics import MetricsAccumulator, PerformanceMetrics
from repro.engine.operators import (
    Batch,
    KeyCounts,
    aggregate_groups,
    distinct_batch,
    filter_batch,
    group_rows,
    hash_join_batches,
    nested_join_batches,
    project_batch,
    scalar_aggregate_batch,
    semi_join_batch,
    sort_batch,
    top_n_batch,
)
from repro.engine.plan import OperatorKind, PlanNode
from repro.engine.system import SystemConfig
from repro.engine.timing import ResourceModel

from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.seam import stage
from repro.resilience.faults import fault_site
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.partition import partition_counts, skew_factor

__all__ = ["Executor", "ExecutionResult"]


class ExecutionResult:
    """Answer rows plus measured performance for one query execution.

    The metrics are worked out from row counts and dtypes alone; the
    answer's values are computed when ``batch`` is first read.
    """

    def __init__(self, batch: Batch, metrics: PerformanceMetrics) -> None:
        self._batch = batch
        self.metrics = metrics

    @property
    def batch(self) -> Batch:
        """The answer, every column an array."""
        return self._batch.gathered()

    @property
    def n_rows(self) -> int:
        return self._batch.n_rows


class Executor:
    """Executes physical plans against one system configuration.

    Args:
        catalog: the data.
        config: the simulated system.
        buffer_pool: residency decisions; built from ``config`` when
            omitted.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: SystemConfig,
        buffer_pool: Optional[BufferPool] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config
        self.buffer_pool = buffer_pool or BufferPool(
            catalog, config.buffer_cache_bytes
        )
        self._scan_skew_cache: dict[str, float] = {}

    # ------------------------------------------------------------------

    def execute(
        self, plan: PlanNode, rng: Optional[np.random.Generator] = None
    ) -> ExecutionResult:
        """Run ``plan`` and return its result batch and measured metrics.

        Args:
            plan: physical plan (usually rooted at a ROOT operator).
            rng: source of timing noise; pass None for deterministic time.
        """
        with stage("engine.execute") as current:
            acc = MetricsAccumulator()
            model = ResourceModel(self.config, self.buffer_pool, acc)
            batch = self._run(plan, model)
            metrics = PerformanceMetrics(
                elapsed_time=model.elapsed_seconds(rng),
                records_accessed=acc.records_accessed,
                records_used=acc.records_used,
                disk_ios=acc.disk_ios,
                message_count=acc.message_count,
                message_bytes=acc.message_bytes,
                cpu_seconds=acc.cpu_seconds,
                rows_returned=batch.n_rows,
            )
            current.set(
                simulated_elapsed=metrics.elapsed_time,
                rows_returned=batch.n_rows,
            )
            if metrics_enabled():
                get_registry().histogram(
                    "repro_simulated_elapsed_seconds",
                    "simulated per-query elapsed time",
                ).observe(metrics.elapsed_time)
            return ExecutionResult(batch, metrics)

    # ------------------------------------------------------------------

    def _run(self, node: PlanNode, model: ResourceModel) -> Batch:
        kind = node.kind
        fault_site("engine.operator", operator=kind.value)
        if kind == OperatorKind.FILE_SCAN:
            return self._run_scan(node, model)
        if kind in (OperatorKind.ROOT, OperatorKind.PROJECT, OperatorKind.FILTER):
            return self._run_unary_simple(node, model)
        if kind == OperatorKind.EXCHANGE:
            child = self._run(node.child, model)
            model.exchange(
                kind.value, child.n_rows, child.row_bytes, node.exchange_kind or
                "repartition"
            )
            return child
        if kind == OperatorKind.HASH_JOIN:
            return self._run_hash_join(node, model)
        if kind == OperatorKind.NESTED_JOIN:
            return self._run_nested_join(node, model)
        if kind in (OperatorKind.SEMI_JOIN, OperatorKind.ANTI_JOIN):
            return self._run_semi_join(node, model)
        if kind == OperatorKind.SORT:
            child = self._run(node.child, model)
            out = sort_batch(child, node.sort_keys)
            model.sort(kind.value, child.n_rows, child.row_bytes, 1.0)
            return out
        if kind in (OperatorKind.HASH_GROUPBY, OperatorKind.SORT_GROUPBY):
            return self._run_group_by(node, model)
        if kind == OperatorKind.SCALAR_AGGREGATE:
            child = self._run(node.child, model)
            out = scalar_aggregate_batch(child, node.aggregates)
            model.simple(kind.value, child.n_rows)
            return out
        if kind == OperatorKind.DISTINCT:
            child = self._run(node.child, model)
            out = distinct_batch(child, node.group_keys or None)
            model.group_by(
                kind.value, child.n_rows, out.n_rows, out.total_bytes, 1.0
            )
            return out
        if kind == OperatorKind.TOP_N:
            child = self._run(node.child, model)
            limit = node.limit if node.limit is not None else child.n_rows
            out = top_n_batch(child, node.sort_keys, limit)
            model.top_n(kind.value, child.n_rows, max(limit, 1), 1.0)
            return out
        raise PlanError(f"executor does not support operator {kind.value!r}")

    # ------------------------------------------------------------------
    # Operator bodies
    # ------------------------------------------------------------------

    def _run_scan(self, node: PlanNode, model: ResourceModel) -> Batch:
        if node.table_name is None or node.binding is None:
            raise PlanError("file_scan requires table_name and binding")
        table = self.catalog.table(node.table_name)
        batch = Batch(
            table.columns_dict(node.binding, subset=node.scan_columns),
            n_rows=table.n_rows,
        )
        if node.predicate is not None and batch.n_rows:
            keep = batch.evaluate(node.predicate).astype(bool)
            out = batch.mask(keep)
        else:
            out = batch
        if node.output_columns is not None:
            prefix = f"{node.binding}."
            wanted = {f"{prefix}{name}" for name in node.output_columns}
            out = Batch(
                {k: v for k, v in out.columns.items() if k in wanted},
                n_rows=out.n_rows,
            )
        model.scan(node.kind.value, table, out.n_rows, self._scan_skew(table.name))
        return out

    def _run_unary_simple(self, node: PlanNode, model: ResourceModel) -> Batch:
        child = self._run(node.child, model)
        if node.kind == OperatorKind.FILTER:
            if node.predicate is None:
                raise PlanError("filter requires a predicate")
            out = filter_batch(child, node.predicate)
        elif node.kind == OperatorKind.PROJECT:
            out = project_batch(child, node.items)
        else:  # ROOT
            out = child
        model.simple(node.kind.value, child.n_rows)
        return out

    def _run_hash_join(self, node: PlanNode, model: ResourceModel) -> Batch:
        left = self._run(node.left, model)
        right = self._run(node.right, model)
        if not node.join_pairs:
            raise PlanError(f"{node.kind.value} requires join pairs")
        out, build_keys = hash_join_batches(left, right, node.join_pairs, node.residual)
        model.hash_join(
            node.kind.value,
            build_rows=right.n_rows,
            probe_rows=left.n_rows,
            build_bytes=right.total_bytes,
            out_rows=out.n_rows,
            skew=self._key_skew(build_keys),
        )
        return out

    def _run_nested_join(self, node: PlanNode, model: ResourceModel) -> Batch:
        left = self._run(node.left, model)
        right = self._run(node.right, model)
        predicate = node.residual
        if node.join_pairs:
            # Equi pairs given to a nested join still execute hash-style for
            # tractability, but time is charged quadratically below.
            out, _ = hash_join_batches(left, right, node.join_pairs, predicate)
        else:
            out = nested_join_batches(left, right, predicate)
        model.nested_join(
            node.kind.value, left.n_rows, right.n_rows, out.n_rows, 1.0
        )
        return out

    def _run_semi_join(self, node: PlanNode, model: ResourceModel) -> Batch:
        left = self._run(node.left, model)
        right = self._run(node.right, model)
        if not node.join_pairs:
            raise PlanError("semi/anti join requires join pairs")
        anti = node.kind == OperatorKind.ANTI_JOIN
        out, build_keys = semi_join_batch(left, right, node.join_pairs, anti=anti)
        model.hash_join(
            node.kind.value,
            build_rows=right.n_rows,
            probe_rows=left.n_rows,
            build_bytes=right.total_bytes,
            out_rows=out.n_rows,
            skew=self._key_skew(build_keys),
        )
        return out

    def _run_group_by(self, node: PlanNode, model: ResourceModel) -> Batch:
        child = self._run(node.child, model)
        if not node.group_keys:
            raise PlanError(f"{node.kind.value} requires group keys")
        grouping = group_rows(child, node.group_keys)
        out = aggregate_groups(child, grouping, node.aggregates)
        # Each group's first-key value, hashed once, stands for its rows.
        first_key = grouping.keys[node.group_keys[0]]
        counts = partition_counts(first_key, self.config.n_nodes, grouping.sizes)
        skew = skew_factor(counts)
        if node.kind == OperatorKind.SORT_GROUPBY:
            model.sort(node.kind.value, child.n_rows, child.row_bytes, skew)
            model.simple(node.kind.value, child.n_rows, skew)
        else:
            model.group_by(
                node.kind.value, child.n_rows, out.n_rows, out.total_bytes, skew
            )
        return out

    # ------------------------------------------------------------------
    # Skew helpers
    # ------------------------------------------------------------------

    def _scan_skew(self, table_name: str) -> float:
        """Skew of the table's partitioning across the system's disks."""
        cached = self._scan_skew_cache.get(table_name)
        if cached is not None:
            return cached
        table = self.catalog.table(table_name)
        if table.n_rows == 0:
            skew = 1.0
        else:
            first_column = table.column(table.column_names[0])
            skew = skew_factor(partition_counts(first_column, self.config.n_disks))
        self._scan_skew_cache[table_name] = skew
        return skew

    def _key_skew(self, build_keys: KeyCounts) -> float:
        """Skew of the build-side key distribution across processing nodes:
        each distinct build key hashed once, weighted by its rows."""
        values, counts = build_keys
        return skew_factor(partition_counts(values, self.config.n_nodes, counts))
