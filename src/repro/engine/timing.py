"""Analytic resource model of the simulated parallel system.

Operators are executed for real (so their row counts are genuine), and this
module converts the observed work into simulated seconds, disk I/Os and
interconnect traffic, parameterised by a
:class:`~repro.engine.system.SystemConfig`:

* CPU work is divided across the processing nodes and multiplied by the
  key-distribution *skew factor* — a parallel operator finishes when its
  most loaded node does.
* Sorts and hash builds larger than the per-node working memory spill,
  paying multi-pass disk I/O; this super-linear penalty is what turns the
  workload's biggest joins into the paper's "bowling balls".
* Exchanges pay a per-message latency plus a per-byte transfer cost.

The final elapsed time adds fixed startup overhead and multiplicative
log-normal noise (run-to-run variance of a real system).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.metrics import MetricsAccumulator
from repro.engine.system import SystemConfig
from repro.storage.buffer import BufferPool
from repro.storage.table import Table

__all__ = ["ResourceModel"]


class ResourceModel:
    """Charges operator work into a :class:`MetricsAccumulator`."""

    def __init__(
        self,
        config: SystemConfig,
        buffer_pool: BufferPool,
        acc: MetricsAccumulator,
    ) -> None:
        self._config = config
        self._buffer = buffer_pool
        self._acc = acc

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _cpu(self, operator: str, units: float, unit_cost: float, skew: float) -> None:
        seconds = units * unit_cost * skew / self._config.n_nodes
        self._acc.charge_time(operator, seconds, "cpu")

    def _disk(self, operator: str, pages: int, skew: float = 1.0) -> None:
        """Charge ``pages`` disk page transfers, spread across the disks."""
        if pages <= 0:
            return
        self._acc.disk_ios += int(pages)
        seconds = pages * self._config.disk_page_s * skew / self._config.n_disks
        self._acc.charge_time(operator, seconds, "io")

    def _pages(self, n_bytes: float) -> int:
        return int(math.ceil(max(n_bytes, 0.0) / self._config.page_bytes))

    def spill_passes(self, n_bytes: float) -> int:
        """Extra partitioning passes needed for ``n_bytes`` of operator state.

        Returns 0 when the state fits in one node's working memory (the
        aggregate working memory is ``work_mem * n_nodes``, and state is
        spread across nodes).
        """
        per_node = n_bytes / self._config.n_nodes
        if per_node <= self._config.work_mem_bytes:
            return 0
        return int(math.ceil(per_node / self._config.work_mem_bytes)) - 1

    # ------------------------------------------------------------------
    # Per-operator charges
    # ------------------------------------------------------------------

    def scan(
        self, operator: str, table: Table, out_rows: int, skew: float
    ) -> None:
        """File scan: read pages (disk if non-resident), qualify rows."""
        self._acc.records_accessed += table.n_rows
        self._acc.records_used += out_rows
        if not self._buffer.is_resident(table.name):
            self._disk(operator, table.page_count(self._config.page_bytes), skew)
        self._cpu(operator, table.n_rows, self._config.cpu_tuple_s, skew)
        self._cpu(operator, out_rows, 0.25 * self._config.cpu_tuple_s, skew)

    def hash_join(
        self,
        operator: str,
        build_rows: int,
        probe_rows: int,
        build_bytes: float,
        out_rows: int,
        skew: float,
    ) -> None:
        """Hash join: build + probe CPU, multi-pass spill I/O when large."""
        self._cpu(operator, build_rows, 1.6 * self._config.cpu_tuple_s, skew)
        self._cpu(operator, probe_rows, self._config.cpu_tuple_s, skew)
        # Producing a join output row costs more than streaming an input
        # row (result assembly, copying both sides); this is also the term
        # that separates exploding fact-to-fact joins from star lookups.
        self._cpu(operator, out_rows, 2.4 * self._config.cpu_tuple_s, skew)
        passes = self.spill_passes(build_bytes)
        if passes:
            probe_bytes = build_bytes * (probe_rows / max(build_rows, 1))
            spilled = self._pages(build_bytes + probe_bytes) * passes
            self._disk(operator, 2 * spilled, skew)  # write + re-read

    def nested_join(
        self, operator: str, outer_rows: int, inner_rows: int, out_rows: int,
        skew: float,
    ) -> None:
        """Nested-loop join: quadratic in the input sizes."""
        pairs = float(outer_rows) * float(inner_rows)
        self._cpu(operator, pairs, self._config.cpu_compare_s, skew)
        self._cpu(operator, out_rows, 2.4 * self._config.cpu_tuple_s, skew)

    def sort(
        self, operator: str, rows: int, row_bytes: float, skew: float
    ) -> None:
        """Sort: n log n comparisons plus external-merge I/O when large."""
        if rows <= 0:
            return
        comparisons = rows * max(math.log2(rows), 1.0)
        self._cpu(operator, comparisons, self._config.cpu_compare_s, skew)
        passes = self.spill_passes(rows * row_bytes)
        if passes:
            spilled = self._pages(rows * row_bytes) * passes
            self._disk(operator, 2 * spilled, skew)

    def group_by(
        self,
        operator: str,
        in_rows: int,
        out_groups: int,
        state_bytes: float,
        skew: float,
    ) -> None:
        """Hash aggregation: per-row probe plus spill when many groups."""
        self._cpu(operator, in_rows, 1.3 * self._config.cpu_tuple_s, skew)
        self._cpu(operator, out_groups, 0.5 * self._config.cpu_tuple_s, skew)
        passes = self.spill_passes(state_bytes)
        if passes:
            self._disk(operator, 2 * self._pages(state_bytes) * passes, skew)

    def exchange(
        self, operator: str, rows: int, row_bytes: float, kind: str
    ) -> None:
        """Interconnect transfer for repartition / broadcast / collect.

        ``repartition`` ships the fraction of rows that land on a different
        node; ``broadcast`` replicates the input to every node; ``collect``
        funnels everything to the coordinator.
        """
        nodes = self._config.n_nodes
        if kind == "repartition":
            shipped_bytes = rows * row_bytes * (nodes - 1) / nodes
            streams = nodes * max(nodes - 1, 1)
        elif kind == "broadcast":
            shipped_bytes = rows * row_bytes * (nodes - 1)
            streams = nodes * max(nodes - 1, 1)
        elif kind == "collect":
            shipped_bytes = rows * row_bytes
            streams = nodes
        else:
            raise ValueError(f"unknown exchange kind {kind!r}")
        capacity = self._config.message_bytes_capacity
        messages = streams + int(math.ceil(shipped_bytes / capacity))
        self._acc.message_count += messages
        self._acc.message_bytes += int(shipped_bytes)
        seconds = (
            messages * self._config.message_latency_s
            + shipped_bytes * self._config.network_byte_s
        )
        self._acc.charge_time(operator, seconds / nodes, "net")
        self._cpu(operator, rows, 0.35 * self._config.cpu_tuple_s, 1.0)

    def simple(self, operator: str, rows: int, skew: float = 1.0) -> None:
        """Per-row CPU for lightweight operators (filter, project, root)."""
        self._cpu(operator, rows, 0.4 * self._config.cpu_tuple_s, skew)

    def top_n(self, operator: str, rows: int, limit: int, skew: float) -> None:
        """Top-N: heap maintenance, n log k comparisons."""
        if rows <= 0:
            return
        comparisons = rows * max(math.log2(max(limit, 2)), 1.0)
        self._cpu(operator, comparisons, self._config.cpu_compare_s, skew)

    # ------------------------------------------------------------------
    # Final assembly
    # ------------------------------------------------------------------

    def elapsed_seconds(self, rng: np.random.Generator | None = None) -> float:
        """Total simulated elapsed time with startup overhead and noise."""
        busy = self._acc.busy_seconds
        elapsed = self._config.startup_s + busy
        if rng is not None and self._config.noise > 0:
            elapsed *= float(rng.lognormal(0.0, self._config.noise))
        return elapsed
