"""The shared-memory data plane for corpus builds.

Covers the PR-7 invariants:

* ``share_catalog``/``attach_catalog`` round-trip columns and statistics
  bit-for-bit on both backends (shm and mmap spill);
* chunked, mmap and warm-pool parallel builds are all bitwise
  identical to the serial build;
* kill -> resume through a checkpoint journal stays bitwise identical
  when the build is chunked;
* no shared segment outlives a build — after normal completion, after a
  worker killed mid-build, and after fault-injected attach failures the
  plane registry and /dev/shm are clean.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import CorpusBuildError, ReproError
from repro.experiments.corpus import build_corpus
from repro.experiments.workerpool import warm_pool, warmed_pool
from repro.ioutils import active_plane_names
from repro.resilience.faults import FaultPlan, armed
from repro.storage.shared import attach_catalog, share_catalog
from repro.workloads.generator import generate_pool


@pytest.fixture(scope="module")
def pool():
    return generate_pool(10, seed=23)


@pytest.fixture(scope="module")
def serial_corpus(tpcds_catalog, config, pool):
    return build_corpus(tpcds_catalog, config, pool, noise_seed=5)


def _shm_segments() -> set:
    """Names currently present in /dev/shm (empty off-Linux)."""
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if not name.startswith("sem.")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def assert_identical(a, b):
    assert [q.query_id for q in a.queries] == [q.query_id for q in b.queries]
    assert np.array_equal(a.feature_matrix(), b.feature_matrix())
    assert np.array_equal(a.sql_feature_matrix(), b.sql_feature_matrix())
    assert np.array_equal(a.performance_matrix(), b.performance_matrix())
    assert np.array_equal(a.optimizer_costs(), b.optimizer_costs())


# ----------------------------------------------------------------------
# share/attach round-trip
# ----------------------------------------------------------------------


class TestCatalogRoundTrip:
    @pytest.mark.parametrize("backend", ["shm", "mmap"])
    def test_attach_is_bitwise_the_publishers_data(
        self, tpcds_catalog, backend
    ):
        with share_catalog(tpcds_catalog, backend=backend) as shared:
            assert shared.backend == backend
            attached = attach_catalog(shared.descriptor)
            mirror = attached.catalog
            assert mirror.table_names == tpcds_catalog.table_names
            for name in tpcds_catalog.table_names:
                table = tpcds_catalog.table(name)
                twin = mirror.table(name)
                for col in table.schema:
                    ours = table.column(col.name)
                    theirs = twin.column(col.name)
                    assert ours.dtype == theirs.dtype
                    assert np.array_equal(ours, theirs)
            attached.close()
        assert active_plane_names() == ()

    def test_statistics_ship_without_reanalyze(self, tpcds_catalog):
        with share_catalog(tpcds_catalog) as shared:
            attached = attach_catalog(shared.descriptor)
            for name in tpcds_catalog.table_names:
                ours = tpcds_catalog.stats(name)
                theirs = attached.catalog.stats(name)
                assert theirs.row_count == ours.row_count
                assert theirs.page_count == ours.page_count
                for col_name, col_stats in ours.columns.items():
                    twin = theirs.column(col_name)
                    assert twin.n_distinct == col_stats.n_distinct
                    assert twin.min_value == col_stats.min_value
                    assert twin.max_value == col_stats.max_value
                    if col_stats.histogram is None:
                        assert twin.histogram is None
                    else:
                        assert np.array_equal(
                            twin.histogram, col_stats.histogram
                        )
            attached.close()

    def test_descriptor_is_small_and_picklable(self, tpcds_catalog):
        import pickle

        with share_catalog(tpcds_catalog) as shared:
            blob = pickle.dumps(shared.descriptor)
            # The whole point: attachment tickets stay KB-sized no
            # matter how large the tables are.
            assert len(blob) < 64 * 1024
            assert pickle.loads(blob).handle.name == shared.plane_name


# ----------------------------------------------------------------------
# Build identity across planes, chunking and the warm pool
# ----------------------------------------------------------------------


class TestBuildIdentity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 3},
            {"chunk_size": 1},
            {"data_plane": "mmap"},
        ],
        ids=["chunk3", "chunk1", "mmap"],
    )
    def test_parallel_matches_serial(
        self, tpcds_catalog, config, pool, serial_corpus, kwargs
    ):
        parallel = build_corpus(
            tpcds_catalog, config, pool, noise_seed=5, jobs=2, **kwargs
        )
        assert_identical(serial_corpus, parallel)
        assert active_plane_names() == ()

    def test_warm_pool_reuses_workers_and_matches(
        self, tpcds_catalog, config, pool, serial_corpus
    ):
        with warmed_pool() as warm:
            first = build_corpus(
                tpcds_catalog, config, pool, noise_seed=5, jobs=2
            )
            executor_after_first = warm._executor
            second = build_corpus(
                tpcds_catalog, config, pool, noise_seed=5, jobs=2
            )
            # Same executor object served both builds, and the catalog
            # plane stayed published between them.
            assert warm._executor is executor_after_first
            assert warm.jobs == 2
            assert active_plane_names() != ()
        assert_identical(serial_corpus, first)
        assert_identical(serial_corpus, second)
        assert warm_pool() is None
        assert active_plane_names() == ()

    def test_chunked_kill_then_resume_is_bitwise_identical(
        self, tpcds_catalog, config, pool, serial_corpus, tmp_path
    ):
        journal = tmp_path / "build.journal"
        target = pool[6].query_id
        plan = FaultPlan(seed=3).on(
            "corpus.execute", mode="exit",
            calls=set(range(1, len(pool) + 1)),
            match={"query_id": target},
        )
        with armed(plan):
            with pytest.raises(CorpusBuildError):
                build_corpus(
                    tpcds_catalog, config, pool, noise_seed=5, jobs=2,
                    chunk_size=2, checkpoint=journal,
                )
        # The journal survived the crash with some completed queries...
        assert journal.exists()
        assert active_plane_names() == ()
        # ...and the resumed chunked build finishes bitwise identical.
        resumed = build_corpus(
            tpcds_catalog, config, pool, noise_seed=5, jobs=2,
            chunk_size=2, checkpoint=journal,
        )
        assert not journal.exists()
        assert_identical(serial_corpus, resumed)


# ----------------------------------------------------------------------
# Segment lifecycle: nothing leaks
# ----------------------------------------------------------------------


class TestSegmentLifecycle:
    def test_normal_completion_leaves_no_segments(
        self, tpcds_catalog, config, pool
    ):
        before = _shm_segments()
        build_corpus(tpcds_catalog, config, pool, noise_seed=5, jobs=2)
        assert active_plane_names() == ()
        assert _shm_segments() - before == set()

    def test_worker_kill_midbuild_leaves_no_segments(
        self, tpcds_catalog, config, pool
    ):
        before = _shm_segments()
        plan = FaultPlan(seed=3).on(
            "corpus.execute", mode="exit",
            calls=set(range(1, len(pool) + 1)),
            match={"query_id": pool[4].query_id},
        )
        with armed(plan):
            with pytest.raises(CorpusBuildError):
                build_corpus(
                    tpcds_catalog, config, pool, noise_seed=5, jobs=2
                )
        assert active_plane_names() == ()
        assert _shm_segments() - before == set()

    def test_injected_attach_failure_leaves_no_segments(
        self, tpcds_catalog, config, pool
    ):
        # artifact.read fires inside attach_arrays: every worker fails
        # to attach the plane, the build errors out, and the publisher's
        # finally still unlinks the segment.
        before = _shm_segments()
        plan = FaultPlan(seed=3).on("artifact.read", mode="raise", rate=1.0)
        with armed(plan):
            with pytest.raises(ReproError):
                build_corpus(
                    tpcds_catalog, config, pool, noise_seed=5, jobs=2
                )
        assert active_plane_names() == ()
        assert _shm_segments() - before == set()
