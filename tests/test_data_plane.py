"""The shared-memory data plane for corpus builds.

Covers the PR-7 invariants:

* ``share_catalog``/``attach_catalog`` round-trip columns and statistics
  bit-for-bit on both backends (shm and mmap spill);
* parallel builds whose chunks hold several queries, and one on a host
  that refuses shared memory (the plane spills to a file), are bitwise
  identical to the serial build;
* kill -> resume through a checkpoint journal stays bitwise identical
  when the kill lands inside a multi-query chunk;
* no shared segment outlives a build — after normal completion, after a
  worker killed mid-build, and after fault-injected attach failures the
  plane registry and /dev/shm are clean.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro import ioutils
from repro.errors import CorpusBuildError, ReproError
from repro.experiments.corpus import _chunk_pending, build_corpus
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


@pytest.fixture(scope="module")
def wide_pool():
    """Large enough that the default chunking puts several queries in a
    worker task (50 // (2 * 8) = 3 at jobs=2, 50 // (3 * 8) = 2 at 3)."""
    return generate_pool(50, seed=23)


@pytest.fixture(scope="module")
def wide_serial_corpus(tpcds_catalog, config, wide_pool):
    return build_corpus(tpcds_catalog, config, wide_pool, noise_seed=5)


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
# Build identity across plane backends and chunk shapes
# ----------------------------------------------------------------------


class TestBuildIdentity:
    @pytest.mark.parametrize("jobs", [2, 3], ids=["jobs2", "jobs3"])
    def test_parallel_matches_serial(
        self, tpcds_catalog, config, wide_pool, wide_serial_corpus, jobs
    ):
        assert max(map(len, _chunk_pending(wide_pool, jobs))) > 1
        parallel = build_corpus(
            tpcds_catalog, config, wide_pool, noise_seed=5, jobs=jobs
        )
        assert_identical(wide_serial_corpus, parallel)
        assert active_plane_names() == ()

    def test_shm_refused_build_spills_and_matches_serial(
        self, tpcds_catalog, config, pool, serial_corpus, tmp_path,
        monkeypatch,
    ):
        """The selection a host without /dev/shm sees: nothing forces the
        backend, shared memory fails, the plane goes to a spill file."""
        def refuse(layout, total):
            raise OSError("no shared memory on this host")

        spilled = []
        publish_mmap = ioutils._publish_mmap

        def spill(layout, total, spill_dir):
            plane = publish_mmap(layout, total, spill_dir)
            spilled.append(plane.handle.name)
            return plane

        monkeypatch.setattr(ioutils, "_publish_shm", refuse)
        monkeypatch.setattr(ioutils, "_publish_mmap", spill)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        before = _shm_segments()
        parallel = build_corpus(
            tpcds_catalog, config, pool, noise_seed=5, jobs=2
        )
        assert_identical(serial_corpus, parallel)
        assert len(spilled) == 1
        assert os.path.dirname(spilled[0]) == str(tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert active_plane_names() == ()
        assert _shm_segments() - before == set()

    def test_chunked_kill_then_resume_is_bitwise_identical(
        self, tpcds_catalog, config, wide_pool, wide_serial_corpus, tmp_path
    ):
        journal = tmp_path / "build.journal"
        target = wide_pool[7].query_id
        (chunk,) = [
            chunk for chunk in _chunk_pending(wide_pool, 2)
            if target in [query.query_id for query in chunk]
        ]
        assert len(chunk) > 1 and chunk[0].query_id != target
        plan = FaultPlan(seed=3).on(
            "corpus.execute", mode="exit",
            calls=set(range(1, len(wide_pool) + 1)),
            match={"query_id": target},
        )
        with armed(plan):
            with pytest.raises(CorpusBuildError):
                build_corpus(
                    tpcds_catalog, config, wide_pool, noise_seed=5, jobs=2,
                    checkpoint=journal,
                )
        # The journal survived the crash with some completed queries...
        assert journal.exists()
        assert active_plane_names() == ()
        # ...and the resumed chunked build finishes bitwise identical.
        resumed = build_corpus(
            tpcds_catalog, config, wide_pool, noise_seed=5, jobs=2,
            checkpoint=journal,
        )
        assert not journal.exists()
        assert_identical(wide_serial_corpus, resumed)


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
