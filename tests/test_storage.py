"""Storage layer tests: tables, partitioning, catalog, buffer pool."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog, ColumnStats
from repro.storage.partition import hash_partition, partition_counts, skew_factor
from repro.storage.table import Column, Schema, Table


def make_table(name="t", n=100):
    schema = Schema(
        [Column("id", "int"), Column("v", "float"), Column("s", "str")]
    )
    return Table(
        name,
        schema,
        {
            "id": np.arange(n),
            "v": np.linspace(0, 1, n),
            "s": np.array([f"s{i % 7}" for i in range(n)]),
        },
    )


class TestSchema:
    def test_invalid_kind_rejected(self):
        with pytest.raises(StorageError):
            Column("x", "decimal")

    def test_duplicate_names_rejected(self):
        with pytest.raises(StorageError):
            Schema([Column("a", "int"), Column("a", "float")])

    def test_row_bytes(self):
        schema = Schema([Column("a", "int"), Column("s", "str")])
        assert schema.row_bytes == 8 + 24

    def test_column_lookup(self):
        schema = Schema([Column("a", "int")])
        assert schema.column("a").kind == "int"
        with pytest.raises(StorageError):
            schema.column("b")

    def test_contains(self):
        schema = Schema([Column("a", "int")])
        assert "a" in schema
        assert "b" not in schema


class TestTable:
    def test_basic_properties(self):
        table = make_table(n=50)
        assert table.n_rows == 50
        assert table.column_names == ("id", "v", "s")
        assert table.row_bytes == 40
        assert table.total_bytes == 2000

    def test_missing_column_rejected(self):
        schema = Schema([Column("a", "int"), Column("b", "int")])
        with pytest.raises(StorageError):
            Table("t", schema, {"a": np.arange(3)})

    def test_extra_column_rejected(self):
        schema = Schema([Column("a", "int")])
        with pytest.raises(StorageError):
            Table("t", schema, {"a": np.arange(3), "z": np.arange(3)})

    def test_ragged_columns_rejected(self):
        schema = Schema([Column("a", "int"), Column("b", "int")])
        with pytest.raises(StorageError):
            Table("t", schema, {"a": np.arange(3), "b": np.arange(4)})

    def test_page_count_rounds_up(self):
        table = make_table(n=100)  # 4000 bytes
        assert table.page_count(page_size=1024) == 4
        assert table.page_count(page_size=4096) == 1
        assert table.page_count(page_size=3999) == 2

    def test_empty_table_zero_pages(self):
        schema = Schema([Column("a", "int")])
        table = Table("t", schema, {"a": np.array([], dtype=np.int64)})
        assert table.page_count() == 0

    def test_columns_dict_prefixes(self):
        table = make_table()
        columns = table.columns_dict("x")
        assert set(columns) == {"x.id", "x.v", "x.s"}

    def test_columns_dict_subset(self):
        table = make_table()
        columns = table.columns_dict("x", subset=("id",))
        assert set(columns) == {"x.id"}

    def test_columns_dict_unknown_subset(self):
        with pytest.raises(StorageError):
            make_table().columns_dict("x", subset=("missing",))


class TestPartitioning:
    def test_partition_ids_in_range(self):
        parts = hash_partition(np.arange(1000), 4)
        assert parts.min() >= 0
        assert parts.max() < 4

    def test_single_partition(self):
        parts = hash_partition(np.arange(10), 1)
        assert (parts == 0).all()

    def test_sequential_keys_spread_evenly(self):
        counts = partition_counts(np.arange(10_000), 4)
        assert counts.sum() == 10_000
        assert counts.max() / counts.min() < 1.2

    def test_string_keys(self):
        keys = np.array(["a", "b", "c", "a", "b"])
        parts = hash_partition(keys, 3)
        # Equal values land in equal partitions.
        assert parts[0] == parts[3]
        assert parts[1] == parts[4]

    def test_deterministic(self):
        keys = np.arange(100)
        assert np.array_equal(hash_partition(keys, 8), hash_partition(keys, 8))

    def test_float_keys_int64_cannot_hold_share_a_defined_partition(self):
        """NaN, +-inf and |x| >= 2**63 have no integer part in int64; they
        hash as its minimum (no cast warning), and in-range keys by their
        integer part."""
        outside = np.array(
            [np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**63, -(2.0**64)]
        )
        inside = np.array([3.7, -3.7, 3.0, -(2.0**63), 2.0**62, -0.0])
        for n in (2, 3, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                hashed = hash_partition(outside, n)
                expected = hash_partition(np.array([-(2.0**63)]), n)[0]
                assert hashed.tolist() == [expected] * len(outside)
                assert hash_partition(inside, n).tolist() == [
                    3 % n, 3 % n, 3 % n, -(2**63) % n, 2**62 % n, 0
                ]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            hash_partition(np.arange(5), 0)

    def test_skew_factor_balanced(self):
        assert skew_factor(np.array([25, 25, 25, 25])) == 1.0

    def test_skew_factor_hot_partition(self):
        assert skew_factor(np.array([70, 10, 10, 10])) == pytest.approx(2.8)

    def test_skew_factor_empty(self):
        assert skew_factor(np.array([])) == 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                 max_size=300),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_is_a_partition(self, keys, n_parts):
        """Property: every row lands in exactly one partition."""
        keys = np.array(keys)
        counts = partition_counts(keys, n_parts)
        assert counts.sum() == len(keys)
        assert len(counts) == n_parts
        assert (counts >= 0).all()

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=2,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_equal_keys_colocate(self, keys):
        """Property: equal keys always hash to the same partition."""
        keys = np.array(keys)
        parts = hash_partition(keys, 8)
        for value in np.unique(keys):
            assert len(np.unique(parts[keys == value])) == 1


class TestColumnStats:
    def test_numeric_stats(self):
        values = np.arange(1000, dtype=np.int64)
        stats = ColumnStats.from_array("c", "int", values)
        assert stats.n_distinct == 1000
        assert stats.min_value == 0
        assert stats.max_value == 999
        assert stats.histogram is not None
        assert len(stats.histogram) == 33

    def test_string_stats_most_common(self):
        values = np.array(["a"] * 70 + ["b"] * 20 + ["c"] * 10)
        stats = ColumnStats.from_array("c", "str", values)
        assert stats.n_distinct == 3
        assert stats.most_common[0] == ("a", pytest.approx(0.7))

    def test_empty_column(self):
        stats = ColumnStats.from_array("c", "int", np.array([], dtype=np.int64))
        assert stats.n_distinct == 0

    def test_float_with_nan(self):
        values = np.array([1.0, 2.0, np.nan, 2.0])
        stats = ColumnStats.from_array("c", "float", values)
        assert stats.n_distinct == 2
        assert stats.max_value == 2.0


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register(make_table("a"))
        assert "a" in catalog
        assert catalog.table("a").n_rows == 100

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.register(make_table("a"))
        with pytest.raises(CatalogError):
            catalog.register(make_table("a"))

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_stats_collected(self):
        catalog = Catalog()
        catalog.register(make_table("a", n=64))
        stats = catalog.stats("a")
        assert stats.row_count == 64
        assert stats.column("id").n_distinct == 64

    def test_stats_lazy_when_not_analyzed(self):
        catalog = Catalog()
        catalog.register(make_table("a"), analyze=False)
        assert catalog.stats("a").row_count == 100

    def test_unknown_column_stats(self):
        catalog = Catalog()
        catalog.register(make_table("a"))
        with pytest.raises(CatalogError):
            catalog.stats("a").column("nope")

    def test_total_bytes(self):
        catalog = Catalog()
        catalog.register(make_table("a", n=10))
        catalog.register(make_table("b", n=20))
        assert catalog.total_bytes == 10 * 40 + 20 * 40


class TestBufferPool:
    def test_small_tables_admitted_first(self):
        catalog = Catalog()
        catalog.register(make_table("small", n=10))  # 400 B
        catalog.register(make_table("large", n=1000))  # 40 kB
        pool = BufferPool(catalog, cache_bytes=1000)
        assert pool.is_resident("small")
        assert not pool.is_resident("large")

    def test_everything_fits(self):
        catalog = Catalog()
        catalog.register(make_table("a", n=10))
        catalog.register(make_table("b", n=10))
        pool = BufferPool(catalog, cache_bytes=10_000)
        assert pool.resident_tables == {"a", "b"}

    def test_nothing_fits(self):
        catalog = Catalog()
        catalog.register(make_table("a", n=100))
        pool = BufferPool(catalog, cache_bytes=100)
        assert not pool.resident_tables
