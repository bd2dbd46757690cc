"""Operator algorithm tests, checked against naive pure-numpy oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.operators import (
    _TABLE_SPAN,
    Batch,
    _merge_batches,
    distinct_batch,
    equi_join_indices,
    factorize_rows,
    filter_batch,
    group_by_batch,
    group_rows,
    hash_join_batches,
    nested_join_batches,
    scalar_aggregate_batch,
    semi_join_batch,
    sort_batch,
    top_n_batch,
)
from repro.engine.plan import AggregateSpec
from repro.errors import ExecutionError
from repro.sql.parser import parse
from repro.storage.partition import partition_counts


def predicate(cond):
    return parse(f"SELECT * FROM t WHERE {cond}").where


def expr(expression):
    return parse(f"SELECT {expression} FROM t").select[0].expr


# ----------------------------------------------------------------------
# Key columns for the oracle properties
# ----------------------------------------------------------------------

#: Key domains, ``name -> (values, dtype)``.  Integer ranges land on both
#: sides of ``_TABLE_SPAN`` (a range of exactly ``_TABLE_SPAN`` is ranked
#: through the lookup table, one more goes to ``np.unique``), narrow
#: dtypes reach their extremes, and ``uint64`` reaches past ``int64``.
KEY_DOMAINS = {
    "small": (st.integers(0, 8), np.int64),
    "negative": (st.integers(-6, 3), np.int32),
    "int8": (st.sampled_from([-128, -1, 0, 127]), np.int8),
    "bool": (st.booleans(), np.bool_),
    "uint64": (
        st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]),
        np.uint64,
    ),
    "big": (st.sampled_from([-(2**62), 2**53, 2**53 + 1, 2**53 + 2]), np.int64),
    "edge": (
        st.sampled_from([-3, 0, 5, _TABLE_SPAN - 4, _TABLE_SPAN - 3]), np.int64
    ),
    "float": (
        st.sampled_from([0.0, -0.0, 1.5, -2.25, float("inf"), float("nan")]),
        np.float64,
    ),
    "text": (st.sampled_from(["", "a", "ab", "b", "\u00e9"]), np.str_),
}
INTEGER_DOMAINS = ("small", "negative", "int8", "bool", "uint64", "big", "edge")
#: (left domain, right domain) of one join key: any two integer domains,
#: floats with floats or small integers, text with text.
JOINABLE = [(a, b) for a in INTEGER_DOMAINS for b in INTEGER_DOMAINS] + [
    ("float", "float"), ("small", "float"), ("float", "small"), ("text", "text"),
]


def key_column(draw, domain, n_rows):
    values, dtype = KEY_DOMAINS[domain]
    return np.array(
        draw(st.lists(values, min_size=n_rows, max_size=n_rows)), dtype=dtype
    )


@st.composite
def key_columns(draw, max_rows=40):
    """One to three key columns of a common length (possibly zero)."""
    n_rows = draw(st.integers(0, max_rows))
    domains = draw(
        st.lists(st.sampled_from(sorted(KEY_DOMAINS)), min_size=1, max_size=3)
    )
    return [key_column(draw, domain, n_rows) for domain in domains]


@st.composite
def join_sides(draw):
    """Left and right key lists of a one- to three-column equi join."""
    pairs = draw(st.lists(st.sampled_from(JOINABLE), min_size=1, max_size=3))
    n_left, n_right = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    return (
        [key_column(draw, left, n_left) for left, _ in pairs],
        [key_column(draw, right, n_right) for _, right in pairs],
    )


def same_key(a, b) -> bool:
    """Key equality as the engine sees it: ``==``, and NaN matches NaN."""
    return a == b or (a != a and b != b)


def canonical(row) -> tuple:
    """A hashable stand-in for a key tuple under :func:`same_key`."""
    return tuple("nan" if value != value else value for value in row)


def key_rows(columns) -> list[tuple]:
    return list(zip(*(column.tolist() for column in columns)))


def shown(rows) -> list[tuple]:
    """Rows as reprs, which tell -0.0 from 0.0 and equate NaN with NaN."""
    return [tuple(map(repr, row)) for row in rows]


def sort_rank(row) -> tuple:
    """Sorted key order: column by column, NaN after every number."""
    return tuple((True, 0) if value != value else (False, value) for value in row)


DISTINCT_FUNCTIONS = ("count", "sum", "avg", "min", "max")


def distinct_aggregates(column: str) -> list[AggregateSpec]:
    return [AggregateSpec(func, expr(column), func, True) for func in DISTINCT_FUNCTIONS]


def assert_distinct_per_group(batch: Batch, keys: list[str], column: str) -> None:
    """Grouped ``f(DISTINCT column)`` equals ``scalar_aggregate_batch`` over
    each group's rows, for every function (``-0.0`` equal to ``0.0``, NaN
    to NaN: a sum starts from one or the other)."""
    out = group_by_batch(batch, keys, distinct_aggregates(column))
    rows = batch.gathered()
    codes, n_groups = (
        factorize_rows([rows.column(name) for name in keys])
        if rows.n_rows else (np.empty(0, np.int64), 0)
    )
    assert out.n_rows == n_groups
    for func in DISTINCT_FUNCTIONS:
        expected = [
            scalar_aggregate_batch(
                rows.mask(codes == group), distinct_aggregates(column)
            ).column(func)[0]
            for group in range(n_groups)
        ]
        np.testing.assert_array_equal(out.column(func), expected, err_msg=func)


class TestBatch:
    def test_length_validation(self):
        with pytest.raises(ExecutionError):
            Batch({"a": np.arange(3)}, n_rows=4)

    def test_take_with_repeats(self):
        batch = Batch({"a": np.array([10, 20, 30])}, n_rows=3)
        taken = batch.take(np.array([0, 0, 2]))
        assert list(taken.column("a")) == [10, 10, 30]

    def test_mask(self):
        batch = Batch({"a": np.arange(5)}, n_rows=5)
        masked = batch.mask(np.array([True, False, True, False, True]))
        assert masked.n_rows == 3

    def test_row_bytes_string_vs_numeric(self):
        batch = Batch(
            {"a": np.arange(2), "s": np.array(["x", "y"])}, n_rows=2
        )
        assert batch.row_bytes == 8 + 24

    def test_unknown_column(self):
        with pytest.raises(ExecutionError):
            Batch({}, 0).column("a")


#: Column dtypes a deferred gather must carry unchanged: 8-, 4- and 1-byte
#: numbers, and strings, which ``row_bytes`` charges a flat 24 bytes.
COLUMN_VALUES = [
    (st.integers(-5, 5), np.int64),
    (st.integers(0, 9), np.int32),
    (st.sampled_from([0.0, -0.0, 1.5, -2.25]), np.float64),
    (st.booleans(), np.bool_),
    (st.sampled_from(["", "a", "b", "ab", "ship"]), np.str_),
]


def draw_columns(draw, n_rows: int, prefix: str) -> dict:
    """One to four columns of ``n_rows`` rows, of drawn dtypes."""
    kinds = draw(st.lists(st.sampled_from(COLUMN_VALUES), min_size=1, max_size=4))
    return {
        f"{prefix}.c{index}": np.array(
            draw(st.lists(values, min_size=n_rows, max_size=n_rows)), dtype=dtype
        )
        for index, (values, dtype) in enumerate(kinds)
    }


def eager_sort_order(values: np.ndarray, descending: bool) -> list[int]:
    """Stable order of ``values``; descending keeps ties in row order too."""
    ranks = {value: rank for rank, value in enumerate(sorted(set(values.tolist())))}
    sign = -1 if descending else 1
    return sorted(range(len(values)), key=lambda row: sign * ranks[values[row].item()])


class TestDeferredGather:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_chains_equal_an_eager_reference(self, data):
        """Property: whatever chain of ``take`` / ``mask`` / merge /
        ``sort_batch`` built a batch, every column equals the column an
        eager gather at each step yields, ``row_bytes`` / ``total_bytes``
        equal those of the eager batch, and a second read hands back the
        array the first one gathered."""
        draw = data.draw
        n_rows = draw(st.integers(0, 6))
        reference = draw_columns(draw, n_rows, "t0")
        batch = Batch(dict(reference), n_rows)
        for step in range(1, draw(st.integers(1, 6)) + 1):
            operation = draw(st.sampled_from(["take", "mask", "merge", "sort", "read"]))
            if operation == "take":
                rows = np.array(
                    draw(st.lists(st.integers(0, n_rows - 1), max_size=8))
                    if n_rows else [],
                    dtype=np.int64,
                )
                batch = batch.take(rows)
                reference = {name: column[rows] for name, column in reference.items()}
            elif operation == "mask":
                keep = np.array(
                    draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)),
                    dtype=bool,
                )
                batch = batch.mask(keep)
                reference = {name: column[keep] for name, column in reference.items()}
            elif operation == "merge":
                # The other side arrives through its own selection.
                source = draw_columns(draw, n_rows + 2, f"t{step}")
                rows = np.array(
                    draw(st.lists(st.integers(0, n_rows + 1), min_size=n_rows,
                                  max_size=n_rows)),
                    dtype=np.int64,
                )
                batch = _merge_batches(batch, Batch(source, n_rows + 2).take(rows))
                reference.update({name: column[rows] for name, column in source.items()})
            elif operation == "sort":
                name = draw(st.sampled_from(sorted(reference)))
                descending = draw(st.booleans())
                batch = sort_batch(batch, [(name, descending)])
                order = eager_sort_order(reference[name], descending)
                reference = {
                    column_name: column[order] if n_rows else column
                    for column_name, column in reference.items()
                }
            else:
                batch.column(draw(st.sampled_from(sorted(reference))))
            n_rows = len(next(iter(reference.values())))
            assert batch.n_rows == n_rows
        eager = Batch(dict(reference), n_rows)
        assert batch.row_bytes == eager.row_bytes
        assert batch.total_bytes == eager.total_bytes
        assert list(batch.columns) == list(reference)
        for name, expected in reference.items():
            column = batch.column(name)
            assert column.dtype == expected.dtype
            assert shown([column.tolist()]) == shown([expected.tolist()])
            assert batch.column(name) is column

    def test_executor_results_hold_arrays_only(self, executor, optimizer):
        """What ``Executor.execute`` hands back has nothing left to gather."""
        plan = optimizer.optimize(
            "SELECT i.i_category, ss.ss_quantity FROM store_sales ss, item i "
            "WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_quantity > 30 "
            "ORDER BY ss.ss_quantity DESC LIMIT 7"
        ).plan
        result = executor.execute(plan)
        assert result.n_rows == 7
        for column in result.batch.columns.values():
            assert type(column) is np.ndarray and len(column) == 7


class TestEquiJoin:
    def test_one_to_one(self):
        left = [np.array([1, 2, 3])]
        right = [np.array([3, 1, 2])]
        li, ri = equi_join_indices(left, right)
        assert len(li) == 3
        assert (np.array(left[0])[li] == np.array(right[0])[ri]).all()

    def test_one_to_many(self):
        li, ri = equi_join_indices([np.array([1, 2])], [np.array([1, 1, 2])])
        assert len(li) == 3
        assert sorted(li) == [0, 0, 1]

    def test_no_matches(self):
        li, ri = equi_join_indices([np.array([1])], [np.array([2])])
        assert len(li) == 0

    def test_multi_key(self):
        left = [np.array([1, 1, 2]), np.array([10, 20, 10])]
        right = [np.array([1, 2]), np.array([20, 10])]
        li, ri = equi_join_indices(left, right)
        pairs = {(int(left[0][i]), int(left[1][i])) for i in li}
        assert pairs == {(1, 20), (2, 10)}

    def test_string_keys(self):
        li, ri = equi_join_indices(
            [np.array(["a", "b"])], [np.array(["b", "b", "c"])]
        )
        assert len(li) == 2
        assert (li == 1).all()

    def test_large_integer_keys_compare_exactly(self):
        """Keys past 2**53 that differ by one are different keys (they
        used to meet in a float64 cast)."""
        li, ri = equi_join_indices(
            [np.array([2**53, 2**53 + 1])], [np.array([2**53 + 1])]
        )
        assert (li.tolist(), ri.tolist()) == ([1], [0])

    @given(join_sides())
    @example(([np.array([0, _TABLE_SPAN - 1, 7])], [np.array([7, _TABLE_SPAN - 1])]))
    @example(([np.array([0, _TABLE_SPAN, 7])], [np.array([7, _TABLE_SPAN, 7])]))
    @example(([np.array([2**64 - 1, 5], dtype=np.uint64)], [np.array([-1, 5])]))
    @example(([np.array([], dtype=np.int64)], [np.array([1, 2])]))
    @settings(max_examples=150, deadline=None)
    def test_matches_nested_loop_oracle(self, sides):
        """Property: equi join == brute-force nested loop join, pair for
        pair: left-major, right rows of one left row in row order."""
        left, right = sides
        li, ri = equi_join_indices(left, right)
        left_rows, right_rows = key_rows(left), key_rows(right)
        expected = [
            (i, j)
            for i, left_row in enumerate(left_rows)
            for j, right_row in enumerate(right_rows)
            if all(map(same_key, left_row, right_row))
        ]
        assert list(zip(li.tolist(), ri.tolist())) == expected
        semi, _ = semi_join_batch(
            Batch({f"l{c}": col for c, col in enumerate(left)}, len(left_rows)),
            Batch({f"r{c}": col for c, col in enumerate(right)}, len(right_rows)),
            [(f"l{c}", f"r{c}") for c in range(len(left))],
        )
        assert semi.n_rows == len({i for i, _ in expected})


    @given(join_sides())
    @example(([np.array([3, 1, 3, 2])], [np.array([1, 2, 3])]))
    @example(([np.array([], dtype=np.int64)], [np.array([1, 2])]))
    @settings(max_examples=150, deadline=None)
    def test_unique_build_keys_match_the_fan_out_expansion(self, sides):
        """Property: with every build key unique, the join's pairs are
        bit for bit those of the general expansion, which the same build
        side written twice takes (each pair then comes twice, the second
        time with a row of the copy)."""
        left, right = sides
        names = [f"r{c}" for c in range(len(right))]
        right = [
            distinct_batch(Batch(dict(zip(names, right)), len(right[0]))).column(name)
            for name in names
        ]
        n_right = len(right[0])
        li, ri = equi_join_indices(left, right)
        twice = [np.concatenate([column, column]) for column in right]
        fan_li, fan_ri = equi_join_indices(left, twice)
        assert len(fan_li) == 2 * len(li)
        first = fan_ri < n_right
        for unique, general in ((li, fan_li[first]), (ri, fan_ri[first])):
            assert unique.dtype == general.dtype == np.int64
            assert unique.tobytes() == general.tobytes()


class TestHashJoinBatches:
    def test_columns_merged(self):
        left = Batch({"l.k": np.array([1, 2]), "l.v": np.array([10, 20])}, 2)
        right = Batch({"r.k": np.array([2, 1]), "r.w": np.array([200, 100])}, 2)
        out, _ = hash_join_batches(left, right, [("l.k", "r.k")])
        assert out.n_rows == 2
        row = {k: out.column(k)[0] for k in out.columns}
        assert row["l.v"] * 10 == row["r.w"]

    def test_residual_predicate(self):
        left = Batch({"l.k": np.array([1, 1]), "l.v": np.array([5, 50])}, 2)
        right = Batch({"r.k": np.array([1]), "r.w": np.array([10])}, 1)
        out, _ = hash_join_batches(
            left, right, [("l.k", "r.k")], residual=predicate("l.v > r.w")
        )
        assert out.n_rows == 1
        assert out.column("l.v")[0] == 50

    def test_duplicate_column_names_rejected(self):
        left = Batch({"k": np.array([1])}, 1)
        right = Batch({"k": np.array([1])}, 1)
        with pytest.raises(ExecutionError):
            hash_join_batches(left, right, [("k", "k")])


class TestNestedJoin:
    def test_theta_join(self):
        left = Batch({"l.a": np.array([1, 5, 9])}, 3)
        right = Batch({"r.b": np.array([2, 6])}, 2)
        out = nested_join_batches(left, right, predicate("l.a > r.b"))
        # pairs: (5,2), (9,2), (9,6)
        assert out.n_rows == 3

    def test_cross_join(self):
        left = Batch({"l.a": np.arange(3)}, 3)
        right = Batch({"r.b": np.arange(4)}, 4)
        out = nested_join_batches(left, right, None)
        assert out.n_rows == 12

    def test_empty_side(self):
        left = Batch({"l.a": np.arange(0)}, 0)
        right = Batch({"r.b": np.arange(4)}, 4)
        out = nested_join_batches(left, right, None)
        assert out.n_rows == 0

    def test_chunking_matches_unchunked(self, monkeypatch):
        import repro.engine.operators as ops

        left = Batch({"l.a": np.arange(100)}, 100)
        right = Batch({"r.b": np.arange(50)}, 50)
        pred = predicate("l.a = r.b")
        full = nested_join_batches(left, right, pred)
        monkeypatch.setattr(ops, "_NL_CHUNK_ELEMENTS", 64)
        chunked = ops.nested_join_batches(left, right, pred)
        assert chunked.n_rows == full.n_rows == 50


class TestSemiJoin:
    def test_semi(self):
        left = Batch({"l.k": np.array([1, 2, 3])}, 3)
        right = Batch({"r.k": np.array([2, 2, 3])}, 3)
        out, _ = semi_join_batch(left, right, [("l.k", "r.k")])
        assert list(out.column("l.k")) == [2, 3]

    def test_anti(self):
        left = Batch({"l.k": np.array([1, 2, 3])}, 3)
        right = Batch({"r.k": np.array([2])}, 1)
        out, _ = semi_join_batch(left, right, [("l.k", "r.k")], anti=True)
        assert list(out.column("l.k")) == [1, 3]

    def test_semi_does_not_duplicate(self):
        """Semi join output has at most one row per left row."""
        left = Batch({"l.k": np.array([1])}, 1)
        right = Batch({"r.k": np.array([1, 1, 1])}, 3)
        out, _ = semi_join_batch(left, right, [("l.k", "r.k")])
        assert out.n_rows == 1


#: Values an aggregate reads: sums of these depend on their order.
AGGREGATE_VALUES = st.sampled_from([0.1, -2.5, 1e16, -1e16, 3.0, float("nan")])


def fan_case(left, right, keys, *, left_rows=None, right_rows=None, order=0):
    """One join-then-group-by case: each side's source columns (``k*`` join
    keys, ``g*`` other keys, ``v`` values), the rows of each source a side
    reads (None: all of it, as stored), the group keys and a seed for the
    order in which the results are read."""
    return {
        "left": left, "right": right, "keys": keys, "order": order,
        "left_rows": left_rows, "right_rows": right_rows,
    }


@st.composite
def fan_cases(draw):
    left_keys, right_keys = draw(join_sides())
    sides = {}
    for prefix, join_keys in (("l", left_keys), ("r", right_keys)):
        n_source = len(join_keys[0])
        columns = {f"{prefix}.k{c}": key for c, key in enumerate(join_keys)}
        for c in range(draw(st.integers(1, 2))):
            domain = draw(st.sampled_from(sorted(KEY_DOMAINS)))
            columns[f"{prefix}.g{c}"] = key_column(draw, domain, n_source)
        columns[f"{prefix}.v"] = np.array(
            draw(st.lists(AGGREGATE_VALUES, min_size=n_source, max_size=n_source)),
            dtype=np.float64,
        )
        rows = None
        if n_source and draw(st.booleans()):
            # The side is itself a selection, with repeats, not gathered yet.
            rows = np.array(
                draw(st.lists(st.integers(0, n_source - 1), max_size=12)),
                dtype=np.int64,
            )
        sides[prefix] = columns, rows
    where = draw(st.sampled_from(["probe", "build", "mixed"]))
    names = {prefix: sorted(columns)[:-1] for prefix, (columns, _) in sides.items()}
    if where == "mixed":
        keys = [draw(st.sampled_from(names["l"])), draw(st.sampled_from(names["r"]))]
    else:
        side = names["l" if where == "probe" else "r"]
        keys = draw(
            st.lists(st.sampled_from(side), min_size=1, max_size=3, unique=True)
        )
    return fan_case(
        sides["l"][0], sides["r"][0], keys,
        left_rows=sides["l"][1], right_rows=sides["r"][1],
        order=draw(st.integers(0, 2**32 - 1)),
    )


class TestDeferredFanOut:
    """A join whose build keys repeat hands on its match counts; the rows
    of its output are expanded only when something reads them."""

    AGGREGATES = [
        AggregateSpec("count", None, "c"),
        AggregateSpec("sum", expr("l.v"), "s"),
        AggregateSpec("avg", expr("r.v"), "a"),
        AggregateSpec("min", expr("l.v"), "lo"),
        AggregateSpec("max", expr("r.v"), "hi"),
        AggregateSpec("count", expr("r.v"), "n"),
        AggregateSpec("count", expr("l.k0"), "d", True),
    ]

    @staticmethod
    def sides(case) -> tuple[Batch, Batch]:
        batches = []
        for prefix in ("left", "right"):
            columns, rows = case[prefix], case[f"{prefix}_rows"]
            batch = Batch(dict(columns), len(next(iter(columns.values()))))
            batches.append(batch if rows is None else batch.take(rows))
        return batches[0], batches[1]

    @classmethod
    def eager_join(cls, case) -> Batch:
        """The join's output gathered, from the index pairs."""
        left, right = (side.gathered() for side in cls.sides(case))
        pairs = [(name, "r" + name[1:]) for name in left.columns if ".k" in name]
        li, ri = equi_join_indices(
            [left.column(l) for l, _ in pairs], [right.column(r) for _, r in pairs]
        )
        columns = {name: left.column(name)[li] for name in left.columns}
        columns.update({name: right.column(name)[ri] for name in right.columns})
        return Batch(columns, len(li))

    @classmethod
    def deferred_join(cls, case) -> Batch:
        left, right = cls.sides(case)
        pairs = [(name, "r" + name[1:]) for name in left.columns if ".k" in name]
        joined, _ = hash_join_batches(left, right, pairs)
        return joined

    @staticmethod
    def assert_same(out: Batch, expected: Batch, order: int) -> None:
        """Bit for bit and dtype for dtype, ``out`` read in a shuffled order."""
        names = list(expected.columns)
        for index in np.random.default_rng(order).permutation(len(names)):
            out.column(names[index])
        assert list(out.columns) == names
        for name in names:
            assert out.column(name).dtype == expected.column(name).dtype, name
            assert out.column(name).tobytes() == expected.column(name).tobytes(), name

    @given(fan_cases())
    @example(fan_case(  # float keys holding -0.0 and NaN on the build side,
        # where a group's first output row is not its first build row
        {"l.k0": np.array([1, 2, 1, 2]), "l.g0": np.array([0, 1, 2, 3]),
         "l.v": np.array([0.1, 0.2, 0.3, 0.4])},
        {"r.k0": np.array([2, 1, 2, 1, 1]),
         "r.g0": np.array([0.0, -0.0, np.copysign(np.nan, -1.0), np.nan, 0.0]),
         "r.v": np.array([1.0, 2.0, 3.0, 4.0, 5.0])},
        ["r.g0"],
    ))
    @example(fan_case(  # ... and on the probe side, through a selection
        {"l.k0": np.array([3, 1, 3]), "l.g0": np.array([-0.0, 0.0, float("nan")]),
         "l.v": np.array([1.0, 2.0, 3.0])},
        {"r.k0": np.array([1, 1, 3]), "r.g0": np.array([True, False, True]),
         "r.v": np.array([1.0, 2.0, 3.0])},
        ["l.g0"], left_rows=np.array([2, 1, 0, 0]),
    ))
    @example(fan_case(  # string and bool keys, several columns, both sides
        {"l.k0": np.array([1, 1, 2]), "l.g0": np.array(["b", "a", "b"]),
         "l.v": np.array([1.0, 2.0, 3.0])},
        {"r.k0": np.array([1, 2, 2]), "r.g0": np.array([True, False, True]),
         "r.v": np.array([1.0, 2.0, 3.0])},
        ["l.g0", "r.g0"],
    ))
    @example(fan_case(  # no probe row matches
        {"l.k0": np.array([5, 6]), "l.g0": np.array([1, 2]),
         "l.v": np.array([1.0, 2.0])},
        {"r.k0": np.array([1, 1]), "r.g0": np.array([1, 1]),
         "r.v": np.array([1.0, 2.0])},
        ["l.g0"],
    ))
    @example(fan_case(  # an empty probe side
        {"l.k0": np.array([], dtype=np.int64), "l.g0": np.array([], dtype=np.int64),
         "l.v": np.array([])},
        {"r.k0": np.array([1, 1]), "r.g0": np.array([1, 1]),
         "r.v": np.array([1.0, 2.0])},
        ["r.g0"],
    ))
    @example(fan_case(  # every build key unique: nothing fans out
        {"l.k0": np.array([1, 2, 2]), "l.g0": np.array([1, 1, 2]),
         "l.v": np.array([1.0, 2.0, 3.0])},
        {"r.k0": np.array([2, 1]), "r.g0": np.array([7, 8]),
         "r.v": np.array([1.0, 2.0])},
        ["r.g0"],
    ))
    @settings(max_examples=200, deadline=None)
    def test_group_by_equals_the_gathered_join(self, case):
        """Property: a group-by over a join not expanded yet — keys on the
        probe side, the build side or both, aggregates read in any order —
        equals the same group-by over the join's output gathered first, bit
        for bit and dtype for dtype; and so do a sort and a top-n of it."""
        keys, order = case["keys"], case["order"]
        joined = self.deferred_join(case)
        eager = self.eager_join(case)
        assert joined.n_rows == eager.n_rows
        expected = group_by_batch(eager, keys, self.AGGREGATES).gathered()
        self.assert_same(group_by_batch(joined, keys, self.AGGREGATES), expected, order)
        sort_keys = [(keys[0], True), ("s", False)]
        for limit in (None, 2):
            def ordered(batch):
                if limit is None:
                    return sort_batch(batch, sort_keys)
                return top_n_batch(batch, sort_keys, limit)

            joined = self.deferred_join(case)
            out = ordered(group_by_batch(joined, keys, self.AGGREGATES))
            self.assert_same(out, ordered(expected).gathered(), order + 1)

    @given(fan_cases())
    @example(fan_case(  # one build key matched by three probe rows
        {"l.k0": np.array([1, 1, 1, 2]), "l.g0": np.array([0, 0, 0, 0]),
         "l.v": np.array([5.0, 5.0, 7.0, 1.0])},
        {"r.k0": np.array([1, 1, 2]), "r.g0": np.array([3, 4, 3]),
         "r.v": np.array([2.0, 2.0, 6.0])},
        ["r.g0"],
    ))
    @settings(max_examples=150, deadline=None)
    def test_distinct_aggregates_over_the_fan_out(self, case):
        """Property: over a join not expanded yet, each group's
        ``f(DISTINCT v)`` of either side's values is the scalar one of
        that group's joined rows."""
        for column in ("l.v", "r.v"):
            assert_distinct_per_group(
                self.deferred_join(case), case["keys"], column
            )

    @given(join_sides(), st.integers(1, 9), st.booleans())
    @example(
        ([np.array([1.0])], [np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, 1e300])]),
        3,
        False,
    )
    @example(([np.array([1])], [np.array([2**64 - 1, 7, 2**64 - 1], dtype=np.uint64)]),
             4, True)
    @example(([np.array([], dtype=np.int64)], [np.array([], dtype=np.int64)]), 2, False)
    @settings(max_examples=150, deadline=None)
    def test_build_key_counts_equal_row_counts(self, sides, n_partitions, semi):
        """Property: one build key per join code, in the build column's own
        dtype and weighted by the code's rows, gives the partition counts of
        hashing the build key column row by row."""
        left, right = sides
        names = range(len(left))
        probe = Batch({f"l{c}": left[c] for c in names}, len(left[0]))
        build = Batch({f"r{c}": right[c] for c in names}, len(right[0]))
        pairs = [(f"l{c}", f"r{c}") for c in names]
        join = semi_join_batch if semi else hash_join_batches
        _, (values, counts) = join(probe, build, pairs)
        assert values.dtype == right[0].dtype
        by_key = partition_counts(values, n_partitions, counts)
        by_row = partition_counts(right[0], n_partitions)
        assert by_key.dtype == by_row.dtype == np.int64
        assert by_key.tolist() == by_row.tolist()

    def test_errors_do_not_wait_for_a_read(self):
        """What fails over the rows fails when the operator runs, over a
        join with a ``<>`` residual as over one without."""
        left = Batch({"l.k": np.array([1, 1]), "l.v": np.array([1.0, 2.0]),
                      "l.x": np.array([1, 2])}, 2)
        right = Batch({"r.k": np.array([1, 1]), "r.s": np.array(["a", "b"]),
                       "r.y": np.array([2, 3])}, 2)
        with pytest.raises(ExecutionError, match="unknown column"):
            hash_join_batches(left, right, [("l.k", "r.k")], predicate("l.x <> r.nope"))
        failing = [
            (AggregateSpec("median", expr("l.v"), "m"), "unsupported aggregate"),
            (AggregateSpec("median", expr("l.v"), "m", True), "unsupported aggregate"),
            (AggregateSpec("sum", expr("l.nope"), "m"), "unknown column"),
            (AggregateSpec("max", None, "m"), "requires an argument"),
        ]
        for residual in (None, predicate("l.x <> r.y")):
            joined, _ = hash_join_batches(left, right, [("l.k", "r.k")], residual)
            assert joined.n_rows == (4 if residual is None else 3)
            for spec, message in failing:
                with pytest.raises(ExecutionError, match=message):
                    group_by_batch(joined, ["r.k"], [spec])
                with pytest.raises(ExecutionError, match=message):
                    scalar_aggregate_batch(joined, [spec])
            with pytest.raises(TypeError):
                group_by_batch(
                    joined, ["l.k"], [AggregateSpec("sum", expr("-r.s"), "m")]
                )
            with pytest.raises(ExecutionError, match="unknown column"):
                sort_batch(joined, [("l.nope", False)])
            with pytest.raises(ExecutionError, match="unknown column"):
                top_n_batch(joined, [("l.nope", False)], 1)


#: Domains of the two columns a ``<>`` residual compares: few values, so
#: equal pairs are common; ``uint64`` against a signed column compares as
#: floats, which the join evaluates pair by pair.
UNEQUAL_DOMAINS = ("bool", "int8", "negative", "uint64", "edge")


def unequal_case(left, right, keys, residual="l.x <> r.y", **options):
    """A :func:`fan_case` whose sides also hold the columns ``l.x`` and
    ``r.y`` and whose join keeps the pairs ``residual`` holds for."""
    return {**fan_case(left, right, keys, **options), "residual": predicate(residual)}


@st.composite
def unequal_cases(draw):
    case = draw(fan_cases())
    for prefix, name in (("left", "l.x"), ("right", "r.y")):
        columns = dict(case[prefix])
        n_source = len(next(iter(columns.values())))
        domain = draw(st.sampled_from(UNEQUAL_DOMAINS))
        columns[name] = key_column(draw, domain, n_source)
        case[prefix] = columns
    residual = draw(st.sampled_from(["l.x <> r.y", "r.y <> l.x"]))
    return {**case, "residual": predicate(residual)}


class TestUnequalResidual:
    """A join whose residual is one ``x <> y`` over a column of each side
    counts the pairs it keeps by subtracting those whose two columns are
    equal, and compares no pair; what it answers, read in any order or
    grouped on either side, is the key-matched join expanded and then
    masked by the residual."""

    @staticmethod
    def join(case) -> Batch:
        left, right = TestDeferredFanOut.sides(case)
        pairs = [(name, "r" + name[1:]) for name in left.columns if ".k" in name]
        joined, _ = hash_join_batches(left, right, pairs, case["residual"])
        return joined

    @staticmethod
    def expand_then_mask(case) -> Batch:
        eager = TestDeferredFanOut.eager_join(case)
        return eager.mask(eager.evaluate(case["residual"])).gathered()

    @given(unequal_cases())
    @example(unequal_case(  # a probe row whose every match is equal
        {"l.k0": np.array([1, 1, 2]), "l.x": np.array([5, 6, 5]),
         "l.g0": np.array([-0.0, 0.0, np.nan]), "l.v": np.array([1.0, 2.0, 3.0])},
        {"r.k0": np.array([1, 1]), "r.y": np.array([5, 5]),
         "r.g0": np.array([1, 2]), "r.v": np.array([1.0, 2.0])},
        ["l.g0"],
    ))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_expand_then_mask(self, case):
        """Property: the row count, and every column read in a shuffled
        order, bit for bit and dtype for dtype."""
        joined, expected = self.join(case), self.expand_then_mask(case)
        assert joined.n_rows == expected.n_rows
        TestDeferredFanOut.assert_same(joined, expected, case["order"])

    @given(unequal_cases())
    @example(unequal_case(  # float keys on the build side, where a group's
        # first output row is a build row that the code's first probe row
        # does not keep
        {"l.k0": np.array([1, 1, 1]), "l.x": np.array([5, 6, 5]),
         "l.g0": np.array([0, 0, 0]), "l.v": np.array([1.0, 2.0, 3.0])},
        {"r.k0": np.array([1, 1, 1, 1]), "r.y": np.array([5, 6, 5, 7]),
         "r.g0": np.array([0.0, -0.0, np.copysign(np.nan, -1.0), np.nan]),
         "r.v": np.array([1.0, 2.0, 3.0, 4.0])},
        ["r.g0"], residual="r.y <> l.x",
    ))
    @example(unequal_case(  # ... and on the probe side, where the first
        # probe row of a group keeps no pair
        {"l.k0": np.array([1, 1, 2]), "l.x": np.array([5, 6, 5]),
         "l.g0": np.array([-0.0, 0.0, np.nan]), "l.v": np.array([1.0, 2.0, 3.0])},
        {"r.k0": np.array([1, 1, 2, 2]), "r.y": np.array([5, 5, 4, 5]),
         "r.g0": np.array([1, 2, 3, 4]), "r.v": np.array([1.0, 2.0, 3.0, 4.0])},
        ["l.g0", "r.g0"],
    ))
    @example(unequal_case(  # every pair equal: an empty result
        {"l.k0": np.array([1, 1]), "l.x": np.array([3, 3]),
         "l.g0": np.array([1, 2]), "l.v": np.array([1.0, 2.0])},
        {"r.k0": np.array([1, 1]), "r.y": np.array([3, 3]),
         "r.g0": np.array([1, 1]), "r.v": np.array([1.0, 2.0])},
        ["r.g0"],
    ))
    @example(unequal_case(  # every build key unique: nothing fans out
        {"l.k0": np.array([1, 2, 2]), "l.x": np.array([True, False, True]),
         "l.g0": np.array([1, 1, 2]), "l.v": np.array([1.0, 2.0, 3.0])},
        {"r.k0": np.array([2, 1]), "r.y": np.array([True, True]),
         "r.g0": np.array([7, 8]), "r.v": np.array([1.0, 2.0])},
        ["r.g0"],
    ))
    @settings(max_examples=150, deadline=None)
    def test_group_by_equals_expand_then_mask(self, case):
        """Property: a group-by on the probe side's keys, the build side's
        or both, then sorted and cut by a top-n, equals the same over the
        expanded and masked join, DISTINCT, min and max included."""
        keys, order = case["keys"], case["order"]
        expected = group_by_batch(
            self.expand_then_mask(case), keys, TestDeferredFanOut.AGGREGATES
        ).gathered()
        out = group_by_batch(self.join(case), keys, TestDeferredFanOut.AGGREGATES)
        TestDeferredFanOut.assert_same(out, expected, order)
        sort_keys = [(keys[0], True), ("s", False)]
        out = top_n_batch(
            group_by_batch(self.join(case), keys, TestDeferredFanOut.AGGREGATES),
            sort_keys, 2,
        )
        TestDeferredFanOut.assert_same(
            out, top_n_batch(expected, sort_keys, 2).gathered(), order + 1
        )

    @given(unequal_cases())
    @settings(max_examples=100, deadline=None)
    def test_distinct_aggregates(self, case):
        """Property: each group's ``f(DISTINCT v)`` of either side's values
        is the scalar one of that group's kept rows."""
        for column in ("l.v", "r.v"):
            assert_distinct_per_group(self.join(case), case["keys"], column)


class TestSort:
    def test_ascending(self):
        batch = Batch({"a": np.array([3, 1, 2])}, 3)
        assert list(sort_batch(batch, [("a", False)]).column("a")) == [1, 2, 3]

    def test_descending(self):
        batch = Batch({"a": np.array([3, 1, 2])}, 3)
        assert list(sort_batch(batch, [("a", True)]).column("a")) == [3, 2, 1]

    def test_multi_key(self):
        batch = Batch(
            {"a": np.array([1, 1, 0]), "b": np.array([5, 9, 7])}, 3
        )
        out = sort_batch(batch, [("a", False), ("b", True)])
        assert list(out.column("a")) == [0, 1, 1]
        assert list(out.column("b")) == [7, 9, 5]

    def test_string_descending(self):
        batch = Batch({"s": np.array(["b", "c", "a"])}, 3)
        out = sort_batch(batch, [("s", True)])
        assert list(out.column("s")) == ["c", "b", "a"]

    def test_empty_keys_identity(self):
        batch = Batch({"a": np.array([3, 1])}, 2)
        assert sort_batch(batch, []) is batch


class TestGroupBy:
    def make(self):
        return Batch(
            {
                "g.k": np.array([1, 2, 1, 2, 1]),
                "g.v": np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
            },
            5,
        )

    def test_count_star(self):
        out = group_by_batch(
            self.make(), ["g.k"], [AggregateSpec("count", None, "cnt")]
        )
        result = dict(zip(out.column("g.k"), out.column("cnt")))
        assert result == {1: 3, 2: 2}

    def test_sum(self):
        out = group_by_batch(
            self.make(), ["g.k"], [AggregateSpec("sum", expr("g.v"), "s")]
        )
        result = dict(zip(out.column("g.k"), out.column("s")))
        assert result == {1: 90.0, 2: 60.0}

    def test_avg(self):
        out = group_by_batch(
            self.make(), ["g.k"], [AggregateSpec("avg", expr("g.v"), "a")]
        )
        result = dict(zip(out.column("g.k"), out.column("a")))
        assert result[1] == pytest.approx(30.0)

    def test_min_max(self):
        out = group_by_batch(
            self.make(),
            ["g.k"],
            [
                AggregateSpec("min", expr("g.v"), "lo"),
                AggregateSpec("max", expr("g.v"), "hi"),
            ],
        )
        result = dict(zip(out.column("g.k"), zip(out.column("lo"),
                                                 out.column("hi"))))
        assert result[1] == (10.0, 50.0)
        assert result[2] == (20.0, 40.0)

    def test_count_distinct(self):
        batch = Batch(
            {"g.k": np.array([1, 1, 1, 2]), "g.v": np.array([7, 7, 8, 9])}, 4
        )
        out = group_by_batch(
            batch, ["g.k"], [AggregateSpec("count", expr("g.v"), "d", True)]
        )
        result = dict(zip(out.column("g.k"), out.column("d")))
        assert result == {1: 2, 2: 1}

    def test_multi_key_grouping(self):
        batch = Batch(
            {
                "a": np.array([1, 1, 2, 2]),
                "b": np.array(["x", "y", "x", "x"]),
            },
            4,
        )
        out = group_by_batch(batch, ["a", "b"],
                             [AggregateSpec("count", None, "c")])
        assert out.n_rows == 3

    def test_aggregate_on_expression(self):
        out = group_by_batch(
            self.make(),
            ["g.k"],
            [AggregateSpec("sum", expr("g.v * 2"), "s2")],
        )
        result = dict(zip(out.column("g.k"), out.column("s2")))
        assert result == {1: 180.0, 2: 120.0}

    def test_empty_input(self):
        batch = Batch(
            {"g.k": np.array([], dtype=np.int64),
             "g.v": np.array([], dtype=np.float64)},
            0,
        )
        out = group_by_batch(batch, ["g.k"],
                             [AggregateSpec("sum", expr("g.v"), "s")])
        assert out.n_rows == 0
        assert "s" in out.columns

    def test_requires_keys(self):
        with pytest.raises(ExecutionError):
            group_by_batch(self.make(), [], [])

    @given(key_columns(max_rows=60), st.data())
    @example([np.array([_TABLE_SPAN - 1, 0, _TABLE_SPAN - 1, 0])], None)
    @example([np.array([_TABLE_SPAN, 0, _TABLE_SPAN, 0])], None)
    @settings(max_examples=150, deadline=None)
    def test_sum_matches_oracle(self, keys, data):
        """Property: groups, their order, their key values and every
        aggregate equal a dict-based reference — sums bit for bit, since
        both add a group's values in row order."""
        n_rows = len(keys[0])
        if data is None:
            vals = np.arange(n_rows) * 0.1
        else:
            finite = st.floats(-100, 100)
            vals = np.array(
                data.draw(st.lists(finite, min_size=n_rows, max_size=n_rows)),
                dtype=np.float64,
            )
        names = [f"t.k{c}" for c in range(len(keys))]
        batch = Batch({**dict(zip(names, keys)), "t.v": vals}, n_rows)
        out = group_by_batch(
            batch,
            names,
            [
                AggregateSpec("sum", expr("t.v"), "s"),
                AggregateSpec("count", None, "c"),
                AggregateSpec("min", expr("t.v"), "lo"),
                AggregateSpec("max", expr("t.v"), "hi"),
                AggregateSpec("count", expr("t.k0"), "d", True),
            ],
        )
        groups: dict = {}
        for row, value in zip(key_rows(keys), vals.tolist()):
            groups.setdefault(canonical(row), (row, []))[1].append(value)
        expected = sorted(groups.values(), key=lambda group: sort_rank(group[0]))
        # a group shows the key of its first row, down to the sign of zero
        assert shown(key_rows([out.column(name) for name in names])) == shown(
            row for row, _ in expected
        )
        sums = []
        for _, values in expected:
            total = 0.0
            for value in values:
                total += value
            sums.append(total)
        assert out.column("s").tolist() == sums
        assert out.column("c").tolist() == [len(values) for _, values in expected]
        assert out.column("lo").tolist() == [min(values) for _, values in expected]
        assert out.column("hi").tolist() == [max(values) for _, values in expected]
        assert out.column("d").tolist() == [1.0] * len(expected)


    AGGREGATES = [
        AggregateSpec("sum", expr("t.v"), "s"),
        AggregateSpec("count", None, "c"),
        AggregateSpec("avg", expr("t.v"), "a"),
        AggregateSpec("min", expr("t.v"), "lo"),
        AggregateSpec("max", expr("t.v"), "hi"),
        AggregateSpec("count", expr("t.k0"), "d", True),
    ]

    @given(key_columns(max_rows=12), st.data())
    @example([np.array([0.0, -0.0, float("nan")])], None)
    @example([np.array(["b", "a"]), np.array([-0.0, 0.0])], None)
    @settings(max_examples=150, deadline=None)
    def test_deferred_keys_match_eager_keys(self, keys, data):
        """Property: a group-by over a selection not gathered yet (its key
        columns ranked on their source where the selection is the larger)
        equals the group-by over the same rows gathered first, bit for bit
        and dtype for dtype — repeated rows, empty selections, ``-0.0``
        and NaN keys included."""
        n_source = len(keys[0])
        if data is None:
            rows = np.tile(np.arange(n_source - 1, -1, -1), 2)
        else:
            rows = np.array(
                data.draw(st.lists(st.integers(0, n_source - 1), max_size=40))
                if n_source else [],
                dtype=np.int64,
            )
        names = [f"t.k{c}" for c in range(len(keys))]
        values = np.arange(len(rows)) * 0.25 - 1.0
        deferred = _merge_batches(
            Batch(dict(zip(names, keys)), n_source).take(rows),
            Batch({"t.v": values}, len(rows)),
        )
        eager = Batch(
            {**{name: key[rows] for name, key in zip(names, keys)}, "t.v": values},
            len(rows),
        )
        expected = group_by_batch(eager, names, self.AGGREGATES)
        out = group_by_batch(deferred, names, self.AGGREGATES)
        assert list(out.columns) == list(expected.columns)
        for name, column in expected.gathered().columns.items():
            assert out.column(name).dtype == column.dtype, name
            assert out.column(name).tobytes() == column.tobytes(), name

    @given(key_columns(max_rows=60), st.integers(1, 9))
    @example([np.array([0.0, -0.0, float("nan"), float("nan")])], 3)
    @example([np.array([float("inf"), 1e300, -float("inf"), 1e300, 2.5])], 3)
    @example([np.array([-1e300, float("-inf"), -1e300, float("nan")])], 5)
    @example([np.array([2**64 - 1, 7, 2**64 - 1], dtype=np.uint64)], 4)
    @settings(max_examples=150, deadline=None)
    def test_skew_counts_from_groups_match_row_counts(self, keys, n_partitions):
        """Property: each group's first-key value hashed once and weighted
        by the group's size gives the partition counts of hashing the
        first key column row by row."""
        names = [f"t.k{c}" for c in range(len(keys))]
        grouping = group_rows(Batch(dict(zip(names, keys)), len(keys[0])), names)
        by_group = partition_counts(
            grouping.keys[names[0]], n_partitions, grouping.sizes
        )
        by_row = partition_counts(keys[0], n_partitions)
        assert by_group.dtype == by_row.dtype == np.int64
        assert by_group.tolist() == by_row.tolist()

    @given(key_columns(max_rows=40), st.data())
    @example([np.array([1, 1, 1])], [5, 5, 7])
    @example([np.array([0.0, -0.0, 0.0, 1.0])], [-0.0, 0.0, 2.5, float("nan")])
    @settings(max_examples=150, deadline=None)
    def test_distinct_aggregates_equal_the_scalar_ones_per_group(self, keys, data):
        """Property: each group's ``f(DISTINCT v)`` — count, sum, avg, min,
        max over integer or float values with repeats — is the scalar
        ``f(DISTINCT v)`` of that group's rows (it was the distinct count
        for every function)."""
        n_rows = len(keys[0])
        if isinstance(data, list):
            values = np.array(data)
        else:
            domain = data.draw(st.sampled_from([
                st.integers(-3, 9),
                st.sampled_from([0.0, -0.0, 0.5, -2.25, 6.0, float("nan")]),
            ]))
            values = np.array(
                data.draw(st.lists(domain, min_size=n_rows, max_size=n_rows))
            )
        names = [f"t.k{c}" for c in range(len(keys))]
        batch = Batch({**dict(zip(names, keys)), "t.v": values}, n_rows)
        assert_distinct_per_group(batch, names, "t.v")


class TestScalarAggregate:
    def test_all_functions(self):
        batch = Batch({"t.v": np.array([1.0, 2.0, 3.0])}, 3)
        out = scalar_aggregate_batch(
            batch,
            [
                AggregateSpec("count", None, "c"),
                AggregateSpec("sum", expr("t.v"), "s"),
                AggregateSpec("avg", expr("t.v"), "a"),
                AggregateSpec("min", expr("t.v"), "lo"),
                AggregateSpec("max", expr("t.v"), "hi"),
            ],
        )
        assert out.n_rows == 1
        assert out.column("c")[0] == 3
        assert out.column("s")[0] == 6.0
        assert out.column("a")[0] == 2.0
        assert out.column("lo")[0] == 1.0
        assert out.column("hi")[0] == 3.0

    def test_empty_input_count_zero(self):
        batch = Batch({"t.v": np.array([], dtype=float)}, 0)
        out = scalar_aggregate_batch(batch, [AggregateSpec("count", None, "c")])
        assert out.column("c")[0] == 0

    def test_empty_input_sum_nan(self):
        batch = Batch({"t.v": np.array([], dtype=float)}, 0)
        out = scalar_aggregate_batch(
            batch, [AggregateSpec("min", expr("t.v"), "m")]
        )
        assert np.isnan(out.column("m")[0])

    def test_count_distinct(self):
        batch = Batch({"t.v": np.array([1, 1, 2])}, 3)
        out = scalar_aggregate_batch(
            batch, [AggregateSpec("count", expr("t.v"), "d", True)]
        )
        assert out.column("d")[0] == 2


class TestDistinctFilterProjectTopN:
    def test_distinct_all_columns(self):
        batch = Batch(
            {"a": np.array([1, 1, 2]), "b": np.array([5, 5, 6])}, 3
        )
        assert distinct_batch(batch).n_rows == 2

    def test_distinct_on_keys(self):
        batch = Batch(
            {"a": np.array([1, 1, 2]), "b": np.array([5, 6, 6])}, 3
        )
        assert distinct_batch(batch, keys=["a"]).n_rows == 2

    @given(key_columns())
    @example([np.array([_TABLE_SPAN - 1, 0, _TABLE_SPAN - 1])])
    @example([np.array([_TABLE_SPAN, 0, _TABLE_SPAN])])
    @example([np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64)])
    @settings(max_examples=150, deadline=None)
    def test_distinct_matches_oracle(self, keys):
        """Property: ``distinct`` keeps the first row of every key, in row
        order, and ``count(distinct)`` counts those rows."""
        rows = key_rows(keys)
        seen, first = set(), []
        for index, row in enumerate(rows):
            if canonical(row) not in seen:
                seen.add(canonical(row))
                first.append(index)
        names = [f"t.k{c}" for c in range(len(keys))]
        batch = Batch(dict(zip(names, keys)), len(rows))
        out = distinct_batch(batch)
        assert shown(key_rows([out.column(name) for name in names])) == shown(
            rows[index] for index in first
        )
        counted = scalar_aggregate_batch(
            batch, [AggregateSpec("count", expr("t.k0"), "d", True)]
        )
        assert counted.column("d")[0] == len({canonical(row[:1]) for row in rows})
        if rows:
            grouped = group_by_batch(
                batch, names[:1], [AggregateSpec("count", expr(names[-1]), "d", True)]
            )
            per_group: dict = {}
            for row in rows:
                per_group.setdefault(canonical(row[:1]), set()).add(canonical(row[-1:]))
            assert sorted(grouped.column("d").tolist()) == sorted(
                float(len(values)) for values in per_group.values()
            )

    def test_filter(self):
        batch = Batch({"t.a": np.arange(10)}, 10)
        assert filter_batch(batch, predicate("t.a >= 5")).n_rows == 5

    def test_top_n(self):
        batch = Batch({"a": np.array([5, 1, 9, 3])}, 4)
        out = top_n_batch(batch, [("a", True)], 2)
        assert list(out.column("a")) == [9, 5]

    def test_top_n_limit_exceeds_rows(self):
        batch = Batch({"a": np.array([2, 1])}, 2)
        assert top_n_batch(batch, [("a", False)], 10).n_rows == 2


class TestFactorize:
    def test_codes_are_dense(self):
        codes, n = factorize_rows([np.array([5, 5, 9, 5, 7])])
        assert n == 3
        assert set(codes.tolist()) == {0, 1, 2}

    def test_multi_column(self):
        codes, n = factorize_rows(
            [np.array([1, 1, 2]), np.array(["a", "b", "a"])]
        )
        assert n == 3

    def test_requires_columns(self):
        with pytest.raises(ExecutionError):
            factorize_rows([])

    def test_wide_composite_key_keeps_sorted_order(self):
        """Four columns of 70 000 distinct values each: the product of
        their radices passes 2**63 (it used to wrap, silently)."""
        rng = np.random.default_rng(16)
        columns = [rng.permutation(70_000) for _ in range(4)]
        codes, n = factorize_rows(columns)
        assert n == 70_000
        # every key is distinct, so the first column alone orders the rows
        assert np.array_equal(codes, columns[0])
