"""Executable operator algorithms over numpy column batches.

The functions here are pure data transforms: given input
:class:`Batch` objects they produce output batches, with no resource
accounting (that lives in :mod:`repro.engine.timing`).  Keeping the two
concerns separate means the *measured* record counts are always those of a
genuine execution, while the simulated clock charges whatever algorithm the
optimizer chose — including charging quadratic time for a nested-loop join
the executor evaluates in vectorised chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.engine.plan import AggregateSpec
from repro.sql.ast import Expr
from repro.sql.eval import evaluate

__all__ = [
    "Batch",
    "equi_join_indices",
    "hash_join_batches",
    "nested_join_batches",
    "semi_join_batch",
    "sort_batch",
    "Grouping",
    "group_rows",
    "aggregate_groups",
    "group_by_batch",
    "scalar_aggregate_batch",
    "distinct_batch",
    "filter_batch",
    "project_batch",
    "top_n_batch",
    "factorize_rows",
]

#: Maximum elements evaluated at once by the chunked nested-loop join.
_NL_CHUNK_ELEMENTS = 4_000_000

#: Widest integer key range (max - min + 1) ranked through a lookup table
#: whatever the row count; a range no wider than the rows is always ranked so.
_TABLE_SPAN = 1 << 20


@dataclass(slots=True)
class _Rows:
    """Row numbers ``outer`` into the rows ``inner`` selects (``None``: into
    the source itself).  The two are composed when a column is first read
    through them, once for every column that shares the selection."""

    inner: Optional["_Rows"]
    outer: np.ndarray

    def flat(self) -> np.ndarray:
        if self.inner is not None:
            self.outer, self.inner = self.inner.flat()[self.outer], None
        return self.outer


@dataclass(slots=True)
class _Gather:
    """A column not gathered yet: ``source[rows.flat()]``."""

    source: np.ndarray
    rows: _Rows

    def __len__(self) -> int:
        return len(self.rows.outer)

    @property
    def dtype(self) -> np.dtype:
        return self.source.dtype


class _Columns(dict):
    """Column arrays by name.  Reading ``columns[name]`` gathers a deferred
    column and keeps the array; ``items()`` / ``values()`` hand back what is
    stored, deferred or not, and are for code that only passes columns on."""

    def __getitem__(self, name: str) -> np.ndarray:
        column = dict.__getitem__(self, name)
        if isinstance(column, _Gather):
            column = self[name] = column.source[column.rows.flat()]
        return column


@dataclass
class Batch:
    """A batch of rows: equal-length named columns, each an array or, until
    something reads it, the gather that will produce the array."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)
    n_rows: int = 0

    def __post_init__(self) -> None:
        for name, arr in self.columns.items():
            if len(arr) != self.n_rows:
                raise ExecutionError(
                    f"column {name!r} has {len(arr)} rows, expected {self.n_rows}"
                )
        self.columns = _Columns(self.columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"unknown column {name!r}") from None

    def take(self, indices: np.ndarray) -> "Batch":
        """New batch with the rows selected by ``indices`` (with repeats).
        No column is gathered here: each records its source and the rows
        to read, and columns selected together keep sharing one selection."""
        selections: dict[int, _Rows] = {}
        columns = {}
        for name, column in self.columns.items():
            inner = column.rows if isinstance(column, _Gather) else None
            source = column if inner is None else column.source
            if id(inner) not in selections:
                selections[id(inner)] = _Rows(inner, indices)
            columns[name] = _Gather(source, selections[id(inner)])
        return Batch(columns, n_rows=len(indices))

    def mask(self, keep: np.ndarray) -> "Batch":
        """New batch with rows where ``keep`` is True."""
        return self.take(np.flatnonzero(keep))

    def gathered(self) -> "Batch":
        """This batch once every column still deferred has been gathered."""
        for name in self.columns:
            self.column(name)
        return self

    @property
    def row_bytes(self) -> float:
        """Estimated width of one row, from column dtypes."""
        total = 0.0
        for arr in self.columns.values():
            if arr.dtype.kind in ("U", "S", "O"):
                total += 24.0
            else:
                total += float(arr.dtype.itemsize)
        return max(total, 8.0)

    @property
    def total_bytes(self) -> float:
        return self.row_bytes * self.n_rows

    def evaluate(self, expr: Expr) -> np.ndarray:
        """Evaluate an expression over this batch."""
        return evaluate(expr, self.columns, self.n_rows)


# ----------------------------------------------------------------------
# Key factorisation
# ----------------------------------------------------------------------


def _dense_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes in ``[0, n_distinct)`` that follow the sorted order of
    ``values``, and the distinct values in that order.

    Integer keys whose range fits a lookup table are ranked in linear
    time: offset by the minimum, mark the values present, number the marks
    in order.  Strings, floats and wider ranges go through ``np.unique``.
    """
    if values.dtype.kind == "b":
        codes, uniques = _dense_codes(values.view(np.uint8))
        return codes, uniques.view(np.bool_)
    if values.dtype.kind in "iu" and len(values):
        low = values.min()
        span = int(values.max()) - int(low) + 1
        if span <= max(_TABLE_SPAN, len(values)):
            wide = values if values.dtype.itemsize == 8 else values.astype(np.int64)
            low = wide.dtype.type(low)
            offsets = (wide - low).view(np.int64)
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            marks = np.flatnonzero(present)
            rank = np.empty(span, dtype=np.int64)
            rank[marks] = np.arange(len(marks))
            uniques = (marks.astype(wide.dtype) + low).astype(values.dtype)
            return rank[offsets], uniques
    uniques, codes = np.unique(values, return_inverse=True)
    return codes, uniques


def _pair_codes(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense codes over ``left`` then ``right``: integers compare as
    integers, other numbers as ``float64``, anything else as text."""
    if left.dtype.kind in "biu" and right.dtype.kind in "biu":
        dtype = np.result_type(left, right)
        if dtype.kind == "f":  # int64 with uint64: no integer type holds both
            dtype = np.dtype(object)
    elif left.dtype.kind in "iufc" and right.dtype.kind in "iufc":
        dtype = np.dtype(np.float64)
    else:
        dtype = np.dtype(str)
    sides = [left.astype(dtype, copy=False), right.astype(dtype, copy=False)]
    codes, uniques = _dense_codes(np.concatenate(sides))
    return codes, len(uniques)


def _combine_codes(
    columns: Sequence[tuple[np.ndarray, int]],
    steps: Optional[list[tuple[int, Optional[np.ndarray]]]] = None,
) -> tuple[np.ndarray, int]:
    """Fold per-column ``(codes, radix)`` pairs into one composite code per
    row, ordered like the key tuples, and an exclusive bound on it.

    The composite is made dense again whenever its bound outgrows the
    lookup table, so the bound never passes ``max(_TABLE_SPAN, n_rows)``
    on entry to a step and the product stays far inside ``int64``.  Each
    fold's radix and, where it was made dense, the composites it ranked are
    appended to ``steps``, for :func:`_split_codes`.
    """
    codes, bound = columns[0]
    for more, radix in columns[1:]:
        codes = codes * radix + more
        bound *= radix
        ranked = None
        if bound > _TABLE_SPAN:
            codes, ranked = _dense_codes(codes)
            bound = len(ranked)
        if steps is not None:
            steps.append((radix, ranked))
    return codes, bound


def _split_codes(
    composite: np.ndarray, steps: list[tuple[int, Optional[np.ndarray]]]
) -> list[np.ndarray]:
    """Per-column codes of ``composite`` codes of :func:`_combine_codes`,
    read back through the ``steps`` it recorded."""
    parts = []
    for radix, ranked in reversed(steps):
        if ranked is not None:
            composite = ranked[composite]
        composite, part = np.divmod(composite, radix)
        parts.append(part)
    parts.append(composite)
    return parts[::-1]


def _first_rows(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """Index of the first row that carries each code."""
    first = np.full(n_codes, len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    return first


def factorize_rows(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """Factorise rows of a multi-column key into dense group codes.

    Each column is ranked once (:func:`_dense_codes`); several columns are
    folded into one composite code and that is ranked again, so a
    single-column key is factorised exactly once.

    Returns:
        (codes, n_groups) where codes[i] is the group id of row i in
        ``[0, n_groups)``.  Group ids follow the sorted order of keys.
    """
    if not arrays:
        raise ExecutionError("factorize_rows requires at least one key column")
    columns = [_dense_codes(np.asarray(arr)) for arr in arrays]
    if len(columns) == 1:
        codes, uniques = columns[0]
        return codes, len(uniques)
    composite = _combine_codes([(codes, len(uniques)) for codes, uniques in columns])
    codes, uniques = _dense_codes(composite[0])
    return codes, len(uniques)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


def _join_codes(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of an equi join coded together.

    Returns:
        (left_codes, right_codes, per_code): each row's key code, and the
        number of right (build) rows that carry each code.
    """
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ExecutionError("equi join requires matching, non-empty key lists")
    pairs = zip(map(np.asarray, left_keys), map(np.asarray, right_keys))
    codes, bound = _combine_codes([_pair_codes(lk, rk) for lk, rk in pairs])
    n_left = len(left_keys[0])
    left_codes, right_codes = codes[:n_left], codes[n_left:]
    return left_codes, right_codes, np.bincount(right_codes, minlength=bound)


def equi_join_indices(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs produced by an inner equi join: left-major, the
    build rows of one probe row in row order."""
    left_codes, right_codes, per_code = _join_codes(left_keys, right_keys)
    if per_code.max(initial=0) <= 1:
        # Every build key is unique: a probe row matches the one build row
        # that holds its code, or none, and nothing fans out.
        build_row = np.full(len(per_code), -1, dtype=np.int64)
        build_row[right_codes] = np.arange(len(right_codes))
        right_idx = build_row[left_codes]
        left_idx = np.flatnonzero(right_idx >= 0)
        return left_idx, right_idx[left_idx]
    # The build side sorted by code; a probe row reads its match count and
    # the start of its run from the per-code tables.
    order = np.argsort(right_codes, kind="stable")
    counts = per_code[left_codes]
    starts = (np.cumsum(per_code) - per_code)[left_codes]
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # Output pair p of left row i reads order[starts[i] + (p - first pair of i)].
    right_pos = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    right_pos += np.arange(total, dtype=np.int64)
    return left_idx, order[right_pos]


def hash_join_batches(
    left: Batch,
    right: Batch,
    join_pairs: Sequence[tuple[str, str]],
    residual: Optional[Expr] = None,
) -> Batch:
    """Inner equi join of two batches with an optional residual predicate."""
    left_keys = [left.column(l) for l, _ in join_pairs]
    right_keys = [right.column(r) for _, r in join_pairs]
    left_idx, right_idx = equi_join_indices(left_keys, right_keys)
    joined = _merge_batches(left.take(left_idx), right.take(right_idx))
    if residual is not None and joined.n_rows:
        keep = joined.evaluate(residual).astype(bool)
        joined = joined.mask(keep)
    return joined


def nested_join_batches(
    left: Batch, right: Batch, predicate: Optional[Expr]
) -> Batch:
    """Theta join evaluated over the cross product, in bounded chunks.

    The simulated clock charges ``|left| * |right|`` comparisons for this
    operator regardless of how it is evaluated here.
    """
    if left.n_rows == 0 or right.n_rows == 0:
        return _merge_batches(left.take(np.empty(0, np.int64)),
                              right.take(np.empty(0, np.int64)))
    chunk_rows = max(1, _NL_CHUNK_ELEMENTS // max(right.n_rows, 1))
    left_parts: list[np.ndarray] = []
    right_parts: list[np.ndarray] = []
    right_range = np.arange(right.n_rows, dtype=np.int64)
    for start in range(0, left.n_rows, chunk_rows):
        stop = min(start + chunk_rows, left.n_rows)
        block = stop - start
        left_idx = np.repeat(np.arange(start, stop, dtype=np.int64), right.n_rows)
        right_idx = np.tile(right_range, block)
        if predicate is not None:
            pairs = _merge_batches(left.take(left_idx), right.take(right_idx))
            keep = pairs.evaluate(predicate).astype(bool)
            left_idx = left_idx[keep]
            right_idx = right_idx[keep]
        left_parts.append(left_idx)
        right_parts.append(right_idx)
    left_idx = np.concatenate(left_parts) if left_parts else np.empty(0, np.int64)
    right_idx = np.concatenate(right_parts) if right_parts else np.empty(0, np.int64)
    return _merge_batches(left.take(left_idx), right.take(right_idx))


def semi_join_batch(
    left: Batch,
    right: Batch,
    join_pairs: Sequence[tuple[str, str]],
    anti: bool = False,
) -> Batch:
    """Left rows with (or, for anti, without) a match on the right."""
    left_keys = [left.column(l) for l, _ in join_pairs]
    right_keys = [right.column(r) for _, r in join_pairs]
    left_codes, _right_codes, per_code = _join_codes(left_keys, right_keys)
    matched = per_code[left_codes] > 0
    return left.mask(~matched if anti else matched)


def _merge_batches(left: Batch, right: Batch) -> Batch:
    if left.n_rows != right.n_rows:
        raise ExecutionError("cannot merge batches of different lengths")
    merged = dict(left.columns.items())
    for name, arr in right.columns.items():
        if name in merged:
            raise ExecutionError(f"duplicate column {name!r} in join output")
        merged[name] = arr
    return Batch(merged, n_rows=left.n_rows)


# ----------------------------------------------------------------------
# Sorting, grouping, aggregation
# ----------------------------------------------------------------------


def sort_batch(batch: Batch, keys: Sequence[tuple[str, bool]]) -> Batch:
    """Sort by (column, descending) keys; stable, last key least significant.

    ``np.lexsort`` treats its *last* key as primary, so the key list is
    reversed; descending order is achieved by negating numeric keys and by
    inverting rank codes for strings.
    """
    if not keys or batch.n_rows == 0:
        return batch
    lexsort_keys = []
    for name, descending in reversed(list(keys)):
        values = batch.column(name)
        if descending:
            if np.issubdtype(values.dtype, np.number):
                values = -values
            else:
                _, codes = np.unique(values, return_inverse=True)
                values = -codes
        lexsort_keys.append(values)
    order = np.lexsort(lexsort_keys)
    return batch.take(order)


@dataclass(slots=True)
class Grouping:
    """One factorisation of a group-by key: each row's group, and each
    group's size and key values, groups in sorted key order."""

    codes: np.ndarray
    sizes: np.ndarray
    keys: dict[str, np.ndarray]


def _key_codes(batch: Batch, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes of a key column over the batch's rows, and the distinct
    values they stand for.

    A column still deferred over a source with fewer rows than the batch
    is ranked on that source, and only its codes are gathered: ranked again
    over the values the batch's rows read, they are a table look-up.
    """
    column = dict.get(batch.columns, name)
    if isinstance(column, _Gather) and len(column.source) < len(column):
        source_codes, uniques = _dense_codes(column.source)
        rows = column.rows.flat()
        read = np.zeros(len(column.source), dtype=bool)
        read[rows] = True
        present = np.zeros(len(uniques), dtype=bool)
        present[source_codes[read]] = True
        rank = np.cumsum(present) - 1
        return rank[source_codes][rows], uniques[present]
    return _dense_codes(batch.column(name))


def _first_row_values(
    batch: Batch,
    name: str,
    values: np.ndarray,
    key_codes: np.ndarray,
    uniques: np.ndarray,
    codes: np.ndarray,
) -> np.ndarray:
    """Each group's ``values`` of a key column, made its first row's where
    equal keys may differ in their bits: ``-0.0`` and ``0.0``, and NaNs.
    A deferred column is read at those rows only."""
    if uniques.dtype.kind != "f":
        return values
    ambiguous = np.flatnonzero((uniques == 0) | np.isnan(uniques))
    if len(ambiguous):
        rows = np.flatnonzero(np.isin(key_codes, ambiguous))
        groups, first = np.unique(codes[rows], return_index=True)
        rows = rows[first]
        column = dict.__getitem__(batch.columns, name)
        if isinstance(column, _Gather):
            column, rows = column.source, column.rows.flat()[rows]
        values[groups] = column[rows]
    return values


def group_rows(batch: Batch, group_keys: Sequence[str]) -> Grouping:
    """Factorise the group key of ``batch`` once.

    Each key column is ranked on its own (:func:`_key_codes`) and several
    are folded into one composite code, which is ranked again; each
    group's key values are read back from that ranking, not from its rows.
    """
    if not group_keys:
        raise ExecutionError("group_by_batch requires group keys")
    if batch.n_rows == 0:
        keys = {name: batch.column(name)[:0] for name in group_keys}
        return Grouping(np.empty(0, np.int64), np.empty(0, np.int64), keys)
    columns = [_key_codes(batch, name) for name in group_keys]
    if len(columns) == 1:
        codes, uniques = columns[0]
        per_group = [uniques]
    else:
        steps: list = []
        radices = [(key_codes, len(uniques)) for key_codes, uniques in columns]
        codes, composite = _dense_codes(_combine_codes(radices, steps)[0])
        per_group = [
            uniques[part]
            for (_, uniques), part in zip(columns, _split_codes(composite, steps))
        ]
    keys = {
        name: _first_row_values(batch, name, values, key_codes, uniques, codes)
        for name, values, (key_codes, uniques) in zip(group_keys, per_group, columns)
    }
    sizes = np.bincount(codes, minlength=len(per_group[0]))
    return Grouping(codes, sizes, keys)


def _aggregate_column(
    spec: AggregateSpec,
    grouping: Grouping,
    batch: Batch,
    layout: Optional[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Compute one aggregate per group; ``layout`` (min/max only) holds the
    rows in group order and each group's start."""
    func = spec.func.lower()
    codes, sizes = grouping.codes, grouping.sizes
    if func == "count" and spec.expr is None and not spec.distinct:
        return sizes.astype(np.float64)
    if spec.expr is None:
        raise ExecutionError(f"aggregate {func} requires an argument")
    values = batch.evaluate(spec.expr)
    if spec.distinct:
        # Count distinct (value, group) pairs per group.
        pair_codes, n_pairs = factorize_rows([codes, values])
        pair_group = np.empty(n_pairs, dtype=np.int64)
        pair_group[pair_codes] = codes  # rows of one pair all write its group
        return np.bincount(pair_group, minlength=len(sizes)).astype(np.float64)
    if func == "count":
        return sizes.astype(np.float64)
    numeric = values.astype(np.float64, copy=False)
    if func == "sum":
        return np.bincount(codes, weights=numeric, minlength=len(sizes))
    if func == "avg":
        return np.bincount(codes, weights=numeric, minlength=len(sizes)) / sizes
    if func in ("min", "max"):
        group_order, group_starts = layout
        reducer = np.minimum if func == "min" else np.maximum
        return reducer.reduceat(numeric[group_order], group_starts)
    raise ExecutionError(f"unsupported aggregate function {func!r}")


def aggregate_groups(
    batch: Batch, grouping: Grouping, aggregates: Sequence[AggregateSpec]
) -> Batch:
    """The group key columns of ``grouping`` (same names) followed by one
    column per aggregate alias."""
    columns = dict(grouping.keys)
    if batch.n_rows == 0:
        for spec in aggregates:
            columns[spec.alias] = np.empty(0, dtype=np.float64)
        return Batch(columns, n_rows=0)
    layout = None
    if any(spec.func.lower() in ("min", "max") for spec in aggregates):
        # The only aggregates that need the rows laid out group by group.
        sizes = grouping.sizes
        layout = np.argsort(grouping.codes, kind="stable"), np.cumsum(sizes) - sizes
    for spec in aggregates:
        columns[spec.alias] = _aggregate_column(spec, grouping, batch, layout)
    return Batch(columns, n_rows=len(grouping.sizes))


def group_by_batch(
    batch: Batch,
    group_keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Batch:
    """Group by key columns and compute aggregates (:func:`group_rows`,
    then :func:`aggregate_groups`)."""
    return aggregate_groups(batch, group_rows(batch, group_keys), aggregates)


def scalar_aggregate_batch(
    batch: Batch, aggregates: Sequence[AggregateSpec]
) -> Batch:
    """Aggregate the whole batch to a single row."""
    columns: dict[str, np.ndarray] = {}
    for spec in aggregates:
        func = spec.func.lower()
        if func == "count" and spec.expr is None and not spec.distinct:
            value = float(batch.n_rows)
        else:
            if spec.expr is None:
                raise ExecutionError(f"aggregate {func} requires an argument")
            values = batch.evaluate(spec.expr)
            if spec.distinct:
                codes, uniques = _dense_codes(values)
                values = values[_first_rows(codes, len(uniques))]
            if func == "count":
                value = float(len(values))
            elif batch.n_rows == 0 and len(values) == 0:
                value = float("nan")
            else:
                numeric = values.astype(np.float64)
                if func == "sum":
                    value = float(numeric.sum())
                elif func == "avg":
                    value = float(numeric.mean()) if len(numeric) else float("nan")
                elif func == "min":
                    value = float(numeric.min()) if len(numeric) else float("nan")
                elif func == "max":
                    value = float(numeric.max()) if len(numeric) else float("nan")
                else:
                    raise ExecutionError(f"unsupported aggregate function {func!r}")
        columns[spec.alias] = np.array([value], dtype=np.float64)
    return Batch(columns, n_rows=1)


def distinct_batch(batch: Batch, keys: Sequence[str] | None = None) -> Batch:
    """Remove duplicate rows (over ``keys`` or all columns)."""
    if batch.n_rows == 0:
        return batch
    names = list(keys) if keys else list(batch.columns)
    codes, n_distinct = factorize_rows([batch.column(name) for name in names])
    keep = np.zeros(batch.n_rows, dtype=bool)
    keep[_first_rows(codes, n_distinct)] = True
    return batch.mask(keep)


def filter_batch(batch: Batch, predicate: Expr) -> Batch:
    """Rows of ``batch`` satisfying ``predicate``."""
    if batch.n_rows == 0:
        return batch
    keep = batch.evaluate(predicate).astype(bool)
    return batch.mask(keep)


def project_batch(batch: Batch, items: Sequence) -> Batch:
    """Evaluate select items; output columns keyed by alias (or SQL text)."""
    columns: dict[str, np.ndarray] = {}
    for item in items:
        name = item.alias or item.expr.to_sql()
        columns[name] = batch.evaluate(item.expr)
    return Batch(columns, n_rows=batch.n_rows)


def top_n_batch(
    batch: Batch, keys: Sequence[tuple[str, bool]], limit: int
) -> Batch:
    """First ``limit`` rows in sort order (ORDER BY ... LIMIT n)."""
    ordered = sort_batch(batch, keys) if keys else batch
    if ordered.n_rows <= limit:
        return ordered
    return ordered.take(np.arange(limit, dtype=np.int64))
