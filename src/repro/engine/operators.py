"""Executable operator algorithms over numpy column batches.

The functions here are pure data transforms: given input
:class:`Batch` objects they produce output batches, with no resource
accounting (that lives in :mod:`repro.engine.timing`).  Keeping the two
concerns separate means the *measured* record counts are always those of a
genuine execution, while the simulated clock charges whatever algorithm the
optimizer chose — including charging quadratic time for a nested-loop join
the executor evaluates in vectorised chunks.

An output's row count and its columns' dtypes are known as soon as an
operator returns; the values are worked out when something first reads
them.  A join's fan-out, a sort's permutation, an aggregate and a gathered
column are each computed on their first read and kept, so a consumer that
reads only row counts and dtypes (the measured metrics) expands nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.errors import ExecutionError
from repro.engine.plan import AggregateSpec
from repro.sql.ast import BinaryOp, ColumnRef, Expr
from repro.sql.eval import evaluate, resolve_column

__all__ = [
    "Batch",
    "KeyCounts",
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

#: Aggregate functions the engine computes.
_FUNCTIONS = ("count", "sum", "avg", "min", "max")


class _Lazy:
    """An array worked out by ``make()`` when first read, then kept; its
    length and dtype are known before.  Reading it drops what ``make``
    held."""

    __slots__ = ("n", "dtype", "_make", "_array")

    def __init__(self, n: int, dtype, make: Optional[Callable[[], np.ndarray]]) -> None:
        self.n, self.dtype = n, np.dtype(dtype)
        self._make: Optional[Callable[[], np.ndarray]] = make
        self._array: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.n

    def read(self) -> np.ndarray:
        if self._array is None:
            self._array = self._compute()
        return self._array

    def _compute(self) -> np.ndarray:
        make, self._make = self._make, None
        assert make is not None
        return make()


#: A column as a batch stores it: an array, or the value that will be one.
Column = Union[np.ndarray, _Lazy]


def _read(column: Column) -> np.ndarray:
    return column.read() if isinstance(column, _Lazy) else column


@dataclass(slots=True)
class _Rows:
    """Row numbers ``outer`` into the rows ``inner`` selects (``None``: into
    the source itself).  The two are composed when a column is first read
    through them, once for every column that shares the selection;
    ``outer`` may itself be worked out then."""

    inner: Optional["_Rows"]
    outer: Column

    def flat(self) -> np.ndarray:
        if self.inner is not None or isinstance(self.outer, _Lazy):
            outer = _read(self.outer)
            if self.inner is not None:
                outer = self.inner.flat()[outer]
            self.outer, self.inner = outer, None
        return self.outer  # type: ignore[return-value]


class _Gather(_Lazy):
    """A column not gathered yet: ``source[rows.flat()]``.  Once read,
    ``rows`` is None."""

    __slots__ = ("source", "rows")

    def __init__(self, source: Column, rows: _Rows) -> None:
        super().__init__(len(rows.outer), source.dtype, None)
        self.source: Column = source
        self.rows: Optional[_Rows] = rows

    def _compute(self) -> np.ndarray:
        assert self.rows is not None
        array = _read(self.source)[self.rows.flat()]
        self.source, self.rows = array, None
        return array


class _Columns(dict):
    """Column arrays by name.  Reading ``columns[name]`` works out a
    deferred column and keeps the array; ``items()`` / ``values()`` hand
    back what is stored, deferred or not, and are for code that only
    passes columns on or reads their dtypes."""

    def __getitem__(self, name: str) -> np.ndarray:
        column = dict.__getitem__(self, name)
        if isinstance(column, _Lazy):
            column = self[name] = column.read()
        return column


@dataclass
class Batch:
    """A batch of rows: equal-length named columns, each an array or, until
    something reads it, the value that will produce the array."""

    columns: dict[str, Column] = field(default_factory=dict)
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

    def stored(self, name: str) -> Column:
        """Column ``name`` as stored, without reading it."""
        try:
            return dict.__getitem__(self.columns, name)
        except KeyError:
            raise ExecutionError(f"unknown column {name!r}") from None

    def take(self, indices: Column) -> "Batch":
        """New batch with the rows selected by ``indices`` (with repeats),
        which may themselves be worked out later.  No column is gathered
        here: each records its source and the rows to read, and columns
        selected together keep sharing one selection."""
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
        """This batch once every column still deferred has been read."""
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

    def check(self, expr: Expr) -> None:
        """Raise what evaluating ``expr`` over this batch raises for a
        reason other than its values — an unknown or ambiguous column, an
        operator its column types do not support — reading no row."""
        columns = self.columns.items()
        evaluate(expr, {name: np.empty(0, col.dtype) for name, col in columns}, 0)


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


class KeyCounts(NamedTuple):
    """A key column's distinct keys, one value each in the column's own
    dtype, and the number of rows that hold each."""

    values: np.ndarray
    counts: np.ndarray


#: What :func:`_join_codes` returns.
_JoinCodes = tuple[np.ndarray, np.ndarray, np.ndarray]


def _join_codes(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> _JoinCodes:
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


def _build_keys(
    key: np.ndarray, right_codes: np.ndarray, per_code: np.ndarray
) -> KeyCounts:
    """The build side's first key column, one row per join code, standing
    for the code's ``per_code`` rows: they hold equal keys, which hash
    alike — all but integers past 2**53 that a float probe key made one
    code."""
    row = np.empty(len(per_code), dtype=np.int64)
    row[right_codes] = np.arange(len(right_codes))
    present = np.flatnonzero(per_code)
    return KeyCounts(key[row[present]], per_code[present])


class _FanOut:
    """An inner equi join whose build keys repeat, held as each probe row's
    match count: its row count is known at once, and the row numbers of
    its output on either side are worked out when a column reads them —
    left-major, the build rows of one probe row in row order.

    ``unequal``, when given, is a second coding of the join (probe codes,
    build codes, build rows per code) with one more column on each side,
    and a key-matched pair is kept only where its two codes differ: the
    pairs whose two columns are equal are dropped (an ``x <> y`` residual)
    by subtracting their counts, not by comparing pair by pair.
    """

    __slots__ = (
        "probe_codes", "build_codes", "per_code", "unequal", "counts", "n_rows",
        "_build_weights",
    )

    def __init__(
        self,
        probe_codes: np.ndarray,
        build_codes: np.ndarray,
        per_code: np.ndarray,
        unequal: Optional[_JoinCodes] = None,
    ) -> None:
        self.probe_codes, self.build_codes = probe_codes, build_codes
        self.per_code, self.unequal = per_code, unequal
        self.counts = per_code[probe_codes]
        if unequal is not None:
            probe_pairs, _, per_pair = unequal
            self.counts -= per_pair[probe_pairs]
        self.n_rows = int(self.counts.sum())
        self._build_weights: Optional[np.ndarray] = None

    def probe_rows(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.counts), dtype=np.int64), self.counts)

    def build_rows(self) -> np.ndarray:
        # The build side sorted by code; a probe row reads the start of its
        # run from the per-code table.
        per_code, probe_codes = self.per_code, self.probe_codes
        matches = per_code[probe_codes]
        order = np.argsort(self.build_codes, kind="stable")
        starts = (np.cumsum(per_code) - per_code)[probe_codes]
        # Matched pair p of probe row i reads order[starts[i] + (p - first pair of i)].
        build_pos = np.repeat(starts - (np.cumsum(matches) - matches), matches)
        build_pos += np.arange(len(build_pos), dtype=np.int64)
        rows = order[build_pos]
        if self.unequal is None:
            return rows
        probe_pairs, build_pairs, _ = self.unequal
        return rows[np.repeat(probe_pairs, matches) != build_pairs[rows]]

    def weights(self, probe: bool) -> np.ndarray:
        """How many output rows each row of one side stands for."""
        if probe:
            return self.counts
        if self._build_weights is None:
            per_probe_code = np.bincount(self.probe_codes, minlength=len(self.per_code))
            weights = per_probe_code[self.build_codes]
            if self.unequal is not None:
                probe_pairs, build_pairs, per_pair = self.unequal
                weights -= np.bincount(probe_pairs, minlength=len(per_pair))[build_pairs]
            self._build_weights = weights
        return self._build_weights

    def in_output_order(self, rows: np.ndarray, probe: bool) -> np.ndarray:
        """The ``rows`` (ascending) of one side that reach the output,
        ordered by where each first appears in it."""
        rows = rows[self.weights(probe)[rows] > 0]
        if probe:
            return rows
        # A build row first meets the first probe row of its code ...
        n_codes, probe_codes = len(self.per_code), self.probe_codes
        first_probe = _first_rows(probe_codes, n_codes)
        codes = self.build_codes[rows]
        meets = first_probe[codes]
        if self.unequal is not None:
            # ... whose pair differs from its own: that row, or else the
            # first of its code whose pair differs from that row's.
            probe_pairs, build_pairs, _ = self.unequal
            differs = probe_pairs != probe_pairs[first_probe[probe_codes]]
            second = _first_rows(np.where(differs, probe_codes, n_codes), n_codes + 1)
            equal = probe_pairs[meets] == build_pairs[rows]
            meets = np.where(equal, second[codes], meets)
        return rows[np.argsort(meets, kind="stable")]


class _Side(_Lazy):
    """One side's row numbers into a :class:`_FanOut`.  A group-by whose
    keys all read through the same unread side groups that side's rows,
    weighted (:func:`group_rows`); reading it lets go of the fan-out."""

    __slots__ = ("fan", "probe")

    def __init__(self, fan: _FanOut, probe: bool) -> None:
        rows = fan.probe_rows if probe else fan.build_rows
        super().__init__(fan.n_rows, np.int64, rows)
        self.fan: Optional[_FanOut] = fan
        self.probe = probe

    def _compute(self) -> np.ndarray:
        self.fan = None
        return super()._compute()


def _matches(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    per_code: np.ndarray,
    unequal: Optional[_JoinCodes] = None,
) -> tuple[Column, Column]:
    """The row numbers an inner equi join's output reads on each side; a
    pair whose ``unequal`` codes (:class:`_FanOut`) are equal is dropped."""
    if per_code.max(initial=0) <= 1:
        # Every build key is unique: a probe row matches the one build row
        # that holds its code, or none, and nothing fans out.
        build_row = np.full(len(per_code), -1, dtype=np.int64)
        build_row[right_codes] = np.arange(len(right_codes))
        right_idx = build_row[left_codes]
        left_idx = np.flatnonzero(right_idx >= 0)
        right_idx = right_idx[left_idx]
        if unequal is not None:
            probe_pairs, build_pairs, _ = unequal
            keep = probe_pairs[left_idx] != build_pairs[right_idx]
            left_idx, right_idx = left_idx[keep], right_idx[keep]
        return left_idx, right_idx
    fan = _FanOut(left_codes, right_codes, per_code, unequal)
    return _Side(fan, probe=True), _Side(fan, probe=False)


def equi_join_indices(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs produced by an inner equi join: left-major, the
    build rows of one probe row in row order."""
    left_idx, right_idx = _matches(*_join_codes(left_keys, right_keys))
    return _read(left_idx), _read(right_idx)


def _unequal_codes(
    left: Batch,
    right: Batch,
    left_keys: list[np.ndarray],
    right_keys: list[np.ndarray],
    residual: Optional[Expr],
) -> Optional[_JoinCodes]:
    """The join coded with ``x`` added to the left key and ``y`` to the
    right one (:func:`_join_codes`) when ``residual`` is exactly ``x <> y``
    over a column of each side whose values compare as integers (integer
    or bool); None for any other residual."""
    if not isinstance(residual, BinaryOp) or residual.op != "<>":
        return None
    refs = (residual.left, residual.right)
    if not all(isinstance(ref, ColumnRef) for ref in refs):
        return None
    names = {name: name for name in (*left.columns, *right.columns)}
    try:
        x, y = (resolve_column(names, ref) for ref in refs)
    except ExecutionError:
        return None
    if x in right.columns:
        x, y = y, x
    if x not in left.columns or y not in right.columns:
        return None
    dtypes = left.stored(x).dtype, right.stored(y).dtype
    if np.result_type(*dtypes).kind not in "biu":  # floats, or int64 with uint64
        return None
    return _join_codes([*left_keys, left.column(x)], [*right_keys, right.column(y)])


def hash_join_batches(
    left: Batch,
    right: Batch,
    join_pairs: Sequence[tuple[str, str]],
    residual: Optional[Expr] = None,
) -> tuple[Batch, KeyCounts]:
    """Inner equi join of two batches with an optional residual predicate,
    and the build side's first key column counted per key.

    A residual ``x <> y`` over a column of each side that compares as
    integers is not evaluated pair by pair: the join is coded once more
    with ``x`` added to the probe key and ``y`` to the build key, and a
    pair is kept where the two codes differ, so a join whose build keys
    repeat is still only counted until a column is read.
    """
    left_keys = [left.column(l) for l, _ in join_pairs]
    right_keys = [right.column(r) for _, r in join_pairs]
    left_codes, right_codes, per_code = _join_codes(left_keys, right_keys)
    unequal = _unequal_codes(left, right, left_keys, right_keys, residual)
    left_idx, right_idx = _matches(left_codes, right_codes, per_code, unequal)
    joined = _merge_batches(left.take(left_idx), right.take(right_idx))
    if residual is not None:
        joined.check(residual)  # whether or not a pair matched on the keys
        if unequal is None and joined.n_rows:
            joined = joined.mask(joined.evaluate(residual).astype(bool))
    return joined, _build_keys(right_keys[0], right_codes, per_code)


def nested_join_batches(
    left: Batch, right: Batch, predicate: Optional[Expr]
) -> Batch:
    """Theta join evaluated over the cross product, in bounded chunks.

    The simulated clock charges ``|left| * |right|`` comparisons for this
    operator regardless of how it is evaluated here.
    """
    empty = _merge_batches(left.take(np.empty(0, np.int64)),
                           right.take(np.empty(0, np.int64)))
    if predicate is not None:
        empty.check(predicate)  # whether or not a side has rows
    if left.n_rows == 0 or right.n_rows == 0:
        return empty
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
    return _merge_batches(left.take(np.concatenate(left_parts)),
                          right.take(np.concatenate(right_parts)))


def semi_join_batch(
    left: Batch,
    right: Batch,
    join_pairs: Sequence[tuple[str, str]],
    anti: bool = False,
) -> tuple[Batch, KeyCounts]:
    """Left rows with (or, for anti, without) a match on the right, and the
    build side's first key column counted per key."""
    left_keys = [left.column(l) for l, _ in join_pairs]
    right_keys = [right.column(r) for _, r in join_pairs]
    left_codes, right_codes, per_code = _join_codes(left_keys, right_keys)
    matched = per_code[left_codes] > 0
    out = left.mask(~matched if anti else matched)
    return out, _build_keys(right_keys[0], right_codes, per_code)


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


def _sort_order(batch: Batch, keys: Sequence[tuple[str, bool]]) -> np.ndarray:
    """The stable permutation that sorts ``batch`` by ``keys``.

    ``np.lexsort`` treats its *last* key as primary, so the key list is
    reversed; descending order is achieved by negating numeric keys and by
    inverting rank codes for strings.
    """
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
    return np.lexsort(lexsort_keys)


def sort_batch(batch: Batch, keys: Sequence[tuple[str, bool]]) -> Batch:
    """Sort by (column, descending) keys; stable, last key least significant.
    The permutation is worked out when a column of the result is read."""
    if not keys or batch.n_rows == 0:
        return batch
    for name, _ in keys:
        batch.stored(name)  # an unknown key fails here, not at the read
    return batch.take(_Lazy(batch.n_rows, np.int64, partial(_sort_order, batch, keys)))


class Grouping:
    """One factorisation of a group-by key: each row's group, and each
    group's size and key values, groups in sorted key order.  The per-row
    codes of a group-by over a join's fan-out are worked out when an
    aggregate first reads them."""

    __slots__ = ("_codes", "sizes", "keys")

    def __init__(
        self, codes: Column, sizes: np.ndarray, keys: dict[str, np.ndarray]
    ) -> None:
        self._codes, self.sizes, self.keys = codes, sizes, keys

    @property
    def codes(self) -> np.ndarray:
        return _read(self._codes)


def _key_codes(batch: Batch, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes of a key column over the batch's rows, and the distinct
    values they stand for.

    A column still deferred over a source with fewer rows than the batch
    is ranked on that source, and only its codes are gathered: ranked again
    over the values the batch's rows read, they are a table look-up.
    """
    column = batch.stored(name)
    deferred = isinstance(column, _Gather) and column.rows is not None
    if deferred and len(column.source) < len(column):
        source_codes, uniques = _dense_codes(_read(column.source))
        rows = column.rows.flat()
        read = np.zeros(len(column.source), dtype=bool)
        read[rows] = True
        present = np.zeros(len(uniques), dtype=bool)
        present[source_codes[read]] = True
        rank = np.cumsum(present) - 1
        return rank[source_codes][rows], uniques[present]
    return _dense_codes(batch.column(name))


def _fan_side(batch: Batch, group_keys: Sequence[str]) -> Optional[tuple[_Side, Batch]]:
    """The unread join side every key column of ``batch`` reads through,
    and those key columns over that side's rows; None when there is none."""
    sides, columns = set(), {}
    for name in group_keys:
        column = batch.stored(name)
        if not isinstance(column, _Gather) or column.rows is None:
            return None
        side = column.rows.outer
        if not isinstance(side, _Side) or side.fan is None:
            return None
        sides.add(side)
        inner = column.rows.inner
        source = column.source
        columns[name] = source if inner is None else _Gather(source, inner)
    if len(sides) != 1:
        return None
    (side,) = sides
    n_rows = len(side.fan.counts if side.probe else side.fan.build_codes)
    return side, Batch(columns, n_rows=n_rows)


def _first_row_values(
    batch: Batch,
    name: str,
    values: np.ndarray,
    key_codes: np.ndarray,
    uniques: np.ndarray,
    codes: np.ndarray,
    side: Optional[_Side] = None,
) -> np.ndarray:
    """Each group's ``values`` of a key column, made its first output row's
    where equal keys may differ in their bits: ``-0.0`` and ``0.0``, and
    NaNs.  A deferred column is read at those rows only; the rows of a
    fan-out ``side`` are ordered by where they first reach the output."""
    if uniques.dtype.kind != "f":
        return values
    ambiguous = np.flatnonzero((uniques == 0) | np.isnan(uniques))
    if len(ambiguous):
        rows = np.flatnonzero(np.isin(key_codes, ambiguous))
        if side is not None:
            assert side.fan is not None
            rows = side.fan.in_output_order(rows, side.probe)
        groups, first = np.unique(codes[rows], return_index=True)
        rows = rows[first]
        column = batch.stored(name)
        if isinstance(column, _Gather) and column.rows is not None:
            column, rows = column.source, column.rows.flat()[rows]
        values[groups] = _read(column)[rows]
    return values


def group_rows(batch: Batch, group_keys: Sequence[str]) -> Grouping:
    """Factorise the group key of ``batch`` once.

    Each key column is ranked on its own (:func:`_key_codes`) and several
    are folded into one composite code, which is ranked again; each
    group's key values are read back from that ranking, not from its rows.

    When every key column reads through the same unread side of a join's
    fan-out, the keys are ranked on that side's rows, each weighted by the
    output rows it stands for, and the output is not expanded: a group's
    size is its weighted count, groups only unmatched rows hold are
    dropped, and each output row's group is worked out when read.
    """
    if not group_keys:
        raise ExecutionError("group_by_batch requires group keys")
    if batch.n_rows == 0:
        keys = {name: batch.column(name)[:0] for name in group_keys}
        return Grouping(np.empty(0, np.int64), np.empty(0, np.int64), keys)
    through = _fan_side(batch, group_keys)
    side, rows = through if through is not None else (None, batch)
    columns = [_key_codes(rows, name) for name in group_keys]
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
    if side is None:
        sizes = np.bincount(codes, minlength=len(per_group[0]))
    else:
        assert side.fan is not None
        # The weights are whole numbers, so the float sums are exact.
        weights = side.fan.weights(side.probe)
        sizes = np.bincount(codes, weights, len(per_group[0])).astype(np.int64)
        kept = sizes > 0
        if not kept.all():
            # Rows of a dropped group reach no output row; their new code is
            # never read.
            codes, sizes = (np.cumsum(kept) - 1)[codes], sizes[kept]
            per_group = [values[kept] for values in per_group]
    keys = {
        name: _first_row_values(rows, name, values, key_codes, uniques, codes, side)
        for name, values, (key_codes, uniques) in zip(group_keys, per_group, columns)
    }
    if side is None:
        return Grouping(codes, sizes, keys)
    codes_through = _Lazy(batch.n_rows, np.int64, partial(_through, codes, side))
    return Grouping(codes_through, sizes, keys)


def _through(values: np.ndarray, side: _Side) -> np.ndarray:
    """``values`` of a fan-out side's rows, read at each output row."""
    return values[side.read()]


def _check_aggregate(spec: AggregateSpec, batch: Batch) -> str:
    """The aggregate's function, once it is known to compute over ``batch``:
    what would fail on reading its value fails here."""
    func = spec.func.lower()
    if func == "count" and spec.expr is None and not spec.distinct:
        return func
    if spec.expr is None:
        raise ExecutionError(f"aggregate {func} requires an argument")
    batch.check(spec.expr)
    if func not in _FUNCTIONS:
        raise ExecutionError(f"unsupported aggregate function {func!r}")
    return func


def _aggregate_column(
    spec: AggregateSpec, grouping: Grouping, batch: Batch, layout: _Lazy
) -> np.ndarray:
    """Compute one aggregate per group; ``layout`` (min/max only) holds the
    rows in group order.  A DISTINCT aggregate reads one row per distinct
    (group, value) pair."""
    func = spec.func.lower()
    codes, sizes = grouping.codes, grouping.sizes
    assert spec.expr is not None
    values = batch.evaluate(spec.expr)
    if spec.distinct:
        # Pair codes follow the (group, value) order, so the pairs' first
        # rows come group by group, as min/max read them.
        pair_codes, n_pairs = factorize_rows([codes, values])
        first = _first_rows(pair_codes, n_pairs)
        codes, values = codes[first], values[first]
        sizes = np.bincount(codes, minlength=len(sizes))
        if func == "count":
            return sizes.astype(np.float64)
    numeric = values.astype(np.float64, copy=False)
    if func == "sum":
        return np.bincount(codes, weights=numeric, minlength=len(sizes))
    if func == "avg":
        return np.bincount(codes, weights=numeric, minlength=len(sizes)) / sizes
    if not spec.distinct:
        numeric = numeric[layout.read()]
    reducer = np.minimum if func == "min" else np.maximum
    return reducer.reduceat(numeric, np.cumsum(sizes) - sizes)


def aggregate_groups(
    batch: Batch, grouping: Grouping, aggregates: Sequence[AggregateSpec]
) -> Batch:
    """The group key columns of ``grouping`` (same names) followed by one
    column per aggregate alias.  ``count(*)`` and ``count(x)`` are the
    group sizes; every other aggregate is computed when first read."""
    columns: dict[str, Column] = dict(grouping.keys)
    if batch.n_rows == 0:
        for spec in aggregates:
            columns[spec.alias] = np.empty(0, dtype=np.float64)
        return Batch(columns, n_rows=0)
    n_groups = len(grouping.sizes)
    # The rows laid out group by group, which only min/max read.
    layout = _Lazy(
        batch.n_rows, np.int64, lambda: np.argsort(grouping.codes, kind="stable")
    )
    for spec in aggregates:
        func = _check_aggregate(spec, batch)
        if func == "count" and not spec.distinct:
            columns[spec.alias] = grouping.sizes.astype(np.float64)
        else:
            compute = partial(_aggregate_column, spec, grouping, batch, layout)
            columns[spec.alias] = _Lazy(n_groups, np.float64, compute)
    return Batch(columns, n_rows=n_groups)


def group_by_batch(
    batch: Batch,
    group_keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Batch:
    """Group by key columns and compute aggregates (:func:`group_rows`,
    then :func:`aggregate_groups`)."""
    return aggregate_groups(batch, group_rows(batch, group_keys), aggregates)


def _scalar_value(spec: AggregateSpec, func: str, batch: Batch) -> np.ndarray:
    """One aggregate over the whole batch, as a one-element array."""
    assert spec.expr is not None
    values = batch.evaluate(spec.expr)
    if spec.distinct:
        codes, uniques = _dense_codes(values)
        values = values[_first_rows(codes, len(uniques))]
    if func == "count":
        value = float(len(values))
    elif len(values) == 0:
        value = float("nan")
    else:
        numeric = values.astype(np.float64)
        if func == "sum":
            value = float(numeric.sum())
        elif func == "avg":
            value = float(numeric.mean())
        elif func == "min":
            value = float(numeric.min())
        else:
            value = float(numeric.max())
    return np.array([value], dtype=np.float64)


def scalar_aggregate_batch(
    batch: Batch, aggregates: Sequence[AggregateSpec]
) -> Batch:
    """Aggregate the whole batch to a single row; every aggregate but
    ``count(*)`` is computed when first read."""
    columns: dict[str, Column] = {}
    for spec in aggregates:
        func = spec.func.lower()
        if func == "count" and spec.expr is None and not spec.distinct:
            columns[spec.alias] = np.array([float(batch.n_rows)], dtype=np.float64)
            continue
        if spec.expr is None:
            raise ExecutionError(f"aggregate {func} requires an argument")
        batch.check(spec.expr)
        if batch.n_rows and func not in _FUNCTIONS:
            raise ExecutionError(f"unsupported aggregate function {func!r}")
        compute = partial(_scalar_value, spec, func, batch)
        columns[spec.alias] = _Lazy(1, np.float64, compute)
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
    """Evaluate select items; output columns keyed by alias (or SQL text).
    A bare column is passed on as stored, read or not."""
    stored = dict(batch.columns.items())
    columns: dict[str, Column] = {}
    for item in items:
        name = item.alias or item.expr.to_sql()
        if isinstance(item.expr, ColumnRef):
            columns[name] = resolve_column(stored, item.expr)
        else:
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
