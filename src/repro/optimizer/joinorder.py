"""Join-order search.

Produces a left-deep join order over the query's base relations.  Small
join sets (<= ``DP_LIMIT`` relations) are ordered by exhaustive dynamic
programming over left-deep trees; larger sets fall back to the classic
greedy "smallest intermediate result next" heuristic.  The objective is
the sum of estimated intermediate cardinalities — a stand-in for a full
cost model that is accurate enough to pick reasonable (and occasionally
wrong) orders.

The search needs only the *row count* of each candidate join, so it does
not build a :class:`RelEstimate` per expansion.  ``join_estimate`` clamps
every distinct count of its inputs to the rows of its output, so inside a
left-deep prefix a column's distinct count is its base value pushed
through one clamp per join since its table came in.  Every intermediate
has at least ``MIN_ROWS`` = 1 row — the floor of a distinct count — so
that chain of clamps equals one clamp to the smallest of those
intermediates.  A prefix therefore carries, per joined binding, that
smallest row count (its *floor*), and costing a candidate reads one
number per join pair instead of re-deriving every column of every joined
table.  The optimizer builds the estimates of the chosen order with
``join_estimate`` as before; ``tests/_reference.py`` keeps the search
written with plain ``join_estimate`` to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Mapping, Optional, Sequence

from repro.errors import OptimizerError
from repro.optimizer.cardinality import MIN_ROWS, RelEstimate

__all__ = ["JoinEdge", "order_joins", "DP_LIMIT"]

#: Largest relation count ordered by exact left-deep DP.
DP_LIMIT = 7


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join predicate connecting two bindings."""

    left_binding: str
    right_binding: str
    left_column: str
    right_column: str

    def pair_for(self, first: str) -> tuple[str, str]:
        """The (column-of-first, column-of-other) pair, oriented."""
        if first == self.left_binding:
            return self.left_column, self.right_column
        if first == self.right_binding:
            return self.right_column, self.left_column
        raise OptimizerError(f"edge does not touch binding {first!r}")

    def touches(self, binding: str) -> bool:
        return binding in (self.left_binding, self.right_binding)


#: One equi-join edge seen from a candidate: the binding on the other
#: side, the base distinct count of the other side's column (None when the
#: statistics lack it) and the candidate's own distinct-count estimate.
_Link = tuple[str, Optional[float], float]

#: A left-deep prefix: (total cost, order, rows, floor per joined binding).
_Prefix = tuple[float, list[str], float, dict[str, float]]


def order_joins(
    relations: Mapping[str, RelEstimate], edges: Sequence[JoinEdge]
) -> list[str]:
    """Return the bindings in left-deep join order.

    Single-relation queries return trivially.  The search prefers connected
    expansions (avoiding cross products) and breaks ties toward smaller
    intermediate results.
    """
    bindings = sorted(relations)
    if not bindings:
        raise OptimizerError("query has no relations")
    if len(bindings) == 1:
        return bindings
    if len(bindings) <= DP_LIMIT:
        return _dp_order(relations, edges, bindings)
    return _greedy_order(relations, edges, bindings)


def _links(
    relations: Mapping[str, RelEstimate], edges: Sequence[JoinEdge]
) -> dict[str, list[_Link]]:
    """Per binding, the edges that can join it to a prefix, in query order.

    The order matters: each pair divides the row estimate in turn, and
    floating-point division does not commute.
    """
    links: dict[str, list[_Link]] = {binding: [] for binding in relations}
    for edge in edges:
        left, right = edge.left_binding, edge.right_binding
        if left == right or left not in relations or right not in relations:
            continue
        left_rel, right_rel = relations[left], relations[right]
        left_col, right_col = edge.left_column, edge.right_column
        links[right].append(
            (left, left_rel.ndv.get(left_col), right_rel.ndv_of(right_col))
        )
        links[left].append(
            (right, right_rel.ndv.get(right_col), left_rel.ndv_of(left_col))
        )
    return links


def _joined_rows(
    rows: float,
    floors: Mapping[str, float],
    candidate_rows: float,
    candidate_links: Sequence[_Link],
) -> tuple[float, bool]:
    """Rows of ``prefix JOIN candidate`` and whether an edge connects them.

    Same arithmetic, in the same order, as ``join_estimate`` on the
    prefix's full estimate; ``floors`` maps each binding of the prefix to
    the smallest intermediate row count since it was joined (``inf`` for
    a lone base relation, whose distinct counts no join has clamped yet).
    """
    joined = rows * candidate_rows
    connected = False
    for other, other_ndv, candidate_ndv in candidate_links:
        if other in floors:
            connected = True
            if other_ndv is None:
                prefix_ndv = max(rows / 10.0, 1.0)
            else:
                prefix_ndv = max(min(other_ndv, floors[other], rows), 1.0)
            joined /= max(prefix_ndv, candidate_ndv, 1.0)
    return max(joined, MIN_ROWS), connected


def _extended_floors(
    floors: Mapping[str, float], candidate: str, rows: float
) -> dict[str, float]:
    """Floors of the prefix once ``candidate`` joined it, producing ``rows``."""
    extended = {binding: min(floor, rows) for binding, floor in floors.items()}
    extended[candidate] = rows
    return extended


def _dp_order(
    relations: Mapping[str, RelEstimate],
    edges: Sequence[JoinEdge],
    bindings: list[str],
) -> list[str]:
    """Exhaustive DP over left-deep orders, minimising summed intermediates."""
    links = _links(relations, edges)
    # The cheapest prefix per set of joined bindings, one prefix size at a time.
    level: dict[frozenset[str], _Prefix] = {}
    for binding in bindings:
        rows = relations[binding].rows
        level[frozenset({binding})] = (rows, [binding], rows, {binding: inf})
    for _ in range(len(bindings) - 1):
        next_level: dict[frozenset[str], _Prefix] = {}
        for done, (cost, order, rows, floors) in level.items():
            for candidate in bindings:
                if candidate in done:
                    continue
                joined, connected = _joined_rows(
                    rows, floors, relations[candidate].rows, links[candidate]
                )
                # Penalise cross products heavily but keep them legal.
                new_cost = cost + (joined if connected else joined * 1e3)
                key = done | {candidate}
                existing = next_level.get(key)
                if existing is None or new_cost < existing[0]:
                    next_level[key] = (
                        new_cost,
                        order + [candidate],
                        joined,
                        _extended_floors(floors, candidate, joined),
                    )
        level = next_level
    return level[frozenset(bindings)][1]


def _greedy_order(
    relations: Mapping[str, RelEstimate],
    edges: Sequence[JoinEdge],
    bindings: list[str],
) -> list[str]:
    """Greedy smallest-next order for large join sets."""
    links = _links(relations, edges)
    start = min(bindings, key=lambda b: relations[b].rows)
    order = [start]
    rows = relations[start].rows
    floors = {start: inf}
    remaining = [b for b in bindings if b != start]
    while remaining:
        best: tuple[float, str, float] | None = None
        for candidate in remaining:
            joined, connected = _joined_rows(
                rows, floors, relations[candidate].rows, links[candidate]
            )
            score = joined if connected else joined * 1e3
            if best is None or score < best[0]:
                best = (score, candidate, joined)
        assert best is not None
        _score, chosen, rows = best
        order.append(chosen)
        floors = _extended_floors(floors, chosen, rows)
        remaining.remove(chosen)
    return order
