"""Reference versions of the payload rule, the builders' per-step rules, one CIH start and the cost matrix.

The library's builders decide each step for a whole block of starts with
vectorised numpy code; these routines decide the same things one start at a
time, and most of them one node and one slot at a time, so the tests can
check every greedy choice against them.  :func:`reference_payload` restates
the start-event rule one visit at a time.  :func:`reference_cih_from` is the
per-start cheapest-insertion builder that the lock-step block replaced, with
its cached ratio matrix.  :func:`reference_cost_matrix` derives arc costs one
node pair at a time, and :func:`reference_tour_cost` adds a tour's arcs one at
a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mpdtsp import Instance, MetricMode, Tour, validate
from mpdtsp.construction import check_carriable


def reference_payload(instance: Instance, seq) -> list[float]:
    """Cargo on board leaving each position of a closed sequence, one visit at a time.

    Every visit adds its node's load, except one of the start node's two
    visits: a depot or pickup start loads at its opening visit only, a
    delivery start unloads at its closing visit only.
    """
    start_unloads_at_close = seq[0] > instance.n_pairs
    skipped = 0 if start_unloads_at_close else len(seq) - 1
    running, out = 0.0, []
    for pos, node in enumerate(seq):
        if pos != skipped:
            running += float(instance.loads[node])
        out.append(running)
    return out


@dataclass
class NnhState:
    """Open partial tour: visited prefix, current load and unvisited set."""

    partial: list[int]
    payload: float
    remainder: set[int]
    cost_so_far: float

    @classmethod
    def initial(cls, instance: Instance, init: int) -> "NnhState":
        init = instance.normalize_node(init)
        payload = float(instance.loads[init]) if 1 <= init <= instance.n_pairs else 0.0
        remainder = set(range(instance.node_count)) - {init}
        return cls(partial=[init], payload=payload, remainder=remainder, cost_so_far=0.0)


def feasible_candidates(instance: Instance, state: NnhState) -> list[int]:
    """Unvisited nodes that may be appended next, in ascending id order.

    A delivery is admissible only once its pickup is in the partial tour; any
    admissible node must also fit: current load + its load <= the load limit.
    """
    visited = set(state.partial)
    out = []
    for node in sorted(state.remainder):
        if node > instance.n_pairs and node - instance.n_pairs not in visited:
            continue
        if state.payload + instance.loads[node] > instance.load_limit:
            continue
        out.append(node)
    return out


@dataclass(eq=False)
class CihState:
    """Mutable workspace of one start: closed partial tour, payload and insertion ratios.

    The partial tour is ``tour[:size]`` and ``payload[:size]`` the load on
    board leaving each of its positions; both buffers have room for the
    finished tour.  Row k of ``ratios`` holds the insertion ratio of every
    node (column = node id) at slot k, the arc from position k to k + 1; rows
    from ``size - 1`` on are unused.  ``in_tour`` marks the nodes placed.
    :func:`reference_apply_insertion` updates all of them in place.
    """

    tour: np.ndarray = field(repr=False)
    payload: np.ndarray = field(repr=False)
    ratios: np.ndarray = field(repr=False)
    in_tour: np.ndarray = field(repr=False)
    size: int
    cost_so_far: float

    @classmethod
    def initial(cls, instance: Instance, init: int) -> "CihState":
        init = instance.normalize_node(init)
        n = instance.node_count
        tour = np.empty(n + 1, dtype=int)
        tour[:2] = init
        payload = np.empty(n + 1)
        payload[:2] = reference_payload(instance, (init, init))
        ratios = np.empty((n, n))
        _ratios_on_arc(instance, init, init, out=ratios[0])
        in_tour = np.zeros(n, dtype=bool)
        in_tour[init] = True
        return cls(tour=tour, payload=payload, ratios=ratios, in_tour=in_tour, size=2,
                   cost_so_far=0.0)

    @property
    def partial(self) -> tuple[int, ...]:
        """The closed partial tour, start node doubled."""
        return tuple(self.tour[: self.size].tolist())

    @property
    def remainder(self) -> frozenset[int]:
        """Every node not yet in the tour."""
        return frozenset(np.flatnonzero(~self.in_tour).tolist())


@dataclass(frozen=True)
class Insertion:
    """Insert ``node`` after position ``slot``; ``ratio`` is its selection score."""

    node: int
    slot: int
    ratio: float


def _ratios_on_arc(instance: Instance, a: int, b: int, out: np.ndarray) -> None:
    """Insertion ratio of every node u (index = node id) on arc (a, b), written into ``out``."""
    cost = instance.cost
    replaced = cost[a, b]
    np.add(cost[a], cost[:, b], out=out)
    out /= replaced if replaced > 0.0 else 1.0


def reference_apply_insertion(state: CihState, choice: Insertion, instance: Instance) -> CihState:
    """Splice the chosen node in and roll its load through the tail of the tour.

    The state is updated in place and returned.  In the ratio buffer the rows
    of the two new arcs take the place of the replaced arc's row.
    """
    node = instance.normalize_node(choice.node)
    k = choice.slot
    m = state.size
    if not 0 <= k < m - 1:
        raise ValueError(f"slot {k} out of range for partial tour of length {m}")
    if state.in_tour[node]:
        raise ValueError(f"node {node} is not awaiting insertion")
    q = float(instance.loads[node])
    tour, payload, ratios, cost = state.tour, state.payload, state.ratios, instance.cost
    a, b = int(tour[k]), int(tour[k + 1])
    tour[k + 2 : m + 1] = tour[k + 1 : m]
    tour[k + 1] = node
    payload[k + 2 : m + 1] = payload[k + 1 : m] + q
    payload[k + 1] = payload[k] + q
    ratios[k + 2 : m] = ratios[k + 1 : m - 1]
    _ratios_on_arc(instance, a, node, out=ratios[k])
    _ratios_on_arc(instance, node, b, out=ratios[k + 1])
    state.in_tour[node] = True
    state.size = m + 1
    state.cost_so_far += float(cost[a, node]) + float(cost[node, b]) - float(cost[a, b])
    return state


def reference_best_insertion(instance: Instance, state: CihState) -> Insertion | None:
    """Lowest-ratio feasible insertion from the cached ratios, or None when all are blocked.

    Ties go to the lowest node id, then the earliest slot.
    """
    m = state.size
    if m > instance.node_count:
        return None
    tour = state.tour[:m]
    n_pairs = instance.n_pairs
    rev_cummax = np.maximum.accumulate(state.payload[m - 1 :: -1])
    left = m - rev_cummax.searchsorted(instance.load_limit - instance.loads, side="right")
    first = np.full(instance.node_count, m)
    first[tour[:-1]] = np.arange(m - 1)
    np.maximum(left[n_pairs + 1 :], first[1 : n_pairs + 1], out=left[n_pairs + 1 :])
    left[state.in_tour] = m
    rows = (left < m - 1).nonzero()[0]
    if rows.size == 0:
        return None
    ratios = np.where(
        np.arange(m - 1) < left[rows, None], np.inf, state.ratios[: m - 1, rows].T
    )
    row, slot = divmod(int(ratios.argmin()), m - 1)
    return Insertion(node=int(rows[row]), slot=slot, ratio=float(ratios[row, slot]))


def reference_cih_from(instance: Instance, init: int) -> Tour | tuple[int, ...]:
    """One cheapest-insertion tour from ``init``, built one start at a time.

    A start that stalls gives its closed partial tour instead.
    """
    check_carriable(instance)
    state = CihState.initial(instance, init)
    for _ in range(instance.node_count - 1):
        choice = reference_best_insertion(instance, state)
        if choice is None:
            return state.partial
        reference_apply_insertion(state, choice, instance)
    tour = Tour(state.partial, state.cost_so_far)
    report = validate(instance, tour)
    assert report.feasible, report
    return tour


def feasible_slots(instance: Instance, state: CihState, node: int) -> range:
    """Slots (insert-after positions) where ``node`` may go, possibly empty.

    Capacity: the earliest slot from which every payload entry to the end of
    the tour satisfies ``entry <= load_limit - load``.  Precedence: a delivery
    may not precede its pickup.  The result is the intersection of both
    windows and is always a contiguous range of slot indices.
    """
    node = instance.normalize_node(node)
    if node not in state.remainder:
        raise ValueError(f"node {node} is not awaiting insertion")
    m = len(state.partial)
    limit = instance.load_limit - float(instance.loads[node])

    suffix_max = float("-inf")
    left = m  # first capacity-feasible slot; m means none
    for k in range(m - 1, -1, -1):
        suffix_max = max(suffix_max, state.payload[k])
        if suffix_max <= limit:
            left = k
        else:
            break

    if node > instance.n_pairs:
        pickup = node - instance.n_pairs
        if pickup not in state.partial:
            return range(m - 1, m - 1)  # empty: no admissible slot yet
        left = max(left, state.partial.index(pickup))

    return range(min(left, m - 1), m - 1)


def insertion_ratio(instance: Instance, a: int, node: int, b: int) -> float:
    """Cost ratio of inserting ``node`` between consecutive tour nodes a, b.

    When the replaced arc has zero cost (doubled start node, or co-located
    pseudo-nodes) the plain added cost is used instead.
    """
    a = instance.normalize_node(a)
    b = instance.normalize_node(b)
    node = instance.normalize_node(node)
    added = float(instance.cost[a, node]) + float(instance.cost[node, b])
    replaced = float(instance.cost[a, b])
    return added / replaced if replaced > 0.0 else added


def reference_cost_matrix(coords, metric: MetricMode) -> np.ndarray:
    """The TSPLIB cost matrix, one node pair at a time.

    Each cell is ``math.hypot`` of the pair's float coordinate differences;
    ROUNDED takes the nearest integer with halves rounded up.
    """
    pts = [(float(x), float(y)) for x, y in coords]
    m = len(pts)
    cost = np.zeros((m, m), dtype=float)
    for i in range(m):
        for j in range(i + 1, m):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            if metric is MetricMode.ROUNDED:
                d = float(math.floor(d + 0.5))
            cost[i, j] = d
            cost[j, i] = d
    return cost


def reference_tour_cost(instance: Instance, seq) -> float:
    """The cost of a closed sequence of physical ids, one arc at a time, left to right.

    The builtin ``sum`` would not do: from Python 3.12 it compensates the
    rounding of floats, so its bits are not a left-to-right sum.
    """
    cost = 0.0
    for a, b in zip(seq, seq[1:]):
        cost += float(instance.cost[a, b])
    return cost
