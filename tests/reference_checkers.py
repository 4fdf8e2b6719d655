"""Plain-Python reference versions of the builders' per-step rules and of the cost matrix.

The library's builders decide each step with vectorised numpy code; these
routines decide the same things one node and one slot at a time, so the tests
can check every greedy choice against them.  :func:`reference_cost_matrix`
derives arc costs one node pair at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpdtsp import CihState, Instance, MetricMode, Role


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
        payload = float(instance.loads[init]) if instance.role(init) is Role.PICKUP else 0.0
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
        if instance.role(node) is Role.DELIVERY and node - instance.n_pairs not in visited:
            continue
        if state.payload + instance.loads[node] > instance.load_limit:
            continue
        out.append(node)
    return out


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

    if instance.role(node) is Role.DELIVERY:
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
