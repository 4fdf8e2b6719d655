"""Multi-start cheapest-insertion construction with payload-vector tracking.

The builder keeps a closed partial tour (start node doubled) together with the
load on board at every position.  A candidate node may only be spliced into
slots where the whole remaining stretch of the tour still fits its load --
because the suffix maximum of the payload vector is non-increasing, those
slots form a contiguous suffix -- and a delivery is further confined to slots
after its pickup.  Among all feasible (node, slot) pairs the one with the
lowest insertion cost ratio (new arcs divided by the replaced arc) wins; a
replaced arc of zero cost, as in the opening move on the doubled start node,
falls back to the plain added cost.

The ratio of a (node, slot) pair depends only on the node and the slot's arc,
not on the loads, so the state keeps the ratio of every node at every slot
from step to step: the cached best insertion of Campbell and Savelsbergh
(Transportation Science 38(3), 2004).  One start works in place, in buffers
sized for the finished tour: the tour, its payload, an in-tour mask, and a
(slots x nodes) ratio buffer.  Inserting v between a and b shifts the rows of
the later slots down by one in a single slice move and writes the two rows of
the new arcs (a, v) and (v, b) -- 2N new cells; v's column stays but, like
every node already in the tour, gets an empty window.  The capacity and
precedence windows do depend on the loads, so each step derives them afresh
from the payload vector, takes the nodes whose window is nonempty, masks the
slots before each window, and takes the argmin by node id, then slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable

import numpy as np

from .construction import (
    DeadEndError,
    MultiStartResult,
    check_carriable,
    check_construction,
    run_multistart,
)
from .model import Instance, Tour, visit_events


@dataclass(eq=False)
class CihState:
    """Mutable workspace of one start: closed partial tour, payload and insertion ratios.

    The partial tour is ``tour[:size]`` and ``payload[:size]`` the load on
    board leaving each of its positions; both buffers have room for the
    finished tour.  Row k of ``ratios`` holds the insertion ratio of every
    node (column = node id) at slot k, the arc from position k to k + 1; rows
    from ``size - 1`` on are unused.  ``in_tour`` marks the nodes placed.
    :func:`apply_insertion` updates all of them in place.
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
        payload[:2] = list(accumulate(visit_events(instance, (init, init))))
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
class InsertionChoice:
    """Insert ``node`` after position ``slot``; ``ratio`` is its selection score."""

    node: int
    slot: int
    ratio: float


def _ratios_on_arc(instance: Instance, a: int, b: int, out: np.ndarray) -> None:
    """Insertion ratio of every node u (index = node id) on arc (a, b), written into ``out``.

    This is the one place the ratio is computed: the cost of the arcs (a, u)
    and (u, b) over the cost of the replaced arc (a, b), or over 1 when that
    arc costs nothing.
    """
    cost = instance.cost
    replaced = cost[a, b]
    np.add(cost[a], cost[:, b], out=out)
    out /= replaced if replaced > 0.0 else 1.0


def apply_insertion(state: CihState, choice: InsertionChoice, instance: Instance) -> CihState:
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


def best_insertion(instance: Instance, state: CihState) -> InsertionChoice | None:
    """Lowest-ratio feasible insertion this round, or None when all are blocked.

    Ties go to the lowest node id, then the earliest slot.
    """
    m = state.size
    if m > instance.node_count:
        return None
    tour = state.tour[:m]
    n_pairs = instance.n_pairs

    # capacity window: first slot whose payload suffix stays within limit;
    # the cumulative max of the reversed payload is non-decreasing, so a
    # searchsorted counts how many trailing slots fit each node's load
    rev_cummax = np.maximum.accumulate(state.payload[m - 1 :: -1])
    left = m - rev_cummax.searchsorted(instance.load_limit - instance.loads, side="right")

    # position of every node in the tour (the start at its opening visit);
    # m, which leaves no slot, for the others
    first = np.full(instance.node_count, m)
    first[tour[:-1]] = np.arange(m - 1)
    # precedence window for deliveries: strictly after the pickup position
    np.maximum(left[n_pairs + 1 :], first[1 : n_pairs + 1], out=left[n_pairs + 1 :])
    # nodes already in the tour have no window at all
    left[state.in_tour] = m

    rows = (left < m - 1).nonzero()[0]  # every node kept has a finite cell
    if rows.size == 0:
        return None
    ratios = np.where(
        np.arange(m - 1) < left[rows, None], np.inf, state.ratios[: m - 1, rows].T
    )
    # row-major scan of (node, slot): lowest node id, then earliest slot
    row, slot = divmod(int(ratios.argmin()), m - 1)
    return InsertionChoice(node=int(rows[row]), slot=slot, ratio=float(ratios[row, slot]))


def cih_from(instance: Instance, init: int) -> Tour:
    """Build one cheapest-insertion tour from ``init``."""
    check_carriable(instance)
    state = CihState.initial(instance, init)
    for _ in range(instance.node_count - 1):
        choice = best_insertion(instance, state)
        if choice is None:
            raise DeadEndError(int(state.tour[0]), state.partial, state.remainder)
        apply_insertion(state, choice, instance)
    return check_construction(instance, Tour(state.partial, state.cost_so_far))


def cih_best(instance: Instance, inits: Iterable[int] | None = None) -> MultiStartResult:
    """Cheapest insertion tour over the given starts (default: all nodes)."""
    return run_multistart(instance, inits, cih_from)
