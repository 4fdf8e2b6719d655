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
not on the loads, so each state carries the ratio matrix of every node (row =
node id) at every slot (column) on to the next: the cached best insertion of
Campbell and Savelsbergh (Transportation Science 38(3), 2004).  Inserting v
between a and b replaces the column of arc (a, b) with the columns of the two
new arcs (a, v) and (v, b) -- 2N new cells -- and copies every other column;
v's row stays but, like every node already in the tour, gets an empty window.
The capacity and precedence windows do depend on the loads, so each step
derives them afresh from the payload vector, takes the rows whose window is
nonempty, masks the slots before each window, and takes the row-major argmin.
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


@dataclass(frozen=True)
class CihState:
    """Closed partial tour, its per-position payload, and the unvisited set.

    ``remainder`` is every node not in ``partial``.  ``ratios`` caches the
    insertion ratio of every node (row = node id) at every slot (column) for
    the instance that built the state; a state made without it gets the same
    matrix computed on demand.  The array is read-only, and each step makes a
    new one.
    """

    partial: tuple[int, ...]
    payload: tuple[float, ...]
    remainder: frozenset[int]
    cost_so_far: float
    ratios: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def initial(cls, instance: Instance, init: int) -> "CihState":
        init = instance.normalize_node(init)
        payload = tuple(accumulate(visit_events(instance, (init, init))))
        remainder = frozenset(range(instance.node_count)) - {init}
        return cls(partial=(init, init), payload=payload, remainder=remainder, cost_so_far=0.0)


@dataclass(frozen=True)
class InsertionChoice:
    """Insert ``node`` after position ``slot``; ``ratio`` is its selection score."""

    node: int
    slot: int
    ratio: float


def _ratio_columns(instance: Instance, arcs: Iterable[tuple[int, int]]) -> list[np.ndarray]:
    """Insertion ratio of every node u (index = node id) on each arc (a, b), one column per arc.

    This is the one place the ratio is computed: the cost of the arcs (a, u)
    and (u, b) over the cost of the replaced arc (a, b), or over 1 when that
    arc costs nothing.
    """
    cost = instance.cost
    columns = []
    for a, b in arcs:
        replaced = cost[a, b]
        columns.append((cost[a] + cost[:, b]) / (replaced if replaced > 0.0 else 1.0))
    return columns


def _ratio_matrix(instance: Instance, state: CihState) -> np.ndarray:
    """The state's cached ratio matrix, or the same matrix computed from scratch."""
    if state.ratios is not None:
        return state.ratios
    return np.stack(_ratio_columns(instance, zip(state.partial, state.partial[1:])), axis=1)


def apply_insertion(state: CihState, choice: InsertionChoice, instance: Instance) -> CihState:
    """Splice the chosen node in and roll its load through the tail of the tour.

    In the ratio matrix the columns of the two new arcs take the place of the
    replaced arc's column.
    """
    node = instance.normalize_node(choice.node)
    k = choice.slot
    if not 0 <= k < len(state.partial) - 1:
        raise ValueError(f"slot {k} out of range for partial tour of length {len(state.partial)}")
    if node not in state.remainder:
        raise ValueError(f"node {node} is not awaiting insertion")
    q = float(instance.loads[node])
    partial = state.partial[: k + 1] + (node,) + state.partial[k + 1 :]
    payload = (
        state.payload[: k + 1]
        + (state.payload[k] + q,)
        + tuple(map(q.__add__, state.payload[k + 1 :]))
    )
    a, b = state.partial[k], state.partial[k + 1]
    delta = (
        float(instance.cost[a, node]) + float(instance.cost[node, b]) - float(instance.cost[a, b])
    )
    old = _ratio_matrix(instance, state)
    into, out_of = _ratio_columns(instance, ((a, node), (node, b)))
    ratios = np.concatenate((old[:, :k], into[:, None], out_of[:, None], old[:, k + 1 :]), axis=1)
    ratios.flags.writeable = False
    return CihState(
        partial=partial,
        payload=payload,
        remainder=state.remainder - {node},
        cost_so_far=state.cost_so_far + delta,
        ratios=ratios,
    )


def best_insertion(instance: Instance, state: CihState) -> InsertionChoice | None:
    """Lowest-ratio feasible insertion this round, or None when all are blocked.

    Ties go to the lowest node id, then the earliest slot.
    """
    if not state.remainder:
        return None
    tour = np.asarray(state.partial, dtype=int)
    pay = np.asarray(state.payload, dtype=float)
    m = tour.size
    n_pairs = instance.n_pairs

    # capacity window: first slot whose payload suffix stays within limit;
    # the cumulative max of the reversed payload is non-decreasing, so a
    # searchsorted counts how many trailing slots fit each node's load
    rev_cummax = np.maximum.accumulate(pay[::-1])
    left = m - rev_cummax.searchsorted(instance.load_limit - instance.loads, side="right")

    # position of every node in the tour (the start at its opening visit);
    # m, which leaves no slot, for the others
    first = np.full(instance.node_count, m)
    first[tour[:-1]] = np.arange(m - 1)
    # precedence window for deliveries: strictly after the pickup position
    np.maximum(left[n_pairs + 1 :], first[1 : n_pairs + 1], out=left[n_pairs + 1 :])
    # nodes already in the tour have no window at all
    left[tour] = m

    rows = (left < m - 1).nonzero()[0]  # every row kept has a finite cell
    if rows.size == 0:
        return None
    ratios = np.where(
        np.arange(m - 1) < left[rows, None], np.inf, _ratio_matrix(instance, state)[rows]
    )
    # row-major scan: lowest node id, then earliest slot
    row, slot = divmod(int(ratios.argmin()), m - 1)
    return InsertionChoice(node=int(rows[row]), slot=slot, ratio=float(ratios[row, slot]))


def cih_from(instance: Instance, init: int) -> Tour:
    """Build one cheapest-insertion tour from ``init``."""
    check_carriable(instance)
    state = CihState.initial(instance, init)
    while state.remainder:
        choice = best_insertion(instance, state)
        if choice is None:
            raise DeadEndError(state.partial[0], list(state.partial), state.remainder)
        state = apply_insertion(state, choice, instance)
    return check_construction(instance, Tour(state.partial, state.cost_so_far))


def cih_best(instance: Instance, inits: Iterable[int] | None = None) -> MultiStartResult:
    """Cheapest insertion tour over the given starts (default: all nodes)."""
    return run_multistart(instance, inits, cih_from)
