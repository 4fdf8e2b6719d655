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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    """Closed partial tour, its per-position payload, and the unvisited set."""

    partial: tuple[int, ...]
    payload: tuple[float, ...]
    remainder: frozenset[int]
    cost_so_far: float

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


def apply_insertion(state: CihState, choice: InsertionChoice, instance: Instance) -> CihState:
    """Splice the chosen node in and roll its load through the tail of the tour."""
    node = instance.normalize_node(choice.node)
    k = choice.slot
    if not 0 <= k < len(state.partial) - 1:
        raise ValueError(f"slot {k} out of range for partial tour of length {len(state.partial)}")
    q = float(instance.loads[node])
    partial = state.partial[: k + 1] + (node,) + state.partial[k + 1 :]
    payload = (
        state.payload[: k + 1]
        + (state.payload[k] + q,)
        + tuple(p + q for p in state.payload[k + 1 :])
    )
    a, b = state.partial[k], state.partial[k + 1]
    delta = (
        float(instance.cost[a, node]) + float(instance.cost[node, b]) - float(instance.cost[a, b])
    )
    return replace(
        state,
        partial=partial,
        payload=payload,
        remainder=state.remainder - {node},
        cost_so_far=state.cost_so_far + delta,
    )


def best_insertion(instance: Instance, state: CihState) -> InsertionChoice | None:
    """Lowest-ratio feasible insertion this round, or None when all are blocked.

    Ties go to the lowest node id, then the earliest slot.
    """
    if not state.remainder:
        return None
    tour = np.asarray(state.partial, dtype=int)
    pay = np.asarray(state.payload, dtype=float)
    rem = np.fromiter(sorted(state.remainder), dtype=int, count=len(state.remainder))
    m = tour.size
    cost = instance.cost
    n_pairs = instance.n_pairs

    # capacity window: first slot whose payload suffix stays within limit;
    # the cumulative max of the reversed payload is non-decreasing, so a
    # searchsorted counts how many trailing slots fit each candidate load
    rev_cummax = np.maximum.accumulate(pay[::-1])
    limits = instance.capacity - instance.loads[rem]
    left = m - np.searchsorted(rev_cummax, limits, side="right")

    # precedence window for deliveries: strictly after the pickup position
    pos = np.full(instance.node_count, -1, dtype=int)
    pos[tour[::-1]] = np.arange(m - 1, -1, -1)
    is_delivery = rem > n_pairs
    mate_pos = pos[np.where(is_delivery, rem - n_pairs, 0)]
    left = np.maximum(left, np.where(is_delivery, np.where(mate_pos >= 0, mate_pos, m), 0))

    before, after = tour[:-1], tour[1:]
    added = cost[np.ix_(before, rem)].T + cost[np.ix_(rem, after)]
    replaced = cost[before, after]
    ratios = added / np.where(replaced > 0.0, replaced, 1.0)
    ratios[np.arange(m - 1)[None, :] < left[:, None]] = np.inf

    flat = int(np.argmin(ratios))  # row-major scan: lowest node id, then earliest slot
    row, slot = divmod(flat, m - 1)
    if not np.isfinite(ratios[row, slot]):
        return None
    return InsertionChoice(node=int(rem[row]), slot=int(slot), ratio=float(ratios[row, slot]))


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
