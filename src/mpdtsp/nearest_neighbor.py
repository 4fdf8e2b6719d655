"""Multi-start nearest-neighbor construction with precedence and load gating.

From a chosen start node the tour is grown by repeatedly appending the
cheapest reachable node that (a) is not a delivery whose pickup is still
unvisited and (b) fits on board, then closing back to the start.  Starting at
a pickup begins with that item loaded; starting at a delivery begins empty and
unloads at the closing visit.  Running the construction from every node and
keeping the cheapest tour gives the multi-start solution.
"""

from __future__ import annotations

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


def nnh_from(instance: Instance, init: int) -> Tour:
    """Build one nearest-neighbor tour from ``init``.

    Ties on arc cost go to the lowest node id.  Raises :class:`DeadEndError`
    when unvisited nodes remain but none passes both gates.
    """
    check_carriable(instance)
    init = instance.normalize_node(init)
    n_pairs = instance.n_pairs
    cost_matrix = instance.cost
    loads = instance.loads

    is_delivery = np.zeros(instance.node_count, dtype=bool)
    is_delivery[n_pairs + 1 :] = True
    mate = np.where(is_delivery, np.arange(instance.node_count) - n_pairs, 0)

    visited = np.zeros(instance.node_count, dtype=bool)
    visited[init] = True
    remainder = np.array([v for v in range(instance.node_count) if v != init], dtype=int)
    payload = visit_events(instance, (init, init))[0]  # on board leaving the start
    sequence = [init]
    total = 0.0
    last = init

    while remainder.size:
        precedence_ok = ~is_delivery[remainder] | visited[mate[remainder]]
        fits = payload + loads[remainder] <= instance.load_limit
        feasible = precedence_ok & fits
        if not feasible.any():
            raise DeadEndError(init, sequence, remainder.tolist())
        candidates = remainder[feasible]
        pick = int(candidates[np.argmin(cost_matrix[last, candidates])])
        total += float(cost_matrix[last, pick])
        payload += float(loads[pick])
        visited[pick] = True
        sequence.append(pick)
        last = pick
        remainder = remainder[remainder != pick]

    sequence.append(init)
    total += float(cost_matrix[last, init])
    return check_construction(instance, Tour(tuple(sequence), total))


def nnh_best(instance: Instance, inits: Iterable[int] | None = None) -> MultiStartResult:
    """Cheapest nearest-neighbor tour over the given starts (default: all nodes)."""
    return run_multistart(instance, inits, nnh_from)
