"""Multi-start nearest-neighbor construction with precedence and load gating.

From a chosen start node the tour is grown by repeatedly appending the
cheapest reachable node that (a) is not a delivery whose pickup is still
unvisited and (b) fits on board, then closing back to the start.  Starting at
a pickup begins with that item loaded; starting at a delivery begins empty and
unloads at the closing visit.  Running the construction from every node and
keeping the cheapest tour gives the multi-start solution.

Every start's partial tour has the same length after every step, so all
starts advance together, in lock step.  One step gates every (start, node)
pair for precedence and capacity at once and takes, for each start, the
argmin of its last node's cost row with the gated nodes masked out.  A start
with no admissible node stalls: it leaves the block, and its partial tour and
the nodes left are kept for its :class:`DeadEndError`.  A single start
(:func:`nnh_from`) is the same block with one row.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .construction import (
    DeadEndError,
    MultiStartResult,
    Outcome,
    check_carriable,
    finished_tours,
    run_multistart,
    run_single,
    stall_errors,
)
from .model import Instance, Tour, visit_events


def _lockstep(instance: Instance, starts: list[int]) -> Outcome:
    """Grow the tour of every start together: tours and stalls by start, steps and cells."""
    check_carriable(instance)
    n_nodes = instance.node_count
    n_pairs = instance.n_pairs
    cost = instance.cost
    loads = instance.loads

    inits = np.array(starts)
    rows = np.arange(inits.size)
    # a delivery start is visited from the outset, so its pickup opens nothing:
    # that delivery waits for the closing visit
    visited = np.zeros((inits.size, n_nodes), dtype=bool)
    visited[rows, inits] = True

    # on board leaving the start
    payload = np.array([visit_events(instance, (init, init))[0] for init in starts])
    total = np.zeros(inits.size)
    sequences = np.empty((inits.size, n_nodes + 1), dtype=int)
    sequences[:, 0] = inits
    failures: dict[int, DeadEndError] = {}
    steps = cells = 0

    for step in range(1, n_nodes):
        cells += inits.size * n_nodes
        admissible = ~visited & (payload[:, None] + loads <= instance.load_limit)
        # a delivery waits for its pickup
        admissible[:, n_pairs + 1 :] &= visited[:, 1 : n_pairs + 1]
        # ties on arc cost go to the lowest node id
        arcs = np.where(admissible, cost[sequences[:, step - 1]], np.inf)
        pick = arcs.argmin(axis=1)
        arc = arcs[rows, pick]
        stalled = arc == np.inf
        if stalled.any():
            failures.update(stall_errors(instance, inits, sequences, step, stalled))
            going = ~stalled
            inits, visited = inits[going], visited[going]
            payload, total, sequences = payload[going], total[going], sequences[going]
            pick, arc = pick[going], arc[going]
            rows = rows[: inits.size]
            if not inits.size:
                break
        total += arc
        payload += loads[pick]
        visited[rows, pick] = True
        sequences[:, step] = pick
        steps += inits.size

    sequences[:, n_nodes] = inits
    total += cost[sequences[:, n_nodes - 1], inits]
    return finished_tours(instance, inits, sequences, total), failures, steps, cells


def nnh_from(instance: Instance, init: int) -> Tour:
    """Build one nearest-neighbor tour from ``init``.

    Ties on arc cost go to the lowest node id.  Raises :class:`DeadEndError`
    when unvisited nodes remain but none passes both gates.
    """
    return run_single(instance, init, _lockstep)


def nnh_best(instance: Instance, inits: Iterable[int] | None = None) -> MultiStartResult:
    """Cheapest nearest-neighbor tour over the given starts (default: all nodes)."""
    return run_multistart(instance, inits, _lockstep, instance.node_count)
