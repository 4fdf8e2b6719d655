"""Shared machinery for multi-start tour construction.

Both greedy builders grow one tour per start node, and both grow every
start's tour together, in one lock-step block: a builder is a function from
an instance and the start ids to the finished tours, the stalls, and its step
and cell counts.  :func:`run_multistart` is the one skeleton around a
builder: the start ids, the block, then :func:`multistart_result`.  The best
tour is the cheapest successful one, with ties broken by the lowest start id
so results never depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .model import Instance, InfeasibleInstanceError, Tour, validate


class DeadEndError(Exception):
    """Construction stalled: nodes remain but none passes both feasibility gates."""

    def __init__(self, init: int, partial: list[int], remainder: Iterable[int]):
        self.init = init
        self.partial = tuple(partial)
        self.remainder = tuple(sorted(remainder))
        super().__init__(
            f"dead end from start {init}: {len(self.remainder)} nodes unreachable "
            f"after partial tour {list(self.partial)}"
        )


class MultiStartError(Exception):
    """Every attempted start node failed to produce a tour."""

    def __init__(self, failures: dict[int, Exception]):
        self.failures = dict(failures)
        summary = "; ".join(f"init {i}: {e}" for i, e in sorted(failures.items())[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(f"no start produced a tour: {summary}{more}")


@dataclass(frozen=True)
class MultiStartResult:
    """Best tour over all attempted starts plus the per-start cost table."""

    best_tour: Tour
    best_init: int
    costs: dict[int, float]        # start id -> tour cost, successful starts only
    # start id -> (stall step, nodes left): the lengths of a DeadEndError's
    # partial tour and remainder, in ascending start order
    stalls: dict[int, tuple[int, int]]
    steps: int                     # nodes added over all starts
    cells: int                     # candidate cells the choice steps scanned

    @property
    def best_cost(self) -> float:
        return self.best_tour.cost

    @property
    def dead_ends(self) -> tuple[int, ...]:
        """Start ids that stalled, ascending."""
        return tuple(self.stalls)


def start_ids(instance: Instance, inits: Iterable[int] | None) -> list[int]:
    """The distinct physical start ids in ascending order (default: all nodes)."""
    if inits is None:
        return list(range(instance.node_count))
    ids = sorted({instance.normalize_node(i) for i in inits})
    if not ids:
        raise ValueError("inits must be nonempty")
    return ids


def multistart_result(
    tours: dict[int, Tour], failures: dict[int, DeadEndError], steps: int, cells: int
) -> MultiStartResult:
    """The deterministic best of every start's outcome: lowest cost, then lowest start id."""
    if not tours:
        raise MultiStartError(failures)
    best_init = min(tours, key=lambda init: (tours[init].cost, init))
    return MultiStartResult(
        best_tour=tours[best_init],
        best_init=best_init,
        costs={init: tours[init].cost for init in sorted(tours)},
        stalls={init: (len(exc.partial), len(exc.remainder)) for init, exc in sorted(failures.items())},
        steps=steps,
        cells=cells,
    )


#: what a lock-step builder returns: tours and stalls by start id, then its
#: step and cell counts
Outcome = tuple[dict[int, Tour], dict[int, DeadEndError], int, int]
Block = Callable[[Instance, list[int]], Outcome]


#: cells one step of a block may lay out; at 8 bytes a cell, 8 MiB an array
BLOCK_CELLS = 1 << 20


def run_multistart(
    instance: Instance, inits: Iterable[int] | None, block: Block, cells_per_start: int
) -> MultiStartResult:
    """Grow every start's tour with ``block`` and keep the deterministic best.

    ``cells_per_start`` bounds the cells one step of ``block`` lays out for a
    start.  Starts are independent, so they run in blocks of at most
    ``BLOCK_CELLS / cells_per_start`` starts.
    """
    starts = start_ids(instance, inits)
    size = max(1, BLOCK_CELLS // cells_per_start)
    tours, failures, steps, cells = block(instance, starts[:size])
    for i in range(size, len(starts), size):
        more_tours, more_failures, more_steps, more_cells = block(instance, starts[i : i + size])
        tours.update(more_tours)
        failures.update(more_failures)
        steps, cells = steps + more_steps, cells + more_cells
    return multistart_result(tours, failures, steps, cells)


def run_single(instance: Instance, init: int, block: Block) -> Tour:
    """One start as a one-row ``block``: its tour, or its :class:`DeadEndError` raised."""
    init = instance.normalize_node(init)
    tours, failures, _, _ = block(instance, [init])
    if failures:
        raise failures[init]
    return tours[init]


def stall_errors(
    instance: Instance, inits: np.ndarray, tours: np.ndarray, size: int, stalled: np.ndarray
) -> dict[int, DeadEndError]:
    """The :class:`DeadEndError` of each ``stalled`` block row, its partial tour ``tours[r, :size]``."""
    partials = {int(inits[r]): tours[r, :size].tolist() for r in stalled.nonzero()[0]}
    nodes = range(instance.node_count)
    return {init: DeadEndError(init, p, set(nodes).difference(p)) for init, p in partials.items()}


def finished_tours(
    instance: Instance, inits: np.ndarray, tours: np.ndarray, totals: np.ndarray
) -> dict[int, Tour]:
    """Every block row's tour by start id, each checked by :func:`check_construction`."""
    rows = zip(inits.tolist(), tours.tolist(), totals.tolist())
    return {init: check_construction(instance, Tour(tuple(seq), cost)) for init, seq, cost in rows}


def check_carriable(instance: Instance) -> None:
    """Precondition shared by both builders: every item fits on board alone."""
    if instance.is_trivially_infeasible:
        raise InfeasibleInstanceError(
            f"items {instance.oversized_items} exceed capacity {instance.capacity:g}"
        )


def check_construction(instance: Instance, tour: Tour) -> Tour:
    """Postcondition shared by both builders: the finished tour must validate."""
    report = validate(instance, tour)
    if not report.feasible:
        raise RuntimeError(
            f"constructed tour violates the constraint system ({report}); "
            "this is an implementation bug, not a data problem"
        )
    return tour
