"""Shared machinery for multi-start tour construction.

Both greedy builders grow one tour per start node, a node a step, and every
start's partial tour has the same length after every step, so all starts
advance together, in lock step.  A builder is its :class:`Block`'s
``initial`` plus a choose/apply pair, which it names at each call of
:func:`run_multistart`, so a wrapper set on its module sees every step.
:func:`lockstep` is the one step loop: each step ``choose`` picks the next
move of every row of the block, the rows that stalled leave with their
partial tours, and ``apply`` makes the moves of the rest.
The builders differ only in that pair: append the nearest node, or insert at
the cheapest ratio.
:func:`check_block` checks each finished block at once:
:func:`~mpdtsp.model.feasible_rows` applies the rules of
:func:`~mpdtsp.model.validate` to every row in one numpy pass, and each cost
total must match :func:`~mpdtsp.model.arc_sums`, the one sum of a tour's arcs.
:func:`run_multistart` keeps the cheapest finished tour, with ties broken by
the lowest start id so results never depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable

import numpy as np

from .model import Instance, InfeasibleInstanceError, Tour, arc_sums, feasible_rows, validate


class MultiStartError(Exception):
    """Every attempted start stalled; ``stalls`` maps each to (stall step, nodes left)."""

    def __init__(self, stalls: dict[int, tuple[int, int]]):
        self.stalls = dict(stalls)
        summary = "; ".join(f"start {i}: dead end at step {k}, {n} left"
                            for i, (k, n) in sorted(stalls.items())[:5])
        more = "" if len(stalls) <= 5 else f" (+{len(stalls) - 5} more)"
        super().__init__(f"no start produced a tour: {summary}{more}")


@dataclass(frozen=True)
class MultiStartResult:
    """Best tour over all attempted starts plus the per-start cost table."""

    best_tour: Tour
    best_init: int
    costs: dict[int, float]        # start id -> tour cost, successful starts only
    # start id -> (stall step, nodes left), in ascending start order; the
    # stall step is the number of distinct nodes placed, the step that stalled
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


@dataclass(eq=False)
class Block:
    """The partial tours of every live start, one row each, all of one length.

    Row r is start ``inits[r]``: tour ``tour[r, :size]``, load on board
    ``payload[r]``, cost ``total[r]`` (NNH's is set once closed).  ``ROWS``
    names the arrays that hold one row per start, which a stalled row leaves.
    """

    ROWS: ClassVar[tuple[str, ...]] = ("inits", "tour", "payload", "total")

    inits: np.ndarray
    tour: np.ndarray = field(repr=False)
    payload: np.ndarray = field(repr=False)
    total: np.ndarray
    size: int


def lockstep(
    instance: Instance, starts: list[int], rows: int, initial: Callable, choose: Callable, apply: Callable
) -> tuple[dict[int, Tour], dict[int, tuple[int, ...]], int, int]:
    """Grow the tour of every start, ``rows`` starts a block built by ``initial``, a node a step.

    Returns the tours and the stalled starts' partial tours by start id, then
    the step and cell counts.  Each step ``choice = choose(instance, block)``
    picks every row's move, or flags the row in ``choice.stalled``, having
    scanned ``choice.cells`` cells.  A stalled row leaves with its partial
    tour, ``block.tour[r, :block.size]``; ``apply(block, choice, instance)``
    moves the rest.  Each finished block is checked at once by :func:`check_block`.
    """
    check_carriable(instance)
    tours: dict[int, Tour] = {}
    stalls: dict[int, tuple[int, ...]] = {}
    steps = cells = 0
    for first in range(0, len(starts), rows):
        block = initial(instance, starts[first : first + rows])
        for _ in range(1, instance.node_count):
            choice = choose(instance, block)
            cells += choice.cells
            if np.count_nonzero(choice.stalled):
                for r in choice.stalled.nonzero()[0]:
                    stalls[int(block.inits[r])] = tuple(block.tour[r, : block.size].tolist())
                going = ~choice.stalled
                for name in block.ROWS:
                    setattr(block, name, getattr(block, name)[going])
                if not block.inits.size:
                    break
            apply(block, choice, instance)
            steps += block.inits.size
        check_block(instance, block)
        for init, seq, cost in zip(block.inits.tolist(), block.tour.tolist(), block.total.tolist()):
            tours[init] = Tour(tuple(seq), cost)
    return tours, stalls, steps, cells


#: cells one step of a block may lay out; at 8 bytes a cell, 8 MiB an array
BLOCK_CELLS = 1 << 20


def run_multistart(
    instance: Instance, inits: Iterable[int] | None, initial: Callable, choose: Callable, apply: Callable,
    cells_per_start: int,
) -> MultiStartResult:
    """Grow every start's tour by :func:`lockstep` and keep the deterministic best.

    The starts are the distinct physical ids of ``inits``, ascending (default:
    all nodes).  ``cells_per_start`` bounds the cells one step lays out for a
    start, so a block holds at most ``BLOCK_CELLS / cells_per_start`` starts.
    The best tour has the lowest cost, then the lowest start id.  A stalled
    start is reported by its stall step, the number of distinct nodes it
    placed, and the nodes left; if every start stalls, :class:`MultiStartError`
    is raised.
    """
    if inits is None:
        starts = list(range(instance.node_count))
    else:
        starts = sorted({instance.normalize_node(i) for i in inits})
        if not starts:
            raise ValueError("inits must be nonempty")
    rows = max(1, BLOCK_CELLS // cells_per_start)
    tours, partials, steps, cells = lockstep(instance, starts, rows, initial, choose, apply)
    # an open (NNH) and a closed (CIH, start doubled) partial tour count alike
    placed = {init: len(set(partial)) for init, partial in sorted(partials.items())}
    stalls = {init: (k, instance.node_count - k) for init, k in placed.items()}
    if not tours:
        raise MultiStartError(stalls)
    best_init = min(tours, key=lambda init: (tours[init].cost, init))
    return MultiStartResult(
        best_tour=tours[best_init],
        best_init=best_init,
        costs={init: tours[init].cost for init in sorted(tours)},
        stalls=stalls,
        steps=steps,
        cells=cells,
    )


def check_carriable(instance: Instance) -> None:
    """Precondition shared by both builders: every item fits on board alone."""
    if instance.is_trivially_infeasible:
        raise InfeasibleInstanceError(
            f"items {instance.oversized_items} exceed capacity {instance.capacity:g}"
        )


def check_block(instance: Instance, block: Block) -> None:
    """Postcondition of a finished block: every row is a feasible tour whose cost total sums its arcs.

    The rows are checked at once by :func:`~mpdtsp.model.feasible_rows`; the
    first one it rejects is reported by :func:`~mpdtsp.model.validate`.
    """
    bad = ~feasible_rows(instance, block.inits, block.tour)
    if bad.any():
        r = bad.argmax()
        seq = block.tour[r].tolist()
        report = validate(instance, seq)
        detail = report if not report.feasible else f"it opens at {seq[0]}, not at start {block.inits[r]}"
        raise RuntimeError(
            f"constructed tour violates the constraint system ({detail}); "
            "this is an implementation bug, not a data problem"
        )
    arcs = arc_sums(instance, block.tour)
    # NNH's total is this very sum, so this checks only CIH's, added splice by splice:
    # it agrees to rounding, within 1e-9 (an all-zero tour passes); test_arc_sums.py holds NNH's
    off = np.abs(block.total - arcs) > 1e-9 * arcs
    if off.any():
        r = off.argmax()
        raise RuntimeError(
            f"the tour from start {block.inits[r]} has cost total {block.total[r]!r} but its arcs "
            f"sum to {arcs[r]!r}; this is an implementation bug, not a data problem"
        )
