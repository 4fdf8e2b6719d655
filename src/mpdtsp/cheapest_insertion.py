"""Multi-start cheapest-insertion construction with payload-vector tracking.

Each start keeps a closed partial tour (start node doubled) and the load on
board leaving every position.  A node may only be spliced into slots where
the rest of the tour still fits its load -- since the suffix maximum of the
payload is non-increasing, those slots form a contiguous suffix, the node's
window -- and a delivery only into slots after its pickup.  Among all
in-window (node, slot) cells the lowest insertion ratio (new arcs over the
replaced arc, or over 1 when that arc costs nothing, as in the opening move)
wins; ties go to the lowest node id, then the earliest slot.

The starts grow in :func:`construction.lockstep <mpdtsp.construction.lockstep>`
blocks of closed partial tours (:class:`CihBlock`), which also carry each
(start, node) precedence floor, the first slot precedence leaves the node.
The choice step, :func:`best_insertion`, derives every capacity window at
once, raises it to its floor, lays the in-window cells of all starts out in
one flat array, computes each cell's ratio afresh and reduces it per start;
a start with no cell stalls.  :func:`apply_insertion` splices every start's
choice in at once, adds the cost delta the choice hands over and moves the
floors past the slot up by one.  No ratio is kept between steps and no cell
outside a window is computed.  One start (:func:`cih_from`) is a one-row block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .construction import Block, MultiStartResult, run_multistart
from .model import Instance, Tour, payload_rows


@dataclass(eq=False)
class CihBlock(Block):
    """The closed partial tours of every live start (start node doubled).

    ``payload[r, :size]`` is the load on board leaving each position of row
    r.  ``floor[r, u]`` is node u's first slot: its pickup's position for a
    delivery, 0 for any other node, or ``SHUT`` while u is in the tour or its
    pickup out.  ``thresholds`` holds the distinct ``load_limit - loads``
    ascending, ``level[u]`` node u's index; ``opens[u]`` is the delivery a
    pickup u opens, and u itself for any other node.
    """

    ROWS = Block.ROWS + ("floor",)
    SHUT = 1 << 40  # past every slot of any tour, and a splice only raises it

    thresholds: np.ndarray = field(repr=False)
    level: np.ndarray = field(repr=False)
    floor: np.ndarray = field(repr=False)
    opens: np.ndarray = field(repr=False)

    @classmethod
    def initial(cls, instance: Instance, starts: list[int]) -> "CihBlock":
        n_nodes, n_pairs = instance.node_count, instance.n_pairs
        inits, row = np.array(starts), np.arange(len(starts))
        tour = np.zeros((inits.size, n_nodes + 1), dtype=int)
        tour[:, :2] = inits[:, None]
        payload = np.zeros(tour.shape)
        payload[:, :2] = payload_rows(instance, tour[:, :2])
        thresholds, level = np.unique(instance.load_limit - instance.loads, return_inverse=True)
        opens = np.arange(n_nodes)
        opens[1 : n_pairs + 1] += n_pairs
        # the start stands at position 0; a delivery start opens nothing, as opens[u] = u
        floor = np.zeros((inits.size, n_nodes), dtype=int)
        floor[:, n_pairs + 1 :] = cls.SHUT
        floor[row, opens[inits]] = 0
        floor[row, inits] = cls.SHUT
        return cls(inits, tour, payload, np.zeros(inits.size), 2, thresholds, level, floor, opens)


class InsertionChoice(NamedTuple):
    """Unless ``stalled``, a row inserts ``node`` after ``slot`` at ``ratio`` for ``delta``; ``cells`` scanned."""

    node: np.ndarray
    slot: np.ndarray
    ratio: np.ndarray
    delta: np.ndarray
    stalled: np.ndarray
    cells: int


def best_insertion(instance: Instance, state: CihBlock) -> InsertionChoice:
    """The lowest-ratio in-window insertion of every row of the block, or its stall.

    Ties go to the lowest node id, then the earliest slot.
    """
    m, n_rows = state.size, state.inits.size
    n_nodes, stride = instance.node_count, state.tour.shape[1]
    row = np.arange(n_rows)[:, None]

    # capacity window: node u fits from the first slot after which the payload
    # stays within its threshold.  The reversed running maximum of a row is
    # non-decreasing: its ranks among the thresholds, counted and summed up
    # per row, give the trailing positions that fit each threshold.
    rev_cummax = np.maximum.accumulate(state.payload[:, m - 1 :: -1], axis=1)
    n_levels = state.thresholds.size + 1
    rank = state.thresholds.searchsorted(rev_cummax) + row * n_levels
    fits = np.bincount(rank.ravel(), minlength=n_rows * n_levels).reshape(n_rows, -1)
    left = m - fits.cumsum(axis=1).take(state.level, axis=1)
    # precedence, and nodes already in the tour
    np.maximum(left, state.floor, out=left)
    width = np.maximum(m - 1 - left, 0).ravel()

    # the in-window cells in (row, node, slot) order; a window ends at the
    # row's last slot, so its cells are arcs r * stride + slot of the flat tour
    per_row = width.reshape(n_rows, -1).sum(axis=1)
    stalled = per_row == 0
    windows = width.nonzero()[0]
    counts = width[windows]
    ends = counts.cumsum()
    cells = int(ends[-1]) if ends.size else 0
    cell = np.arange(cells)
    window_row, window_node = np.divmod(windows, n_nodes)
    arc = cell + np.repeat(window_row * stride + m - 1 - ends, counts)
    node_row = np.repeat(window_node * n_nodes, counts)  # the node's row of the flat matrix
    tour, cost = state.tour.ravel(), instance.cost.ravel()
    a, b = tour[arc], tour[arc + 1]
    # (c[a,u] + c[u,b]) / c[a,b], or over 1 if c[a,b] is 0; c is symmetric, c[a,u] = c[u,a]
    replaced = cost[a * n_nodes + b]
    added = cost[node_row + a] + cost[node_row + b]
    ratio = added / np.where(replaced > 0.0, replaced, 1.0)

    # per row: the lowest ratio, then the first cell that reaches it
    per_row = per_row[~stalled]
    row_start = per_row.cumsum() - per_row
    best = np.minimum.reduceat(ratio, row_start)
    pick = np.minimum.reduceat(np.where(ratio == np.repeat(best, per_row), cell, cells), row_start)
    delta = added[pick] - replaced[pick]
    return InsertionChoice(node_row[pick] // n_nodes, arc[pick] % stride, best, delta, stalled, cells)


def apply_insertion(state: CihBlock, choice: InsertionChoice, instance: Instance) -> CihBlock:
    """Splice every row's chosen node in and roll its load through the tail of the tour.

    The block, updated in place and returned, must hold only rows not stalled.
    """
    m = state.size
    row = np.arange(state.inits.size)
    node, slot = choice.node, choice.slot
    tour, payload, floor = state.tour, state.payload, state.floor
    state.total += choice.delta

    # new position j (from 1 on) keeps old position j, or takes j - 1 past the slot
    later = np.arange(1, m + 1) > slot[:, None]
    np.copyto(tour[:, 1 : m + 1], tour[:, :m], where=later)
    tour[row, slot + 1] = node
    np.copyto(payload[:, 1 : m + 1], payload[:, :m] + instance.loads[node][:, None], where=later)
    # floors past the slot move with their positions; an inserted pickup opens
    # its delivery from its own position, unless that delivery is the start
    floor += floor > slot[:, None]
    opened = state.opens[node]
    floor[row, np.where(opened == state.inits, node, opened)] = slot + 1
    floor[row, node] = state.SHUT
    state.size = m + 1
    return state


def cih_best(instance: Instance, inits: Iterable[int] | None = None) -> MultiStartResult:
    """Cheapest insertion tour over the given starts (default: all nodes)."""
    cells_per_start = instance.node_count**2 // 4  # nodes x slots
    return run_multistart(instance, inits, CihBlock.initial, best_insertion, apply_insertion, cells_per_start)


# kept only because the benchmark's workloads (perfbench/workloads.py) call it
def cih_from(instance: Instance, init: int) -> Tour:
    """One cheapest-insertion tour from ``init``; :class:`MultiStartError` if it stalls."""
    return cih_best(instance, [init]).best_tour
