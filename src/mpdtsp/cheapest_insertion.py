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
blocks of closed partial tours (:class:`CihBlock`).  Its choice step,
:func:`best_insertion`, derives every (start, node) window at once, lays the
in-window cells of all starts out in one flat array, computes each cell's
ratio afresh and reduces it per start; a start with no cell stalls.
:func:`apply_insertion` splices every start's choice in at once.  No ratio is
kept between steps and no cell outside a window is computed.  A single start
(:func:`cih_from`) is :func:`cih_best` over that one start.
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
    r.  ``thresholds`` holds the distinct ``load_limit - loads`` ascending,
    ``level[u]`` node u's index.
    """

    thresholds: np.ndarray = field(repr=False)
    level: np.ndarray = field(repr=False)

    @classmethod
    def initial(cls, instance: Instance, starts: list[int]) -> "CihBlock":
        inits = np.array(starts)
        tour = np.zeros((inits.size, instance.node_count + 1), dtype=int)
        tour[:, :2] = inits[:, None]
        payload = np.zeros(tour.shape)
        payload[:, :2] = payload_rows(instance, tour[:, :2])
        thresholds, level = np.unique(instance.load_limit - instance.loads, return_inverse=True)
        return cls(inits, tour, payload, np.zeros(inits.size), 2, thresholds, level)


class InsertionChoice(NamedTuple):
    """Each row not ``stalled`` inserts ``node`` after ``slot`` at ``ratio``; ``cells`` were scanned."""

    node: np.ndarray
    slot: np.ndarray
    ratio: np.ndarray
    stalled: np.ndarray
    cells: int


def best_insertion(instance: Instance, state: CihBlock) -> InsertionChoice:
    """The lowest-ratio in-window insertion of every row of the block, or its stall.

    Ties go to the lowest node id, then the earliest slot.
    """
    m, n_rows = state.size, state.inits.size
    n_nodes, n_pairs = instance.node_count, instance.n_pairs
    tour = state.tour[:, :m]
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

    # position of every node (the start at its opening visit), m if absent
    first = np.full((n_rows, n_nodes), m)
    first[row, tour[:, :-1]] = np.arange(m - 1)
    # precedence: a delivery goes strictly after its pickup's position
    np.maximum(left[:, n_pairs + 1 :], first[:, 1 : n_pairs + 1], out=left[:, n_pairs + 1 :])
    # nodes already in the tour have no window at all
    left[row, tour[:, :-1]] = m
    width = np.maximum(m - 1 - left, 0)

    # the in-window cells in (row, node, slot) order, by arc id r * (m - 1) + slot
    per_row = width.sum(axis=1)
    stalled = per_row == 0
    windows = width.ravel().nonzero()[0]
    counts = width.ravel()[windows]
    cells = int(per_row.sum())
    cell = np.arange(cells)
    window_row, window_node = np.divmod(windows, n_nodes)
    offset = window_row * (m - 1) + left.ravel()[windows] - (counts.cumsum() - counts)
    arc = cell + np.repeat(offset, counts)
    node_row = np.repeat(window_node * n_nodes, counts)  # the node's row of the flat matrix
    a, b = tour[:, :-1].ravel(), tour[:, 1:].ravel()
    cost = instance.cost.ravel()
    # (c[a,u] + c[u,b]) / c[a,b], or over 1 if c[a,b] is 0; c is symmetric, c[a,u] = c[u,a]
    replaced = cost[a * n_nodes + b]
    divisor = np.where(replaced > 0.0, replaced, 1.0)
    ratio = (cost[node_row + a[arc]] + cost[node_row + b[arc]]) / divisor[arc]

    # per row: the lowest ratio, then the first cell that reaches it
    per_row = per_row[~stalled]
    row_start = per_row.cumsum() - per_row
    best = np.minimum.reduceat(ratio, row_start)
    pick = np.minimum.reduceat(np.where(ratio == np.repeat(best, per_row), cell, cells), row_start)
    return InsertionChoice(node_row[pick] // n_nodes, arc[pick] % (m - 1), best, stalled, cells)


def apply_insertion(state: CihBlock, choice: InsertionChoice, instance: Instance) -> CihBlock:
    """Splice every row's chosen node in and roll its load through the tail of the tour.

    The block, updated in place and returned, must hold only rows not stalled.
    """
    m = state.size
    row = np.arange(state.inits.size)
    node, slot = choice.node, choice.slot
    tour, payload, cost = state.tour, state.payload, instance.cost
    a, b = tour[row, slot], tour[row, slot + 1]
    state.total += cost[a, node] + cost[node, b] - cost[a, b]

    # new position j (from 1 on) keeps old position j, or takes j - 1 past the slot
    later = np.arange(1, m + 1) > slot[:, None]
    tour[:, 1 : m + 1] = np.where(later, tour[:, :m], tour[:, 1 : m + 1])
    tour[row, slot + 1] = node
    shifted = payload[:, :m] + instance.loads[node][:, None]
    payload[:, 1 : m + 1] = np.where(later, shifted, payload[:, 1 : m + 1])
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
