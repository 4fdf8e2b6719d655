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
(start, node) precedence floor, the first slot precedence leaves the node,
and the row and node index bases every step reads, built once a block.
The choice step, :func:`best_insertion`, derives every capacity window at
once from the live load levels, raises it to its floor, lays the in-window
cells of all starts out in one flat array, computes each cell's ratio afresh
and reduces it per start; a start with no cell stalls.  :func:`apply_insertion`
splices every start's choice in at once, adds the cost delta the choice hands
over and moves the floors past the slot up by one.  No ratio is kept between
steps and no cell outside a window is computed.  One start (:func:`cih_from`)
is a one-row block.
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
    pickup out.  ``opens[r, u]`` is the delivery a pickup u opens, or u itself
    (any other node, and a delivery start's own pickup).  ``thresholds`` holds
    the distinct ``load_limit - loads`` ascending; node u's level is the index
    of its own.  ``spread[k, u]`` is 1 + u's level if that is one of the k
    lowest, else 0.  ``breaks[r, 1 + k, 1 + j]`` compares row r's payload at
    position j with level k, behind a True column 0 and a level row 0 that stay
    as built; it has rows for every level a payload can exceed.  The buffers
    and index bases, built once, go by a row's position, not its start, so
    they stay out of ``ROWS`` and hold after a stall compacts the rows: entry
    r * N + u of ``arc_base`` is r * stride, r's first cell of the flat tour,
    and of ``node_base`` u * N, u's row of the flat cost matrix.
    """

    ROWS = Block.ROWS + ("floor", "opens")
    SHUT = 1 << 40  # past every slot of any tour, and a splice only raises it

    thresholds: np.ndarray = field(repr=False)
    spread: np.ndarray = field(repr=False)
    floor: np.ndarray = field(repr=False)
    opens: np.ndarray = field(repr=False)
    breaks: np.ndarray = field(repr=False)
    arc_base: np.ndarray = field(repr=False)
    node_base: np.ndarray = field(repr=False)

    @classmethod
    def initial(cls, instance: Instance, starts: list[int]) -> "CihBlock":
        n_nodes, n_pairs = instance.node_count, instance.n_pairs
        inits, row = np.array(starts), np.arange(len(starts))
        tour = np.zeros((inits.size, n_nodes + 1), dtype=int)
        tour[:, :2] = inits[:, None]
        payload = np.zeros(tour.shape)
        payload[:, :2] = payload_rows(instance, tour[:, :2])
        limits = instance.load_limit - instance.loads
        thresholds, level = np.unique(limits, return_inverse=True)
        # no load on board exceeds the most a splice can leave, fl(fl(L - l) + l)
        levels = thresholds.searchsorted((limits + instance.loads).max())
        nodes = np.arange(n_nodes)
        opens = np.tile(nodes, (inits.size, 1))
        opens[:, 1 : n_pairs + 1] += n_pairs
        np.copyto(opens, nodes, where=opens == inits[:, None])  # a delivery start's own pickup
        # the start stands at position 0
        floor = np.zeros((inits.size, n_nodes), dtype=int)
        floor[:, n_pairs + 1 :] = cls.SHUT
        floor[row, opens[row, inits]] = 0
        floor[row, inits] = cls.SHUT
        spread = np.where(level < np.arange(levels + 1)[:, None], level + 1, 0)
        breaks = np.zeros((inits.size, levels + 1, n_nodes), dtype=bool)
        breaks[:, :, 0] = True
        arc_base = (row * tour.shape[1]).repeat(n_nodes)
        node_base = np.tile(nodes * n_nodes, inits.size)
        return cls(inits, tour, payload, np.zeros(inits.size), 2, thresholds, spread, floor, opens, breaks,
                   arc_base, node_base)


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

    # capacity window: node u fits the slots after the last position whose
    # payload exceeds u's threshold; the closing position, which carries no
    # more than the one before it, is left out.  Only the live levels, those
    # below the block's top payload, are compared; read backwards, a level's
    # compare first turns True after as many slots as fit, so level row 0,
    # never written, fits them all
    live = state.thresholds.searchsorted(state.payload[:, :m].max())
    width = np.subtract(m - 1, state.floor)  # precedence, and nodes already in the tour
    if live:
        breaks = state.breaks[:n_rows, : live + 1, :m]
        np.greater(state.payload[:, None, : m - 1], state.thresholds[:live, None], out=breaks[:, 1:, 1:])
        fit = breaks[:, :, ::-1].argmax(axis=2)
        np.minimum(width, fit.take(state.spread[live], axis=1), out=width)
    np.maximum(width, 0, out=width)

    # the in-window cells in (row, node, slot) order; a window ends at the
    # row's last slot, so its cells are arcs r * stride + slot of the flat tour
    per_row = width.sum(axis=1)
    stalled = per_row == 0
    width = width.ravel()
    windows = (width > 0).nonzero()[0]
    counts = width[windows]
    ends = np.add.accumulate(counts)
    cells = int(ends[-1]) if ends.size else 0
    cell = np.arange(cells)
    arc = cell + (state.arc_base[windows] - ends + (m - 1)).repeat(counts)
    node_row = state.node_base[windows].repeat(counts)  # the node's row of the flat matrix
    tour, cost = state.tour.ravel(), instance.cost.ravel()
    a, b = tour[arc], tour[1:][arc]
    # (c[a,u] + c[u,b]) / c[a,b], or over 1 if c[a,b] is 0; c is symmetric, c[a,u] = c[u,a]
    replaced = cost[a * n_nodes + b]
    added = cost[node_row + a]
    added += cost[node_row + b]
    ratio = added / np.where(replaced > 0.0, replaced, 1.0)

    # per row: the lowest ratio, then the first cell that reaches it
    if np.count_nonzero(stalled):
        per_row = per_row[~stalled]
    row_start = np.add.accumulate(per_row) - per_row
    best = np.minimum.reduceat(ratio, row_start)
    pick = np.minimum.reduceat(np.where(ratio == best.repeat(per_row), cell, cells), row_start)
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
    at = slot + 1
    later = np.arange(1, m + 1) > slot[:, None]
    np.copyto(tour[:, 1 : m + 1], tour[:, :m], where=later)
    tour[row, at] = node
    np.copyto(payload[:, 1 : m + 1], payload[:, :m] + instance.loads[node][:, None], where=later)
    # floors past the slot move with their positions; an inserted pickup opens
    # its delivery from its own position, unless that delivery is the start
    floor += floor > slot[:, None]
    floor[row, state.opens[row, node]] = at
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
