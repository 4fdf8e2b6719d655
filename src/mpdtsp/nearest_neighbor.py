"""Multi-start nearest-neighbor construction with precedence and load gating.

From a chosen start node the tour is grown by repeatedly appending the
cheapest reachable node that (a) is not a delivery whose pickup is still
unvisited and (b) fits on board, then closing back to the start.  Starting at
a pickup begins with that item loaded; starting at a delivery begins empty and
unloads at the closing visit.  Running the construction from every node and
keeping the cheapest tour gives the multi-start solution.

The starts grow in :func:`construction.lockstep <mpdtsp.construction.lockstep>`
blocks.  Its choice step, :func:`nearest`, gates every (start, node) pair for
precedence and capacity at once and takes, for each start, the argmin of its
last node's cost row with the gated nodes masked out; a start with no
admissible node stalls.  :func:`extend` appends every start's choice and
costs each closed tour by :func:`~mpdtsp.model.arc_sums`.  A single start
(:func:`nnh_from`) is :func:`nnh_best` over that one start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .construction import Block, MultiStartResult, run_multistart
from .model import Instance, Tour, arc_sums, payload_rows


@dataclass(eq=False)
class NnhBlock(Block):
    """The open partial tours of every live start; ``visited[r, u]`` once row r holds node u.

    A tour row starts filled with its start, so its closing visit is in place.
    """

    ROWS = Block.ROWS + ("visited",)

    visited: np.ndarray = field(repr=False)

    @classmethod
    def initial(cls, instance: Instance, starts: list[int]) -> "NnhBlock":
        inits = np.array(starts)
        tour = np.repeat(inits[:, None], instance.node_count + 1, axis=1)
        # a delivery start is visited from the outset, so its pickup opens
        # nothing: that delivery waits for the closing visit
        visited = np.zeros((inits.size, instance.node_count), dtype=bool)
        visited[np.arange(inits.size), inits] = True
        payload = payload_rows(instance, tour[:, :2])[:, 0]
        return cls(inits, tour, payload, np.zeros(inits.size), 1, visited)


class NearestChoice(NamedTuple):
    """Each row not ``stalled`` appends ``node``; ``cells`` were scanned."""

    node: np.ndarray
    stalled: np.ndarray
    cells: int


def nearest(instance: Instance, block: NnhBlock) -> NearestChoice:
    """The cheapest admissible next node of every row of the block, or its stall.

    Ties on arc cost go to the lowest node id.
    """
    n_pairs, visited = instance.n_pairs, block.visited
    admissible = ~visited & (block.payload[:, None] + instance.loads <= instance.load_limit)
    # a delivery waits for its pickup
    admissible[:, n_pairs + 1 :] &= visited[:, 1 : n_pairs + 1]
    arcs = np.where(admissible, instance.cost[block.tour[:, block.size - 1]], np.inf)
    node = arcs.argmin(axis=1)
    stalled = arcs[np.arange(node.size), node] == np.inf
    if np.count_nonzero(stalled):
        node = node[~stalled]
    return NearestChoice(node, stalled, arcs.size)


def extend(block: NnhBlock, choice: NearestChoice, instance: Instance) -> NnhBlock:
    """Append every row's chosen node; the block, updated in place, holds no stalled row."""
    node = choice.node
    block.payload += instance.loads[node]
    block.visited[np.arange(node.size), node] = True
    block.tour[:, block.size] = node
    block.size += 1
    if block.size == instance.node_count:  # closed, as the closing visit is in place
        block.total = arc_sums(instance, block.tour)
    return block


def nnh_best(instance: Instance, inits: Iterable[int] | None = None) -> MultiStartResult:
    """Cheapest nearest-neighbor tour over the given starts (default: all nodes)."""
    return run_multistart(instance, inits, NnhBlock.initial, nearest, extend, instance.node_count)


# kept only because the benchmark's workloads (perfbench/workloads.py) call it
def nnh_from(instance: Instance, init: int) -> Tour:
    """One nearest-neighbor tour from ``init``; :class:`MultiStartError` if it stalls."""
    return nnh_best(instance, [init]).best_tour
