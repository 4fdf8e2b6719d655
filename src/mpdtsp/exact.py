"""Exact depot-rooted solvers for small instances.

``held_karp`` is the precedence dynamic program of Psaraftis (*Transp. Sci.*
14(2), 1980).  A partial tour from the depot leaves each pair untouched, on
board or delivered, so its state is a ternary code with one digit per pair
plus the node it stands at; the code fixes how many nodes were visited and
what is on board.  Layer t holds the codes of t visited nodes whose load fits,
and each layer is expanded into the next in numpy, with one gather, add and
argmin per target node.  Only two layers of costs are kept, plus a small
parent table per layer for reading the tour back.  It is the ground truth up
to :data:`HELD_KARP_PAIR_LIMIT` pairs.

``brute_force`` enumerates every interior order in which each pickup precedes
its delivery and judges all of them in one block check,
:func:`~mpdtsp.model.feasible_rows`; it is deliberately independent of the
dynamic program so the two can check each other.  It stops at
:data:`BRUTE_FORCE_PAIR_LIMIT` pairs.

Both return ``None`` when the instance provably admits no tour.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .model import Instance, Tour, feasible_rows

#: 12 pairs took 0.16-0.20 s and 9 MiB of peak RSS at Q=2, and 2.1-2.2 s and
#: 55 MiB at Q=12, where all 531,441 codes fit (2-core Xeon VM, BENCH_7.json)
HELD_KARP_PAIR_LIMIT = 12

#: factorial growth caps the enumeration oracle much earlier
BRUTE_FORCE_PAIR_LIMIT = 4


def held_karp(instance: Instance) -> Tour | None:
    """Minimum-cost depot-rooted tour, or None if the instance is infeasible.

    Ties: of the optimal tours, the one whose interior read from the last
    visit back is lexicographically smallest comes back.  That is the lowest
    last node, then, at each state on the way back, the lowest predecessor
    that reaches it at its minimum cost (numpy's ``argmin`` returns the first
    minimum).
    """
    n = instance.n_pairs
    if n > HELD_KARP_PAIR_LIMIT:
        raise ValueError(
            f"instance has {n} pairs; the exact solver is limited to {HELD_KARP_PAIR_LIMIT}"
        )
    if instance.is_trivially_infeasible:
        return None

    size = 2 * n
    into = np.ascontiguousarray(instance.cost.T)  # into[v, u]: cost of arc u -> v
    item = instance.loads[1 : n + 1]
    upper = instance.load_limit
    # digit k of a code is pair k+1's state: 0 untouched, 1 on board, 2 delivered
    power = 3 ** np.arange(n, dtype=np.int64)

    # acc[i, u]: cheapest path from the depot through the visits of codes[i]
    # that stands at node u (inf where it cannot); layer 0 stands at the depot
    codes = np.zeros(1, dtype=np.int64)
    acc = np.full((1, size + 1), np.inf)
    acc[0, 0] = 0.0
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(size):
        digits = (codes[:, None] // power % 3).astype(np.int8)
        load = np.zeros(len(codes))
        for k in range(n):
            load += np.where(digits[:, k] == 1, item[k], 0.0)
        # (target node, source rows, code step): pick up an untouched item
        # that fits, or deliver one on board
        moves = []
        for k in range(n):
            d = digits[:, k]
            moves.append((k + 1, np.flatnonzero((d == 0) & (load + item[k] <= upper)), power[k]))
            moves.append((k + 1 + n, np.flatnonzero(d == 1), power[k]))
        # serving the pairs one at a time always fits, so no layer is empty;
        # a plain sort is far faster here than np.unique
        prev = codes
        codes = np.sort(np.concatenate([prev[src] + step for _, src, step in moves]))
        codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
        nxt = np.full((len(codes), size + 1), np.inf)
        parent = np.zeros((len(codes), size + 1), dtype=np.int8)
        for v, src, step in moves:
            rows = np.searchsorted(codes, prev[src] + step)
            block = acc[src]
            block += into[v]
            best = block.argmin(axis=1)
            nxt[rows, v] = block[np.arange(len(src)), best]
            parent[rows, v] = best
        acc = nxt
        layers.append((codes, parent))

    # the last layer is the single code of every pair delivered
    closing = acc[0] + into[0]
    last = int(closing.argmin())
    sequence = []
    code, v = int(codes[0]), last
    for layer_codes, layer_parent in reversed(layers):
        sequence.append(v)
        u = int(layer_parent[np.searchsorted(layer_codes, code), v])
        code -= int(power[(v - 1) % n])  # v's pair digit drops back by one
        v = u
    return Tour((0, *reversed(sequence), 0), float(closing[last]))


def precedence_orders(n_pairs: int) -> Iterator[tuple[int, ...]]:
    """Orders of nodes 1..2n in which each pickup k comes before delivery n+k.

    They come in lexicographic order: (2n)!/2^n of them, 2,520 instead of
    40,320 for 4 pairs.
    """
    size = 2 * n_pairs
    order: list[int] = []
    placed = [False] * (size + 1)

    def extend() -> Iterator[tuple[int, ...]]:
        if len(order) == size:
            yield tuple(order)
            return
        for v in range(1, size + 1):
            if placed[v] or (v > n_pairs and not placed[v - n_pairs]):
                continue
            placed[v] = True
            order.append(v)
            yield from extend()
            order.pop()
            placed[v] = False

    return extend()


def brute_force(instance: Instance) -> Tour | None:
    """Optimal depot-rooted tour by full enumeration through the block check.

    Every precedence-respecting order, closed at the depot, is one row of a
    block that :func:`feasible_rows` judges at once.  The arcs are summed
    position by position, left to right, so each cost has the bits of
    :func:`~mpdtsp.model.tour_cost`.  Ties on cost resolve to the
    lexicographically smallest sequence: the orders come in lexicographic
    order and numpy's ``argmin`` returns the first minimum.
    """
    n = instance.n_pairs
    if n > BRUTE_FORCE_PAIR_LIMIT:
        raise ValueError(
            f"instance has {n} pairs; enumeration is limited to {BRUTE_FORCE_PAIR_LIMIT} pairs"
        )
    orders = np.array(list(precedence_orders(n)))
    tour = np.zeros((len(orders), 2 * n + 2), dtype=orders.dtype)
    tour[:, 1:-1] = orders
    tour = tour[feasible_rows(instance, tour[:, 0], tour)]
    if not tour.size:
        return None
    cost = np.zeros(len(tour))
    for a, b in zip(tour.T[:-1], tour.T[1:]):
        cost += instance.cost[a, b]
    best = int(cost.argmin())
    return Tour(tuple(tour[best].tolist()), float(cost[best]))
