"""Exact depot-rooted solvers for small instances.

``held_karp`` is the precedence dynamic program of Psaraftis (*Transp. Sci.*
14(2), 1980).  A partial tour from the depot leaves each pair untouched, on
board or delivered, so its state is a ternary code with one digit per pair
plus the node it stands at; the code fixes how many nodes were visited and
what is on board.  Layer t holds the codes of t visited nodes whose load fits,
and each layer is expanded into the next by a fixed handful of numpy calls:
one ``nonzero`` over a (node x code) gate finds every move, a sort gives the
next layer's codes, and the moves' costs are gathered, added and
``argmin``-ed in chunks of at most :data:`LAYER_CHUNK_CELLS` cells.  The
chunks' scratch is allocated once per call, and every chunk of every layer
writes a prefix of it.  Only two layers of costs are kept, plus a small parent
table per layer for reading the tour back.  It is the ground truth up to
:data:`HELD_KARP_PAIR_LIMIT` pairs.

``brute_force`` enumerates every interior order in which each pickup precedes
its delivery, a position at a time, then judges and costs them all at once
(:func:`~mpdtsp.model.feasible_rows`, :func:`~mpdtsp.model.arc_sums`); it is
deliberately independent of the dynamic program so the two can check each
other.  It stops at :data:`BRUTE_FORCE_PAIR_LIMIT` pairs.

Both return ``None`` when the instance provably admits no tour.
"""

from __future__ import annotations

import numpy as np

from .model import Instance, Tour, arc_sums, feasible_rows

#: 12 pairs took 0.07-0.08 s and a traced peak of 11 MiB at Q=2, and 0.8-0.9 s
#: and 56 MiB at Q=12, where all 531,441 codes fit (2-core Xeon VM, BENCH_26.json)
HELD_KARP_PAIR_LIMIT = 12

#: factorial growth caps the enumeration oracle much earlier
BRUTE_FORCE_PAIR_LIMIT = 4

#: (move x node) cells one chunk of a held_karp layer lays out; its two
#: float64 gathers, of path costs and of arc costs, write into a scratch of
#: 128 KiB each that is allocated once per call, not once per layer
LAYER_CHUNK_CELLS = 1 << 14


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
    width = size + 1
    into = np.ascontiguousarray(instance.cost.T)  # into[v, u]: cost of arc u -> v
    item = instance.loads[1 : n + 1, None]
    upper = instance.load_limit
    # digit k of a code is pair k+1's state: 0 untouched, 1 on board, 2
    # delivered; the 3**12 codes fit in int32
    power = 3 ** np.arange(n, dtype=np.int32)
    step = np.concatenate([power, power])  # a visit to node v raises digit (v - 1) % n
    row = np.empty(3**n, dtype=np.int32)  # row[code]: its row in the layer just built
    per_chunk = max(1, LAYER_CHUNK_CELLS // width)
    first = np.arange(0, per_chunk * width, width)  # flat index of each chunk row's cell 0
    # one chunk's path costs and arc costs, for every chunk of every layer
    paths, arcs = np.empty((2, per_chunk, width))

    # acc[i, u]: cheapest path from the depot through the visits of codes[i]
    # that stands at node u (inf where it cannot); layer 0 stands at the depot
    codes = np.zeros(1, dtype=np.int32)
    acc = np.full((1, width), np.inf)
    acc[0, 0] = 0.0
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(size):
        digits = codes // power[:, None] % 3  # (pair, code)
        load = np.where(digits == 1, item, 0.0).sum(axis=0)  # added pair by pair
        # gate[v - 1, i]: codes[i] may move to node v, picking up an untouched
        # item that fits or delivering one on board
        gate = np.concatenate([(digits == 0) & (load + item <= upper), digits == 1])
        node, src = np.nonzero(gate)  # every move, grouped by target node
        new = codes[src] + step[node]
        # serving the pairs one at a time always fits, so no layer is empty;
        # a plain sort is far faster here than np.unique
        codes = np.sort(new)
        codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
        row[codes] = np.arange(len(codes), dtype=np.int32)
        # narrow the moves before the next layer's tables exist, and find the
        # flat (code, node) cell each writes: no two moves write the same one
        src = src.astype(np.int32)
        target = (node + 1).astype(np.int8)
        cell = row[new] * width + target
        del node, new
        nxt = np.full((len(codes), width), np.inf)
        parent = np.zeros((len(codes), width), dtype=np.int8)
        # each chunk writes a prefix of the scratch; "clip" only spares
        # np.take a buffer, as every index is in range
        for lo in range(0, len(src), per_chunk):
            hi = lo + per_chunk
            u, v, at = src[lo:hi], target[lo:hi], cell[lo:hi]
            block = np.take(acc, u, axis=0, out=paths[: len(u)], mode="clip")
            block += np.take(into, v, axis=0, out=arcs[: len(u)], mode="clip")
            best = block.argmin(axis=1)
            nxt.reshape(-1)[at] = block.reshape(-1)[first[: len(u)] + best]
            parent.reshape(-1)[at] = best
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


def precedence_orders(n_pairs: int) -> np.ndarray:
    """The (orders x 2n) array of the orders of nodes 1..2n in which each
    pickup k comes before delivery n+k.

    Its rows are in lexicographic order: (2n)!/2^n of them, 2,520 instead of
    40,320 for 4 pairs.  It is built a position at a time, each row
    extended by every node it may take next, in increasing order.
    """
    size = 2 * n_pairs
    orders = np.zeros((1, 0), dtype=np.int64)
    placed = np.zeros((1, size), dtype=bool)  # placed[r, v - 1]: row r holds node v
    for _ in range(size):
        free = ~placed
        free[:, n_pairs:] &= placed[:, :n_pairs]  # a delivery waits for its pickup
        rows, cols = np.nonzero(free)
        orders = np.column_stack([orders[rows], cols + 1])
        placed = placed[rows]
        placed[np.arange(len(rows)), cols] = True
    return orders


def brute_force(instance: Instance) -> Tour | None:
    """Optimal depot-rooted tour by full enumeration through the block check.

    Every precedence-respecting order, closed at the depot, is one row of a
    block that :func:`feasible_rows` judges and :func:`arc_sums` costs at
    once, with the bits of :func:`~mpdtsp.model.tour_cost`.  Ties on cost go
    to the lexicographically smallest sequence: the orders come in
    lexicographic order and numpy's ``argmin`` returns the first minimum.
    """
    n = instance.n_pairs
    if n > BRUTE_FORCE_PAIR_LIMIT:
        raise ValueError(
            f"instance has {n} pairs; enumeration is limited to {BRUTE_FORCE_PAIR_LIMIT} pairs"
        )
    orders = precedence_orders(n)
    tour = np.zeros((len(orders), 2 * n + 2), dtype=orders.dtype)
    tour[:, 1:-1] = orders
    tour = tour[feasible_rows(instance, tour[:, 0], tour)]
    if not tour.size:
        return None
    cost = arc_sums(instance, tour)
    best = int(cost.argmin())
    return Tour(tuple(tour[best].tolist()), float(cost[best]))
