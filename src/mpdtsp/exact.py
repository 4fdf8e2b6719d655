"""Exact depot-rooted solvers for small instances.

``held_karp`` runs a subset dynamic program over (visited set, last node)
states, expanding only along precedence- and capacity-feasible arcs, and is
the ground-truth optimum for up to a configurable number of pairs.
``brute_force`` enumerates every interior order in which each pickup precedes
its delivery and filters it through the tour validator; it is deliberately
independent of the dynamic program so the two can check each other.

Both return ``None`` when the instance provably admits no tour.
"""

from __future__ import annotations

from typing import Iterator

from .model import Instance, LOAD_TOLERANCE, Tour, tour_cost, validate

#: beyond this many pairs the subset DP no longer finishes at desk scale
HELD_KARP_PAIR_LIMIT = 10

#: factorial growth caps the enumeration oracle much earlier
BRUTE_FORCE_PAIR_LIMIT = 4


def held_karp(instance: Instance, pair_limit: int = HELD_KARP_PAIR_LIMIT) -> Tour | None:
    """Minimum-cost depot-rooted tour, or None if the instance is infeasible."""
    n = instance.n_pairs
    if n > pair_limit:
        raise ValueError(
            f"instance has {n} pairs; the exact solver is limited to {pair_limit} "
            "(raise pair_limit explicitly to override)"
        )
    if instance.is_trivially_infeasible:
        return None

    size = 2 * n
    cost = instance.cost
    loads = instance.loads
    upper = instance.load_limit

    # bit v-1 of a mask marks node v as visited (nodes 1..2n); the DP starts
    # at the depot with nothing visited, so its first step is the first hop
    parent: dict[tuple[int, int], int] = {}
    load_of_mask: dict[int, float] = {0: 0.0}
    layer: dict[tuple[int, int], float] = {(0, 0): 0.0}

    # every state of a layer has visited the same number of nodes, so full
    # masks can only be in the last nonempty layer
    full = (1 << size) - 1
    while layer:
        final = layer
        nxt: dict[tuple[int, int], float] = {}
        for (mask, last), acc in layer.items():
            if mask == full:
                continue
            load = load_of_mask[mask]
            for v in range(1, size + 1):
                bit = 1 << (v - 1)
                if mask & bit:
                    continue
                if v > n and not mask & (1 << (v - n - 1)):
                    continue  # delivery before its pickup
                new_load = load + float(loads[v])
                if new_load > upper or new_load < -LOAD_TOLERANCE:
                    continue
                new_mask = mask | bit
                candidate = acc + float(cost[last, v])
                key = (new_mask, v)
                known = nxt.get(key)
                if known is None or candidate < known:
                    nxt[key] = candidate
                    parent[key] = last
                    load_of_mask.setdefault(new_mask, new_load)
        layer = nxt

    closing = [
        (acc + float(cost[last, 0]), last)
        for (mask, last), acc in final.items()
        if mask == full
    ]
    if not closing:
        return None
    total, last = min(closing)

    sequence = [0]
    mask, v = full, last
    while v != 0:
        sequence.append(v)
        prev = parent[(mask, v)]
        mask ^= 1 << (v - 1)
        v = prev
    sequence.append(0)
    sequence[1:-1] = sequence[1:-1][::-1]
    return Tour(tuple(sequence), float(total))


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


def brute_force(instance: Instance, pair_limit: int = BRUTE_FORCE_PAIR_LIMIT) -> Tour | None:
    """Optimal depot-rooted tour by full enumeration through the validator.

    Every precedence-respecting order is enumerated and judged by
    :func:`validate`.  Ties on cost resolve to the lexicographically smallest
    sequence.
    """
    n = instance.n_pairs
    if n > pair_limit:
        raise ValueError(
            f"instance has {n} pairs; enumeration is limited to {pair_limit} pairs"
        )
    best_cost: float | None = None
    best_seq: tuple[int, ...] | None = None
    for order in precedence_orders(n):
        seq = (0, *order, 0)
        if not validate(instance, seq).feasible:
            continue
        c = tour_cost(instance, seq)
        if best_cost is None or c < best_cost or (c == best_cost and seq < best_seq):
            best_cost = c
            best_seq = seq
    if best_seq is None:
        return None
    return Tour(best_seq, best_cost)
