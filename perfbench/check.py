"""Independent output checks for the benchmark.

Nothing here calls the library under test.  The tour walk re-derives the
start-node event rule from the node-id convention (depot 0, pickups 1..n,
deliveries n+1..2n, unit loads) instead of trusting ``validate``, and every
cost is recomputed from the coordinates along the sequence.
"""

from __future__ import annotations

import hashlib
import math

#: relative slack for recomputed costs; cheapest insertion accumulates its
#: cost from insertion deltas, so it may differ from a plain sum in the last bits
COST_RTOL = 1e-9


def distance(a, b) -> float:
    return math.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1]))


def sequence_cost(coords, sequence) -> float:
    return float(sum(distance(coords[a], coords[b]) for a, b in zip(sequence, sequence[1:])))


def costs_agree(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(1.0, abs(a), abs(b))


def tour_error(coords, n_pairs: int, capacity: float, sequence, cost: float,
               start: int | None = None) -> str | None:
    """Why the closed unit-load tour is wrong, or None when it is a feasible tour of ``cost``.

    Event rule: every node changes the load at its visit; the start node fires
    at the opening visit, except a delivery start, which unloads at the
    closing visit.  The load must stay within [0, capacity] and end at 0.
    """
    seq = [int(v) for v in sequence]
    m = 2 * n_pairs + 1
    if len(seq) != m + 1 or seq[0] != seq[-1]:
        return f"not a closed tour over {m} nodes: {seq}"
    if sorted(seq[:-1]) != list(range(m)):
        return f"does not visit every node exactly once: {seq}"
    first = seq[0]
    if start is not None and first != start:
        return f"starts at {first}, expected {start}"
    picked: set[int] = set()
    load = 0
    for pos, v in enumerate(seq):
        opening, closing = pos == 0, pos == len(seq) - 1
        if closing:
            if first > n_pairs:
                load -= 1
        elif 1 <= v <= n_pairs:
            load += 1
            picked.add(v)
        elif v > n_pairs and not opening:
            if v - n_pairs not in picked:
                return f"delivery {v} at position {pos} precedes its pickup"
            load -= 1
        if not 0 <= load <= capacity:
            return f"load {load} outside [0, {capacity:g}] at position {pos}"
    if load != 0:
        return f"tour ends carrying {load}"
    recomputed = sequence_cost(coords, seq)
    if not costs_agree(recomputed, cost):
        return f"claimed cost {cost!r}, sequence costs {recomputed!r}"
    return None


def multistart_error(result, node_count: int) -> str | None:
    """Consistency of a multi-start result's per-start cost table."""
    starts = set(result.costs) | set(result.dead_ends)
    if set(result.costs) & set(result.dead_ends):
        return "a start is both costed and a dead end"
    if starts != set(range(node_count)):
        return f"starts tried {sorted(starts)} are not all {node_count} nodes"
    best = min(result.costs.values())
    best_init = min(i for i, c in result.costs.items() if c == best)
    if result.best_tour.cost != best or result.best_init != best_init:
        return f"best ({result.best_init}, {result.best_tour.cost!r}) is not the table minimum ({best_init}, {best!r})"
    if result.best_tour.sequence[0] != best_init:
        return "best tour does not start at its reported start"
    return None


def digest(*parts) -> str:
    """Short stable hash of the repr of the given values."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def array_digest(array) -> str:
    """Hash of a C-contiguous array's bytes, read in place rather than copied."""
    return hashlib.sha256(memoryview(array)).hexdigest()[:16]


def multistart_digest(result) -> tuple:
    return (sorted(result.costs.items()), tuple(result.dead_ends),
            result.best_init, tuple(result.best_tour.sequence), result.best_tour.cost)
