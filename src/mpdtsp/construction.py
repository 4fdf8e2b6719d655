"""Shared machinery for multi-start tour construction.

Both greedy builders construct one tour per start node: nearest neighbor
grows every start's tour in one lock-step block, cheapest insertion runs its
starts one after another through :func:`run_multistart`.  The best tour is the
cheapest successful one, with ties broken by the lowest start id so results
never depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

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


def multistart_result(tours: dict[int, Tour], failures: dict[int, DeadEndError]) -> MultiStartResult:
    """The deterministic best of every start's outcome: lowest cost, then lowest start id."""
    if not tours:
        raise MultiStartError(failures)
    best_init = min(tours, key=lambda init: (tours[init].cost, init))
    return MultiStartResult(
        best_tour=tours[best_init],
        best_init=best_init,
        costs={init: tours[init].cost for init in sorted(tours)},
        stalls={init: (len(exc.partial), len(exc.remainder)) for init, exc in sorted(failures.items())},
    )


def run_multistart(
    instance: Instance,
    inits: Iterable[int] | None,
    construct: Callable[[Instance, int], Tour],
) -> MultiStartResult:
    """Run ``construct`` from every start and keep the deterministic best."""
    tours: dict[int, Tour] = {}
    failures: dict[int, DeadEndError] = {}
    for init in start_ids(instance, inits):
        try:
            tours[init] = construct(instance, init)
        except DeadEndError as exc:
            # without its traceback, whose frames would keep the stalled state alive
            failures[init] = exc.with_traceback(None)
    return multistart_result(tours, failures)


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
