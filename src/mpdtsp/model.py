"""Core data model: instances, tours, payload profiles and the feasibility validator.

An instance with ``n`` commodity pairs has physical nodes ``0..2n``: the depot
is node 0, pickups are ``1..n`` and deliveries are ``n+1..2n``, with pickup
``k`` paired to delivery ``n+k``.  The id ``2n+1`` is accepted everywhere as
an alias of the depot (a tour conventionally terminates at it) and is
collapsed onto node 0 so the cost matrix has no degenerate zero-cost arc.

An instance is its node coordinates, loads, capacity and metric.  The
constructor derives the pair count and the cost matrix from the coordinates:
the TSPLIB distance of each node pair under the instance's metric, exact or
rounded Euclidean.  No instance can carry a hand-written matrix, costs are
symmetric with a zero diagonal, and :meth:`Instance.with_metric` re-derives
them under the other metric.

Payload semantics are event based: every node contributes its load ``q`` at
its visit position.  The start node of a closed tour occurs twice; its event
fires at the opening occurrence when it is a pickup or the depot, and at the
closing occurrence when it is a delivery.  This is the unique convention under
which any-start tours carry a well-defined load and end the tour empty.
:func:`visit_events` is the one place that applies it; the payload profile,
the validator and both builders' initial loads all take it from there.

Every load check reads one upper bound, :attr:`Instance.load_limit` (the
capacity plus :data:`LOAD_TOLERANCE`), so scaling all loads and the capacity
by one factor cannot change a tour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Sequence, Union

import numpy as np

from .tsplib import MetricMode, tsplib_distance

#: absolute slack for load comparisons (loads are exact for unit masses; the
#: slack only matters for real-valued masses, whose partial sums round)
LOAD_TOLERANCE = 1e-9


class Role(Enum):
    DEPOT = "depot"
    PICKUP = "pickup"
    DELIVERY = "delivery"


class InfeasibleInstanceError(Exception):
    """The instance admits no feasible tour (some item exceeds capacity)."""


def paired_loads(item_loads: Sequence[float]) -> np.ndarray:
    """Full per-node load vector ``[0, +q_1..+q_n, -q_1..-q_n]`` for n items."""
    items = np.asarray(item_loads, dtype=float)
    return np.concatenate(([0.0], items, -items))


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data for a single capacitated agent.

    The constructor takes the node coordinates and derives ``n_pairs`` and
    the cost matrix from them, so no instance carries a hand-written matrix.
    Fields are validated on construction.
    """

    coords: np.ndarray        # (2n+1, 2), the nodes' planar positions
    loads: np.ndarray         # (2n+1,), loads[0] == 0, loads[n+k] == -loads[k]
    capacity: float
    metric: MetricMode
    name: str = ""
    meta: Mapping[str, str] = field(default_factory=dict)
    n_pairs: int = field(init=False)
    cost: np.ndarray = field(init=False)   # (2n+1, 2n+1), symmetric, zero diagonal

    def __post_init__(self):
        if self.coords.ndim != 2 or self.coords.shape[1] != 2:
            raise ValueError("coords must be an (m, 2) array")
        m = self.coords.shape[0]
        if m < 3 or m % 2 == 0:
            raise ValueError(f"coordinate count must be odd and >= 3 (2n+1 nodes), got {m}")
        if not np.isfinite(self.coords).all():
            # checked before the distances, so a bad point builds no matrix
            raise ValueError("coords must be finite")
        n = (m - 1) // 2
        object.__setattr__(self, "n_pairs", n)
        object.__setattr__(self, "cost", _coordinate_cost_matrix(self.coords, self.metric))
        if not np.isfinite(self.cost).all():
            # finite points can still be too far apart for a float distance
            raise ValueError("cost matrix entries must be finite")
        if self.loads.shape != (m,):
            raise ValueError(f"load vector must have length {m}, got {self.loads.shape}")
        if not np.isfinite(self.loads).all():
            raise ValueError("loads must be finite")
        if self.loads[0] != 0:
            raise ValueError("depot load must be zero")
        if np.any(self.loads[1 : n + 1] <= 0):
            raise ValueError("pickup loads must be positive")
        if np.any(self.loads[n + 1 :] != -self.loads[1 : n + 1]):
            raise ValueError("delivery loads must exactly negate their pickup loads")
        if not np.isfinite(self.capacity):
            raise ValueError(f"capacity must be finite, got {self.capacity!r}")
        if self.capacity < 0:
            raise ValueError("capacity must be nonnegative")

    # -- structure ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of physical nodes, ``2n + 1``."""
        return 2 * self.n_pairs + 1

    @property
    def terminal_alias(self) -> int:
        """Logical id of the tour terminal; same physical location as the depot."""
        return 2 * self.n_pairs + 1

    @property
    def pickups(self) -> range:
        return range(1, self.n_pairs + 1)

    @property
    def deliveries(self) -> range:
        return range(self.n_pairs + 1, 2 * self.n_pairs + 1)

    def normalize_node(self, node: int) -> int:
        """Map the terminal alias onto the depot; reject out-of-range ids."""
        node = int(node)
        if node == self.terminal_alias:
            return 0
        if not 0 <= node < self.node_count:
            raise ValueError(f"node id {node} out of range for {self.n_pairs}-pair instance")
        return node

    def role(self, node: int) -> Role:
        node = self.normalize_node(node)
        if node == 0:
            return Role.DEPOT
        return Role.PICKUP if node <= self.n_pairs else Role.DELIVERY

    def pair_index(self, node: int) -> int:
        """1-based commodity index of a pickup or delivery node."""
        node = self.normalize_node(node)
        if node == 0:
            raise ValueError("the depot carries no commodity")
        return node if node <= self.n_pairs else node - self.n_pairs

    @cached_property
    def _load_list(self) -> list[float]:
        # plain-list view of the loads; scalar indexing into the array is far
        # too slow for the enumeration oracle, which validates millions of tours
        return self.loads.tolist()

    # -- capacity ------------------------------------------------------------

    @property
    def load_limit(self) -> float:
        """The upper bound on the load on board, the only one any check reads."""
        return self.capacity + LOAD_TOLERANCE

    @property
    def oversized_items(self) -> tuple[int, ...]:
        """Pickup ids whose item alone exceeds the capacity."""
        return tuple(int(i) for i in self.pickups if self.loads[i] > self.load_limit)

    @property
    def is_trivially_infeasible(self) -> bool:
        """True when some single item cannot be carried at all."""
        return bool(self.oversized_items)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_coords(
        cls,
        coords: Sequence[Sequence[float]] | np.ndarray,
        loads: Sequence[float] | np.ndarray,
        capacity: float,
        metric: MetricMode = MetricMode.EXACT,
        name: str = "",
        meta: Mapping[str, str] | None = None,
    ) -> "Instance":
        """Build an instance from node coordinates (depot first, then pickups, then deliveries)."""
        return cls(
            np.asarray(coords, dtype=float), np.asarray(loads, dtype=float), float(capacity),
            metric, name, dict(meta or {}),
        )

    def with_capacity(self, capacity: float) -> "Instance":
        """Same geometry and loads under a different capacity."""
        return replace(self, capacity=float(capacity), meta=dict(self.meta))

    def with_metric(self, metric: MetricMode) -> "Instance":
        """The same instance with its costs derived under another metric."""
        if metric is self.metric:
            return self
        return replace(self, metric=metric, meta=dict(self.meta))


def _coordinate_cost_matrix(coords: np.ndarray, metric: MetricMode) -> np.ndarray:
    # each cell still goes through math.hypot: np.hypot and sqrt(dx*dx + dy*dy)
    # round differently in some cells, which would move the EXACT golden tables
    m = coords.shape[0]
    cost = np.zeros((m, m), dtype=float)
    # a difference of finite points can overflow to inf, which the caller
    # rejects; one errstate per matrix, since one per row costs about 2 us
    with np.errstate(over="ignore"):
        for i in range(m - 1):
            row = tsplib_distance(coords[i], coords[i + 1 :], metric)
            cost[i, i + 1 :] = row
            cost[i + 1 :, i] = row
    return cost


# -- tours -------------------------------------------------------------------


@dataclass(frozen=True)
class Tour:
    """A closed visit sequence with its total cost.

    ``sequence[0] == sequence[-1]`` is the declared start; a complete tour
    visits every other node exactly once in between.
    """

    sequence: tuple[int, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.sequence)


TourLike = Union[Tour, Sequence[int]]


def _as_sequence(tour: TourLike) -> tuple[int, ...]:
    if isinstance(tour, Tour):
        return tour.sequence
    if isinstance(tour, tuple):
        return tour
    return tuple(int(v) for v in tour)


def tour_cost(instance: Instance, tour: TourLike) -> float:
    """Sum of arc costs along a closed sequence."""
    seq = _as_sequence(tour)
    if len(seq) < 2:
        raise ValueError("a closed tour needs at least two entries")
    nodes = [instance.normalize_node(v) for v in seq]
    if nodes[0] != nodes[-1]:
        raise ValueError(f"sequence is not closed: starts at {nodes[0]}, ends at {nodes[-1]}")
    return float(sum(instance.cost[a, b] for a, b in zip(nodes, nodes[1:])))


def visit_events(instance: Instance, seq: Sequence[int]) -> list[float]:
    """Load change at each position of a closed sequence of physical node ids.

    Every position fires its node's load, except that the doubled start node
    fires once: at the opening visit when it is the depot or a pickup, at the
    closing visit when it is a delivery.  The running sum of the result is the
    cargo on board leaving each position.
    """
    loads = instance._load_list
    events = [loads[v] for v in seq]
    if seq[0] > instance.n_pairs:
        events[0] = 0.0
    else:
        events[-1] = 0.0
    return events


def payload_profile(instance: Instance, tour: TourLike) -> list[float]:
    """Cargo on board when leaving each position of a closed sequence.

    Works on complete tours and on closed partial tours alike.  The entry at
    the final position of a complete tour is 0.
    """
    seq = [instance.normalize_node(v) for v in _as_sequence(tour)]
    if len(seq) < 2 or seq[0] != seq[-1]:
        raise ValueError("payload profile requires a closed sequence")
    return list(accumulate(visit_events(instance, seq)))


# -- validation ----------------------------------------------------------------


class ViolationKind(Enum):
    VISIT_COUNT = "visit-count"
    CLOSURE = "closure"
    PRECEDENCE = "precedence"
    CAPACITY_UPPER = "capacity-upper"
    CAPACITY_LOWER = "capacity-lower"
    TERMINAL_LOAD = "terminal-load"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    position: int | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations: Sequence[Violation]) -> "ValidationReport":
        return cls(feasible=not violations, violations=tuple(violations))

    def __str__(self) -> str:
        if self.feasible:
            return "feasible"
        lines = ["infeasible:"]
        for v in self.violations:
            where = f" at position {v.position}" if v.position is not None else ""
            lines.append(f"  {v.kind.value}{where}: {v.detail}")
        return "\n".join(lines)


def validate(instance: Instance, tour: TourLike) -> ValidationReport:
    """Check a sequence against all tour constraints.

    Structural defects (unknown ids, missing closure, wrong visit counts) are
    reported rather than raised; load and precedence checks run only on
    structurally sound tours, where they are well defined.
    """
    raw = _as_sequence(tour)
    violations: list[Violation] = []
    terminal = instance.terminal_alias
    node_count = instance.node_count

    # positions in ``first_pos`` are only read when every id is known, in which
    # case they are also positions in ``seq``
    seq: list[int] = []
    counts = [0] * node_count
    first_pos = [-1] * node_count
    for pos, v in enumerate(raw):
        if v == terminal:
            v = 0
        if 0 <= v < node_count:
            if counts[v] == 0:
                first_pos[v] = pos
            counts[v] += 1
            seq.append(v)
        else:
            violations.append(
                Violation(ViolationKind.VISIT_COUNT, pos, f"unknown node id {v}")
            )

    if len(raw) < 2 or not seq or seq[0] != seq[-1]:
        head = seq[0] if seq else None
        tail = seq[-1] if seq else None
        violations.append(
            Violation(
                ViolationKind.CLOSURE,
                len(raw) - 1 if raw else None,
                f"sequence must start and end at the same node (got {head} .. {tail})",
            )
        )
    if violations:
        return ValidationReport.from_violations(violations)

    start = seq[0]
    for v in range(node_count):
        expected = 2 if v == start else 1
        if counts[v] == expected:
            continue
        if counts[v] == 0:
            violations.append(
                Violation(ViolationKind.VISIT_COUNT, None, f"node {v} is never visited")
            )
        else:
            violations.append(
                Violation(
                    ViolationKind.VISIT_COUNT,
                    first_pos[v],
                    f"node {v} visited {counts[v]} times, expected {expected}",
                )
            )
    if violations:
        return ValidationReport.from_violations(violations)

    # structurally sound complete tour: load and precedence checks
    n = instance.n_pairs
    last = len(seq) - 1
    upper = instance.load_limit
    for pos, running in enumerate(accumulate(visit_events(instance, seq))):
        if running > upper:
            violations.append(
                Violation(
                    ViolationKind.CAPACITY_UPPER,
                    pos,
                    f"load {running:g} exceeds capacity {instance.capacity:g} "
                    f"leaving node {seq[pos]}",
                )
            )
        elif running < -LOAD_TOLERANCE:
            violations.append(
                Violation(
                    ViolationKind.CAPACITY_LOWER,
                    pos,
                    f"load {running:g} is negative leaving node {seq[pos]}",
                )
            )
    if running > LOAD_TOLERANCE or running < -LOAD_TOLERANCE:
        violations.append(
            Violation(
                ViolationKind.TERMINAL_LOAD,
                last,
                f"tour ends carrying load {running:g}",
            )
        )

    for k in range(1, n + 1):
        delivery = k + n
        if delivery == start:
            # the start delivery unloads at the closing occurrence, which is
            # after every other visit by construction
            continue
        if first_pos[k] > first_pos[delivery]:
            violations.append(
                Violation(
                    ViolationKind.PRECEDENCE,
                    first_pos[delivery],
                    f"delivery {delivery} visited before its pickup {k}",
                )
            )

    violations.sort(key=lambda v: (v.position if v.position is not None else -1))
    return ValidationReport.from_violations(violations)
