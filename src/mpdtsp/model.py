"""Core data model: instances, tours, payload profiles and the feasibility validator.

An instance with ``n`` commodity pairs has physical nodes ``0..2n``: the depot
is node 0, pickups are ``1..n`` and deliveries are ``n+1..2n``, with pickup
``k`` paired to delivery ``n+k``.  The id ``2n+1`` is accepted everywhere as
an alias of the depot (a tour conventionally terminates at it) and is
collapsed onto node 0 so the cost matrix has no degenerate zero-cost arc.

An instance is its node coordinates, loads, capacity and metric.  The
constructor derives the pair count and, once the loads and capacity have
passed their checks, the cost matrix from the coordinates:
:func:`tsplib.cost_matrix` gives the TSPLIB distance of each node pair under
the instance's metric, exact or rounded Euclidean.  No instance can carry a
hand-written matrix, and costs are symmetric with a zero diagonal.  The
matrix is read-only: instances on the same live coordinate array share one
EXACT matrix, and a ROUNDED matrix is derived from it.

Payload semantics are event based: every node contributes its load ``q`` at
its visit position.  The start node of a closed tour occurs twice; its event
fires at the opening occurrence when it is a pickup or the depot, and at the
closing occurrence when it is a delivery.  This is the unique convention under
which any-start tours carry a well-defined load and end the tour empty.
:func:`payload_rows` is the one place that applies it, to a whole array of
sequences at once; the payload profile, the validator, the block check
:func:`feasible_rows` and both builders' initial loads all take it from there.
Likewise :func:`_rule_arrays` is the one statement of the load bounds, the
final load and precedence, with a delivery start's own pair exempt:
:func:`validate` reports from its first row and :func:`feasible_rows` reduces
over every row, each keeping only its own structural checks.

Every load check reads one upper bound, :attr:`Instance.load_limit` (the
capacity plus :data:`LOAD_TOLERANCE`), so scaling all loads and the capacity
by one factor cannot change a tour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np

from .tsplib import MetricMode, cost_matrix

#: absolute slack for load comparisons (loads are exact for unit masses; the
#: slack only matters for real-valued masses, whose partial sums round)
LOAD_TOLERANCE = 1e-9


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
        # checked last, so bad loads or capacity build no matrix
        object.__setattr__(self, "cost", cost_matrix(self.coords, self.metric))
        if not np.isfinite(self.cost).all():
            # finite points can still be too far apart for a float distance
            raise ValueError("cost matrix entries must be finite")

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
    """Sum of arc costs along a closed sequence, by :func:`arc_sums`."""
    seq = _as_sequence(tour)
    if len(seq) < 2:
        raise ValueError("a closed tour needs at least two entries")
    nodes = [instance.normalize_node(v) for v in seq]
    if nodes[0] != nodes[-1]:
        raise ValueError(f"sequence is not closed: starts at {nodes[0]}, ends at {nodes[-1]}")
    return float(arc_sums(instance, np.array([nodes]))[0])


def arc_sums(instance: Instance, tours: np.ndarray) -> np.ndarray:
    """The cost of every row of a (rows x len >= 2) array of physical ids, the one sum of a tour's arcs.

    A row's arcs are gathered once and added left to right, as a plain loop adds."""
    arcs = instance.cost[tours[:, :-1], tours[:, 1:]]
    return np.add.accumulate(arcs, axis=1, out=arcs)[:, -1]


def payload_rows(instance: Instance, tours: np.ndarray) -> np.ndarray:
    """Cargo on board leaving each position of every row of a (rows x len) array of closed sequences.

    The rows hold physical node ids.  Every position fires its node's load,
    except that the doubled start node fires once: at the opening visit when
    it is the depot or a pickup, at the closing visit when it is a delivery.
    The running sum is sequential, left to right, as a plain loop adds.
    """
    payload = instance.loads.take(tours)
    delivery_start = tours[:, 0] > instance.n_pairs
    payload[delivery_start, 0] = 0.0
    payload[~delivery_start, -1] = 0.0
    return np.cumsum(payload, axis=1, out=payload)


def payload_profile(instance: Instance, tour: TourLike) -> list[float]:
    """Cargo on board when leaving each position of a closed sequence.

    Works on complete tours and on closed partial tours alike.  The entry at
    the final position of a complete tour is 0.
    """
    seq = [instance.normalize_node(v) for v in _as_sequence(tour)]
    if len(seq) < 2 or seq[0] != seq[-1]:
        raise ValueError("payload profile requires a closed sequence")
    return payload_rows(instance, np.array([seq]))[0].tolist()


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

    seq: list[int] = []
    for pos, v in enumerate(raw):
        if v == terminal:
            v = 0
        if 0 <= v < node_count:
            seq.append(v)
        else:
            violations.append(Violation(ViolationKind.VISIT_COUNT, pos, f"unknown node id {v}"))

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

    # every id is known, so a position in ``seq`` is a position in the tour
    counts = np.bincount(seq, minlength=node_count)
    expected = np.ones_like(counts)
    expected[seq[0]] = 2
    for v in np.flatnonzero(counts != expected).tolist():
        if counts[v] == 0:
            violations.append(Violation(ViolationKind.VISIT_COUNT, None, f"node {v} is never visited"))
        else:
            violations.append(Violation(
                ViolationKind.VISIT_COUNT, seq.index(v),
                f"node {v} visited {counts[v]} times, expected {expected[v]}",
            ))
    if violations:
        return ValidationReport.from_violations(violations)

    # structurally sound complete tour: load and precedence checks
    rules = _rule_arrays(instance, np.array([seq]))
    pos, payload, over, under, loaded, late = (rule[0] for rule in rules)
    running = payload.tolist()
    for p in np.flatnonzero(over | under).tolist():
        if over[p]:
            violations.append(Violation(
                ViolationKind.CAPACITY_UPPER, p,
                f"load {running[p]:g} exceeds capacity {instance.capacity:g} leaving node {seq[p]}",
            ))
        else:
            violations.append(Violation(
                ViolationKind.CAPACITY_LOWER, p,
                f"load {running[p]:g} is negative leaving node {seq[p]}",
            ))
    if loaded:
        violations.append(Violation(
            ViolationKind.TERMINAL_LOAD, len(seq) - 1, f"tour ends carrying load {running[-1]:g}",
        ))
    for k in np.flatnonzero(late).tolist():
        pickup, delivery = k + 1, k + 1 + instance.n_pairs
        violations.append(Violation(
            ViolationKind.PRECEDENCE, int(pos[delivery]),
            f"delivery {delivery} visited before its pickup {pickup}",
        ))

    violations.sort(key=lambda v: (v.position if v.position is not None else -1))
    return ValidationReport.from_violations(violations)


def _rule_arrays(instance: Instance, tours: np.ndarray) -> tuple[np.ndarray, ...]:
    """The load and precedence rules applied to a (rows x len) array of closed sequences of physical ids.

    Returns, per row:

    - ``pos`` (rows x nodes): each node's position before the closing visit,
      -1 for a node the row never visits;
    - ``payload`` (rows x len): the load on board, from :func:`payload_rows`;
    - ``over``, ``under`` (rows x len): the payload above
      :attr:`Instance.load_limit`, below ``-LOAD_TOLERANCE``;
    - ``loaded`` (rows,): the final payload off 0 by more than ``LOAD_TOLERANCE``;
    - ``late`` (rows x pairs): a pair's delivery placed before its pickup,
      except a delivery start's own pair, which unloads at the closing visit.

    This is the one statement of those rules; :func:`validate` reports from
    row 0 and :func:`feasible_rows` reduces over every row.
    """
    rows, length = tours.shape
    n = instance.n_pairs
    pos = np.full((rows, instance.node_count), -1)
    pos[np.arange(rows)[:, None], tours[:, :-1]] = np.arange(length - 1)
    payload = payload_rows(instance, tours)
    late = (pos[:, 1 : n + 1] > pos[:, n + 1 :]) & (tours[:, :1] != np.arange(n + 1, 2 * n + 1))
    return (
        pos, payload, payload > instance.load_limit, payload < -LOAD_TOLERANCE,
        np.abs(payload[:, -1]) > LOAD_TOLERANCE, late,
    )


def feasible_rows(instance: Instance, inits: np.ndarray, tour: np.ndarray) -> np.ndarray:
    """Which rows of a (rows x N+1) block of closed tours are feasible tours from their start.

    Row r passes when its ids are physical nodes, it opens and closes at
    ``inits[r]``, it visits every node once in between, and it breaks none of
    the load and precedence rules of :func:`_rule_arrays`, which
    :func:`validate` reads too.  For a row that opens at ``inits[r]`` the
    verdict is :func:`validate`'s, which also accepts the terminal alias; the
    builders never write it.
    """
    ok = (tour.min(axis=1) >= 0) & (tour.max(axis=1) < instance.node_count)
    if not ok.all():
        tour = np.where(ok[:, None], tour, 0)  # an all-depot row, rejected below
    ok &= (tour[:, 0] == inits) & (tour[:, -1] == inits)
    pos, _, over, under, loaded, late = _rule_arrays(instance, tour)
    # N visits cover all N nodes only if none repeats
    ok &= pos.min(axis=1) >= 0
    ok &= ~(over.any(axis=1) | under.any(axis=1) | loaded | late.any(axis=1))
    return ok
