"""Shared fixtures and independent reference checkers."""

from pathlib import Path

import numpy as np
import pytest

from reference_checkers import CihState, Insertion, reference_apply_insertion
from mpdtsp import Instance, MetricMode, paired_loads
from mpdtsp import tsplib
from mpdtsp.cheapest_insertion import CihBlock, InsertionChoice, apply_insertion

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

try:  # the property tests skip themselves when hypothesis is missing
    from hypothesis import Phase, settings
except ImportError:
    pass
else:
    # ``python tests/mutants.py`` loads this profile: killing a mutant takes one
    # failing example, not the smallest one, and shrinking is most of a failing run
    settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))

# depot at the origin, pickups on the x axis, deliveries one unit above them
TWO_PAIR_COORDS = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0), (2.0, 1.0)]


@pytest.fixture
def one_pair() -> Instance:
    return Instance.from_coords([(0, 0), (1, 0), (0, 1)], paired_loads([1.0]), 1.0)


@pytest.fixture
def two_pair() -> Instance:
    return Instance.from_coords(TWO_PAIR_COORDS, paired_loads([1.0, 1.0]), 2.0)


@pytest.fixture
def kernel_runs(monkeypatch) -> list[int]:
    """The point count of each run of the distance kernel, ``tsplib._distances``, from here on."""
    runs: list[int] = []
    kernel = tsplib._distances

    def counted(coords):
        runs.append(len(coords))
        return kernel(coords)

    monkeypatch.setattr(tsplib, "_distances", counted)
    return runs


@pytest.fixture(scope="session")
def eil51_cloud() -> tsplib.PointCloud:
    return tsplib.parse_file(CORPUS_DIR / "eil51.tsp")


def make_random_instance(
    n_pairs: int, capacity: float, seed: int, metric: MetricMode = MetricMode.EXACT
) -> Instance:
    """Uniform unit-square coordinates, unit loads."""
    rng = np.random.RandomState(seed)
    coords = rng.uniform(0.0, 1.0, size=(2 * n_pairs + 1, 2))
    return Instance.from_coords(
        coords, paired_loads([1.0] * n_pairs), float(capacity), metric, name=f"rand{seed}"
    )


def with_capacity(instance: Instance, capacity: float) -> Instance:
    """The same points, loads and metric under another capacity."""
    return Instance.from_coords(instance.coords, instance.loads, capacity, instance.metric,
                                instance.name, instance.meta)


def cih_state(instance: Instance, partial) -> CihState:
    """The reference cheapest-insertion state of a closed partial tour, its nodes inserted in order."""
    state = CihState.initial(instance, partial[0])
    for slot, node in enumerate(partial[1:-1]):
        reference_apply_insertion(state, Insertion(node, slot, 0.0), instance)
    return state


def splice(block: CihBlock, node: int, slot: int, instance: Instance) -> CihBlock:
    """Insert ``node`` after position ``slot`` in the one row of a lock-step block."""
    a, b, cost = block.tour[0, slot], block.tour[0, slot + 1], instance.cost
    delta = np.array([cost[a, node] + cost[node, b] - cost[a, b]])
    choice = InsertionChoice(np.array([node]), np.array([slot]), np.zeros(1), delta, np.zeros(1, bool), 0)
    return apply_insertion(block, choice, instance)


def cih_block(instance: Instance, partial) -> CihBlock:
    """The one-row lock-step block of a closed partial tour, its nodes inserted in order."""
    block = CihBlock.initial(instance, [partial[0]])
    for slot, node in enumerate(partial[1:-1]):
        splice(block, node, slot, instance)
    return block


def block_partial(block: CihBlock, row: int = 0) -> tuple[int, ...]:
    """The closed partial tour of one row of a lock-step block."""
    return tuple(block.tour[row, : block.size].tolist())


def live_payload(state) -> tuple[float, ...]:
    """The load leaving each position of a reference state's tour, or of a one-row block's."""
    payload = state.payload[0] if state.payload.ndim == 2 else state.payload
    return tuple(payload[: state.size].tolist())


def plain_checker(instance: Instance, sequence) -> bool:
    """Independent feasibility walk: a visited set and a running load.

    Deliberately re-derives every rule from scratch (including the
    delivery-start closing convention) so it can arbitrate the validator.
    """
    seq = [0 if v == instance.terminal_alias else int(v) for v in sequence]
    if len(seq) < 2 or seq[0] != seq[-1]:
        return False
    if any(not 0 <= v < instance.node_count for v in seq):
        return False
    body = seq[:-1]
    if sorted(body) != list(range(instance.node_count)):
        return False
    start = seq[0]
    start_is_delivery = start > instance.n_pairs
    load = 0.0
    seen: set[int] = set()
    for pos, node in enumerate(body):
        seen.add(node)
        if node > instance.n_pairs and pos > 0 and (node - instance.n_pairs) not in seen:
            return False  # delivery before its pickup
        if pos == 0 and start_is_delivery:
            continue  # the start delivery unloads at the closing visit
        load += float(instance.loads[node])
        if load > instance.capacity + 1e-9 or load < -1e-9:
            return False
    if start_is_delivery:
        load += float(instance.loads[start])
    return abs(load) <= 1e-9
