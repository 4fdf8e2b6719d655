"""Property-based checks on random small instances with real-valued loads.

Loads are drawn from [0.1, 3] and the capacity is either drawn freely or set
to a sum of some of the loads, so partial sums land on the capacity up to
rounding, where a second upper bound would show.  The lock-step properties
draw loads from [0.1, 1] under a capacity of 1 to 3 instead, so many starts
stall.  The examples are derandomized, so every run checks the same
instances.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from conftest import plain_checker, with_capacity  # noqa: E402
from reference_checkers import (  # noqa: E402
    NnhState,
    feasible_candidates,
    reference_cih_from,
    reference_cost_matrix,
    reference_payload,
)
from mpdtsp import (  # noqa: E402
    Instance,
    MetricMode,
    MultiStartError,
    brute_force,
    cih_from,
    held_karp,
    instance_from_text,
    instance_to_text,
    nnh_best,
    nnh_from,
    paired_loads,
    tour_cost,
    validate,
)
from mpdtsp.cheapest_insertion import CihBlock, apply_insertion, best_insertion  # noqa: E402
from mpdtsp.construction import lockstep  # noqa: E402
from mpdtsp.model import feasible_rows, payload_rows  # noqa: E402
from mpdtsp.nearest_neighbor import NnhBlock, extend, nearest  # noqa: E402
from mpdtsp.exact import precedence_orders  # noqa: E402

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=120)

coordinate = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, max_pairs: int = 5) -> Instance:
    n = draw(st.integers(1, max_pairs))
    coords = draw(st.lists(st.tuples(coordinate, coordinate), min_size=2 * n + 1, max_size=2 * n + 1))
    loads = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    heaviest = max(loads)
    subset = draw(st.lists(st.sampled_from(loads), min_size=1, max_size=n))
    capacity = draw(st.one_of(
        st.floats(heaviest, sum(loads) + 1.0),
        st.just(max(heaviest, sum(subset))),
    ))
    return Instance.from_coords(coords, paired_loads(loads), capacity)


@st.composite
def instances_and_sequences(draw):
    instance = draw(instances())
    m = instance.node_count
    if draw(st.booleans()):
        body = draw(st.permutations(range(m)))
        sequence = [*body, body[0]]
        if body[0] == 0 and draw(st.booleans()):
            sequence[-1] = instance.terminal_alias
    else:
        sequence = draw(st.lists(st.integers(0, m), min_size=1, max_size=m + 2))
    return instance, sequence


@PROPERTY
@given(instances_and_sequences())
def test_validate_agrees_with_the_plain_checker(case):
    instance, sequence = case
    assert validate(instance, sequence).feasible == plain_checker(instance, sequence)


@PROPERTY
@given(instances())
def test_every_start_dead_ends_or_validates(instance):
    for build in (nnh_from, cih_from):
        for init in range(instance.node_count):
            try:
                tour = build(instance, init)
            except MultiStartError:
                continue
            assert tour.sequence[0] == tour.sequence[-1] == init
            assert plain_checker(instance, tour.sequence)
            assert tour.cost == pytest.approx(tour_cost(instance, tour), abs=1e-9)


def outcomes(instance: Instance) -> list:
    """Every start's tour under both builders, None for a dead end."""
    out = []
    for build in (nnh_from, cih_from):
        for init in range(instance.node_count):
            try:
                out.append(build(instance, init))
            except MultiStartError:
                out.append(None)
    return out


@PROPERTY
@given(instances(), st.sampled_from([0.3, 0.7, 1 / 3, 1.1]))
def test_the_load_unit_does_not_change_a_tour(instance, u):
    scaled = Instance.from_coords(instance.coords, instance.loads * u, instance.capacity * u)
    assert outcomes(scaled) == outcomes(instance)


@settings(PROPERTY, max_examples=60)
@given(instances(max_pairs=4), st.data())
def test_held_karp_is_never_above_a_depot_start_tour(instance, data):
    optimum = held_karp(instance)
    depot_tours = [brute_force(instance)]
    for build in (nnh_from, cih_from):
        try:
            depot_tours.append(build(instance, 0))
        except MultiStartError:
            pass
    order = data.draw(st.sampled_from(precedence_orders(instance.n_pairs).tolist()))
    if validate(instance, (0, *order, 0)).feasible:
        depot_tours.append((0, *order, 0))
    for tour in filter(None, depot_tours):
        assert optimum is not None
        assert optimum.cost <= tour_cost(instance, tour) + 1e-9
    if optimum is not None:
        assert validate(instance, optimum).feasible


@st.composite
def oracle_instances(draw) -> Instance:
    """1-4 pairs, loads in [0.1, 3], Q in [1, 3], often a sum of some of the loads."""
    n = draw(st.integers(1, 4))
    coords = draw(st.lists(st.tuples(coordinate, coordinate), min_size=2 * n + 1, max_size=2 * n + 1))
    loads = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    subset_sum = sum(load for load, keep in zip(loads, chosen) if keep)
    capacities = [st.floats(1.0, 3.0), st.sampled_from([1.0, 2.0, 3.0])]
    if 1.0 <= subset_sum <= 3.0:
        capacities.append(st.just(subset_sum))
    return Instance.from_coords(coords, paired_loads(loads), draw(st.one_of(capacities)))


def clustered(loads, capacity: float) -> Instance:
    """Pickups next to the depot, deliveries far off: the optimum carries every item at once."""
    n = len(loads)
    coords = [(0.0, 0.0), *((0.0, 1.0 + k) for k in range(n)), *((90.0, 1.0 + k) for k in range(n))]
    return Instance.from_coords(coords, paired_loads(loads), capacity)


@settings(PROPERTY, max_examples=100)
@given(oracle_instances())
@example(clustered([0.1, 1.1], 1.2))  # in either order the load sums to 1.2000000000000002
@example(clustered([0.3] * 4, 1.2))
def test_held_karp_matches_brute_force_on_real_loads(instance):
    optimum, oracle = held_karp(instance), brute_force(instance)
    assert (optimum is None) == (oracle is None)
    if oracle is not None:
        assert optimum.cost == oracle.cost
        assert validate(instance, optimum).feasible


def test_held_karp_carries_six_items_of_0_3_at_q_1_8():
    # six pairs are past brute force, but every order fits, so the optimum is
    # the uncapacitated one and it carries all six items at once
    instance = clustered([0.3] * 6, 1.8)
    optimum = held_karp(instance)
    assert optimum.cost == held_karp(with_capacity(instance, 6.0)).cost
    assert optimum.sequence == (0, 1, 2, 3, 4, 5, 6, 12, 11, 10, 9, 8, 7, 0)
    assert validate(instance, optimum).feasible


@PROPERTY
@given(instances())
def test_instance_text_round_trips(instance):
    again = instance_from_text(instance_to_text(instance))
    assert instance_to_text(again) == instance_to_text(instance)
    assert again.capacity == instance.capacity
    assert (again.loads == instance.loads).all()
    assert (again.cost == instance.cost).all()


@st.composite
def tight_instances(draw) -> Instance:
    """1-6 pairs, real-valued loads of at most 1 and an integer capacity of 1-3."""
    n = draw(st.integers(1, 6))
    coords = draw(st.lists(st.tuples(coordinate, coordinate), min_size=2 * n + 1, max_size=2 * n + 1))
    loads = draw(st.lists(st.one_of(st.floats(0.1, 1.0), st.sampled_from([0.3, 0.5, 1.0])),
                          min_size=n, max_size=n))
    return Instance.from_coords(coords, paired_loads(loads), draw(st.integers(1, 3)))


def replay_nnh(instance: Instance, sequence) -> NnhState:
    """Walk a nearest-neighbor sequence, checking each step against the reference rule."""
    state = NnhState.initial(instance, sequence[0])
    for nxt in sequence[1:]:
        candidates = feasible_candidates(instance, state)
        assert nxt == min(candidates, key=lambda v: (instance.cost[state.partial[-1], v], v))
        state.payload += float(instance.loads[nxt])
        state.partial.append(nxt)
        state.remainder.discard(nxt)
    return state


@st.composite
def tight_instances_and_inits(draw):
    """A tight instance and the starts to run: all (None) or a subset with repeats."""
    instance = draw(tight_instances())
    m = instance.node_count
    # the terminal alias m stands for the depot
    return instance, draw(st.one_of(st.none(), st.lists(st.integers(0, m), min_size=1, max_size=m + 1)))


#: depot, pickups on the x axis, deliveries one unit above them, capacity 1:
#: both delivery starts stall, and 5 is the terminal alias of the depot
TIGHT_TWO_PAIR = Instance.from_coords([(0, 0), (1, 0), (2, 0), (1, 1), (2, 1)], paired_loads([1.0, 1.0]), 1.0)


@PROPERTY
@given(tight_instances_and_inits())
@example((TIGHT_TWO_PAIR, [3, 4]))
@example((TIGHT_TWO_PAIR, [5, 4, 5]))
def test_lock_step_starts_match_single_starts(case):
    instance, inits = case
    m = instance.node_count
    starts = range(m) if inits is None else sorted({0 if i == m else i for i in inits})
    tours, stalls = {}, {}
    for init in starts:
        one_tour, one_stall, _, _ = lockstep(instance, [init], 1, NnhBlock.initial, nearest, extend)
        if one_stall:
            stalls[init] = partial = one_stall[init]
            assert partial[0] == init
            state = replay_nnh(instance, partial)
            assert feasible_candidates(instance, state) == []
            with pytest.raises(MultiStartError) as err:
                nnh_from(instance, init)
            assert err.value.stalls == {init: (len(partial), len(state.remainder))}
        else:
            tours[init] = nnh_from(instance, init)
            assert one_tour == {init: tours[init]}
            replay_nnh(instance, tours[init].sequence[:-1])
            assert tours[init].sequence[-1] == init
    # two rows a block, so a row can stall while the other goes on
    assert lockstep(instance, list(starts), 2, NnhBlock.initial, nearest, extend)[1] == stalls
    expected_stalls = {init: (len(p), m - len(p)) for init, p in stalls.items()}
    if not tours:
        with pytest.raises(MultiStartError) as err:
            nnh_best(instance, inits)
        assert err.value.stalls == expected_stalls
        return
    result = nnh_best(instance, inits)
    assert result.costs == {init: tour.cost for init, tour in tours.items()}
    assert result.dead_ends == tuple(sorted(stalls))
    assert result.stalls == expected_stalls
    best = min(tours, key=lambda init: (tours[init].cost, init))
    assert (result.best_init, result.best_tour) == (best, tours[best])


@PROPERTY
@given(tight_instances_and_inits())
@example((TIGHT_TWO_PAIR, None))
@example((TIGHT_TWO_PAIR, [3, 4]))
def test_cih_block_matches_the_per_start_reference(case):
    instance, inits = case
    m = instance.node_count
    starts = range(m) if inits is None else sorted({0 if i == m else i for i in inits})
    tours, stalls = {}, {}
    for init in starts:
        outcome = reference_cih_from(instance, init)
        if isinstance(outcome, tuple):
            stalls[init] = outcome
        else:
            tours[init] = outcome
    # two rows a block, so a row can stall while the other goes on
    cih = (CihBlock.initial, best_insertion, apply_insertion)
    block_tours, block_stalls, steps, _ = lockstep(instance, list(starts), 2, *cih)
    assert {i: (t.sequence, t.cost.hex()) for i, t in block_tours.items()} == {
        i: (t.sequence, t.cost.hex()) for i, t in tours.items()}
    assert block_stalls == stalls
    assert steps == len(tours) * (m - 1) + sum(len(p) - 2 for p in stalls.values())
    # a start alone, as cih_from runs it, is the same row of a one-row block
    for init in starts:
        if init in tours:
            assert cih_from(instance, init) == tours[init]
        else:
            with pytest.raises(MultiStartError) as err:
                cih_from(instance, init)
            placed = len(stalls[init]) - 1  # the closed partial tour doubles its start
            assert err.value.stalls == {init: (placed, m - placed)}


@st.composite
def feasible_depot_tours(draw):
    """An instance and a feasible tour from the depot.

    The visit order is any precedence order; when it overloads the vehicle,
    the same pairs are served one at a time instead, which always fits.
    """
    instance = draw(instances())
    n = instance.n_pairs
    pairs = draw(st.permutations([k for k in range(1, n + 1) for _ in (0, 1)]))
    seen: set[int] = set()
    order = []
    for k in pairs:
        order.append(k + n if k in seen else k)
        seen.add(k)
    tour = (0, *order, 0)
    if not validate(instance, tour).feasible:
        tour = (0, *(v for k in dict.fromkeys(pairs) for v in (k, k + n)), 0)
    assert validate(instance, tour).feasible
    return instance, tour


@PROPERTY
@given(feasible_depot_tours(), st.data())
def test_rotating_a_depot_tour_keeps_its_cost_and_follows_the_start_rule(case, data):
    instance, tour = case
    body = list(tour[:-1])
    i = data.draw(st.integers(0, len(body) - 1))
    start = body[i]
    rotated = (*body[i:], *body[:i], start)
    original_cost = tour_cost(instance, tour)
    assert tour_cost(instance, rotated) == pytest.approx(original_cost, rel=1e-9, abs=0.0)
    # on board at the rotation point: on arrival for a depot or pickup start,
    # after it unloads for a delivery start
    before = set(body[: i + 1] if start > instance.n_pairs else body[:i])
    on_board = [k for k in instance.pickups if k in before and k + instance.n_pairs not in before]
    assert validate(instance, rotated).feasible == (not on_board)


@st.composite
def tour_blocks(draw):
    """An instance, each row's start and a block of 1-12 closed rows.

    Each row is a random precedence order from the depot, which may overload
    the vehicle, or the same pairs served one at a time, which never does;
    rotated to a random start, and then perhaps mutated: one position copied
    over another (a node repeated, another missing), the closing node
    replaced, an id out of range written, a pair's first visits swapped, or
    the row's start replaced.
    """
    instance = draw(instances())
    n, m = instance.n_pairs, instance.node_count
    inits, rows = [], []
    for _ in range(draw(st.integers(1, 12))):
        pairs = draw(st.permutations([k for k in range(1, n + 1) for _ in (0, 1)]))
        if draw(st.booleans()):
            seen: set[int] = set()
            body = [0]
            for k in pairs:
                body.append(k + n if k in seen else k)
                seen.add(k)
        else:
            body = [0, *(v for k in dict.fromkeys(pairs) for v in (k, k + n))]
        i = draw(st.integers(0, m - 1))
        row = [*body[i:], *body[:i], body[i]]
        init = row[0]
        mutation = draw(st.sampled_from(["none", "repeat", "close", "stray", "swap", "start"]))
        if mutation == "repeat":
            row[draw(st.integers(0, m))] = row[draw(st.integers(0, m))]
        elif mutation == "close":
            row[-1] = draw(st.integers(0, m - 1))
        elif mutation == "stray":
            # not m, the terminal alias, which ``validate`` reads as the depot
            row[draw(st.integers(0, m))] = draw(st.sampled_from([-2, -1, m + 1, m + 2]))
        elif mutation == "swap":
            k = draw(st.integers(1, n))
            a, b = row.index(k), row.index(k + n)
            row[a], row[b] = row[b], row[a]
        elif mutation == "start":
            init = draw(st.integers(0, m - 1))
        inits.append(init)
        rows.append(row)
    return instance, np.array(inits), np.array(rows)


def block_case(item_loads: list[float], capacity: float, rows: list[list[int]]):
    """Rows on nodes placed along a line, each row's start its first id."""
    coords = [(float(i), 0.0) for i in range(2 * len(item_loads) + 1)]
    tour = np.array(rows)
    return Instance.from_coords(coords, paired_loads(item_loads), capacity), tour[:, 0], tour


#: rows that one rule alone decides, which random real loads in [0.1, 3]
#: seldom draw: running sums that overshoot the capacity, dip below 0 or end
#: off 0 by a rounding, within the tolerance or beyond it (large loads), and a
#: pickup written over another of the same load
ROUNDING_ROWS = [[0, 1, 2, 3, 4, 0], [0, 1, 2, 4, 3, 0], [3, 2, 1, 4, 0, 3]]
ONE_RULE_CASES = [
    block_case([0.1, 0.2], 0.3, ROUNDING_ROWS),
    block_case([0.7, 0.1], 0.8, ROUNDING_ROWS),
    block_case([1.0, 1.0], 2.0, [[0, 1, 1, 3, 4, 0]]),
    block_case([0.1, 1e9], 2e9, [[0, 1, 2, 4, 3, 0]]),
    block_case([0.3, 123456789.0, 1e9], 2e9, [[0, 1, 2, 5, 4, 3, 6, 0]]),
]


def assert_block_check_agrees(instance: Instance, inits: np.ndarray, tour: np.ndarray) -> None:
    """The block check's verdicts equal the plain checker's, and ``validate``'s.

    ``validate`` and the block check read the same load and precedence
    arrays, so the plain checker is the arbiter that a fault there cannot
    move; their structural checks are separate code, so ``validate`` still
    has to agree.
    """
    verdicts = feasible_rows(instance, inits, tour).tolist()
    rows = list(zip(inits.tolist(), tour.tolist()))
    assert verdicts == [plain_checker(instance, row) and row[0] == init for init, row in rows]
    assert verdicts == [validate(instance, row).feasible and row[0] == init for init, row in rows]


@settings(PROPERTY, max_examples=400)
@given(tour_blocks())
def test_the_block_check_rejects_exactly_what_validate_rejects(case):
    assert_block_check_agrees(*case)


@pytest.mark.parametrize("case", ONE_RULE_CASES)
def test_the_block_check_rejects_what_one_rule_alone_rejects(case):
    assert_block_check_agrees(*case)


@st.composite
def closed_sequence_blocks(draw):
    """An instance and 1-8 closed rows of one length, each a start, other nodes once each, the start again.

    The starts are the depot, pickups and deliveries alike; the rows hold
    every node (complete) or only some (partial), in any order.
    """
    instance = draw(instances())
    m = instance.node_count
    between = draw(st.one_of(st.just(m - 1), st.integers(0, m - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(st.integers(0, m - 1))
        others = draw(st.permutations([v for v in range(m) if v != start]))
        rows.append([start, *others[:between], start])
    return instance, rows


@settings(PROPERTY, max_examples=200)
@given(closed_sequence_blocks())
def test_payload_rows_equal_the_plain_event_rule(case):
    instance, rows = case
    assert payload_rows(instance, np.array(rows)).tolist() == [reference_payload(instance, row) for row in rows]


#: where a cloud's coordinates come from: an integer grid, the unit square,
#: or reals of both signs over twelve orders of magnitude
coordinate_sources = st.sampled_from([
    st.integers(0, 100).map(float),
    st.floats(0.0, 1.0),
    st.floats(-1e6, 1e6),
    st.floats(1e-6, 1e6).flatmap(lambda x: st.sampled_from([x, -x])),
])


@st.composite
def point_clouds(draw) -> list[tuple[float, float]]:
    """3-61 points, some of them repeated so that zero arcs occur."""
    m = 2 * draw(st.integers(1, 30)) + 1
    value = draw(coordinate_sources)
    distinct = draw(st.lists(st.tuples(value, value), min_size=m // 2 + 1, max_size=m))
    return draw(st.lists(st.sampled_from(distinct), min_size=m, max_size=m))


# no shrinking: a matrix that is one ulp off in a few cells sends the
# shrinker through thousands of float candidates for many minutes
@settings(PROPERTY, phases=(Phase.explicit, Phase.generate))
@given(point_clouds(), st.sampled_from(list(MetricMode)))
@example([(0.0, 0.0), (0.5, 0.0), (2.5, 0.0)], MetricMode.ROUNDED)
def test_cost_matrix_equals_pairwise_reference(coords, metric):
    instance = Instance.from_coords(coords, paired_loads([1.0] * (len(coords) // 2)), 1.0, metric)
    assert instance.cost.tobytes() == reference_cost_matrix(coords, metric).tobytes()
