"""Property-based checks on random small instances with real-valued loads.

Loads are drawn from [0.1, 3] and the capacity is either drawn freely or set
to a sum of some of the loads, so partial sums land on the capacity up to
rounding, where a second upper bound would show.  The examples are
derandomized, so every run checks the same instances.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import plain_checker  # noqa: E402
from mpdtsp import (  # noqa: E402
    DeadEndError,
    Instance,
    brute_force,
    cih_from,
    held_karp,
    instance_from_text,
    instance_to_text,
    nnh_from,
    paired_loads,
    tour_cost,
    validate,
)
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
            except DeadEndError:
                continue
            assert tour.start == tour.sequence[-1] == init
            assert plain_checker(instance, tour.sequence)
            assert tour.cost == pytest.approx(tour_cost(instance, tour), abs=1e-9)


def outcomes(instance: Instance) -> list:
    """Every start's tour under both builders, None for a dead end."""
    out = []
    for build in (nnh_from, cih_from):
        for init in range(instance.node_count):
            try:
                out.append(build(instance, init))
            except DeadEndError:
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
        except DeadEndError:
            pass
    order = data.draw(st.sampled_from(list(precedence_orders(instance.n_pairs))))
    if validate(instance, (0, *order, 0)).feasible:
        depot_tours.append((0, *order, 0))
    for tour in filter(None, depot_tours):
        assert optimum is not None
        assert optimum.cost <= tour_cost(instance, tour) + 1e-9
    if optimum is not None:
        assert validate(instance, optimum).feasible


@PROPERTY
@given(instances())
def test_instance_text_round_trips(instance):
    again = instance_from_text(instance_to_text(instance))
    assert instance_to_text(again) == instance_to_text(instance)
    assert again.capacity == instance.capacity
    assert (again.loads == instance.loads).all()
    assert (again.cost == instance.cost).all()
