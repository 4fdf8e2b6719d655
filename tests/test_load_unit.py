"""The load unit cannot change a tour.

Every load check reads the one bound ``Instance.load_limit`` (capacity plus
``LOAD_TOLERANCE``), so scaling all loads and the capacity by one factor u
leaves every builder decision and every exact optimum as it is, even where
``Q * u`` and the partial sums of u round differently (``6 * 0.3`` is
``1.7999999999999998``, six additions of ``0.3`` give ``1.8``).
"""

import numpy as np
import pytest

from conftest import CORPUS_DIR, block_partial, cih_block, live_payload, make_random_instance
from mpdtsp import (
    Instance,
    cih_best,
    held_karp,
    nnh_best,
    nnh_from,
    paired_loads,
    payload_profile,
    tour_cost,
    tsplib,
    validate,
)
from mpdtsp.cheapest_insertion import best_insertion
from mpdtsp.generate import Direction, GenerationSpec, generate
from mpdtsp.model import feasible_rows

SCALES = (0.3, 0.7)


def scaled(instance: Instance, u: float) -> Instance:
    """The same instance with every load and the capacity multiplied by u."""
    return Instance.from_coords(
        instance.coords, instance.loads * u, instance.capacity * u, instance.metric
    )


def summary(result) -> tuple:
    return (result.costs, result.dead_ends, result.best_init, result.best_tour)


@pytest.fixture(scope="module")
def uni031():
    return tsplib.parse_file(CORPUS_DIR / "uni031.tsp")


@pytest.mark.parametrize("u", SCALES)
@pytest.mark.parametrize("q", (3, 6))
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("solver", (nnh_best, cih_best), ids=("NNH", "CIH"))
def test_multistart_ignores_the_load_unit(uni031, solver, direction, q, u):
    unit = generate(uni031, GenerationSpec(direction, q))
    assert summary(solver(scaled(unit, u))) == summary(solver(unit))


@pytest.mark.parametrize("u", SCALES)
@pytest.mark.parametrize("n_pairs, q, seed", [(4, 2, 0), (5, 3, 1), (6, 3, 2), (6, 6, 3)])
def test_held_karp_ignores_the_load_unit(n_pairs, q, seed, u):
    unit = make_random_instance(n_pairs, q, seed)
    assert held_karp(scaled(unit, u)) == held_karp(unit)


def test_load_limit_is_capacity_plus_tolerance(one_pair):
    assert one_pair.load_limit == one_pair.capacity + 1e-9


def test_nnh_takes_the_item_that_fills_the_capacity():
    # six pickups of 0.3 add up to 1.8, just above the rounded 6 * 0.3
    n = 6
    pickups = [(float(k), 0.0) for k in range(1, n + 1)]
    deliveries = [(100.0 + k, 0.0) for k in range(1, n + 1)]
    inst = Instance.from_coords([(0.0, 0.0)] + pickups + deliveries, paired_loads([0.3] * n), n * 0.3)
    tour = nnh_from(inst, 0)
    assert tour.sequence[: n + 1] == tuple(range(n + 1))


def test_cih_window_admits_the_item_that_fills_the_capacity():
    # 0.6 is on board along the whole partial tour; at Q = 3 * 0.3, which
    # rounds to 0.8999999999999999, a third item of 0.3 still fits
    coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (1.0, 50.0), (2.0, 50.0), (3.0, 50.0)]
    inst = Instance.from_coords(coords, paired_loads([0.3] * 3), 3 * 0.3)
    block = cih_block(inst, (0, 1, 2, 0))
    partial = block_partial(block)
    assert live_payload(block) == tuple(payload_profile(inst, partial)) == (0.0, 0.3, 0.6, 0.6)
    assert block.total[0] == tour_cost(inst, partial)
    choice = best_insertion(inst, block)
    assert (choice.node.tolist(), choice.slot.tolist(), choice.ratio.tolist()) == ([3], [2], [2.0])


def test_every_check_admits_a_load_of_exactly_load_limit():
    # five collinear nodes; the second item weighs load_limit - 1.0, so the
    # tour that carries both at once runs at exactly load_limit from 2 to 3
    q = 2.0
    inst = Instance.from_coords([(float(i), 0.0) for i in range(5)], paired_loads([1.0, (q + 1e-9) - 1.0]), q)
    tour = (0, 1, 2, 3, 4, 0)
    assert max(payload_profile(inst, tour)) == inst.load_limit
    assert validate(inst, tour).feasible
    assert feasible_rows(inst, np.array([0]), np.array([tour])).tolist() == [True]
    assert nnh_best(inst, [0]).best_tour.cost == held_karp(inst).cost == 8.0
    # from the depot the greedy splices put node 2 before node 1, a detour of 2
    assert cih_best(inst).costs == {0: 10.0, 1: 8.0, 2: 8.0, 3: 8.0, 4: 8.0}
