"""Every tour cost is the one left-to-right sum of its tour's arcs.

``model.arc_sums`` is the one place the package adds up a tour's arcs, left
to right.  On the golden instances (``test_golden.py`` and
``test_golden_exact.py``), every NNH tour from every start and every
``held_karp`` and ``brute_force`` optimum costs exactly ``tour_cost`` of its
tour, and that is exactly a plain loop adding one arc at a time.  CIH totals
each splice's new arcs less the arc it replaces, so its costs agree with the
sum to within 1e-9 of it, not bit for bit.
"""

from functools import cache

import pytest

from conftest import CORPUS_DIR
from reference_checkers import reference_tour_cost
from test_golden import CAPACITIES, CORPUS_CASES
from test_golden_exact import CASES as EXACT_CASES, case_key, golden_instance
from mpdtsp import brute_force, held_karp, tour_cost, tsplib
from mpdtsp.cheapest_insertion import CihBlock, apply_insertion, best_insertion
from mpdtsp.construction import lockstep
from mpdtsp.exact import BRUTE_FORCE_PAIR_LIMIT
from mpdtsp.generate import Direction, GenerationSpec, generate
from mpdtsp.nearest_neighbor import NnhBlock, extend, nearest
from mpdtsp.tsplib import MetricMode

#: every (cloud, metric, direction, Q) of the two golden tables
CLOUD_CASES = sorted(
    {("eil51", MetricMode.EXACT, d, q) for d in Direction for q in CAPACITIES}
    | {(name, metric, d, q) for name, metric, d, q, _, _ in CORPUS_CASES},
    key=lambda case: (case[0], case[1].value, case[2].value, case[3]),
)


def cloud_id(case) -> str:
    name, metric, direction, q = case
    return f"{name}/{metric.value}/{direction.value}/Q{q}"


@cache
def cloud(name: str) -> tsplib.PointCloud:
    return tsplib.parse_file(CORPUS_DIR / f"{name}.tsp")


def every_tour(instance, builder) -> list:
    """The finished tour of every start, all in one block."""
    starts = list(range(instance.node_count))
    return list(lockstep(instance, starts, len(starts), *builder)[0].values())


@pytest.mark.parametrize("case", CLOUD_CASES, ids=cloud_id)
def test_nnh_costs_are_the_sum_of_their_arcs(case):
    name, metric, direction, q = case
    instance = generate(cloud(name), GenerationSpec(direction, q), metric)
    tours = every_tour(instance, (NnhBlock.initial, nearest, extend))
    assert tours
    for tour in tours:
        assert tour.cost == tour_cost(instance, tour) == reference_tour_cost(instance, tour.sequence)


@pytest.mark.parametrize("case", CLOUD_CASES, ids=cloud_id)
def test_cih_costs_are_within_rounding_of_the_sum_of_their_arcs(case):
    name, metric, direction, q = case
    instance = generate(cloud(name), GenerationSpec(direction, q), metric)
    tours = every_tour(instance, (CihBlock.initial, best_insertion, apply_insertion))
    assert tours
    for tour in tours:
        assert tour.cost == pytest.approx(tour_cost(instance, tour), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("case", EXACT_CASES, ids=[case_key(*case) for case in EXACT_CASES])
def test_exact_optima_cost_the_sum_of_their_arcs(case):
    instance = golden_instance(*case)
    tours = [held_karp(instance)]
    if instance.n_pairs <= BRUTE_FORCE_PAIR_LIMIT:
        tours.append(brute_force(instance))
    for tour in tours:
        assert tour.cost == tour_cost(instance, tour) == reference_tour_cost(instance, tour.sequence)
