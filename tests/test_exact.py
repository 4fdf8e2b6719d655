import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from conftest import make_random_instance, with_capacity
from mpdtsp import exact
from mpdtsp.exact import HELD_KARP_PAIR_LIMIT, precedence_orders
from mpdtsp.model import feasible_rows
from mpdtsp import (
    Instance,
    MetricMode,
    brute_force,
    cih_from,
    held_karp,
    nnh_from,
    paired_loads,
    tour_cost,
    validate,
)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def precedence_only_optimum(instance):
    """Enumeration oracle with the capacity rule dropped (pairs order only)."""
    n = instance.n_pairs
    best = None
    for perm in permutations(range(1, 2 * n + 1)):
        pos = {v: i for i, v in enumerate(perm)}
        if any(pos[k] > pos[k + n] for k in range(1, n + 1)):
            continue
        cost = tour_cost(instance, (0, *perm, 0))
        if best is None or cost < best:
            best = cost
    return best


class TestSinglePair:
    def test_unique_tour_is_the_triangle(self, one_pair):
        perimeter = 1.0 + SQRT2 + 1.0
        hk = held_karp(one_pair)
        bf = brute_force(one_pair)
        assert hk.sequence == bf.sequence == (0, 1, 2, 0)
        assert hk.cost == pytest.approx(perimeter, abs=1e-12)
        assert bf.cost == pytest.approx(perimeter, abs=1e-12)


class TestTwoPairFixture:
    def test_q2_optimum(self, two_pair):
        hk = held_karp(two_pair)
        bf = brute_force(two_pair)
        assert hk.cost == pytest.approx(4.0 + SQRT2, abs=1e-12)
        assert bf.cost == pytest.approx(4.0 + SQRT2, abs=1e-12)
        assert validate(two_pair, hk).feasible

    def test_q1_restricts_to_pair_at_a_time(self, two_pair):
        tight = with_capacity(two_pair, 1.0)
        hk = held_karp(tight)
        bf = brute_force(tight)
        assert hk.cost == pytest.approx(3.0 + SQRT2 + SQRT5, abs=1e-12)
        assert bf.cost == pytest.approx(hk.cost, abs=1e-12)

    def test_capacity_below_item_mass_is_infeasible(self, two_pair):
        flagged = with_capacity(two_pair, 0.5)
        assert held_karp(flagged) is None
        assert brute_force(flagged) is None


class TestOracleEquivalence:
    def test_hundred_seeded_three_pair_instances(self):
        for seed in range(100):
            inst = make_random_instance(3, (seed % 3) + 1, seed)
            hk = held_karp(inst)
            bf = brute_force(inst)
            assert hk is not None and bf is not None
            assert abs(hk.cost - bf.cost) <= 1e-9, seed
            assert validate(inst, hk).feasible
            assert validate(inst, bf).feasible

    def test_rounded_metric_exact_equality(self):
        for seed in range(20):
            inst = make_random_instance(3, 2, seed, MetricMode.ROUNDED)
            assert held_karp(inst).cost == brute_force(inst).cost


class TestProperties:
    def test_capacity_monotone_in_q(self):
        for seed in range(10):
            inst = make_random_instance(3, 1, seed)
            costs = [held_karp(with_capacity(inst, q)).cost for q in (1, 2, 3)]
            assert costs[0] >= costs[1] >= costs[2]

    def test_uncapacitated_equals_precedence_only(self):
        for seed in range(6):
            inst = make_random_instance(3, 3, seed)
            relaxed = with_capacity(inst, inst.n_pairs * float(inst.loads[1:].max()))
            assert held_karp(relaxed).cost == pytest.approx(
                precedence_only_optimum(relaxed), abs=1e-9
            )

    def test_heuristics_dominated_by_optimum(self):
        for seed in range(10):
            inst = make_random_instance(3, (seed % 3) + 1, seed + 500)
            optimum = held_karp(inst).cost
            assert nnh_from(inst, 0).cost >= optimum - 1e-9
            assert cih_from(inst, 0).cost >= optimum - 1e-9


class TestPrecedenceOrders:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_are_the_precedence_respecting_permutations_in_order(self, n):
        expected = [
            perm for perm in permutations(range(1, 2 * n + 1))
            if all(perm.index(k) < perm.index(n + k) for k in range(1, n + 1))
        ]
        assert precedence_orders(n).tolist() == [list(perm) for perm in expected]
        assert len(expected) == math.factorial(2 * n) // 2**n

    def test_brute_force_judges_every_order_in_one_block_check(self, monkeypatch):
        blocks = []

        def counting_feasible_rows(instance, inits, tour):
            blocks.append(tour.copy())
            return feasible_rows(instance, inits, tour)

        monkeypatch.setattr(exact, "feasible_rows", counting_feasible_rows)
        inst = make_random_instance(4, 2, 3)
        assert brute_force(inst).cost == pytest.approx(held_karp(inst).cost, abs=1e-9)
        assert len(blocks) == 1
        assert len(blocks[0]) == len({tuple(row) for row in blocks[0].tolist()}) == 2520


class TestLimitsAndTies:
    def test_pair_limits_refused_with_message(self):
        with pytest.raises(ValueError, match="limited to 12"):
            held_karp(make_random_instance(13, 13, 1))
        with pytest.raises(ValueError, match="limited to 4"):
            brute_force(make_random_instance(5, 5, 1))

    def test_brute_force_tie_is_lexicographic(self, one_pair):
        # symmetric square geometry forces cost ties across directions
        inst = Instance.from_coords(
            [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0)], paired_loads([1.0, 1.0]), 2.0
        )
        bf = brute_force(inst)
        feasible = []
        for perm in permutations(range(1, 5)):
            seq = (0, *perm, 0)
            if validate(inst, seq).feasible:
                feasible.append((tour_cost(inst, seq), seq))
        best_cost = min(c for c, _ in feasible)
        best_seqs = sorted(s for c, s in feasible if c == best_cost)
        assert bf.sequence == best_seqs[0]


def grid_instance(seed: int) -> Instance:
    """2-4 pairs on a 5 x 5 integer grid under ROUNDED, Q = 1, 2 or n: ties everywhere."""
    rng = np.random.RandomState(seed)
    n = 2 + seed % 3
    q = (1, 2, n)[seed // 3 % 3]
    coords = rng.randint(0, 5, size=(2 * n + 1, 2)).astype(float)
    return Instance.from_coords(coords, paired_loads([1.0] * n), float(q), MetricMode.ROUNDED)


def plain_optima(inst: Instance) -> tuple[float | None, list[tuple[int, ...]]]:
    """The optimal cost and every optimal interior order, in lexicographic order, by a plain loop.

    Each order goes through ``validate``, and its cost is ``tour_cost``'s
    left-to-right sum over a plain-list matrix, far faster per tour.  The
    loop adds one arc at a time: from Python 3.12 the builtin ``sum`` of
    floats compensates its rounding, so its bits are not a left-to-right sum.
    """
    arc = inst.cost.tolist()
    optimal = []
    best = None
    for order in map(tuple, precedence_orders(inst.n_pairs).tolist()):
        seq = (0, *order, 0)
        if not validate(inst, seq).feasible:
            continue
        cost = 0.0
        for a, b in zip(seq, seq[1:]):
            cost += arc[a][b]
        if best is None or cost < best:
            best, optimal = cost, []
        if cost == best:
            optimal.append(order)
    return best, optimal


def real_load_instance(seed: int) -> Instance:
    """1-4 pairs with loads in [0.1, 3] under a capacity drawn between the largest item and their sum."""
    rng = np.random.RandomState(seed)
    n = 1 + seed % 4
    loads = rng.uniform(0.1, 3.0, size=n)
    capacity = rng.uniform(loads.max(), loads.sum())
    coords = rng.uniform(0.0, 100.0, size=(2 * n + 1, 2))
    return Instance.from_coords(coords, paired_loads(loads), capacity)


class TestHeldKarpTieRule:
    def test_last_visit_back_is_lexicographically_smallest(self):
        tied = 0
        for seed in range(200):
            inst = grid_instance(seed)
            best, optimal = plain_optima(inst)
            tour = held_karp(inst)
            assert tour.cost == best, seed
            assert tour.sequence[1:-1] == min(optimal, key=lambda o: o[::-1]), seed
            tied += len(optimal) > 1
        # the rule is only exercised where optima tie
        assert tied >= 100


class TestBruteForceAgainstPlainLoop:
    @pytest.mark.parametrize("build", [grid_instance, real_load_instance], ids=["grid", "real-loads"])
    def test_brute_force_matches_the_plain_enumeration(self, build):
        tied = 0
        for seed in range(60):
            inst = build(seed)
            best, optimal = plain_optima(inst)
            tour = brute_force(inst)
            # the cheapest cost, then the lexicographically smallest sequence
            assert tour.sequence == (0, *optimal[0], 0), seed
            assert tour.cost == best, seed
            tied += len(optimal) > 1
        if build is grid_instance:
            assert tied >= 30

    def test_brute_force_finds_no_tour_when_an_item_is_oversized(self):
        for seed in range(4):
            inst = with_capacity(real_load_instance(seed), 0.05)
            assert plain_optima(inst) == (None, [])
            assert brute_force(inst) is None


class TestPairLimit:
    def test_twelve_pairs_solve_within_the_default_limit(self):
        assert HELD_KARP_PAIR_LIMIT == 12
        inst = make_random_instance(12, 2, 12)
        tour = held_karp(inst)
        assert validate(inst, tour).feasible
        assert tour.cost == tour_cost(inst, tour)
        assert tour.cost <= nnh_from(inst, 0).cost

    def test_twelve_pairs_at_q_12_peak_within_bound(self):
        # all 531,441 codes fit; the layer loop that ran one batch per move
        # peaked at 55 MiB here, and whole layers laid out at once at about 295 MiB
        inst = make_random_instance(12, 12, 12)
        tracemalloc.start()
        try:
            tour = held_karp(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert validate(inst, tour).feasible
        assert peak <= 1.15 * 55 * 2**20
