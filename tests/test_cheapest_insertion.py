import math

import numpy as np
import pytest

from conftest import cih_state, live_payload, make_random_instance
from reference_checkers import feasible_slots, insertion_ratio
from mpdtsp import (
    CihState,
    DeadEndError,
    InfeasibleInstanceError,
    Instance,
    InsertionChoice,
    MetricMode,
    MultiStartError,
    Role,
    apply_insertion,
    best_insertion,
    cih_best,
    cih_from,
    paired_loads,
    payload_profile,
    tour_cost,
    validate,
)
from mpdtsp.generate import Direction, GenerationSpec, generate

SQRT2 = math.sqrt(2.0)


def brute_force_slots(instance, state, node):
    """Per-slot simulation: insert, then check the whole payload upper bound."""
    q = float(instance.loads[node])
    payload = live_payload(state)
    ok = []
    for k in range(len(state.partial) - 1):
        new_payload = (
            list(payload[: k + 1])
            + [payload[k] + q]
            + [p + q for p in payload[k + 1 :]]
        )
        if any(p > instance.load_limit for p in new_payload):
            continue
        if instance.role(node) is Role.DELIVERY:
            pickup = node - instance.n_pairs
            if pickup not in state.partial or k < state.partial.index(pickup):
                continue
        ok.append(k)
    return ok


def run_rounds(instance, init, rounds=None):
    """Drive the insertion loop manually, checking payload consistency throughout."""
    state = CihState.initial(instance, init)
    steps = 0
    while state.remainder and (rounds is None or steps < rounds):
        choice = best_insertion(instance, state)
        assert choice is not None
        assert apply_insertion(state, choice, instance) is state  # updated in place
        assert list(live_payload(state)) == pytest.approx(
            payload_profile(instance, state.partial), abs=1e-12
        )
        assert all(p <= instance.load_limit for p in live_payload(state))
        assert state.cost_so_far == pytest.approx(
            tour_cost(instance, state.partial), abs=1e-9
        )
        steps += 1
    return state


class TestInitialState:
    def test_initial_payload_matches_event_semantics(self, two_pair):
        for init in range(two_pair.node_count):
            state = CihState.initial(two_pair, init)
            assert state.partial == (init, init)
            assert list(live_payload(state)) == payload_profile(two_pair, state.partial)

    def test_pickup_start_carries_pending_balance(self, two_pair):
        state = CihState.initial(two_pair, 1)
        assert live_payload(state) == (1.0, 1.0)

    def test_delivery_start_is_empty_until_close(self, two_pair):
        state = CihState.initial(two_pair, 3)
        assert live_payload(state) == (0.0, -1.0)


class TestFeasibleSlots:
    def test_fresh_tour_single_slot(self, two_pair):
        state = CihState.initial(two_pair, 0)
        assert list(feasible_slots(two_pair, state, 1)) == [0]

    def test_delivery_confined_after_pickup(self, two_pair):
        state = cih_state(two_pair, (0, 1, 0))
        assert live_payload(state) == (0.0, 1.0, 1.0)
        assert list(feasible_slots(two_pair, state, 3)) == [1]

    def test_capacity_suffix_window(self, two_pair):
        tight = two_pair.with_capacity(1.0)
        state = cih_state(tight, (0, 1, 3, 0))
        assert live_payload(state) == (0.0, 1.0, 0.0, 0.0)
        # suffix max before D1 is 1, and 1 + 1 > 1: only the slot after D1 fits
        assert list(feasible_slots(tight, state, 2)) == [2]

    def test_missing_pickup_gives_empty_window(self, two_pair):
        state = CihState.initial(two_pair, 0)
        assert list(feasible_slots(two_pair, state, 3)) == []

    def test_matches_brute_force_simulation(self):
        for seed in range(8):
            inst = make_random_instance(5, (seed % 3) + 1, seed)
            state = run_rounds(inst, seed % inst.node_count, rounds=4)
            for node in sorted(state.remainder):
                assert list(feasible_slots(inst, state, node)) == brute_force_slots(
                    inst, state, node
                ), (seed, node)


class TestInsertionRatio:
    def triangle(self, a, i, b):
        return Instance.from_coords([a, i, b], paired_loads([1.0]), 1.0)

    def test_on_segment_insertion(self):
        inst = self.triangle((0, 0), (1, 0), (2, 0))
        assert insertion_ratio(inst, 0, 1, 2) == 1.0

    def test_zero_denominator_falls_back_to_added_cost(self, two_pair):
        # first insertion between the doubled start node
        assert insertion_ratio(two_pair, 0, 1, 0) == 2.0
        assert insertion_ratio(two_pair, 0, 4, 0) == pytest.approx(2 * math.sqrt(5))

    def test_right_triangle_ratio(self):
        inst = self.triangle((0, 0), (0, 3), (4, 0))
        assert insertion_ratio(inst, 0, 1, 2) == pytest.approx((3.0 + 5.0) / 4.0)


class TestApplyInsertion:
    def test_pickup_then_delivery_chain(self, two_pair):
        state = CihState.initial(two_pair, 0)
        apply_insertion(state, InsertionChoice(1, 0, 0.0), two_pair)
        assert state.partial == (0, 1, 0)
        assert live_payload(state) == (0.0, 1.0, 1.0)
        assert state.remainder == {2, 3, 4}
        apply_insertion(state, InsertionChoice(3, 1, 0.0), two_pair)
        assert state.partial == (0, 1, 3, 0)
        assert live_payload(state) == (0.0, 1.0, 0.0, 0.0)
        assert state.remainder == {2, 4}

    def test_cost_bookkeeping_matches_recomputation(self):
        for seed in range(6):
            inst = make_random_instance(4, 2, seed)
            run_rounds(inst, seed % inst.node_count)  # asserts internally

    def test_bad_slot_rejected(self, two_pair):
        state = CihState.initial(two_pair, 0)
        with pytest.raises(ValueError, match="slot"):
            apply_insertion(state, InsertionChoice(1, 5, 0.0), two_pair)
        assert state.partial == (0, 0)  # a refused insertion changes nothing


class TestBestInsertion:
    def test_ratio_rule_soundness(self):
        for seed in range(6):
            inst = make_random_instance(5, 2, seed)
            state = CihState.initial(inst, seed % inst.node_count)
            while state.remainder:
                choice = best_insertion(inst, state)
                reference = min(
                    (
                        (insertion_ratio(inst, state.partial[k], node, state.partial[k + 1]),
                         node, k)
                        for node in sorted(state.remainder)
                        for k in feasible_slots(inst, state, node)
                    ),
                    default=None,
                )
                assert reference is not None
                ratio, node, slot = reference
                assert (choice.node, choice.slot) == (node, slot)
                assert choice.ratio == pytest.approx(ratio, abs=1e-12)
                state = apply_insertion(state, choice, inst)

    def test_exhausted_remainder_returns_none(self, two_pair):
        state = run_rounds(two_pair, 0)
        assert best_insertion(two_pair, state) is None


def reference_choice(instance, state):
    """(ratio, node, slot) of the greedy rule taken one node and one slot at a time."""
    return min(
        (
            (insertion_ratio(instance, state.partial[k], node, state.partial[k + 1]), node, k)
            for node in sorted(state.remainder)
            for k in feasible_slots(instance, state, node)
        ),
        default=None,
    )


def grid_instance(n_pairs, capacity, seed, metric):
    """Coordinates on a 0..8 square: under ROUNDED most ratios tie with another."""
    rng = np.random.RandomState(seed)
    coords = rng.uniform(0.0, 8.0, size=(2 * n_pairs + 1, 2))
    return Instance.from_coords(coords, paired_loads([1.0] * n_pairs), float(capacity), metric)


CACHE_CASES = [
    (seed, metric, q)
    for seed in range(5)
    for metric in (MetricMode.EXACT, MetricMode.ROUNDED)
    for q in (1, 2, 3)
]


class TestCachedRatios:
    @pytest.mark.parametrize("seed,metric,q", CACHE_CASES,
                             ids=[f"seed{s}-{m.value}-Q{q}" for s, m, q in CACHE_CASES])
    def test_every_step_matches_the_reference(self, seed, metric, q):
        inst = grid_instance(3 + seed, q, seed, metric)
        dead_ends = 0
        for init in range(inst.node_count):
            state = CihState.initial(inst, init)
            while True:
                cached = best_insertion(inst, state)
                reference = reference_choice(inst, state)
                if reference is None:
                    assert cached is None
                    dead_ends += bool(state.remainder)
                    break
                assert (cached.ratio, cached.node, cached.slot) == reference
                apply_insertion(state, cached, inst)
        if q == 1:
            assert dead_ends > 0  # the Q=1 stall path is covered too

    def test_ratio_buffer_equals_every_ratio(self):
        inst = grid_instance(4, 2, 7, MetricMode.ROUNDED)
        state = CihState.initial(inst, 5)
        while True:
            slots = range(len(state.partial) - 1)
            # row k holds every node's ratio at slot k
            expected = [
                [insertion_ratio(inst, state.partial[k], u, state.partial[k + 1])
                 for u in range(inst.node_count)]
                for k in slots
            ]
            assert state.ratios[: len(slots)].tolist() == expected
            if not state.remainder:
                break
            apply_insertion(state, best_insertion(inst, state), inst)

    def test_node_already_in_tour_rejected(self, two_pair):
        state = CihState.initial(two_pair, 0)
        with pytest.raises(ValueError, match="not awaiting insertion"):
            apply_insertion(state, InsertionChoice(0, 0, 0.0), two_pair)


class TestCihFrom:
    def test_single_pair_forced_order(self, one_pair):
        assert cih_from(one_pair, 0).sequence == (0, 1, 2, 0)

    def test_two_pair_fixture_hand_simulation(self, two_pair):
        # opening round-trips: P1 wins; D1 enters at ratio 1+sqrt2; P2 splices
        # between P1 and D1; D2 lands between P2 and D1
        tour = cih_from(two_pair, 0)
        assert tour.sequence == (0, 1, 2, 4, 3, 0)
        assert tour.cost == pytest.approx(4.0 + SQRT2, abs=1e-12)

    def test_delivery_init_first_insertion_is_pickup(self, eil51_cloud):
        # the 25-pair layout with central pickups: from any delivery start the
        # other deliveries are all blocked and a pickup opens the tour
        inst = generate(eil51_cloud, GenerationSpec(Direction.PICKUPS_CENTRAL, 10))
        for delivery in inst.deliveries:
            state = CihState.initial(inst, delivery)
            for node in inst.deliveries:
                if node != delivery:
                    assert list(feasible_slots(inst, state, node)) == []
            choice = best_insertion(inst, state)
            assert inst.role(choice.node) is Role.PICKUP

    def test_eil51_any_start_validates(self, eil51_cloud):
        inst = generate(eil51_cloud, GenerationSpec(Direction.DELIVERIES_CENTRAL, 2))
        for init in (0, 5, inst.node_count - 1):
            tour = cih_from(inst, init)
            assert len(tour.sequence) == inst.node_count + 1
            assert validate(inst, tour).feasible

    def test_deterministic_and_scale_invariant(self):
        for seed in (2, 9):
            inst = make_random_instance(6, 3, seed)
            scaled = Instance.from_coords(
                inst.coords * 23.0, inst.loads, inst.capacity, MetricMode.EXACT
            )
            for init in (0, 3):
                assert cih_from(inst, init).sequence == cih_from(inst, init).sequence
                assert cih_from(inst, init).sequence == cih_from(scaled, init).sequence

    def test_flagged_instance_refused(self, two_pair):
        with pytest.raises(InfeasibleInstanceError):
            cih_from(two_pair.with_capacity(0.5), 0)


class TestCihBest:
    def test_single_pair_unique_cycle(self, one_pair):
        result = cih_best(one_pair)
        assert result.best_cost == pytest.approx(2.0 + SQRT2, abs=1e-12)
        assert set(result.costs) == {0, 1, 2}

    def test_best_bounds_every_start(self, two_pair):
        result = cih_best(two_pair)
        assert all(result.best_cost <= c for c in result.costs.values())

    def test_stalls_carry_the_dead_end_lengths(self, two_pair):
        tight = two_pair.with_capacity(1.0)
        result = cih_best(tight)
        assert result.dead_ends and sorted(result.stalls) == list(result.dead_ends)
        for init, stall in result.stalls.items():
            with pytest.raises(DeadEndError) as err:
                cih_from(tight, init)
            assert stall == (len(err.value.partial), len(err.value.remainder))

    def test_dead_ends_keep_no_builder_frames(self, two_pair):
        # a kept traceback would hold each stalled start's last state, ratio
        # matrix included, until the cyclic garbage collector ran
        with pytest.raises(MultiStartError) as err:
            cih_best(two_pair.with_capacity(1.0), inits=[3, 4])
        assert set(err.value.failures) == {3, 4}
        assert all(exc.__traceback__ is None for exc in err.value.failures.values())

    def test_cost_table_reproducible_across_capacities(self, eil51_cloud):
        for q in (2, 10):
            inst = generate(eil51_cloud, GenerationSpec(Direction.DELIVERIES_CENTRAL, q))
            assert cih_best(inst).costs == cih_best(inst).costs
