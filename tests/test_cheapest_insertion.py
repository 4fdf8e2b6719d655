import math
from functools import partial

import numpy as np
import pytest

from conftest import (
    at_load_limit,
    block_partial,
    cih_state,
    live_payload,
    make_random_instance,
    splice,
    with_capacity,
)
from reference_checkers import (
    CihState,
    Insertion,
    feasible_slots,
    insertion_ratio,
    reference_apply_insertion,
    reference_best_insertion,
)
from mpdtsp import (
    InfeasibleInstanceError,
    Instance,
    MetricMode,
    MultiStartError,
    cih_best,
    cih_from,
    nnh_best,
    paired_loads,
    payload_profile,
    tour_cost,
    validate,
)
from mpdtsp import cheapest_insertion, construction
from mpdtsp.cheapest_insertion import CihBlock, apply_insertion, best_insertion
from mpdtsp.nearest_neighbor import NnhBlock, extend, nearest
from mpdtsp.generate import Direction, GenerationSpec, generate

SQRT2 = math.sqrt(2.0)
#: each builder's step functions, as cih_best and nnh_best pass them to the engine
BUILDERS = ((CihBlock.initial, best_insertion, apply_insertion), (NnhBlock.initial, nearest, extend))


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
        if node > instance.n_pairs:
            pickup = node - instance.n_pairs
            if pickup not in state.partial or k < state.partial.index(pickup):
                continue
        ok.append(k)
    return ok


def run_rounds(instance, init, rounds=None):
    """Drive a one-row lock-step block by hand, checking payload and cost throughout."""
    block = CihBlock.initial(instance, [init])
    while block.size <= instance.node_count and (rounds is None or block.size - 2 < rounds):
        choice = best_insertion(instance, block)
        assert not choice.stalled[0]
        assert apply_insertion(block, choice, instance) is block  # updated in place
        partial = block_partial(block)
        assert list(live_payload(block)) == pytest.approx(payload_profile(instance, partial), abs=1e-12)
        assert all(p <= instance.load_limit for p in live_payload(block))
        assert block.total[0] == pytest.approx(tour_cost(instance, partial), abs=1e-9)
    return block


class TestInitialState:
    def test_initial_payload_matches_event_semantics(self, two_pair):
        block = CihBlock.initial(two_pair, list(range(two_pair.node_count)))
        for init in range(two_pair.node_count):
            partial = block_partial(block, init)
            assert partial == (init, init)
            assert block.payload[init, :2].tolist() == payload_profile(two_pair, partial)

    def test_pickup_start_carries_pending_balance(self, two_pair):
        assert live_payload(CihBlock.initial(two_pair, [1])) == (1.0, 1.0)

    def test_delivery_start_is_empty_until_close(self, two_pair):
        assert live_payload(CihBlock.initial(two_pair, [3])) == (0.0, -1.0)


class TestFeasibleSlots:
    def test_fresh_tour_single_slot(self, two_pair):
        state = CihState.initial(two_pair, 0)
        assert list(feasible_slots(two_pair, state, 1)) == [0]

    def test_delivery_confined_after_pickup(self, two_pair):
        state = cih_state(two_pair, (0, 1, 0))
        assert live_payload(state) == (0.0, 1.0, 1.0)
        assert list(feasible_slots(two_pair, state, 3)) == [1]

    def test_capacity_suffix_window(self, two_pair):
        tight = with_capacity(two_pair, 1.0)
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
            state = cih_state(inst, block_partial(run_rounds(inst, seed % inst.node_count, rounds=4)))
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
        block = CihBlock.initial(two_pair, [0])
        splice(block, 1, 0, two_pair)
        assert block_partial(block) == (0, 1, 0)
        assert live_payload(block) == (0.0, 1.0, 1.0)
        splice(block, 3, 1, two_pair)
        assert block_partial(block) == (0, 1, 3, 0)
        assert live_payload(block) == (0.0, 1.0, 0.0, 0.0)
        assert block.total[0] == tour_cost(two_pair, (0, 1, 3, 0))

    def test_cost_bookkeeping_matches_recomputation(self):
        for seed in range(6):
            inst = make_random_instance(4, 2, seed)
            run_rounds(inst, seed % inst.node_count)  # asserts internally

    def test_bad_slot_rejected(self, two_pair):
        # the reference builder refuses a hand-written insertion that does not fit
        state = CihState.initial(two_pair, 0)
        with pytest.raises(ValueError, match="slot"):
            reference_apply_insertion(state, Insertion(1, 5, 0.0), two_pair)
        assert state.partial == (0, 0)  # a refused insertion changes nothing


class TestBestInsertion:
    def test_ratio_rule_soundness(self):
        # every start of one block at once, each row against the per-slot rule
        for seed in range(6):
            inst = make_random_instance(5, 2, seed)
            block = CihBlock.initial(inst, list(range(inst.node_count)))
            while block.size <= inst.node_count:
                choice = best_insertion(inst, block)
                assert not choice.stalled.any()
                for r in range(block.inits.size):
                    state = cih_state(inst, block_partial(block, r))
                    reference = reference_choice(inst, state)
                    assert reference is not None
                    ratio, node, slot = reference
                    assert (choice.node[r], choice.slot[r]) == (node, slot)
                    assert choice.ratio[r] == pytest.approx(ratio, abs=1e-12)
                apply_insertion(block, choice, inst)

    def test_exhausted_remainder_returns_none(self, two_pair):
        state = cih_state(two_pair, block_partial(run_rounds(two_pair, 0)))
        assert reference_best_insertion(two_pair, state) is None


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


def three_loads():
    """Five pairs of loads 1, 2 and 3 under Q = 4: three capacity levels live in one step, and stalls."""
    coords = np.random.RandomState(0).uniform(0.0, 8.0, size=(11, 2))
    return Instance.from_coords(coords, paired_loads([1.0, 2.0, 3.0, 1.0, 2.0]), 4.0, MetricMode.ROUNDED)


#: beyond unit loads under a tight Q: several capacity levels live in one
#: step, a load of exactly load_limit, and a Q that leaves every level dead
LOAD_CASES = {
    "three-loads": three_loads,
    "at-load-limit": at_load_limit,
    "loose": partial(grid_instance, 4, 100, 3, MetricMode.ROUNDED),
}
#: the most capacity levels live in one step of each
MOST_LIVE = {"three-loads": 3, "at-load-limit": 2, "loose": 0}
CACHE_CASES = {
    **{f"seed{seed}-{metric.value}-Q{q}": partial(grid_instance, 3 + seed, q, seed, metric)
       for seed in range(5) for metric in (MetricMode.EXACT, MetricMode.ROUNDED) for q in (1, 2, 3)},
    **LOAD_CASES,
}
SPLIT_CASES = {"grid-Q1": partial(grid_instance, 4, 1, 3, MetricMode.ROUNDED), **LOAD_CASES}


def most_live(instance, payload):
    """How many distinct thresholds ``load_limit - load`` lie below the top of ``payload``."""
    return np.count_nonzero(np.unique(instance.load_limit - instance.loads) < max(payload))


class TestCachedRatios:
    @pytest.mark.parametrize("case", CACHE_CASES)
    def test_every_step_matches_the_reference(self, case):
        # a one-row block and the reference builder's cached ratios, step by step
        inst = CACHE_CASES[case]()
        dead_ends = live = 0
        for init in range(inst.node_count):
            block = CihBlock.initial(inst, [init])
            state = CihState.initial(inst, init)
            while True:
                assert block_partial(block) == state.partial
                if not state.remainder:
                    break
                live = max(live, most_live(inst, live_payload(state)))
                choice = best_insertion(inst, block)
                cached = reference_best_insertion(inst, state)
                reference = reference_choice(inst, state)
                if reference is None:
                    assert choice.stalled[0] and choice.cells == 0 and cached is None
                    dead_ends += 1
                    break
                assert (choice.ratio[0], choice.node[0], choice.slot[0]) == reference
                assert (cached.ratio, cached.node, cached.slot) == reference
                assert choice.cells == sum(len(feasible_slots(inst, state, v)) for v in state.remainder)
                apply_insertion(block, choice, inst)
                reference_apply_insertion(state, cached, inst)
            assert reference_choice(inst, state) is None
        if inst.capacity == 1:
            assert dead_ends > 0  # the Q=1 stall path is covered too
        assert live == MOST_LIVE.get(case, live)

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
            reference_apply_insertion(state, reference_best_insertion(inst, state), inst)

    def test_node_already_in_tour_rejected(self, two_pair):
        state = CihState.initial(two_pair, 0)
        with pytest.raises(ValueError, match="not awaiting insertion"):
            reference_apply_insertion(state, Insertion(0, 0, 0.0), two_pair)


def fresh_floors(instance, block):
    """Each row's precedence floors derived from its tour alone; None marks a shut node."""
    n = instance.n_pairs
    floors = []
    for r in range(block.inits.size):
        partial = block_partial(block, r)[:-1]  # a start counts at its opening visit
        row = []
        for u in range(instance.node_count):
            if u in partial:
                row.append(None)  # a delivery start is in its tour, so its pickup opens nothing
            elif u > n:
                row.append(partial.index(u - n) if u - n in partial else None)
            else:
                row.append(0)
        floors.append(row)
    return floors


FLOOR_CASES = [(q, metric) for q in (1, 2) for metric in (MetricMode.EXACT, MetricMode.ROUNDED)]


class TestCarriedFloor:
    @pytest.mark.parametrize("q,metric", FLOOR_CASES, ids=[f"Q{q}-{m.value}" for q, m in FLOOR_CASES])
    def test_floor_and_delta_match_a_fresh_derivation(self, q, metric):
        # every start of the block (depot, pickups and deliveries) at every step:
        # the carried floors are the tour's own, and the delta is the splice's
        inst = grid_instance(5, q, 4, metric)
        shut = 2 * inst.node_count + 2  # past every slot of a full tour
        cost = inst.cost.tolist()

        def check_floors(block):
            floors = fresh_floors(inst, block)
            for r, row in enumerate(floors):
                for u, expected in enumerate(row):
                    carried = int(block.floor[r, u])
                    assert carried >= shut if expected is None else carried == expected, (block.inits[r], u)

        def choose(instance, block):
            check_floors(block)
            choice = best_insertion(instance, block)
            going = (~choice.stalled).nonzero()[0]
            for r, u, k, delta in zip(going, choice.node, choice.slot, choice.delta):
                a, b = block.tour[r, k], block.tour[r, k + 1]
                assert delta == cost[a][u] + cost[u][b] - cost[a][b]
            return choice

        def apply(block, choice, instance):
            check_floors(apply_insertion(block, choice, instance))
            return block

        tours, stalls, _, _ = construction.lockstep(
            inst, list(range(inst.node_count)), inst.node_count, CihBlock.initial, choose, apply)
        assert tours
        if q == 1:
            assert any(s > inst.n_pairs for s in stalls)  # stalled rows leave with their floors


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
        block = CihBlock.initial(inst, list(inst.deliveries))
        for delivery in inst.deliveries:
            state = CihState.initial(inst, delivery)
            for node in inst.deliveries:
                if node != delivery:
                    assert list(feasible_slots(inst, state, node)) == []
        choice = best_insertion(inst, block)
        assert all(1 <= node <= inst.n_pairs for node in choice.node)

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
            cih_from(with_capacity(two_pair, 0.5), 0)


class TestCihBest:
    def test_single_pair_unique_cycle(self, one_pair):
        result = cih_best(one_pair)
        assert result.best_cost == pytest.approx(2.0 + SQRT2, abs=1e-12)
        assert set(result.costs) == {0, 1, 2}

    def test_best_bounds_every_start(self, two_pair):
        result = cih_best(two_pair)
        assert all(result.best_cost <= c for c in result.costs.values())

    def test_stalls_carry_the_dead_end_lengths(self, two_pair):
        tight = with_capacity(two_pair, 1.0)
        result = cih_best(tight)
        assert result.dead_ends and sorted(result.stalls) == list(result.dead_ends)
        # the stall step counts the distinct nodes placed: the closed partial
        # tour, less its doubled start
        partials = construction.lockstep(tight, list(result.stalls), 1, *BUILDERS[0])[1]
        assert partials == {3: (3, 0, 1, 3), 4: (4, 0, 2, 4)}
        assert result.stalls == {3: (3, 2), 4: (3, 2)}  # as nnh_best reports them

    def test_a_cost_total_off_its_arcs_is_a_bug(self, two_pair, monkeypatch):
        # the right visit sequence with a wrong total must not pass as a tour
        def overcharging(block, choice, instance):
            block = apply_insertion(block, choice, instance)
            block.total += 1.0
            return block

        monkeypatch.setattr(cheapest_insertion, "apply_insertion", overcharging)
        with pytest.raises(RuntimeError, match="arcs sum to"):
            cih_best(two_pair)

    def test_a_repeated_node_is_a_bug(self, two_pair, monkeypatch):
        # the last splice writes over a placed node with its neighbour, so
        # one node is missing and another repeated
        def repeating(block, choice, instance):
            block = apply_insertion(block, choice, instance)
            if block.size == instance.node_count + 1:
                block.tour[:, 1] = block.tour[:, 2]
            return block

        monkeypatch.setattr(cheapest_insertion, "apply_insertion", repeating)
        with pytest.raises(RuntimeError, match="(?s)violates the constraint system.*visit-count"):
            cih_best(two_pair)

    def test_all_starts_stalling_raises_their_stalls(self, two_pair):
        with pytest.raises(MultiStartError) as err:
            cih_best(with_capacity(two_pair, 1.0), inits=[3, 4])
        assert err.value.stalls == {3: (3, 2), 4: (3, 2)}
        assert str(err.value) == (
            "no start produced a tour: start 3: dead end at step 3, 2 left; start 4: dead end at step 3, 2 left")

    def test_steps_and_cells_count_the_block_work(self):
        # the in-window cells of every step of every start, the stalling step
        # included, and one step per node inserted
        inst = grid_instance(4, 1, 3, MetricMode.ROUNDED)
        result = cih_best(inst)
        steps = cells = 0
        for init in range(inst.node_count):
            state = CihState.initial(inst, init)
            while state.remainder:
                cells += sum(len(feasible_slots(inst, state, v)) for v in state.remainder)
                choice = reference_best_insertion(inst, state)
                if choice is None:
                    break
                reference_apply_insertion(state, choice, inst)
                steps += 1
        assert result.dead_ends
        assert (result.steps, result.cells) == (steps, cells)

    @pytest.mark.parametrize("case", SPLIT_CASES)
    @pytest.mark.parametrize("rows", (1, 2, 3))
    @pytest.mark.parametrize("builder", BUILDERS, ids=("CIH", "NNH"))
    def test_starts_split_into_blocks_give_the_same_result(self, builder, rows, case):
        # blocks of 2 and 3 rows hold a row that stalls while the others go on
        inst = SPLIT_CASES[case]()
        starts = list(range(inst.node_count))
        whole = construction.lockstep(inst, starts, len(starts), *builder)
        split = construction.lockstep(inst, starts, rows, *builder)
        assert split == whole
        assert whole[0] and (whole[1] or case in ("at-load-limit", "loose"))  # stalls merge across blocks too

    @pytest.mark.parametrize("builder", BUILDERS, ids=("CIH", "NNH"))
    def test_a_block_holds_at_least_one_start(self, monkeypatch, builder):
        inst = grid_instance(4, 1, 3, MetricMode.ROUNDED)
        whole = construction.run_multistart(inst, None, *builder, 1)
        monkeypatch.setattr(construction, "BLOCK_CELLS", 1)  # fewer than one start's cells
        assert construction.run_multistart(inst, None, *builder, inst.node_count) == whole

    def test_blocks_hold_as_many_starts_as_block_cells_allow(self, monkeypatch):
        # 11 nodes: an NNH start lays out 11 cells a step, so 64 cells hold 5
        # starts; a CIH start lays out 11**2 // 4 = 30, so 64 cells hold 2
        inst = make_random_instance(5, 2, 0)
        whole = nnh_best(inst), cih_best(inst)
        sizes = {NnhBlock: [], CihBlock: []}
        for block in sizes:
            def counting(instance, starts, block=block, initial=block.initial):
                sizes[block].append(len(starts))
                return initial(instance, starts)
            monkeypatch.setattr(block, "initial", staticmethod(counting))
        monkeypatch.setattr(construction, "BLOCK_CELLS", 64)
        assert (nnh_best(inst), cih_best(inst)) == whole
        assert sizes == {NnhBlock: [5, 5, 1], CihBlock: [2, 2, 2, 2, 2, 1]}

    def test_cost_table_reproducible_across_capacities(self, eil51_cloud):
        for q in (2, 10):
            inst = generate(eil51_cloud, GenerationSpec(Direction.DELIVERIES_CENTRAL, q))
            assert cih_best(inst).costs == cih_best(inst).costs
