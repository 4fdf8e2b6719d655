import math

import pytest

from conftest import make_random_instance, with_capacity
from reference_checkers import NnhState, feasible_candidates
from mpdtsp import (
    InfeasibleInstanceError,
    Instance,
    MetricMode,
    MultiStartError,
    nnh_best,
    nnh_from,
    validate,
)
from mpdtsp import nearest_neighbor
from mpdtsp.generate import Direction, GenerationSpec, generate
from mpdtsp.construction import lockstep
from mpdtsp.nearest_neighbor import NnhBlock, extend, nearest

SQRT2 = math.sqrt(2.0)


class TestFeasibleCandidates:
    def test_depot_start_blocks_all_deliveries(self, two_pair):
        state = NnhState.initial(two_pair, 0)
        assert feasible_candidates(two_pair, state) == [1, 2]

    def test_capacity_and_precedence_gates_together(self, two_pair):
        tight = with_capacity(two_pair, 1.0)
        state = NnhState(partial=[0, 1], payload=1.0, remainder={2, 3, 4}, cost_so_far=1.0)
        # P2 blocked by capacity, D2 blocked by precedence, D1 admissible
        assert feasible_candidates(tight, state) == [3]

    def test_empty_remainder_gives_empty_set(self, two_pair):
        state = NnhState(partial=[0, 1, 2, 4, 3], payload=0.0, remainder=set(), cost_so_far=0.0)
        assert feasible_candidates(two_pair, state) == []


class TestNnhFrom:
    def test_single_pair_forced_order(self, one_pair):
        tour = nnh_from(one_pair, 0)
        assert tour.sequence == (0, 1, 2, 0)

    def test_two_pair_fixture_hand_simulation(self, two_pair):
        # greedy from the depot: P1 (cost 1), tie P2/D1 at 1 -> lower id P2,
        # then D2 (1 < sqrt2), D1, close with sqrt2
        tour = nnh_from(two_pair, 0)
        assert tour.sequence == (0, 1, 2, 4, 3, 0)
        assert tour.cost == pytest.approx(4.0 + SQRT2, abs=1e-12)

    def test_eil51_any_start_validates(self, eil51_cloud):
        inst = generate(eil51_cloud, GenerationSpec(Direction.PICKUPS_CENTRAL, 10))
        for init in (0, 1, inst.n_pairs + 3, inst.node_count - 1):
            tour = nnh_from(inst, init)
            assert len(tour.sequence) == inst.node_count + 1
            assert validate(inst, tour).feasible

    def test_greedy_choice_soundness(self):
        for seed in range(6):
            inst = make_random_instance(5, 2, seed)
            for init in (0, 1, inst.n_pairs + 1):
                tour = nnh_from(inst, init)
                state = NnhState.initial(inst, init)
                for nxt in tour.sequence[1:-1]:
                    candidates = feasible_candidates(inst, state)
                    assert nxt in candidates
                    best = min(
                        candidates, key=lambda v: (inst.cost[state.partial[-1], v], v)
                    )
                    assert nxt == best
                    state.payload += float(inst.loads[nxt])
                    state.partial.append(nxt)
                    state.remainder.discard(nxt)

    def test_deterministic(self, eil51_cloud):
        inst = generate(eil51_cloud, GenerationSpec(Direction.DELIVERIES_CENTRAL, 4))
        assert nnh_from(inst, 7).sequence == nnh_from(inst, 7).sequence

    def test_visit_sequence_invariant_under_scaling(self):
        for seed in (1, 5):
            inst = make_random_instance(6, 3, seed)
            scaled = Instance.from_coords(
                inst.coords * 17.0, inst.loads, inst.capacity, MetricMode.EXACT
            )
            for init in (0, 2):
                assert nnh_from(inst, init).sequence == nnh_from(scaled, init).sequence

    def test_delivery_start_dead_end_under_unit_capacity(self, two_pair):
        # from D1: P1 (nearest), then the depot still fits, then nothing does:
        # P2 is blocked by the load on board and D2 by precedence
        tight = with_capacity(two_pair, 1.0)
        with pytest.raises(MultiStartError) as err:
            nnh_from(tight, 3)
        assert err.value.stalls == {3: (3, 2)}
        assert lockstep(tight, [3], 1, NnhBlock.initial, nearest, extend)[1] == {3: (3, 1, 0)}

    def test_flagged_instance_refused(self, two_pair):
        with pytest.raises(InfeasibleInstanceError):
            nnh_from(with_capacity(two_pair, 0.5), 0)


class TestNnhBest:
    def test_single_pair_best_matches_depot_start(self, one_pair):
        result = nnh_best(one_pair)
        perimeter = 1.0 + SQRT2 + 1.0
        assert result.best_cost == pytest.approx(perimeter, abs=1e-12)
        assert result.best_cost == pytest.approx(result.costs[0], abs=1e-12)
        assert set(result.costs) == {0, 1, 2}

    def test_best_bounds_every_start(self, two_pair):
        result = nnh_best(two_pair)
        assert result.costs
        assert all(result.best_cost <= c for c in result.costs.values())

    def test_dead_ends_recorded_and_best_still_found(self, two_pair):
        result = nnh_best(with_capacity(two_pair, 1.0))
        assert result.dead_ends == (3, 4)
        # 3, 1, 0 and 4, 2, 0, then the two nodes left are blocked
        assert result.stalls == {3: (3, 2), 4: (3, 2)}
        assert set(result.costs) == {0, 1, 2}
        assert validate(with_capacity(two_pair, 1.0), result.best_tour).feasible

    def test_steps_and_cells_count_the_block_work(self, two_pair):
        # three starts append 4 nodes each; the two that stall at step 3 append
        # 2 each.  Every live start's step scans all 5 nodes, the stalling one
        # included.
        result = nnh_best(with_capacity(two_pair, 1.0))
        assert result.steps == 3 * 4 + 2 * 2
        assert result.cells == 5 * (3 * 4 + 2 * 3)

    def test_a_repeated_node_is_a_bug(self, two_pair, monkeypatch):
        # the last step writes the node before it again, so one node is
        # missing and another repeated
        def repeating(block, choice, instance):
            block = extend(block, choice, instance)
            if block.size == instance.node_count:
                block.tour[:, block.size - 1] = block.tour[:, block.size - 2]
            return block

        monkeypatch.setattr(nearest_neighbor, "extend", repeating)
        with pytest.raises(RuntimeError, match="(?s)violates the constraint system.*visit-count"):
            nnh_best(two_pair)

    def test_a_tour_from_another_start_is_a_bug(self, two_pair, monkeypatch):
        # start 1's row ends holding the feasible tour from the depot
        depot_tour = nnh_from(two_pair, 0).sequence

        def misplacing(block, choice, instance):
            block = extend(block, choice, instance)
            if block.size == instance.node_count:
                block.tour[:] = depot_tour
            return block

        monkeypatch.setattr(nearest_neighbor, "extend", misplacing)
        with pytest.raises(RuntimeError, match="it opens at 0, not at start 1"):
            nnh_best(two_pair, [1])

    def test_all_starts_failing_raises_multistart_error(self, two_pair):
        tight = with_capacity(two_pair, 1.0)
        with pytest.raises(MultiStartError) as err:
            nnh_best(tight, inits=[3, 4])
        assert err.value.stalls == {3: (3, 2), 4: (3, 2)}

    def test_explicit_inits_subset(self, two_pair):
        result = nnh_best(two_pair, inits=[0])
        assert set(result.costs) == {0}
        assert result.best_init == 0

    def test_empty_inits_rejected(self, two_pair):
        with pytest.raises(ValueError, match="nonempty"):
            nnh_best(two_pair, inits=[])

    def test_cost_table_reproducible(self, eil51_cloud):
        inst = generate(eil51_cloud, GenerationSpec(Direction.DELIVERIES_CENTRAL, 10))
        a = nnh_best(inst)
        b = nnh_best(inst)
        assert a.costs == b.costs
        assert a.best_tour.sequence == b.best_tour.sequence
