import math

import numpy as np
import pytest

from conftest import TWO_PAIR_COORDS, make_random_instance, plain_checker
from reference_checkers import reference_cost_matrix
from mpdtsp import (
    Instance,
    MetricMode,
    Role,
    ViolationKind,
    paired_loads,
    payload_profile,
    tour_cost,
    validate,
)
from mpdtsp.model import visit_events

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def unit_triangle(capacity=1.0, metric=MetricMode.EXACT):
    return Instance.from_coords([(0, 0), (1, 0), (0, 1)], paired_loads([1.0]), capacity, metric)


#: one-pair instances with a single non-finite field set to ``x``
NON_FINITE_BUILDS = {
    "coords": lambda x: Instance.from_coords([(0, 0), (1, x), (0, 1)], paired_loads([1.0]), 1.0),
    "coords-rounded": lambda x: Instance.from_coords(
        [(0, 0), (1, x), (0, 1)], paired_loads([1.0]), 1.0, MetricMode.ROUNDED
    ),
    "loads": lambda x: Instance.from_coords([(0, 0), (1, 0), (0, 1)], [0.0, x, -x], 1.0),
    "capacity": lambda x: Instance.from_coords([(0, 0), (1, 0), (0, 1)], paired_loads([1.0]), x),
    "coords-constructor": lambda x: Instance(
        np.array([(x, 0), (1, 0), (0, 1)], dtype=float), paired_loads([1.0]), 1.0, MetricMode.EXACT
    ),
}

#: finite clouds whose distances overflow to inf
OVERFLOWING_CLOUDS = (
    [(0, 0), (1.5e308, 1.5e308), (0, 1)],
    # here the coordinate difference itself overflows
    [(0, 0), (1e308, 0), (-1e308, 0)],
)

#: clouds of ``m`` points drawn with ``rng``, for comparing cost matrices bit for bit
COST_CLOUDS = {
    "integer-grid": lambda rng, m: rng.integers(0, 100, (m, 2)).astype(float),
    "unit-square": lambda rng, m: rng.random((m, 2)),
    "wide-range": lambda rng, m: rng.uniform(-1e6, 1e6, (m, 2)) * 10.0 ** rng.integers(-6, 7, (m, 1)),
    "repeated": lambda rng, m: rng.random((3, 2))[rng.integers(0, 3, m)],
}


class TestInstance:
    def test_roles_and_pairing(self, two_pair):
        assert two_pair.role(0) is Role.DEPOT
        assert two_pair.role(1) is Role.PICKUP
        assert two_pair.role(4) is Role.DELIVERY
        assert two_pair.pair_index(3) == 1
        assert two_pair.pair_index(4) == 2

    def test_terminal_alias_maps_to_depot(self, two_pair):
        assert two_pair.normalize_node(5) == 0
        assert two_pair.role(5) is Role.DEPOT

    def test_load_pairing_enforced(self):
        bad = paired_loads([1.0, 1.0])
        bad[3] = -2.0
        with pytest.raises(ValueError, match="negate"):
            Instance.from_coords(TWO_PAIR_COORDS, bad, 2.0)

    def test_nonpositive_pickup_load_rejected(self):
        loads = paired_loads([1.0, 1.0])
        loads[1] = 0.0
        loads[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            Instance.from_coords(TWO_PAIR_COORDS, loads, 2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", sorted(NON_FINITE_BUILDS))
    def test_non_finite_input_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NON_FINITE_BUILDS[field](value)

    @pytest.mark.parametrize("metric", list(MetricMode))
    def test_overflowing_distance_rejected(self, metric):
        for coords in OVERFLOWING_CLOUDS:
            with pytest.raises(ValueError, match="cost matrix entries must be finite"):
                Instance.from_coords(coords, paired_loads([1.0]), 1.0, metric)

    @pytest.mark.parametrize("coords", [
        [(0, 0), (1, 0)],
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [0.0, 1.0, 2.0],
    ], ids=["two-points", "even-count", "three-wide", "flat"])
    def test_bad_coordinate_shape_rejected(self, coords):
        with pytest.raises(ValueError, match="coord"):
            Instance.from_coords(coords, paired_loads([1.0]), 1.0)

    def test_constructor_derives_the_matrix(self):
        coords = np.array([(0, 0), (1, 0), (0, 1)], dtype=float)
        inst = Instance(coords, paired_loads([1.0]), 1.0, MetricMode.EXACT)
        assert inst.n_pairs == 1
        assert inst.cost.tobytes() == unit_triangle().cost.tobytes()
        with pytest.raises(TypeError):
            Instance(coords, paired_loads([1.0]), 1.0, MetricMode.EXACT, cost=np.zeros((3, 3)))

    def test_with_metric_rederives_costs(self):
        inst = make_random_instance(5, 2.0, 3)
        rounded = inst.with_metric(MetricMode.ROUNDED)
        direct = Instance.from_coords(inst.coords, inst.loads, inst.capacity, MetricMode.ROUNDED)
        assert rounded.metric is MetricMode.ROUNDED
        assert rounded.cost.tobytes() == direct.cost.tobytes()
        assert rounded.with_metric(MetricMode.EXACT).cost.tobytes() == inst.cost.tobytes()
        assert inst.with_metric(MetricMode.EXACT) is inst

    def test_with_capacity_keeps_costs_name_and_meta(self):
        base = make_random_instance(5, 2.0, 3)
        inst = Instance.from_coords(base.coords, base.loads, 2.0, name=base.name, meta={"k": "v"})
        capped = inst.with_capacity(1)
        assert capped.capacity == 1.0
        assert capped.cost.tobytes() == inst.cost.tobytes()
        assert (capped.name, dict(capped.meta)) == (inst.name, {"k": "v"})

    def test_oversized_item_flags_infeasible(self, two_pair):
        flagged = two_pair.with_capacity(0.5)
        assert flagged.is_trivially_infeasible
        assert flagged.oversized_items == (1, 2)
        assert not two_pair.is_trivially_infeasible


class TestArcCost:
    def test_diagonal_zero(self, two_pair):
        for v in range(two_pair.node_count):
            assert two_pair.cost[v, v] == 0.0

    def test_pythagorean_triple_both_modes(self):
        coords = [(0, 0), (3, 4), (10, 10)]
        for mode in (MetricMode.EXACT, MetricMode.ROUNDED):
            inst = Instance.from_coords(coords, paired_loads([1.0]), 1.0, mode)
            assert inst.cost[0, 1] == 5.0

    def test_unit_diagonal_rounds_to_one(self):
        coords = [(0, 0), (1, 1), (5, 5)]
        exact = Instance.from_coords(coords, paired_loads([1.0]), 1.0, MetricMode.EXACT)
        rounded = Instance.from_coords(coords, paired_loads([1.0]), 1.0, MetricMode.ROUNDED)
        assert exact.cost[0, 1] == SQRT2
        assert rounded.cost[0, 1] == 1.0

    @pytest.mark.parametrize("metric", list(MetricMode))
    @pytest.mark.parametrize("kind", sorted(COST_CLOUDS))
    def test_matrix_equals_pairwise_reference(self, kind, metric):
        rng = np.random.default_rng(7)
        for m in (3, 5, 11, 31, 61):
            coords = COST_CLOUDS[kind](rng, m)
            inst = Instance.from_coords(coords, paired_loads([1.0] * (m // 2)), 1.0, metric)
            assert inst.cost.tobytes() == reference_cost_matrix(coords, metric).tobytes()

    def test_exact_halves_round_up(self):
        coords = [(0, 0), (0.5, 0), (2.5, 0)]
        inst = Instance.from_coords(coords, paired_loads([1.0]), 1.0, MetricMode.ROUNDED)
        assert (inst.cost[0, 1], inst.cost[0, 2], inst.cost[1, 2]) == (1.0, 3.0, 2.0)
        assert inst.cost.tobytes() == reference_cost_matrix(coords, MetricMode.ROUNDED).tobytes()

    def test_alias_uses_depot_row(self, two_pair):
        # tour_cost maps the alias onto the depot at either end of an arc
        for j in range(two_pair.node_count):
            assert tour_cost(two_pair, [5, j, 0]) == tour_cost(two_pair, [0, j, 0])
            assert tour_cost(two_pair, [0, j, 5]) == tour_cost(two_pair, [0, j, 0])

    def test_out_of_range_rejected(self, two_pair):
        with pytest.raises(ValueError, match="out of range"):
            two_pair.normalize_node(6)
        with pytest.raises(ValueError, match="out of range"):
            tour_cost(two_pair, [0, 6, 0])

    def test_symmetry_in_coordinate_modes(self):
        for seed in range(3):
            for mode in (MetricMode.EXACT, MetricMode.ROUNDED):
                inst = make_random_instance(4, 2, seed, mode)
                assert np.array_equal(inst.cost, inst.cost.T)


class TestTourCost:
    def test_empty_loop_costs_nothing(self, two_pair):
        assert tour_cost(two_pair, [0, 0]) == 0.0

    def test_hand_summed_fixture(self, two_pair):
        expected = 1.0 + 1.0 + SQRT2 + 1.0 + SQRT5
        assert tour_cost(two_pair, [0, 1, 3, 2, 4, 0]) == pytest.approx(expected, abs=1e-12)

    def test_non_closed_rejected(self, two_pair):
        with pytest.raises(ValueError, match="not closed"):
            tour_cost(two_pair, [0, 1, 3, 2, 4])

    def test_sequence_ending_at_terminal_alias_is_closed(self, two_pair):
        # the conventional depot-to-terminal form collapses onto the depot
        assert tour_cost(two_pair, [0, 1, 3, 2, 4, 5]) == tour_cost(two_pair, [0, 1, 3, 2, 4, 0])

    def test_matches_independent_resummation(self, eil51_cloud):
        from mpdtsp.generate import Direction, GenerationSpec, generate
        from mpdtsp.nearest_neighbor import nnh_from

        inst = generate(eil51_cloud, GenerationSpec(Direction.PICKUPS_CENTRAL, 10))
        tour = nnh_from(inst, 0)
        resum = 0.0
        for a, b in zip(tour.sequence, tour.sequence[1:]):
            dx = inst.coords[a][0] - inst.coords[b][0]
            dy = inst.coords[a][1] - inst.coords[b][1]
            resum += math.hypot(dx, dy)
        assert tour.cost == pytest.approx(resum, abs=1e-9)


class TestPayloadProfile:
    def test_start_event_fires_once_at_the_rule_end(self, one_pair):
        # depot and pickup starts fire at the opening visit, a delivery start
        # at the closing visit
        assert visit_events(one_pair, [0, 1, 2, 0]) == [0.0, 1.0, -1.0, 0.0]
        assert visit_events(one_pair, [1, 2, 0, 1]) == [1.0, -1.0, 0.0, 0.0]
        assert visit_events(one_pair, [2, 1, 0, 2]) == [0.0, 1.0, 0.0, -1.0]

    def test_depot_start_single_pair(self, one_pair):
        assert payload_profile(one_pair, [0, 1, 2, 0]) == [0.0, 1.0, 0.0, 0.0]

    def test_delivery_start_unloads_at_close(self, one_pair):
        assert payload_profile(one_pair, [2, 1, 0, 2]) == [0.0, 1.0, 1.0, 0.0]

    def test_pickup_start_loads_at_open(self, one_pair):
        assert payload_profile(one_pair, [1, 2, 0, 1]) == [1.0, 0.0, 0.0, 0.0]

    def test_events_sum_to_zero_on_complete_tours(self):
        for seed in range(5):
            inst = make_random_instance(4, 10, seed)
            rng = np.random.RandomState(seed)
            interior = list(rng.permutation(np.arange(1, inst.node_count)))
            seq = [0, *map(int, interior), 0]
            profile = payload_profile(inst, seq)
            assert profile[-1] == pytest.approx(0.0, abs=1e-12)

    def test_requires_closed_sequence(self, one_pair):
        with pytest.raises(ValueError, match="closed"):
            payload_profile(one_pair, [0, 1, 2])


class TestValidate:
    def test_feasible_two_pair_tour(self, two_pair):
        report = validate(two_pair, [0, 1, 2, 3, 4, 0])
        assert report.feasible
        assert report.violations == ()

    def test_delivery_before_pickup(self, two_pair):
        report = validate(two_pair, [0, 3, 1, 2, 4, 0])
        assert not report.feasible
        kinds = {(v.kind, v.position) for v in report.violations}
        assert (ViolationKind.PRECEDENCE, 1) in kinds

    def test_capacity_upper_at_second_pickup(self, two_pair):
        report = validate(two_pair.with_capacity(1.0), [0, 1, 2, 3, 4, 0])
        assert not report.feasible
        assert (ViolationKind.CAPACITY_UPPER, 2) in {
            (v.kind, v.position) for v in report.violations
        }

    def test_delivery_start_closing_convention(self, one_pair):
        assert validate(one_pair, [2, 1, 0, 2]).feasible

    def test_unclosed_sequence_reports_structure(self, two_pair):
        report = validate(two_pair, [0, 1, 3, 2, 4])
        assert not report.feasible
        assert ViolationKind.CLOSURE in {v.kind for v in report.violations}

    def test_duplicate_and_missing_nodes(self, two_pair):
        report = validate(two_pair, [0, 1, 1, 2, 4, 0])
        assert not report.feasible
        kinds = {v.kind for v in report.violations}
        assert kinds == {ViolationKind.VISIT_COUNT}

    def test_unknown_id_reported_not_raised(self, two_pair):
        report = validate(two_pair, [0, 1, 42, 2, 4, 0])
        assert not report.feasible
        assert ViolationKind.VISIT_COUNT in {v.kind for v in report.violations}

    def test_visit_count_failure_never_feasible(self, two_pair):
        # even an otherwise harmless sequence is rejected on wrong counts
        assert not validate(two_pair, [0, 0]).feasible
        assert not validate(two_pair, [0, 1, 3, 0]).feasible

    def test_alias_normalized_before_checks(self, two_pair):
        assert validate(two_pair, [0, 1, 2, 3, 4, 5]).feasible

    def test_walker_agrees_on_named_fixtures(self, one_pair, two_pair):
        cases = [
            (one_pair, [0, 1, 2, 0]),
            (one_pair, [2, 1, 0, 2]),
            (one_pair, [0, 2, 1, 0]),
            (two_pair, [0, 1, 2, 3, 4, 0]),
            (two_pair, [0, 3, 1, 2, 4, 0]),
            (two_pair.with_capacity(1.0), [0, 1, 2, 3, 4, 0]),
            (two_pair.with_capacity(1.0), [0, 1, 3, 2, 4, 0]),
        ]
        for inst, seq in cases:
            assert validate(inst, seq).feasible == plain_checker(inst, seq), seq

    def test_agrees_with_independent_walker(self):
        for seed in range(12):
            inst = make_random_instance(4, seed % 3 + 1, seed)
            rng = np.random.RandomState(seed + 1000)
            for _ in range(60):
                start = int(rng.randint(0, inst.node_count))
                rest = [v for v in range(inst.node_count) if v != start]
                rng.shuffle(rest)
                seq = [start, *rest, start]
                if rng.rand() < 0.2:  # corrupt some sequences
                    op = rng.randint(3)
                    if op == 0:
                        seq = seq[:-1]
                    elif op == 1:
                        seq[rng.randint(1, len(seq) - 1)] = seq[1]
                    else:
                        del seq[rng.randint(1, len(seq) - 1)]
                assert validate(inst, seq).feasible == plain_checker(inst, seq), seq


class TestScaleInvariance:
    def test_tour_cost_scales_linearly(self):
        rng = np.random.RandomState(7)
        inst = make_random_instance(5, 3, 7)
        interior = list(map(int, rng.permutation(np.arange(1, inst.node_count))))
        seq = [0, *interior, 0]
        base = tour_cost(inst, seq)
        for alpha in (0.37, 10.0, 1234.5):
            scaled = Instance.from_coords(
                inst.coords * alpha, inst.loads, inst.capacity, MetricMode.EXACT
            )
            assert tour_cost(scaled, seq) == pytest.approx(alpha * base, rel=1e-9)
