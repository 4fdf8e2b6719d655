import math
import weakref

import numpy as np
import pytest

from conftest import CORPUS_DIR, TWO_PAIR_COORDS, make_random_instance, plain_checker, with_capacity
from reference_checkers import reference_cost_matrix
from mpdtsp import (
    ExperimentConfig,
    Instance,
    MetricMode,
    ViolationKind,
    instance_from_text,
    instance_to_text,
    paired_loads,
    payload_profile,
    run_corpus,
    tour_cost,
    validate,
)
from mpdtsp import model, tsplib
from mpdtsp.model import payload_rows

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

#: (loads, capacity, error) of one-pair instances that fail a check on their loads or capacity
BAD_LOADS_AND_CAPACITIES = {
    "load-count": ([0.0, 1.0], 1.0, "load vector must have length 3"),
    "load-nan": ([0.0, math.nan, math.nan], 1.0, "loads must be finite"),
    "depot-load": ([1.0, 1.0, -1.0], 1.0, "depot load must be zero"),
    "pickup-load": ([0.0, -1.0, 1.0], 1.0, "pickup loads must be positive"),
    "delivery-load": ([0.0, 1.0, -2.0], 1.0, "delivery loads must exactly negate"),
    "capacity-inf": (paired_loads([1.0]), math.inf, "capacity must be finite"),
    "capacity-negative": (paired_loads([1.0]), -1.0, "capacity must be nonnegative"),
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
        # pickup k is paired to delivery n+k, which takes its load off again
        assert list(two_pair.pickups) == [1, 2]
        assert list(two_pair.deliveries) == [3, 4]
        assert two_pair.loads[0] == 0.0
        assert list(two_pair.loads[3:]) == list(-two_pair.loads[1:3])

    def test_terminal_alias_maps_to_depot(self, two_pair):
        assert two_pair.normalize_node(5) == 0

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

    @pytest.mark.parametrize("field", sorted(BAD_LOADS_AND_CAPACITIES))
    def test_bad_loads_and_capacity_build_no_matrix(self, monkeypatch, field):
        def no_matrix(coords, metric):
            raise AssertionError("built a cost matrix for an instance that fails its checks")

        monkeypatch.setattr(model, "cost_matrix", no_matrix)
        loads, capacity, message = BAD_LOADS_AND_CAPACITIES[field]
        with pytest.raises(ValueError, match=message):
            Instance.from_coords([(0, 0), (1, 0), (0, 1)], loads, capacity)

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

    def test_oversized_item_flags_infeasible(self, two_pair):
        flagged = with_capacity(two_pair, 0.5)
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
        # 301 points fill the upper triangle in 8 row blocks
        for m in (3, 5, 11, 31, 61, 301):
            coords = COST_CLOUDS[kind](rng, m)
            inst = Instance.from_coords(coords, paired_loads([1.0] * (m // 2)), 1.0, metric)
            assert inst.cost.tobytes() == reference_cost_matrix(coords, metric).tobytes()

    @pytest.mark.parametrize("budget", [1, 16, 40])
    def test_rows_longer_than_the_block_budget(self, monkeypatch, kernel_runs, budget):
        monkeypatch.setattr(tsplib, "DISTANCE_BLOCK", budget)
        coords = COST_CLOUDS["wide-range"](np.random.default_rng(budget), 31)
        inst = Instance.from_coords(coords, paired_loads([1.0] * 15), 1.0)
        assert kernel_runs == [31]    # the blocks were built here, not shared
        assert inst.cost.tobytes() == reference_cost_matrix(coords, MetricMode.EXACT).tobytes()

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


def cloud_instance(coords, metric=MetricMode.EXACT, capacity=1.0):
    return Instance.from_coords(coords, paired_loads([1.0] * (len(coords) // 2)), capacity, metric)


class TestSharedMatrix:
    """One read-only EXACT matrix per live coordinate array, with ROUNDED derived from it."""

    def test_equal_points_share_one_read_only_matrix(self, kernel_runs):
        coords = COST_CLOUDS["unit-square"](np.random.default_rng(101), 21)
        first = cloud_instance(coords)
        second = cloud_instance(coords.copy(), capacity=2.0)
        assert second.cost is first.cost
        assert kernel_runs == [21]
        with pytest.raises(ValueError, match="read-only"):
            first.cost[0, 1] = 0.0

    @pytest.mark.parametrize("kind", sorted(COST_CLOUDS))
    def test_rounded_is_derived_from_a_live_exact_matrix(self, kernel_runs, kind):
        coords = COST_CLOUDS[kind](np.random.default_rng(102), 61)
        exact = cloud_instance(coords)
        rounded = cloud_instance(coords, MetricMode.ROUNDED)
        assert kernel_runs == [61]
        assert rounded.cost.tobytes() == reference_cost_matrix(coords, MetricMode.ROUNDED).tobytes()
        assert not rounded.cost.flags.writeable
        assert exact.cost.tobytes() == reference_cost_matrix(coords, MetricMode.EXACT).tobytes()

    def test_a_live_rounded_matrix_is_handed_back(self, kernel_runs):
        coords = COST_CLOUDS["integer-grid"](np.random.default_rng(105), 21)
        first = cloud_instance(coords, MetricMode.ROUNDED)
        second = cloud_instance(coords.copy(), MetricMode.ROUNDED, capacity=2.0)
        assert second.cost is first.cost
        # the EXACT matrix it was derived from is gone, so EXACT runs the kernel again
        assert cloud_instance(coords).cost is not first.cost
        assert kernel_runs == [21, 21]

    def test_no_matrix_outlives_its_last_holder(self, kernel_runs):
        coords = COST_CLOUDS["integer-grid"](np.random.default_rng(103), 11)
        holder = cloud_instance(coords)
        matrix = weakref.ref(holder.cost)
        del holder
        assert matrix() is None
        cloud_instance(coords)
        assert kernel_runs == [11, 11]

    def test_no_rounded_matrix_outlives_its_last_holder(self, kernel_runs):
        coords = COST_CLOUDS["integer-grid"](np.random.default_rng(103), 11)
        holder = cloud_instance(coords, MetricMode.ROUNDED)
        matrix = weakref.ref(holder.cost)
        del holder
        assert matrix() is None
        cloud_instance(coords, MetricMode.ROUNDED)
        assert kernel_runs == [11, 11]

    def test_signed_zeros_never_share_a_matrix(self, kernel_runs):
        # the distances are equal; the float64 coordinates are not, bit for bit
        positive = cloud_instance([(0.0, 2.0), (5.0, 7.0), (1.0, 3.0)])
        negative = cloud_instance([(-0.0, 2.0), (5.0, 7.0), (1.0, 3.0)])
        assert negative.cost is not positive.cost
        assert kernel_runs == [3, 3]
        assert negative.cost.tobytes() == positive.cost.tobytes()

    def test_kernel_runs_once_per_point_set(self, kernel_runs, tmp_path):
        source = make_random_instance(7, 3.0, seed=104)
        assert instance_from_text(instance_to_text(source)).cost is source.cost
        assert kernel_runs == [15]
        # one cloud: each direction orders the points its own way, and its
        # five capacities share that order's matrix
        (tmp_path / "uni031.tsp").write_text((CORPUS_DIR / "uni031.tsp").read_text())
        run_corpus(ExperimentConfig(tmp_path, capacities=(2, 4, 6, 8, 10)))
        assert kernel_runs == [15, 31, 31]
        # ROUNDED: each direction's first capacity derives the matrix the other four share
        run_corpus(ExperimentConfig(tmp_path, capacities=(2, 4, 6, 8, 10), metric=MetricMode.ROUNDED))
        assert kernel_runs == [15, 31, 31, 31, 31]


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
        # at the closing visit, in complete and in partial tours alike
        complete = np.array([[0, 1, 2, 0], [1, 2, 0, 1], [2, 1, 0, 2]])
        assert payload_rows(one_pair, complete).tolist() == [
            [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0],
        ]
        partial = np.array([[0, 0], [1, 1], [2, 2]])
        assert payload_rows(one_pair, partial).tolist() == [[0.0, 0.0], [1.0, 1.0], [0.0, -1.0]]

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
        report = validate(with_capacity(two_pair, 1.0), [0, 1, 2, 3, 4, 0])
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

    def test_report_names_each_violation_where_it_happens(self, two_pair):
        tight = with_capacity(two_pair, 1.0)
        rounding = Instance.from_coords([(float(i), 0.0) for i in range(5)], paired_loads([0.1, 1e9]), 2e9)
        cases = [
            # a lower-bound breach and a precedence breach at one position, in that order
            (tight, [0, 3, 1, 2, 4, 0], "capacity-lower at position 1: load -1 is negative leaving node 3\n"
                                        "  precedence at position 1: delivery 3 visited before its pickup 1"),
            (tight, [0, 1, 2, 3, 4, 0], "capacity-upper at position 2: load 2 exceeds capacity 1 leaving node 2"),
            # the delivery start's own pair is exempt; pair 2's breach is at its delivery
            (two_pair, [3, 1, 4, 2, 0, 3], "precedence at position 2: delivery 4 visited before its pickup 2"),
            (two_pair, [1, 1, 2, 4, 0, 1], "visit-count at position 0: node 1 visited 3 times, expected 2\n"
                                           "  visit-count: node 3 is never visited"),
            (rounding, [0, 1, 2, 4, 3, 0], "terminal-load at position 5: tour ends carrying load 2.38419e-08"),
        ]
        for inst, seq, expected in cases:
            assert str(validate(inst, seq)) == "infeasible:\n  " + expected, seq

    def test_walker_agrees_on_named_fixtures(self, one_pair, two_pair):
        cases = [
            (one_pair, [0, 1, 2, 0]),
            (one_pair, [2, 1, 0, 2]),
            (one_pair, [0, 2, 1, 0]),
            (two_pair, [0, 1, 2, 3, 4, 0]),
            (two_pair, [0, 3, 1, 2, 4, 0]),
            (with_capacity(two_pair, 1.0), [0, 1, 2, 3, 4, 0]),
            (with_capacity(two_pair, 1.0), [0, 1, 3, 2, 4, 0]),
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
