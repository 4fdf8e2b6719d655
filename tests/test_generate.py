import math

import numpy as np
import pytest

from mpdtsp import instance_to_text
from mpdtsp.generate import Direction, GenerationSpec, centroid, generate, rank_by_centroid
from mpdtsp.tsplib import PointCloud


def cloud_of(coords, name="test"):
    pts = tuple((i + 1, float(x), float(y)) for i, (x, y) in enumerate(coords))
    return PointCloud(name, pts)


class TestCentroid:
    def test_square_symmetry(self):
        assert centroid(cloud_of([(0, 0), (2, 0), (0, 2), (2, 2)])) == (1.0, 1.0)

    def test_single_point(self):
        assert centroid(cloud_of([(5, 7)])) == (5.0, 7.0)

    def test_two_points(self):
        assert centroid(cloud_of([(0, 0), (3, 0)])) == (1.5, 0.0)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            centroid(PointCloud("empty", ()))


class TestRanking:
    def test_collinear_distinct_distances_already_sorted(self):
        # centroid at the origin; distances 0, 1, 2, 3 in file order
        cloud = cloud_of([(0, 0), (1, 0), (2, 0), (-3, 0)])
        assert rank_by_centroid(cloud) == [1, 2, 3, 4]

    def test_tie_broken_by_file_index(self):
        cloud = cloud_of([(1, 0), (-1, 0)])  # both at distance 1 from (0, 0)
        assert rank_by_centroid(cloud) == [1, 2]

    def test_four_corner_square_keeps_file_order(self):
        cloud = cloud_of([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert rank_by_centroid(cloud) == [1, 2, 3, 4]


class TestGenerate:
    def spec(self, direction=Direction.PICKUPS_CENTRAL, q=2):
        return GenerationSpec(direction, q)

    def test_five_points_pairs_ends_inward(self):
        # centroid (0,0); ranks: 1=(0,0), 2=(1,0), 3=(-1,0), 4=(2,0), 5=(-2,0)
        cloud = cloud_of([(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0)])
        inst = generate(cloud, self.spec())
        assert inst.n_pairs == 2
        assert tuple(inst.coords[0]) == (0.0, 0.0)
        # pairs (rank2, rank5) and (rank3, rank4); pickups are the inner ranks
        assert tuple(inst.coords[1]) == (1.0, 0.0)
        assert tuple(inst.coords[3]) == (-2.0, 0.0)
        assert tuple(inst.coords[2]) == (-1.0, 0.0)
        assert tuple(inst.coords[4]) == (2.0, 0.0)
        assert inst.meta["dropped_file_index"] == ""

    def test_six_points_drops_middle_rank(self):
        # centroid (0, 0.5); rank order: (0,0),(1,0),(-1,0),(2,0),(-2,0),(0,3)
        cloud = cloud_of([(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (0, 3)])
        inst = generate(cloud, self.spec())
        assert inst.n_pairs == 2
        assert inst.meta["dropped_file_index"] == "4"  # the (2,0) point, rank 4
        dropped = (2.0, 0.0)
        kept = {tuple(xy) for xy in inst.coords}
        assert dropped not in kept

    def test_eil51_yields_25_pairs_with_central_depot(self, eil51_cloud):
        inst = generate(eil51_cloud, self.spec(q=10))
        assert inst.n_pairs == 25
        cx, cy = centroid(eil51_cloud)
        depot_d = math.hypot(inst.coords[0][0] - cx, inst.coords[0][1] - cy)
        for node in range(1, inst.node_count):
            d = math.hypot(inst.coords[node][0] - cx, inst.coords[node][1] - cy)
            assert depot_d <= d + 1e-12

    def test_direction_orders_each_pair(self, eil51_cloud):
        cx, cy = centroid(eil51_cloud)

        def dist(xy):
            return math.hypot(xy[0] - cx, xy[1] - cy)

        inward = generate(eil51_cloud, self.spec(Direction.PICKUPS_CENTRAL))
        outward = generate(eil51_cloud, self.spec(Direction.DELIVERIES_CENTRAL))
        for k in range(1, inward.n_pairs + 1):
            assert dist(inward.coords[k]) <= dist(inward.coords[k + inward.n_pairs])
            assert dist(outward.coords[k]) >= dist(outward.coords[k + outward.n_pairs])

    def test_direction_swap_changes_roles_only(self, eil51_cloud):
        a = generate(eil51_cloud, self.spec(Direction.PICKUPS_CENTRAL))
        b = generate(eil51_cloud, self.spec(Direction.DELIVERIES_CENTRAL))
        n = a.n_pairs
        for k in range(1, n + 1):
            assert tuple(a.coords[k]) == tuple(b.coords[k + n])
            assert tuple(a.coords[k + n]) == tuple(b.coords[k])
        assert np.array_equal(a.loads, b.loads)
        assert a.capacity == b.capacity

    def test_pair_count_formula(self):
        rng = np.random.RandomState(3)
        for m in (3, 4, 7, 10, 15, 20):
            coords = rng.uniform(0, 100, size=(m, 2))
            cloud = cloud_of([tuple(c) for c in coords])
            inst = generate(cloud, self.spec())
            assert inst.n_pairs == (m - 1) // 2

    def test_loads_and_capacity(self, eil51_cloud):
        inst = generate(eil51_cloud, GenerationSpec(Direction.PICKUPS_CENTRAL, 10))
        assert inst.capacity == 10.0
        assert all(inst.loads[k] == 1.0 for k in inst.pickups)
        assert all(inst.loads[k] == -1.0 for k in inst.deliveries)
        assert "unit_load" not in inst.meta

    def test_generation_deterministic(self, eil51_cloud):
        spec = self.spec(Direction.DELIVERIES_CENTRAL, q=4)
        a = instance_to_text(generate(eil51_cloud, spec))
        b = instance_to_text(generate(eil51_cloud, spec))
        assert a == b

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            generate(cloud_of([(0, 0), (1, 1)]), self.spec())

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="capacity_items"):
            GenerationSpec(Direction.PICKUPS_CENTRAL, 0)
