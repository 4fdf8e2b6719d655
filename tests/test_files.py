import numpy as np
import pytest

from conftest import make_random_instance
from mpdtsp import (
    MetricMode,
    Tour,
    instance_from_text,
    instance_to_text,
    read_instance,
    read_tour_sequence,
    tour_cost,
    write_instance,
    write_sidecar,
    write_tour,
)


def test_instance_text_round_trip(two_pair):
    text = instance_to_text(two_pair)
    again = instance_from_text(text)
    assert again.n_pairs == two_pair.n_pairs
    assert again.capacity == two_pair.capacity
    assert again.metric is two_pair.metric
    assert np.array_equal(again.coords, two_pair.coords)
    assert np.array_equal(again.loads, two_pair.loads)
    assert np.array_equal(again.cost, two_pair.cost)
    # serialization is stable
    assert instance_to_text(again) == text


def test_instance_text_layout(two_pair):
    lines = instance_to_text(two_pair).splitlines()
    assert lines[0] == "PAIRS 2"
    assert lines[1] == "CAPACITY 2.0"
    assert lines[2] == "METRIC EXACT"
    assert lines[3].split() == ["0", "DEPOT", "0", "0.0", "0.0", "0.0"]
    assert lines[4].split() == ["1", "PICKUP", "1", "1.0", "0.0", "1.0"]
    assert lines[6].split() == ["3", "DELIVERY", "1", "1.0", "1.0", "-1.0"]
    assert len(lines) == 3 + two_pair.node_count


def test_rounded_metric_round_trips(tmp_path):
    inst = make_random_instance(3, 2, 11, MetricMode.ROUNDED)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    again = read_instance(path)
    assert again.metric is MetricMode.ROUNDED
    assert np.array_equal(again.cost, inst.cost)


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda t: t.replace("PAIRS 2", "PAIR 2"), "PAIRS"),
        (lambda t: t.replace("METRIC EXACT", "METRIC MANHATTAN"), "unknown METRIC"),
        (lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "node lines"),
        (lambda t: t.replace("1 PICKUP 1", "1 DELIVERY 1"), "does not match"),
    ],
)
def test_malformed_instance_text_rejected(two_pair, mutation, message):
    with pytest.raises(ValueError, match=message):
        instance_from_text(mutation(instance_to_text(two_pair)))


def test_tour_file_round_trip(two_pair, tmp_path):
    tour = Tour((0, 1, 2, 4, 3, 0), tour_cost(two_pair, [0, 1, 2, 4, 3, 0]))
    path = tmp_path / "tour.txt"
    write_tour(tour, path)
    assert path.read_text() == "0\n1\n2\n4\n3\n0\n"
    assert read_tour_sequence(path) == [0, 1, 2, 4, 3, 0]


def test_tour_file_bad_line(tmp_path):
    path = tmp_path / "tour.txt"
    path.write_text("0\nabc\n0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_tour_sequence(path)


def test_sidecar_and_key_values(tmp_path):
    path = tmp_path / "inst.meta"
    write_sidecar({"source": "eil51", "capacity_items": "10", "dropped_file_index": ""}, path)
    assert path.read_text() == "source=eil51\ncapacity_items=10\ndropped_file_index=\n"
