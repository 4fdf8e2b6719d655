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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("PAIRS 2", "PAIRS 1.5", "line 1: PAIRS must be an integer, got '1.5'"),
        ("PAIRS 2", "PAIRS -1", "line 1: PAIRS must not be negative, got -1"),
        ("CAPACITY 2.0", "CAPACITY x", "line 2: CAPACITY must be a number, got 'x'"),
        ("0 DEPOT 0 0.0", "0 DEPOT 0 a", "line 4: x must be a number, got 'a'"),
        ("1 PICKUP 1 1.0 0.0", "1 PICKUP 1 1.0 y", "line 5: y must be a number, got 'y'"),
        ("2 PICKUP 2 2.0 0.0 1.0", "2 PICKUP 2 2.0 0.0 one", "line 6: load must be a number, got 'one'"),
        ("3 DELIVERY", "3.0 DELIVERY", "line 7: node id must be an integer, got '3.0'"),
        ("4 DELIVERY 2", "4 DELIVERY two", "line 8: pair index must be an integer, got 'two'"),
        ("4 DELIVERY 2 2.0", "4 DELIVERY 2", "line 8: a node line needs 6 fields"),
        # the count takes in blank lines: CAPACITY moves from line 2 to line 4
        ("CAPACITY 2.0", "\n\nCAPACITY x", "line 4: CAPACITY must be a number, got 'x'"),
    ],
    ids=["pairs-fraction", "pairs-negative", "capacity", "x", "y", "load", "node-id", "pair-index",
         "field-count", "after-blank-lines"],
)
def test_unreadable_field_names_its_line_and_field(two_pair, old, new, message):
    text = instance_to_text(two_pair)
    assert old in text
    with pytest.raises(ValueError) as err:
        instance_from_text(text.replace(old, new, 1))
    assert str(err.value).startswith(message)


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
