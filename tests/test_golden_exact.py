"""Golden exact optima: ``held_karp`` must keep giving the same answers.

``golden_exact.json`` holds one entry per seeded instance of 2 to 10 pairs at
Q = 1, 2 and n, once with unit loads and once with real-valued loads drawn
from [0.2, 1]:

- EXACT instances (unit-square coordinates) record the optimal sequence and
  its cost as ``float.hex``.  Their costs almost never tie, so the sequence
  is pinned as well.
- ROUNDED instances (integer coordinates in [0, 100)) record the cost alone.
  Integer costs tie often, and which of several optimal sequences comes back
  is the tie rule's business, tested in ``test_exact.py``.

A change that is meant to alter the optima re-records the file with
``PYTHONPATH=src python tests/test_golden_exact.py`` and says so; any other
change must leave it matching exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mpdtsp import Instance, MetricMode, exact, held_karp, paired_loads

GOLDEN = Path(__file__).with_name("golden_exact.json")

PAIR_COUNTS = range(2, 11)
LOAD_KINDS = ("unit", "real")


def capacities(n: int) -> tuple[int, ...]:
    return tuple(sorted({1, 2, n}))


CASES = [(metric, kind, n, q)
         for metric in (MetricMode.EXACT, MetricMode.ROUNDED)
         for kind in LOAD_KINDS
         for n in PAIR_COUNTS
         for q in capacities(n)]


def case_key(metric: MetricMode, kind: str, n: int, q: int) -> str:
    return f"{metric.value}/{kind}/n{n:02d}/Q{q}"


def golden_instance(metric: MetricMode, kind: str, n: int, q: int) -> Instance:
    seed = 1000 * n + 10 * q + LOAD_KINDS.index(kind) + (5 if metric is MetricMode.ROUNDED else 0)
    rng = np.random.RandomState(seed)
    if metric is MetricMode.ROUNDED:
        coords = rng.randint(0, 100, size=(2 * n + 1, 2)).astype(float)
    else:
        coords = rng.uniform(0.0, 1.0, size=(2 * n + 1, 2))
    loads = [1.0] * n if kind == "unit" else rng.uniform(0.2, 1.0, size=n).tolist()
    return Instance.from_coords(coords, paired_loads(loads), float(q), metric)


def entry(metric: MetricMode, kind: str, n: int, q: int) -> dict:
    tour = held_karp(golden_instance(metric, kind, n, q))
    if metric is MetricMode.ROUNDED:
        return {"cost": tour.cost.hex()}
    return {"cost": tour.cost.hex(), "sequence": " ".join(map(str, tour.sequence))}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("metric,kind,n,q", CASES, ids=[case_key(*case) for case in CASES])
def test_optimum_matches_golden(golden, metric, kind, n, q):
    assert entry(metric, kind, n, q) == golden[case_key(metric, kind, n, q)]


def test_small_layer_chunks_change_no_optimum(monkeypatch):
    # 256 cells hold 12 moves of a 10-pair layer, so the middle layers at 10
    # pairs split into thousands of chunks; no 2-pair layer splits
    instances = [golden_instance(*case) for case in CASES]
    default = [held_karp(instance) for instance in instances]
    monkeypatch.setattr(exact, "LAYER_CHUNK_CELLS", 256)
    for case, instance, tour in zip(CASES, instances, default):
        chunked = held_karp(instance)
        assert (chunked.sequence, chunked.cost.hex()) == (tour.sequence, tour.cost.hex()), case


def record() -> None:
    tables = {case_key(*case): entry(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
