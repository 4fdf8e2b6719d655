"""Golden per-start tables: both heuristics on eil51 must stay bit-identical.

``golden_eil51.json`` holds, for each direction at Q=1, 2 and 10 and for each
heuristic, every start's tour cost as ``float.hex``, the dead-end starts, the
best start and the best tour, as recorded from the builders before they were
refactored.  Q=1 is there for its dead ends: at Q=2 and Q=10 every eil51 start
succeeds, while at Q=1 most delivery starts stall.  A change that is meant to
alter results re-records the file with ``PYTHONPATH=src python
tests/test_golden.py`` and says so; any other change must leave it matching
exactly.
"""

import json
from pathlib import Path

import pytest

from mpdtsp import cih_best, nnh_best, tsplib
from mpdtsp.generate import Direction, GenerationSpec, generate

GOLDEN = Path(__file__).with_name("golden_eil51.json")
CORPUS_FILE = Path(__file__).resolve().parents[1] / "corpus" / "eil51.tsp"
CAPACITIES = (1, 2, 10)
SOLVERS = (("NNH", nnh_best), ("CIH", cih_best))


def table(cloud, direction: Direction, q: int, solver) -> dict:
    result = solver(generate(cloud, GenerationSpec(direction, q)))
    return {
        "costs": {str(init): cost.hex() for init, cost in sorted(result.costs.items())},
        "dead_ends": list(result.dead_ends),
        "best_init": result.best_init,
        "best_sequence": " ".join(map(str, result.best_tour.sequence)),
    }


def key(direction: Direction, q: int, label: str) -> str:
    return f"{direction.value}/Q{q}/{label}"


CASES = [(d, q, label, solver) for d in Direction for q in CAPACITIES for label, solver in SOLVERS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("direction,q,label,solver", CASES,
                         ids=[key(d, q, label) for d, q, label, _ in CASES])
def test_per_start_table_matches_golden(golden, eil51_cloud, direction, q, label, solver):
    assert table(eil51_cloud, direction, q, solver) == golden[key(direction, q, label)]


def record() -> None:
    cloud = tsplib.parse_file(CORPUS_FILE)
    tables = {key(d, q, label): table(cloud, d, q, solver) for d, q, label, solver in CASES}
    GOLDEN.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
