"""Golden per-start tables: both heuristics must stay bit-identical.

``golden_eil51.json`` holds, for each direction at Q=1, 2 and 10 and for each
heuristic, every start's tour cost as ``float.hex``, the dead-end starts, the
best start and the best tour, as recorded from the builders before they were
refactored.  Q=1 is there for its dead ends: at Q=2 and Q=10 every eil51 start
succeeds, while at Q=1 most delivery starts stall.

``golden_corpus.json`` holds the same tables for uni031, uni041 and uni061
(EXACT, both directions, Q=1, 2 and 10), for uni081 and uni121 (EXACT, both
directions, Q=1 and 2; the sizes where multi-start speed matters most) and
for eil51 under ROUNDED at Q=1 and 2, where integer costs make equal
insertion ratios common, so the tie-breaks are exercised too.

A change that is meant to alter results re-records both files with
``PYTHONPATH=src python tests/test_golden.py`` and says so; any other change
must leave them matching exactly.
"""

import json
from pathlib import Path

import pytest

from mpdtsp import cih_best, nnh_best, tsplib
from mpdtsp.generate import Direction, GenerationSpec, generate
from mpdtsp.tsplib import MetricMode

GOLDEN = Path(__file__).with_name("golden_eil51.json")
GOLDEN_CORPUS = Path(__file__).with_name("golden_corpus.json")
CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
CORPUS_FILE = CORPUS_DIR / "eil51.tsp"
CAPACITIES = (1, 2, 10)
SOLVERS = (("NNH", nnh_best), ("CIH", cih_best))


def table(cloud, direction: Direction, q: int, solver,
          metric: MetricMode = MetricMode.EXACT) -> dict:
    result = solver(generate(cloud, GenerationSpec(direction, q), metric))
    return {
        "costs": {str(init): cost.hex() for init, cost in sorted(result.costs.items())},
        "dead_ends": list(result.dead_ends),
        "best_init": result.best_init,
        "best_sequence": " ".join(map(str, result.best_tour.sequence)),
    }


def key(direction: Direction, q: int, label: str) -> str:
    return f"{direction.value}/Q{q}/{label}"


CASES = [(d, q, label, solver) for d in Direction for q in CAPACITIES for label, solver in SOLVERS]

CORPUS_CASES = [
    (name, metric, d, q, label, solver)
    for name, metric, capacities in (
        ("uni031", MetricMode.EXACT, CAPACITIES),
        ("uni041", MetricMode.EXACT, CAPACITIES),
        ("uni061", MetricMode.EXACT, CAPACITIES),
        ("uni081", MetricMode.EXACT, (1, 2)),
        ("uni121", MetricMode.EXACT, (1, 2)),
        ("eil51", MetricMode.ROUNDED, (1, 2)),
    )
    for d in Direction for q in capacities for label, solver in SOLVERS
]


def corpus_key(name: str, metric: MetricMode, direction: Direction, q: int, label: str) -> str:
    return f"{name}/{metric.value}/{key(direction, q, label)}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_corpus() -> dict:
    return json.loads(GOLDEN_CORPUS.read_text())


@pytest.fixture(scope="module")
def clouds() -> dict:
    return {name: tsplib.parse_file(CORPUS_DIR / f"{name}.tsp")
            for name in sorted({case[0] for case in CORPUS_CASES})}


@pytest.mark.parametrize("direction,q,label,solver", CASES,
                         ids=[key(d, q, label) for d, q, label, _ in CASES])
def test_per_start_table_matches_golden(golden, eil51_cloud, direction, q, label, solver):
    assert table(eil51_cloud, direction, q, solver) == golden[key(direction, q, label)]


@pytest.mark.parametrize("name,metric,direction,q,label,solver", CORPUS_CASES,
                         ids=[corpus_key(*case[:5]) for case in CORPUS_CASES])
def test_corpus_table_matches_golden(golden_corpus, clouds, name, metric, direction, q, label,
                                     solver):
    assert (table(clouds[name], direction, q, solver, metric)
            == golden_corpus[corpus_key(name, metric, direction, q, label)])


def record() -> None:
    cloud = tsplib.parse_file(CORPUS_FILE)
    tables = {key(d, q, label): table(cloud, d, q, solver) for d, q, label, solver in CASES}
    GOLDEN.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    clouds = {}
    corpus_tables = {}
    for name, metric, d, q, label, solver in CORPUS_CASES:
        cloud = clouds.setdefault(name, tsplib.parse_file(CORPUS_DIR / f"{name}.tsp"))
        corpus_tables[corpus_key(name, metric, d, q, label)] = table(cloud, d, q, solver, metric)
    GOLDEN_CORPUS.write_text(json.dumps(corpus_tables, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
