r"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  The corpus sweep (ten EUC_2D files, both precedence
directions, six capacities, multi-start from every node) takes about ten
seconds on a 2-core machine; everything else is fast.

The sweep's rows, wall times cut, must equal tests/golden_bench_rows.csv.
After a change that is meant to alter them, re-record the file with

    PYTHONPATH=src python -m mpdtsp bench --corpus corpus --capacities 1,2,4,6,8,10 --csv rows.csv
    python -c "import csv, sys; csv.writer(sys.stdout, lineterminator='\n').writerows(r[:5] + r[6:] for r in csv.reader(open('rows.csv', newline='')))" > tests/golden_bench_rows.csv

The csv module drops the sixth column, wall_time_s, even where a quoted
cloud NAME holds a comma.
"""

import csv
import time
from pathlib import Path

import pytest

from conftest import CORPUS_DIR, make_random_instance, with_capacity
from mpdtsp import (
    ExperimentConfig,
    MetricMode,
    brute_force,
    cih_best,
    cih_from,
    emit_csv,
    held_karp,
    instance_to_text,
    nnh_best,
    nnh_from,
    run_corpus,
    summarize,
    tsplib,
    validate,
)
from mpdtsp.generate import Direction, GenerationSpec, generate
from mpdtsp.tsplib import PointCloud

CAPACITIES = (1, 2, 4, 6, 8, 10)  # the paper compares Q = 2..10; Q = 1 adds dead ends
GOLDEN_ROWS = Path(__file__).resolve().parent / "golden_bench_rows.csv"


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


# -- shared computations -------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """The paper's experiment over the corpus, one row per file, direction, Q and heuristic."""
    return run_corpus(ExperimentConfig(CORPUS_DIR, capacities=CAPACITIES))


@pytest.fixture(scope="module")
def paper_rows(sweep):
    """The rows at the capacities the paper compares, Q = 2..10."""
    return [row for row in sweep if row.capacity_items > 1]


@pytest.fixture(scope="module")
def small_instances():
    """200 seeded random instances with 2-4 pairs, Q in {1,2,3}, both metrics."""
    out = []
    pair_cycle = (2, 3, 4, 3)
    for seed in range(200):
        n_pairs = pair_cycle[seed % 4]
        q = (seed % 3) + 1
        metric = MetricMode.ROUNDED if seed % 2 == 0 else MetricMode.EXACT
        instance = make_random_instance(n_pairs, q, seed, metric)
        out.append((seed, instance, held_karp(instance)))
    return out


# -- criteria --------------------------------------------------------------------


def test_sweep_matches_golden_rows(sweep, tmp_path):
    emit_csv(sweep, tmp_path / "rows.csv")
    with open(tmp_path / "rows.csv", newline="") as written, open(GOLDEN_ROWS, newline="") as golden:
        # every field but wall_time_s, the sixth
        assert [row[:5] + row[6:] for row in csv.reader(written)] == list(csv.reader(golden))


def test_criterion_1_feasibility_sweep(sweep):
    files = sorted(CORPUS_DIR.glob("*.tsp"))
    assert len(files) >= 10, "corpus must hold at least ten EUC_2D files"
    assert len(sweep) == len(files) * 2 * len(CAPACITIES) * 2
    clouds = {cloud.name: cloud for cloud in map(tsplib.parse_file, files)}
    builders = {"NNH": nnh_from, "CIH": cih_from}
    for row in sweep:
        spec = GenerationSpec(Direction(row.direction), row.capacity_items)
        instance = generate(clouds[row.instance], spec)
        tour = builders[row.heuristic](instance, row.init_of_best)
        assert tour.cost == row.best_cost, row
        report = validate(instance, tour)
        assert report.feasible, (row, report)
    ok(1, f"{len(sweep)}/{len(sweep)} multi-start winners rebuilt at their cost and valid over "
          f"{len(files)} files x 2 directions x {len(CAPACITIES)} capacities")


def test_criterion_2_oracle_equivalence(small_instances):
    start = time.monotonic()
    for seed, instance, optimum in small_instances:
        reference = brute_force(instance)
        assert optimum is not None and reference is not None, seed
        if instance.metric is MetricMode.ROUNDED:
            assert optimum.cost == reference.cost, seed
        else:
            assert abs(optimum.cost - reference.cost) <= 1e-9, seed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s, budget is one minute"
    ok(2, f"held-karp equals enumeration on 200 seeded instances in {elapsed:.1f}s")


def test_criterion_3_heuristic_dominance(small_instances):
    for seed, instance, optimum in small_instances:
        nnh_depot = nnh_from(instance, 0)
        cih_depot = cih_from(instance, 0)
        assert nnh_depot.cost >= optimum.cost - 1e-9, seed
        assert cih_depot.cost >= optimum.cost - 1e-9, seed
        assert nnh_best(instance).best_cost <= nnh_depot.cost + 1e-12, seed
        assert cih_best(instance).best_cost <= cih_depot.cost + 1e-12, seed
    ok(3, "depot starts never beat the optimum; multi-start never loses to its depot start")


def test_criterion_4_headline_reproduction(paper_rows):
    summary = summarize(paper_rows)
    deliveries = summary.directions[Direction.DELIVERIES_CENTRAL.value]
    assert deliveries.win_fraction >= 0.85, deliveries
    assert summary.overall_win_fraction >= 0.75, summary.overall_win_fraction
    ok(4, f"NNH wins {deliveries.win_fraction:.0%} with central deliveries and "
          f"{summary.overall_win_fraction:.0%} overall; observed max cost reduction "
          f"{summary.max_cost_reduction:.1%} (comparison figure: up to 30%)")


def test_criterion_5_timing_order(paper_rows):
    by_key = {}
    for row in paper_rows:
        by_key.setdefault((row.instance, row.direction, row.capacity_items), {})[
            row.heuristic
        ] = row
    large = 0
    for key, entry in sorted(by_key.items()):
        if entry["NNH"].node_count >= 100:
            assert entry["NNH"].wall_time_s < entry["CIH"].wall_time_s, key
            large += 1
        if key[0] == "eil51":  # sanity on the classic mid-size instance too
            assert entry["NNH"].wall_time_s < entry["CIH"].wall_time_s, key
    assert large, "corpus must contain instances with at least 100 nodes"
    ok(5, f"NNH multi-start beat CIH wall time on all {large} configurations "
          "with >= 100 nodes (and on every eil51 configuration)")


def test_criterion_6_capacity_monotonicity():
    for seed in range(50):
        instance = make_random_instance(3, 1, 10_000 + seed)
        costs = [held_karp(with_capacity(instance, q)).cost for q in (1, 2, 3)]
        assert costs[0] >= costs[1] >= costs[2], (seed, costs)
    ok(6, "optimal cost non-increasing in capacity on 50 seeded 3-pair instances")


def test_criterion_7_generator_fidelity(eil51_cloud):
    spec = GenerationSpec(Direction.PICKUPS_CENTRAL, 10)
    instance = generate(eil51_cloud, spec)
    assert instance.n_pairs == 25

    # independent re-derivation of the centroid ranking
    pts = [(i, x, y) for i, (x, y) in zip(eil51_cloud.ids.tolist(), eil51_cloud.coords.tolist())]
    cx = sum(x for _, x, _ in pts) / len(pts)
    cy = sum(y for _, _, y in pts) / len(pts)
    ranked = sorted(pts, key=lambda p: ((p[1] - cx) ** 2 + (p[2] - cy) ** 2, p[0]))
    assert tuple(instance.coords[0]) == ranked[0][1:]  # depot is centroid-nearest

    # pairing follows (rank 2, rank m), (rank 3, rank m-1), ...
    for k in range(1, 26):
        assert tuple(instance.coords[k]) == ranked[k][1:]            # pickup: rank k+1
        assert tuple(instance.coords[k + 25]) == ranked[51 - k][1:]  # delivery: rank m+1-k

    regenerated = generate(tsplib.parse_file(CORPUS_DIR / "eil51.tsp"), spec)
    assert instance_to_text(regenerated) == instance_to_text(instance)
    ok(7, "eil51 gives 25 pairs, a centroid-nearest depot, end-to-end rank pairing, "
          "and byte-identical regeneration")


def test_criterion_8_determinism_and_scale_invariance(eil51_cloud):
    spec = GenerationSpec(Direction.DELIVERIES_CENTRAL, 10)
    instance = generate(eil51_cloud, spec)
    scaled_cloud = PointCloud(eil51_cloud.name, eil51_cloud.ids, 10.0 * eil51_cloud.coords)
    scaled = generate(scaled_cloud, spec)
    for solver in (nnh_best, cih_best):
        first = solver(instance)
        again = solver(instance)
        assert first.best_tour.sequence == again.best_tour.sequence
        assert first.costs == again.costs
        large = solver(scaled)
        assert large.best_tour.sequence == first.best_tour.sequence
        assert abs(large.best_cost - 10.0 * first.best_cost) <= 1e-9
    ok(8, "repeated solves identical; x10 coordinates keep both visit sequences "
          "and scale costs by exactly ten")
