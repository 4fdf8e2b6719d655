"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, as text the library must
parse (TSPLIB clouds, canonical instance text) or as a corpus directory, and
hands the library nothing else.  A *unit* is one timed call sequence; it
yields one item, except in ``sweep``, where one unit sweeps one cloud in one
direction and every CSV row is an item.  One *pass* runs every unit of ``pool`` once.

The library is always reached through the ``mpdtsp`` package at call time,
never through names bound at import, so the traced run sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mpdtsp as mp
from check import array_digest, costs_agree, digest, multistart_digest, multistart_error, tour_error

#: TSPLIB clouds use integer coordinates in [0, GRID]
GRID = 1000

CSV_HEADER = "instance,direction,Q,heuristic,best_cost,wall_time_s,node_count,init_of_best,dead_end_count"


def tsplib_text(name: str, points) -> str:
    lines = [f"NAME: {name}", "TYPE: TSP", "COMMENT: seeded uniform cloud",
             f"DIMENSION: {len(points)}", "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
    lines += [f"{i} {x} {y}" for i, (x, y) in enumerate(points, start=1)]
    return "\n".join(lines + ["EOF"]) + "\n"


def uniform_cloud(rng: random.Random, m: int) -> list[tuple[int, int]]:
    return [(rng.randint(0, GRID), rng.randint(0, GRID)) for _ in range(m)]


def instance_text(coords, capacity: int) -> str:
    """Canonical instance text for unit loads: depot 0, pickups 1..n, deliveries n+1..2n."""
    n = (len(coords) - 1) // 2
    lines = [f"PAIRS {n}", f"CAPACITY {float(capacity)!r}", "METRIC EXACT"]
    for i, (x, y) in enumerate(coords):
        role, pair, load = ("DEPOT", 0, 0.0) if i == 0 else (
            ("PICKUP", i, 1.0) if i <= n else ("DELIVERY", i - n, -1.0))
        lines.append(f"{i} {role} {pair} {x!r} {y!r} {load!r}")
    return "\n".join(lines) + "\n"


def generated_node_count(m: int) -> int:
    """Nodes of the instance generated from an m-point cloud (an odd leftover point is dropped)."""
    return 2 * ((m - 1) // 2) + 1


class Workload:
    name = ""
    pool: list
    warmup: object

    def run(self, unit):
        """The library calls of one unit; this is what the benchmark times."""
        raise NotImplementedError

    def item_times(self, unit, out, elapsed: float) -> list[float]:
        return [elapsed]

    def expected_items(self, unit) -> int:
        return 1

    def inspect(self, unit, out) -> list[tuple[str | None, str]]:
        """(error or None, digest) for every item of a finished unit."""
        raise NotImplementedError


# -- sweep -------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepUnit:
    corpus: Path
    texts: dict            # cloud name -> TSPLIB text written into ``corpus``
    directions: tuple
    capacities: tuple[int, ...]
    csv: Path
    svg: Path


class Sweep(Workload):
    """The paper's experiment: ``run_corpus`` over a written corpus, then summary and charts.

    One unit sweeps one cloud in one direction, so a pass is several calls of
    a few tenths of a second each and the calibration in ``worker.Phase``
    gauges the host between them, not once a pass.
    """

    name = "sweep"

    def __init__(self, rng: random.Random, tiny: bool, workdir: Path):
        sizes, capacities = ((21, 31), (2,)) if tiny else ((51, 81), (2,))
        clouds = [(f"bsw{m:03d}", tsplib_text(f"bsw{m:03d}", uniform_cloud(rng, m))) for m in sizes]
        self.pool = [self._unit(workdir / f"sweep-{name}-{d.name.lower()}", {name: text}, (d,), capacities)
                     for name, text in clouds for d in mp.Direction]
        warmup = "bsw021"
        self.warmup = self._unit(workdir / "sweep-warmup", {warmup: tsplib_text(warmup, uniform_cloud(rng, 21))},
                                 tuple(mp.Direction), (2,))

    @staticmethod
    def _unit(root: Path, texts: dict, directions: tuple, capacities) -> SweepUnit:
        corpus = root / "corpus"
        corpus.mkdir(parents=True)
        for name, text in texts.items():
            (corpus / f"{name}.tsp").write_text(text)
        return SweepUnit(corpus, texts, directions, capacities, root / "rows.csv", root / "summary.svg")

    def run(self, unit: SweepUnit):
        config = mp.ExperimentConfig(corpus_dir=unit.corpus, directions=unit.directions,
                                     capacities=unit.capacities)
        rows = mp.run_corpus(config)
        summary = mp.summarize(rows)
        mp.emit_csv(rows, unit.csv)
        mp.emit_svg_histogram(summary, unit.svg)
        return rows, summary

    def item_times(self, unit, out, elapsed):
        # the sweep times each multi-start itself; those are the CSV's wall_time_s
        return [row.wall_time_s for row in out[0]]

    def expected_items(self, unit):
        return len(unit.texts) * len(unit.directions) * len(unit.capacities) * 2

    def inspect(self, unit, out):
        rows, summary = out
        expected = self.expected_items(unit)
        lines = unit.csv.read_text().splitlines()
        svg = unit.svg.read_text()
        unit_error = None
        if len(rows) != expected:
            return [(f"sweep gave {len(rows)} rows, expected {expected}", "")] * expected
        if lines[0] != CSV_HEADER or len(lines) != expected + 1:
            unit_error = "CSV header or row count is wrong"
        elif not svg.startswith("<?xml") or "</svg>" not in svg:
            unit_error = "SVG chart is malformed"
        elif summary.overall_pairs != expected // 2:
            unit_error = f"summary pairs {summary.overall_pairs}, expected {expected // 2}"

        instances = {}
        results = []
        for row in rows:
            key = (row.instance, row.direction, row.capacity_items)
            if key not in instances:
                cloud = mp.tsplib.parse(unit.texts[row.instance])
                spec = mp.GenerationSpec(mp.Direction(row.direction), row.capacity_items)
                instances[key] = (len(cloud), mp.generate(cloud, spec))
            m, instance = instances[key]
            build = {"NNH": mp.nnh_from, "CIH": mp.cih_from}[row.heuristic]
            tour = build(instance, row.init_of_best)
            error = unit_error
            if error is None and row.node_count != generated_node_count(m):
                error = f"node_count {row.node_count} for a {m}-point cloud"
            if error is None and not 0 <= row.dead_end_count < row.node_count:
                error = f"dead_end_count {row.dead_end_count} out of range"
            if error is None and tour.cost != row.best_cost:
                error = f"row cost {row.best_cost!r} but its start builds {tour.cost!r}"
            if error is None:
                error = tour_error(instance.coords, instance.n_pairs, row.capacity_items,
                                   tour.sequence, row.best_cost, start=row.init_of_best)
            results.append((error, digest(key, row.heuristic, row.best_cost, row.node_count,
                                          row.init_of_best, row.dead_end_count, tour.sequence)))
        return results


# -- exact ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactUnit:
    n_pairs: int
    capacity: int
    coords: tuple
    text: str


class Exact(Workload):
    """What ``mpdtsp compare`` does, on seeded unit-square instances."""

    name = "exact"
    BRUTE_FORCE_PAIRS = 4

    def __init__(self, rng: random.Random, tiny: bool, workdir: Path):
        mix = ((3, 2), (5, 10)) if tiny else (
            (4, 2), (7, 2), (7, 10), (8, 1), (8, 4), (8, 10), (9, 1), (9, 2), (10, 1), (10, 2))
        self.pool = [self._unit(rng, n, q) for n, q in mix]
        self.warmup = self._unit(rng, 3, 2)

    @staticmethod
    def _unit(rng, n, q) -> ExactUnit:
        coords = tuple((rng.random(), rng.random()) for _ in range(2 * n + 1))
        return ExactUnit(n, q, coords, instance_text(coords, q))

    def run(self, unit: ExactUnit):
        instance = mp.instance_from_text(unit.text, name=f"exact-{unit.n_pairs}")
        out = {"nnh": mp.nnh_best(instance), "cih": mp.cih_best(instance),
               "held_karp": mp.held_karp(instance)}
        for label, build in (("nnh_depot", mp.nnh_from), ("cih_depot", mp.cih_from)):
            try:
                out[label] = build(instance, 0)
            except mp.DeadEndError as exc:  # a domain outcome, not a failure
                out[label] = exc
        if unit.n_pairs <= self.BRUTE_FORCE_PAIRS:
            out["brute_force"] = mp.brute_force(instance)
        return out

    def inspect(self, unit, out):
        n, q, coords = unit.n_pairs, unit.capacity, unit.coords
        optimum = out["held_karp"]
        errors = [multistart_error(out["nnh"], 2 * n + 1), multistart_error(out["cih"], 2 * n + 1)]
        errors += [tour_error(coords, n, q, out[k].best_tour.sequence, out[k].best_tour.cost)
                   for k in ("nnh", "cih")]
        if optimum is None:
            errors.append("held_karp found no tour on a feasible instance")
        else:
            errors.append(tour_error(coords, n, q, optimum.sequence, optimum.cost, start=0))
        parts = [multistart_digest(out["nnh"]), multistart_digest(out["cih"]),
                 optimum and (optimum.sequence, optimum.cost)]
        for key in ("nnh_depot", "cih_depot"):
            tour = out[key]
            if isinstance(tour, Exception):
                parts.append(("dead end", len(tour.partial), len(tour.remainder)))
                continue
            parts.append((tour.sequence, tour.cost))
            errors.append(tour_error(coords, n, q, tour.sequence, tour.cost, start=0))
            if optimum is not None and optimum.cost > tour.cost and not costs_agree(optimum.cost, tour.cost):
                errors.append(f"held_karp {optimum.cost!r} above {key} {tour.cost!r}")
        if "brute_force" in out:
            brute = out["brute_force"]
            if brute is None or optimum is None or not costs_agree(brute.cost, optimum.cost):
                errors.append(f"brute_force {brute} disagrees with held_karp {optimum}")
            else:
                errors.append(tour_error(coords, n, q, brute.sequence, brute.cost, start=0))
                parts.append((brute.sequence, brute.cost))
        return [(next((e for e in errors if e), None), digest(n, q, *parts))]


# -- small-tight ---------------------------------------------------------------------


@dataclass(frozen=True)
class SmallUnit:
    text: str
    direction: str


class SmallTight(Workload):
    """Many small clouds at tight capacity: short starts and Q=1 dead ends."""

    name = "small-tight"
    CAPACITIES = (1, 2)

    def __init__(self, rng: random.Random, tiny: bool, workdir: Path):
        count, high = (6, 15) if tiny else (120, 31)
        directions = [d.value for d in mp.Direction]
        # sizes spread evenly over 11..high, so the seed changes only the points
        sizes = [11 + (high - 11) * i // (count - 1) for i in range(count)]
        self.pool = [self._unit(rng, m, directions[i % 2], i) for i, m in enumerate(sizes)]
        self.warmup = self._unit(rng, 11, directions[0], -1)

    @staticmethod
    def _unit(rng, m, direction, index) -> SmallUnit:
        return SmallUnit(tsplib_text(f"bst{index}", uniform_cloud(rng, m)), direction)

    def run(self, unit: SmallUnit):
        cloud = mp.tsplib.parse(unit.text)
        out = []
        for q in self.CAPACITIES:
            generated = mp.generate(cloud, mp.GenerationSpec(mp.Direction(unit.direction), q))
            instance = mp.instance_from_text(mp.instance_to_text(generated))
            out.append((generated, instance, mp.nnh_best(instance), mp.cih_best(instance)))
        return out

    def inspect(self, unit, out):
        errors, parts = [], []
        for q, (generated, instance, nnh, cih) in zip(self.CAPACITIES, out):
            if not (np.array_equal(generated.cost, instance.cost)
                    and np.array_equal(generated.coords, instance.coords)
                    and instance.capacity == q):
                errors.append(f"instance text round trip changed the Q={q} instance")
            for result in (nnh, cih):
                errors.append(multistart_error(result, instance.node_count))
                errors.append(tour_error(instance.coords, instance.n_pairs, q,
                                         result.best_tour.sequence, result.best_tour.cost))
                parts.append((q, multistart_digest(result)))
        return [(next((e for e in errors if e), None), digest(*parts))]


# -- prepare-large ---------------------------------------------------------------------


@dataclass(frozen=True)
class LargeUnit:
    text: str
    direction: str


class PrepareLarge(Workload):
    """The CLI path generate -> solve --init depot -> validate on large clouds."""

    name = "prepare-large"
    CAPACITY = 10

    def __init__(self, rng: random.Random, tiny: bool, workdir: Path):
        sizes = (101, 151) if tiny else (301, 501, 701, 1001)
        directions = [d.value for d in mp.Direction]
        self.pool = [self._unit(rng, m, directions[i % 2]) for i, m in enumerate(sizes)]
        self.warmup = self._unit(rng, 101, directions[0])

    @staticmethod
    def _unit(rng, m, direction) -> LargeUnit:
        return LargeUnit(tsplib_text(f"bpl{m}", uniform_cloud(rng, m)), direction)

    def run(self, unit: LargeUnit):
        cloud = mp.tsplib.parse(unit.text)
        spec = mp.GenerationSpec(mp.Direction(unit.direction), self.CAPACITY)
        exact = mp.generate(cloud, spec, mp.MetricMode.EXACT)
        rounded = mp.generate(cloud, spec, mp.MetricMode.ROUNDED)
        instance = mp.instance_from_text(mp.instance_to_text(exact))
        tour = mp.nnh_from(instance, 0)
        return exact, rounded, instance, tour, mp.validate(instance, tour)

    def inspect(self, unit, out):
        exact, rounded, instance, tour, report = out
        xy = exact.coords
        errors = [
            None if report.feasible else f"validate rejected the depot-start tour: {report}",
            self._matrix_error(xy, exact.cost, rounded.cost, instance.cost),
            tour_error(xy, exact.n_pairs, self.CAPACITY, tour.sequence, tour.cost, start=0),
        ]
        parts = (tour.sequence, tour.cost, array_digest(exact.cost), array_digest(rounded.cost))
        return [(next((e for e in errors if e), None), digest(*parts))]

    @staticmethod
    def _matrix_error(xy, exact, rounded, round_trip) -> str | None:
        """Check the cost matrices one row at a time, so the check adds O(m) to peak_rss_mb."""
        for i in range(len(xy)):
            d = np.hypot(xy[i, 0] - xy[:, 0], xy[i, 1] - xy[:, 1])
            if not np.allclose(exact[i], d, rtol=1e-12, atol=0):
                return f"EXACT cost matrix is wrong in row {i}"
            if not np.array_equal(rounded[i], np.floor(d + 0.5)):
                return f"ROUNDED cost matrix is wrong in row {i}"
            if not np.array_equal(round_trip[i], exact[i]):
                return f"instance text round trip changed costs in row {i}"
        return None


WORKLOADS = {cls.name: cls for cls in (Sweep, Exact, SmallTight, PrepareLarge)}
