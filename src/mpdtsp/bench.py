"""Corpus sweep comparing the two construction heuristics.

For every (file, direction, capacity) combination the harness generates the
instance, runs both heuristics from every start node, re-validates the
winning tours and records cost and wall time.  Rows come back in a fixed
sort order, so reruns differ only in the timing fields.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import time
from collections import Counter, defaultdict
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import files, tsplib
from .cheapest_insertion import cih_best
from .generate import MIN_CLOUD_POINTS, Direction, GenerationSpec, generate
from .model import Instance, validate
from .nearest_neighbor import nnh_best
from .tsplib import MetricMode, TsplibParseError

log = logging.getLogger(__name__)

DEFAULT_CAPACITIES = (2, 4, 6, 8, 10)

CSV_HEADER = "instance,direction,Q,heuristic,best_cost,wall_time_s,node_count,init_of_best,dead_end_count"


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_dir: Path
    directions: tuple[Direction, ...] = (Direction.PICKUPS_CENTRAL, Direction.DELIVERIES_CENTRAL)
    capacities: tuple[int, ...] = DEFAULT_CAPACITIES
    metric: MetricMode = MetricMode.EXACT
    max_nodes: int | None = None

    def __post_init__(self):
        if not self.capacities or any(q < 1 for q in self.capacities):
            raise ValueError("capacities must be a nonempty list of positive integers")
        if len(set(self.capacities)) != len(self.capacities):
            raise ValueError(f"capacities must not repeat, got {self.capacities}")
        if not self.directions or len(set(self.directions)) != len(self.directions):
            raise ValueError("directions must be a nonempty list without repeats")
        if self.max_nodes is not None and self.max_nodes < MIN_CLOUD_POINTS:
            raise ValueError(f"max_nodes must be at least {MIN_CLOUD_POINTS}, got {self.max_nodes}")


@dataclass(frozen=True)
class ResultRow:
    instance: str
    direction: str
    capacity_items: int
    heuristic: str           # "NNH" or "CIH"
    best_cost: float
    wall_time_s: float
    node_count: int
    init_of_best: int
    dead_end_count: int

    def sort_key(self):
        return (self.instance, self.direction, self.capacity_items, self.heuristic)


def _solve_rows(instance: Instance, source_name: str, direction: Direction, q: int) -> list[ResultRow]:
    rows = []
    for label, solver in (("NNH", nnh_best), ("CIH", cih_best)):
        t0 = time.perf_counter()
        result = solver(instance)
        elapsed = time.perf_counter() - t0
        report = validate(instance, result.best_tour)
        if not report.feasible:
            raise RuntimeError(
                f"{label} tour for {instance.name} failed validation ({report}); "
                "aborting the sweep"
            )
        rows.append(
            ResultRow(
                instance=source_name,
                direction=direction.value,
                capacity_items=q,
                heuristic=label,
                best_cost=result.best_cost,
                wall_time_s=elapsed,
                node_count=instance.node_count,
                init_of_best=result.best_init,
                dead_end_count=len(result.dead_ends),
            )
        )
    return rows


def run_corpus(config: ExperimentConfig) -> list[ResultRow]:
    """Sweep every parsable corpus file across directions and capacities.

    A file whose cloud name an earlier file (in name order) already has is
    skipped with a warning, as an unparsable file is; a cloud above
    ``max_nodes`` is skipped at INFO.  When no file is left, the error gives
    each skip's reason."""
    corpus = Path(config.corpus_dir)
    if not corpus.is_dir():
        raise ValueError(f"corpus {corpus} is not a directory")
    clouds: list[tsplib.PointCloud] = []
    name_owner: dict[str, Path] = {}  # rows are keyed by cloud name
    skipped: list[str] = []  # "<file>: <reason>", for the error when no file is left

    def skip(path: Path, reason: str, level: int = logging.WARNING) -> None:
        log.log(level, "skipping %s: %s", path.name, reason)
        skipped.append(f"{path.name}: {reason}")

    for path in sorted(corpus.glob("*.tsp")):
        try:
            cloud = tsplib.parse_file(path)
        except (TsplibParseError, OSError) as exc:
            skip(path, str(exc))
            continue
        if len(cloud) < MIN_CLOUD_POINTS:
            skip(path, f"{len(cloud)} points are too few for an instance")
        elif config.max_nodes is not None and len(cloud) > config.max_nodes:
            skip(path, f"{len(cloud)} nodes exceeds max_nodes={config.max_nodes}", logging.INFO)
        elif cloud.name in name_owner:
            skip(path, f"its name {cloud.name!r} is taken by {name_owner[cloud.name].name}")
        else:
            name_owner[cloud.name] = path
            clouds.append(cloud)
    if not clouds:
        raise ValueError(f"no instances: {corpus} holds {len(skipped)} .tsp files"
                         + "".join(f"; skipped {entry}" for entry in skipped))

    rows: list[ResultRow] = []
    for cloud in clouds:
        for direction in config.directions:
            for q in config.capacities:
                instance = generate(cloud, GenerationSpec(direction, q), config.metric)
                rows.extend(_solve_rows(instance, cloud.name, direction, q))
    rows.sort(key=ResultRow.sort_key)
    return rows


# -- summary statistics --------------------------------------------------------

RATIO_BUCKET_WIDTH = 0.02


@dataclass(frozen=True)
class Quartiles:
    low: float
    q1: float
    median: float
    q3: float
    high: float

    @classmethod
    def of(cls, values: list[float]) -> "Quartiles":
        arr = np.asarray(values, dtype=float)
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        return cls(float(arr.min()), float(q1), float(med), float(q3), float(arr.max()))


@dataclass(frozen=True)
class DirectionSummary:
    pair_count: int
    nnh_wins: int                                  # NNH cost <= CIH cost, ties included
    win_fraction: float
    ratio_histogram: tuple[tuple[float, int], ...] = ()


@dataclass(frozen=True)
class Summary:
    directions: dict[str, DirectionSummary]
    overall_pairs: int
    overall_win_fraction: float
    max_cost_reduction: float                      # max of (CIH-NNH)/CIH over all pairs
    ratio_by_capacity: dict[int, Quartiles]
    time_ratio_by_node_count: dict[int, Quartiles]


def ratio_bucket(ratio: float) -> float:
    """Left edge of the width-0.02 histogram bucket containing ``ratio``."""
    index = math.floor(ratio / RATIO_BUCKET_WIDTH + 1e-9)
    return round(index * RATIO_BUCKET_WIDTH, 10)


def summarize(rows: list[ResultRow]) -> Summary:
    """Pair the NNH and CIH rows of each (instance, direction, Q), then gather in
    one pass in key order each direction's NNH wins (ties included) and CIH/NNH
    cost-ratio histogram, the ratios by Q, the time ratios by node count and the
    largest (CIH - NNH) / CIH, each over the pairs whose divisor is positive."""
    by_key: dict[tuple[str, str, int], dict[str, ResultRow]] = {}
    for row in rows:
        key = (row.instance, row.direction, row.capacity_items)
        entry = by_key.setdefault(key, {})
        if row.heuristic in entry:
            raise ValueError(f"rows for {key} repeat {row.heuristic}")
        entry[row.heuristic] = row
    if not by_key:
        raise ValueError("no result rows to summarize")

    nnh_won: defaultdict[str, list[bool]] = defaultdict(list)  # by direction, in key order
    histograms: defaultdict[str, Counter[float]] = defaultdict(Counter)
    ratios_by_q: defaultdict[int, list[float]] = defaultdict(list)
    time_by_nodes: defaultdict[int, list[float]] = defaultdict(list)
    max_reduction = 0.0
    for key, entry in sorted(by_key.items()):
        if set(entry) != {"NNH", "CIH"}:
            raise ValueError(f"rows for {key} are unpaired: have {sorted(entry)}")
        n, c = entry["NNH"], entry["CIH"]
        nnh_won[key[1]].append(n.best_cost <= c.best_cost)
        if n.best_cost > 0:
            ratio = c.best_cost / n.best_cost
            histograms[key[1]][ratio_bucket(ratio)] += 1
            ratios_by_q[n.capacity_items].append(ratio)
        if c.best_cost > 0:
            max_reduction = max(max_reduction, (c.best_cost - n.best_cost) / c.best_cost)
        if n.wall_time_s > 0:
            time_by_nodes[n.node_count].append(c.wall_time_s / n.wall_time_s)

    return Summary(
        directions={d: DirectionSummary(len(won), sum(won), sum(won) / len(won),
                                        tuple(sorted(histograms[d].items())))
                    for d, won in sorted(nnh_won.items())},
        overall_pairs=len(by_key),
        overall_win_fraction=sum(map(sum, nnh_won.values())) / len(by_key),
        max_cost_reduction=max_reduction,
        ratio_by_capacity={q: Quartiles.of(v) for q, v in sorted(ratios_by_q.items())},
        time_ratio_by_node_count={m: Quartiles.of(v) for m, v in sorted(time_by_nodes.items())},
    )


# -- emitters --------------------------------------------------------------------


def emit_csv(rows: list[ResultRow], path: str | Path) -> None:
    """Write rows under the fixed header, in the deterministic sort order.

    A field holding a comma or a quote, such as a cloud's NAME, is quoted."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(astuple(row) for row in sorted(rows, key=ResultRow.sort_key))
    files.write_text(path, "CSV", text.getvalue())


_SVG_WIDTH = 860
_BAR_AREA = 600
_ROW_H = 18


def emit_svg_histogram(summary: Summary, path: str | Path) -> None:
    """Render the summary as a single static SVG: one ratio histogram per
    direction, then box summaries per capacity and per node count."""
    parts: list[str] = []
    y = 30
    for direction, ds in sorted(summary.directions.items()):
        parts.append(_text(20, y, f"CIH/NNH cost ratio, {direction} "
                                  f"(NNH wins {ds.nnh_wins}/{ds.pair_count})", bold=True))
        y += 12
        top = max((count for _, count in ds.ratio_histogram), default=1)
        for bucket, count in ds.ratio_histogram:
            width = max(1, round(_BAR_AREA * count / top))
            parts.append(f'<rect x="150" y="{y}" width="{width}" height="{_ROW_H - 4}" fill="#4878a8"/>')
            parts.append(_text(20, y + _ROW_H - 7, f"[{bucket:.2f},{bucket + RATIO_BUCKET_WIDTH:.2f})"))
            parts.append(_text(155 + width, y + _ROW_H - 7, str(count)))
            y += _ROW_H
        y += 24

    for title, label, boxes in (
        ("cost ratio quartiles by capacity", "Q={}", summary.ratio_by_capacity),
        ("CIH/NNH time ratio quartiles by node count", "{} nodes", summary.time_ratio_by_node_count),
    ):
        parts.append(_text(20, y, title, bold=True))
        y += 12
        for value, quart in boxes.items():
            parts.extend(_box_row(label.format(value), quart, y))
            y += _ROW_H
        y += 24  # the chart's height keeps 20 of the last section's gap

    body = "\n".join(parts)
    svg = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH}" height="{y - 4}" font-family="monospace" font-size="11">\n'
        f"{body}\n</svg>\n"
    )
    files.write_text(path, "SVG", svg)


def _text(x: int, y: int, label: str, bold: bool = False) -> str:
    weight = ' font-weight="bold"' if bold else ""
    return f'<text x="{x}" y="{y}"{weight}>{_escape(label)}</text>'


def _escape(label: str) -> str:
    return label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _box_row(label: str, quart: Quartiles, y: int) -> list[str]:
    # map values onto the bar area with a shared 0..max scale per row group
    scale = _BAR_AREA / max(quart.high, 1e-12)
    x = lambda v: 150 + round(v * scale)  # noqa: E731 - tiny local helper
    mid_y = y + (_ROW_H - 4) // 2
    return [
        _text(20, y + _ROW_H - 7, label),
        f'<line x1="{x(quart.low)}" y1="{mid_y}" x2="{x(quart.high)}" y2="{mid_y}" stroke="#444"/>',
        f'<rect x="{x(quart.q1)}" y="{y}" width="{max(1, x(quart.q3) - x(quart.q1))}" '
        f'height="{_ROW_H - 4}" fill="#9fc2e0" stroke="#444"/>',
        f'<line x1="{x(quart.median)}" y1="{y}" x2="{x(quart.median)}" y2="{y + _ROW_H - 4}" '
        'stroke="#d0342c" stroke-width="2"/>',
        _text(160 + _BAR_AREA, y + _ROW_H - 7,
              f"med={quart.median:.3f} q1={quart.q1:.3f} q3={quart.q3:.3f}"),
    ]
