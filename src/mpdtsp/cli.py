"""Command-line front end.

Verbs: inspect, generate, solve, exact, validate, bench, compare.
Exit codes: 0 success, 1 domain infeasibility, 2 usage error, 3 internal
error (a broken invariant or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import bench, files, tsplib
from .cheapest_insertion import cih_best
from .construction import MultiStartError, MultiStartResult
from .exact import BRUTE_FORCE_PAIR_LIMIT, HELD_KARP_PAIR_LIMIT, brute_force, held_karp
from .generate import Direction, GenerationSpec, centroid, generate, rank_by_centroid
from .model import InfeasibleInstanceError, tour_cost, validate
from .nearest_neighbor import nnh_best
from .tsplib import MetricMode, TsplibParseError

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_METRIC_CHOICES = sorted(m.value for m in MetricMode)


def _comma_list(parse):
    """An argparse type reading a comma list, each value by ``parse``."""
    def read(text: str) -> tuple:
        return tuple(parse(value.strip()) for value in text.split(","))
    read.__name__ = f"{parse.__name__} list"  # argparse: "invalid int list value: '2,x'"
    return read


def _starts(text: str) -> list[int] | None:
    """An argparse type reading ``--init``: every start (None), the depot, or one node id."""
    if text == "all":
        return None
    return [0] if text == "depot" else [int(text)]


_starts.__name__ = "start ('all', 'depot' or a node id)"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpdtsp",
        description="Construction heuristics and exact solving for capacitated "
        "one-to-one pickup-and-delivery tours.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("inspect", help="print point-cloud stats for a TSPLIB file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("generate", help="derive an instance from a TSPLIB file")
    p.add_argument("file")
    p.add_argument("--direction", required=True,
                   choices=[d.value for d in Direction])
    p.add_argument("--capacity", required=True, type=int, metavar="ITEMS")
    p.add_argument("--metric", choices=_METRIC_CHOICES, default="exact")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run construction heuristics on an instance file")
    p.add_argument("instance")
    p.add_argument("--heuristic", choices=["nnh", "cih", "both"], default="both")
    p.add_argument("--init", type=_starts, default="all",
                   help="'all', 'depot', or a node id (default: all)")
    p.add_argument("--table", help="write the per-start cost table as CSV")
    p.add_argument("--out", help="write the best tour (one node id per line)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="solve a small instance to optimality")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("validate", help="check a tour file against an instance")
    p.add_argument("instance")
    p.add_argument("tour")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bench", help="sweep a corpus directory with both heuristics")
    # each setting's dest is its ExperimentConfig field; an unset one stays None
    p.add_argument("--corpus", dest="corpus_dir", type=Path, required=True,
                   help="directory of TSPLIB EUC_2D files")
    p.add_argument("--directions", type=_comma_list(Direction),
                   help=f"comma list of {', '.join(d.value for d in Direction)}")
    p.add_argument("--capacities", type=_comma_list(int),
                   help="comma list of capacities, e.g. 2,4,6,8,10")
    p.add_argument("--metric", type=MetricMode, metavar="{%s}" % ",".join(_METRIC_CHOICES))
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--csv", help="write result rows here")
    p.add_argument("--svg", help="write summary charts here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("compare", help="heuristics vs the exact optimum on one instance")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_compare)

    return parser


def _cmd_inspect(args) -> int:
    cloud = tsplib.parse_file(args.file)
    xy = cloud.coords
    cx, cy = centroid(cloud)
    depot_index = rank_by_centroid(cloud)[0]
    print(f"name: {cloud.name}")
    print(f"points: {len(cloud)}")
    print(f"x range: [{xy[:, 0].min():g}, {xy[:, 0].max():g}]")
    print(f"y range: [{xy[:, 1].min():g}, {xy[:, 1].max():g}]")
    print(f"centroid: ({cx:g}, {cy:g})")
    print(f"centroid-nearest point (depot designate): file index {depot_index}")
    print(f"derivable pairs: {(len(cloud) - 1) // 2}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    cloud = tsplib.parse_file(args.file)
    spec = GenerationSpec(Direction(args.direction), args.capacity)
    instance = generate(cloud, spec, MetricMode(args.metric))
    files.write_instance(instance, args.out)
    files.write_sidecar(instance.meta, str(args.out) + ".meta")
    dropped = instance.meta.get("dropped_file_index") or "none"
    print(
        f"{instance.name}: {instance.n_pairs} pairs, capacity {instance.capacity:g}, "
        f"dropped file index: {dropped}"
    )
    print(f"wrote {args.out} and {args.out}.meta")
    return EXIT_OK


def _print_result(label: str, result: MultiStartResult, table: bool = False) -> None:
    tour = result.best_tour
    print(f"{label} best cost: {tour.cost!r} (start {result.best_init}, "
          f"{len(result.costs)} starts ok, {len(result.dead_ends)} dead ends)")
    print(f"{label} tour: {' '.join(str(v) for v in tour.sequence)}")
    if table:
        print(f"{label} per-start costs:")
        for init in sorted(result.costs):
            marker = " *" if init == result.best_init else ""
            print(f"  {init:>4d}  {result.costs[init]:.6f}{marker}")
        for init in result.dead_ends:
            step, left = result.stalls[init]
            print(f"  {init:>4d}  dead-end at step {step}, {left} left")


def _write_table(results: dict[str, MultiStartResult], path: str) -> None:
    # a dead end has no cost; its row gives the partial tour's length and the nodes left
    lines = ["heuristic,init,cost,stall_step,nodes_left"]
    for label, result in sorted(results.items()):
        for init in sorted(result.costs):
            lines.append(f"{label},{init},{result.costs[init]!r},,")
        for init, (step, left) in result.stalls.items():
            lines.append(f"{label},{init},dead-end,{step},{left}")
    files.write_text(path, "table", "\n".join(lines) + "\n")


def _cmd_solve(args) -> int:
    instance = files.read_instance(args.instance)
    solvers = {"nnh": [("NNH", nnh_best)], "cih": [("CIH", cih_best)],
               "both": [("NNH", nnh_best), ("CIH", cih_best)]}[args.heuristic]
    results: dict[str, MultiStartResult] = {}
    for label, solver in solvers:
        results[label] = solver(instance, args.init)
        _print_result(label, results[label], table=True)
    if args.table:
        _write_table(results, args.table)
        print(f"wrote per-start table to {args.table}")
    if args.out:
        best = min(results.values(), key=lambda r: (r.best_cost, r.best_init))
        files.write_tour(best.best_tour, args.out)
        print(f"wrote best tour to {args.out}")
    return EXIT_OK


def _cmd_exact(args) -> int:
    instance = files.read_instance(args.instance)
    tour = held_karp(instance)
    if tour is None:
        print("infeasible: no tour satisfies the constraint system")
        return EXIT_INFEASIBLE
    print(f"optimal cost: {tour.cost!r}")
    print(f"optimal tour: {' '.join(str(v) for v in tour.sequence)}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    instance = files.read_instance(args.instance)
    sequence = files.read_tour_sequence(args.tour)
    report = validate(instance, sequence)
    print(report)
    if report.feasible:
        print(f"cost: {tour_cost(instance, sequence)!r}")
        return EXIT_OK
    return EXIT_INFEASIBLE


def _cmd_bench(args) -> int:
    # only the given settings are passed, so ExperimentConfig holds the defaults
    config = bench.ExperimentConfig(**{f.name: getattr(args, f.name)
                                       for f in fields(bench.ExperimentConfig)
                                       if getattr(args, f.name) is not None})
    rows = bench.run_corpus(config)
    summary = bench.summarize(rows)
    print(f"rows: {len(rows)}")
    for direction, ds in sorted(summary.directions.items()):
        print(f"{direction}: NNH wins {ds.nnh_wins}/{ds.pair_count} "
              f"({ds.win_fraction:.1%})")
    print(f"overall: NNH wins {summary.overall_win_fraction:.1%} "
          f"of {summary.overall_pairs} configurations")
    print(f"max cost reduction over CIH: {summary.max_cost_reduction:.1%}")
    if args.csv:
        bench.emit_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    if args.svg:
        bench.emit_svg_histogram(summary, args.svg)
        print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    instance = files.read_instance(args.instance)
    nnh = nnh_best(instance)
    cih = cih_best(instance)
    _print_result("NNH", nnh)
    _print_result("CIH", cih)
    if instance.n_pairs > HELD_KARP_PAIR_LIMIT:
        print(f"exact: skipped ({instance.n_pairs} pairs exceeds limit {HELD_KARP_PAIR_LIMIT})")
        return EXIT_OK
    optimum = held_karp(instance)
    if optimum is None:
        print("exact: infeasible")
        return EXIT_INFEASIBLE
    print(f"exact optimal cost (depot-rooted): {optimum.cost!r}")
    # start 0 never stalls: an item on board can always be delivered next
    # (NNH) or right after its pickup (CIH), and any item fits an empty vehicle
    for label, result in (("NNH", nnh), ("CIH", cih)):
        depot_cost = result.costs[0]
        gap = (depot_cost - optimum.cost) / optimum.cost if optimum.cost else 0.0
        print(f"{label} depot-start cost {depot_cost!r}, gap to optimum: {gap:.2%}")
    for label, result in (("NNH", nnh), ("CIH", cih)):
        # any-start tours carry different load profiles and may legitimately
        # undercut the depot-rooted optimum
        print(f"{label} any-start best: {result.best_cost!r} "
              "(not bounded by the depot-rooted optimum)")
    if instance.n_pairs <= BRUTE_FORCE_PAIR_LIMIT:
        reference = brute_force(instance)
        agree = reference is not None and abs(reference.cost - optimum.cost) <= 1e-9
        print(f"enumeration cross-check: {'ok' if agree else 'MISMATCH'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    if hasattr(sys.stdout, "reconfigure"):  # process-wide, kept after main: a lacking console shows an escape
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InfeasibleInstanceError, MultiStartError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (TsplibParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, which must not exit 1 as infeasibility does
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
