"""Mutation check: each row's edit of the source must make its tests fail.

Run from anywhere:  python tests/mutants.py

For each row of MUTANTS the script copies the checkout, without .git, to a
temporary directory, replaces the row's snippet in its file there and runs
the row's pytest selection in that copy.  A row fails when its snippet does
not occur exactly once in its file, or when its tests still pass (the mutant
survived).  Every row is reported, and the exit status is 1 if any failed.

A change whose tests are proven by a mutation adds that mutation here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONSTRUCTION = "src/mpdtsp/construction.py"
MODEL = "src/mpdtsp/model.py"
EXACT = "src/mpdtsp/exact.py"
NNH = "src/mpdtsp/nearest_neighbor.py"
CIH = "src/mpdtsp/cheapest_insertion.py"
BENCH = "src/mpdtsp/bench.py"
TSPLIB = "src/mpdtsp/tsplib.py"
GENERATE = "src/mpdtsp/generate.py"
BLOCK_CHECK = ("tests/test_properties.py", "-k", "block_check")
AT_LOAD_LIMIT = ("tests/test_load_unit.py", "-k", "exactly_load_limit")
BLOCK_SIZES = ("tests/test_cheapest_insertion.py", "-k", "block_cells_allow")
PAYLOAD_RULE = ("tests/test_properties.py", "-k", "payload_rows_equal_the_plain_event_rule")
PLAIN_ENUMERATION = ("tests/test_exact.py", "-k", "matches_the_plain_enumeration")
VALIDATE_REPORT = ("tests/test_model.py", "-k", "report_names_each_violation")
HYPOT_PARITY = ("tests/test_tsplib.py", "-k", "match_math_hypot")
CIH_REFERENCE = ("tests/test_cheapest_insertion.py", "-k", "every_step_matches_the_reference")
CIH_FLOOR = ("tests/test_cheapest_insertion.py", "-k", "floor_and_delta")
SHARED_MATRIX = ("tests/test_model.py", "-k", "SharedMatrix")
GENERATE_TESTS = ("tests/test_generate.py",)
C_LOCALE = ("tests/test_cli.py", "-k", "CLocale")


def bench_tests(keywords: str) -> tuple[str, ...]:
    return ("tests/test_bench.py", "-k", keywords)


#: (what the mutant breaks, file, exact snippet, replacement, pytest selection that must fail)
MUTANTS: list[tuple[str, str, str, str, tuple[str, ...]]] = [
    # model.feasible_rows, one rule at a time; its reduction of the shared rules
    ("block check: id range widened by 5", MODEL,
     "(tour.max(axis=1) < instance.node_count)", "(tour.max(axis=1) < instance.node_count + 5)",
     BLOCK_CHECK),
    ("block check: closure dropped", MODEL,
     "ok &= (tour[:, 0] == inits) & (tour[:, -1] == inits)", "ok &= tour[:, 0] == inits", BLOCK_CHECK),
    ("block check: start dropped", MODEL,
     "ok &= (tour[:, 0] == inits) & (tour[:, -1] == inits)", "ok &= tour[:, -1] == inits", BLOCK_CHECK),
    ("block check: once-each dropped", MODEL,
     "    ok &= pos.min(axis=1) >= 0\n", "", BLOCK_CHECK),
    ("block check: upper load bound dropped", MODEL,
     "~(over.any(axis=1) | under.any(axis=1)", "~(under.any(axis=1)", BLOCK_CHECK),
    ("block check: lower load bound dropped", MODEL,
     "over.any(axis=1) | under.any(axis=1) | loaded", "over.any(axis=1) | loaded", BLOCK_CHECK),
    ("block check: final load dropped", MODEL,
     "under.any(axis=1) | loaded | late.any(axis=1)", "under.any(axis=1) | late.any(axis=1)", BLOCK_CHECK),
    ("block check: precedence dropped", MODEL,
     "| loaded | late.any(axis=1))", "| loaded)", BLOCK_CHECK),
    # model._rule_arrays: the load and precedence rules, which validate and the
    # block check share; the block check's plain-checker arbiter kills these
    ("shared rules: upper load bound without its tolerance", MODEL,
     "payload > instance.load_limit", "payload > instance.capacity", BLOCK_CHECK),
    ("shared rules: lower load bound without its tolerance", MODEL,
     "payload < -LOAD_TOLERANCE", "payload < 0", BLOCK_CHECK),
    ("shared rules: final load without its tolerance", MODEL,
     "np.abs(payload[:, -1]) > LOAD_TOLERANCE", "payload[:, -1] != 0", BLOCK_CHECK),
    ("shared rules: delivery-start exemption dropped", MODEL,
     " & (tours[:, :1] != np.arange(n + 1, 2 * n + 1))", "", BLOCK_CHECK),
    # model.validate: where and as what each violation is reported
    ("validate: a precedence breach reported at its pickup", MODEL,
     "ViolationKind.PRECEDENCE, int(pos[delivery])", "ViolationKind.PRECEDENCE, int(pos[pickup])",
     VALIDATE_REPORT),
    ("validate: a negative load reported as capacity-upper", MODEL,
     "ViolationKind.CAPACITY_LOWER, p,", "ViolationKind.CAPACITY_UPPER, p,", VALIDATE_REPORT),
    ("validate: the start's expected visit count set to 1", MODEL,
     "expected[seq[0]] = 2", "expected[seq[0]] = 1", VALIDATE_REPORT),
    # model.payload_rows: the start-event rule, which validate and the block check share
    ("payload rule: doubled start's event zeroed at the closing visit for every start", MODEL,
     "    payload[delivery_start, 0] = 0.0\n    payload[~delivery_start, -1] = 0.0\n",
     "    payload[:, -1] = 0.0\n", PAYLOAD_RULE),
    ("payload rule: a delivery start fires at the opening visit", MODEL,
     "tours[:, 0] > instance.n_pairs", "tours[:, 0] > instance.node_count",
     ("tests/test_model.py", "-k", "start_event_fires_once")),
    # model.Instance: bad loads or capacity build no matrix
    ("instance: the matrix built before the load checks", MODEL,
     '        object.__setattr__(self, "n_pairs", n)\n',
     '        object.__setattr__(self, "n_pairs", n)\n        cost_matrix(self.coords, self.metric)\n',
     ("tests/test_model.py", "-k", "build_no_matrix")),
    # tsplib.cost_matrix: the math.hypot kernel and its exotic-cell fallback
    ("hypot: differential correction dropped", TSPLIB,
     "    np.add(h, t0, h)\n", "", HYPOT_PARITY),
    ("hypot: np.hypot in place of the kernel", TSPLIB,
     "        if not exotic:\n            d = _hypot(work, n)\n",
     "        if not exotic:\n            d = np.hypot(dx, dy)\n", HYPOT_PARITY),
    ("hypot: exotic cells sent through the kernel", TSPLIB,
     "exotic = bool(", "exotic = False and bool(", ("tests/test_tsplib.py", "-k", "edge")),
    ("hypot: scalar fallback skipped past the first block", TSPLIB,
     "        if not exotic:\n", "        if not exotic or i0 > 0:\n",
     ("tests/test_tsplib.py", "-k", "edge_points_across_blocks")),
    # tsplib.cost_matrix: one read-only EXACT matrix per live coordinate array
    ("shared matrix: the cache key ignored", TSPLIB,
     "last_ref() if last_key == key else None", "last_ref() if True else None", SHARED_MATRIX),
    ("shared matrix: the read-only flag dropped", TSPLIB,
     "        matrix.flags.writeable = False\n", "", SHARED_MATRIX),
    ("shared matrix: ROUNDED's + 0.5 dropped", TSPLIB,
     "cost_matrix(coords, MetricMode.EXACT) + 0.5", "cost_matrix(coords, MetricMode.EXACT) + 0.0",
     SHARED_MATRIX),
    ("shared matrix: the weak reference made strong", TSPLIB,
     "_last[mode] = key, weakref.ref(matrix)", "_last[mode] = key, lambda: matrix",
     ("tests/test_model.py", "-k", "outlives_its_last_holder")),
    ("shared matrix: a live ROUNDED matrix not handed back", TSPLIB,
     "last_ref() if last_key == key else None",
     "last_ref() if last_key == key and mode is MetricMode.EXACT else None", SHARED_MATRIX),
    ("shared matrix: one entry for both metrics", TSPLIB,
     "_last[mode] = key, weakref.ref(matrix)",
     "_last[MetricMode.EXACT] = _last[MetricMode.ROUNDED] = key, weakref.ref(matrix)", SHARED_MATRIX),
    # generate: the ranking's tie rule and the pairing of ranks
    ("generate: ties ranked by numpy's default, unstable sort", GENERATE,
     'np.argsort(d2, kind="stable")', "np.argsort(d2)", GENERATE_TESTS),
    ("generate: the rank after the middle one dropped", GENERATE,
     "rest.pop(len(rest) // 2)", "rest.pop(len(rest) // 2 + 1)", GENERATE_TESTS),
    ("generate: the outer ranks paired without reversal", GENERATE,
     "outer = rest[n:][::-1]", "outer = rest[n:]", GENERATE_TESTS),
    # model.arc_sums: the one left-to-right sum of a tour's arcs
    ("arc sums: the closing arc left out", MODEL,
     "instance.cost[tours[:, :-1], tours[:, 1:]]", "instance.cost[tours[:, :-2], tours[:, 1:-1]]",
     PLAIN_ENUMERATION),
    ("arc sums: added pairwise, not left to right", MODEL,
     "np.add.accumulate(arcs, axis=1, out=arcs)[:, -1]", "arcs.sum(axis=1)", ("tests/test_arc_sums.py",)),
    # exact.brute_force
    ("brute_force takes the last minimum instead of the first", EXACT,
     "best = int(cost.argmin())", "best = len(cost) - 1 - int(cost[::-1].argmin())", PLAIN_ENUMERATION),
    ("precedence orders: the precedence mask dropped", EXACT,
     "        free[:, n_pairs:] &= placed[:, :n_pairs]  # a delivery waits for its pickup\n", "",
     ("tests/test_exact.py", "-k", "PrecedenceOrders")),
    # exact.held_karp: the layer chunks
    ("held_karp: each layer chunk one move short", EXACT,
     "hi = lo + per_chunk", "hi = lo + per_chunk - 1",
     ("tests/test_golden_exact.py", "-k", "chunks")),
    ("held_karp: the chunk cap multiplied, not divided: a layer in one chunk", EXACT,
     "LAYER_CHUNK_CELLS // width", "LAYER_CHUNK_CELLS * width",
     ("tests/test_exact.py", "-k", "peak")),
    ("held_karp: path costs and arc costs gathered into one shared buffer", EXACT,
     "paths, arcs = np.empty((2, per_chunk, width))", "paths = arcs = np.empty((per_chunk, width))",
     ("tests/test_golden_exact.py",)),
    # the capacity gate at exactly load_limit
    ("NNH: a load of exactly load_limit refused", NNH,
     "instance.loads <= instance.load_limit", "instance.loads < instance.load_limit", AT_LOAD_LIMIT),
    ("held_karp: a pickup to exactly load_limit refused", EXACT,
     "load + item <= upper", "load + item < upper", AT_LOAD_LIMIT),
    ("CIH: a slot at exactly load_limit outside the window", CIH,
     "searchsorted(rev_cummax)", 'searchsorted(rev_cummax, side="right")', AT_LOAD_LIMIT),
    # CIH's choice and insertion step
    ("CIH: a tie goes to the last cell", CIH,
     "np.minimum.reduceat(np.where(ratio == np.repeat(best, per_row), cell, cells)",
     "np.maximum.reduceat(np.where(ratio == np.repeat(best, per_row), cell, -1)", CIH_REFERENCE),
    ("CIH: every row's start offset by the first row's width, not its own", CIH,
     "row_start = per_row.cumsum() - per_row", "row_start = per_row.cumsum() - per_row[0]",
     CIH_REFERENCE),
    ("CIH: precedence gate dropped", CIH,
     "        floor[:, n_pairs + 1 :] = cls.SHUT\n", "", CIH_REFERENCE),
    ("CIH: payload not shifted by the inserted load", CIH,
     "payload[:, :m] + instance.loads[node][:, None]", "payload[:, :m]", CIH_REFERENCE),
    ("CIH: floors past the slot not shifted", CIH,
     "    floor += floor > slot[:, None]\n", "", CIH_FLOOR),
    ("CIH: a delivery start reopened by its own pickup", CIH,
     "np.where(opened == state.inits, node, opened)", "opened", CIH_FLOOR),
    ("CIH: the splice delta's sign flipped", CIH,
     "delta = added[pick] - replaced[pick]", "delta = replaced[pick] - added[pick]", CIH_FLOOR),
    # the engine: blocks and stalls
    ("engine: block rows multiplied, not divided", CONSTRUCTION,
     "BLOCK_CELLS // cells_per_start", "BLOCK_CELLS * cells_per_start", BLOCK_SIZES),
    ("CIH: cells a start lays out overstated", CIH,
     "instance.node_count**2 // 4", "instance.node_count**2 * 4", BLOCK_SIZES),
    ("engine: block of at least one start dropped", CONSTRUCTION,
     "rows = max(1, BLOCK_CELLS // cells_per_start)", "rows = BLOCK_CELLS // cells_per_start",
     ("tests/test_cheapest_insertion.py", "-k", "at_least_one_start")),
    ("engine: stall step counts the doubled CIH start twice", CONSTRUCTION,
     "len(set(partial))", "len(partial)", ("tests/test_cheapest_insertion.py", "-k", "stalls_carry")),
    ("NNH: closing arc added one step early", NNH,
     "if block.size == instance.node_count:", "if block.size == instance.node_count - 1:",
     ("tests/test_nearest_neighbor.py", "-k", "hand_simulation")),
    ("NNH: precedence gate dropped", NNH,
     "    admissible[:, n_pairs + 1 :] &= visited[:, 1 : n_pairs + 1]\n", "",
     ("tests/test_nearest_neighbor.py", "-k", "greedy_choice_soundness")),
    ("NNH: visited kept for stalled rows", NNH,
     'ROWS = Block.ROWS + ("visited",)', "ROWS = Block.ROWS",
     ("tests/test_nearest_neighbor.py", "-k", "dead_ends_recorded")),
    ("engine: a misplaced tour reported by its second node", CONSTRUCTION,
     "it opens at {seq[0]}", "it opens at {seq[1]}", ("tests/test_nearest_neighbor.py", "-k", "another_start")),
    # bench: the summary and its outputs
    ("summary: a tie counted as a CIH win", BENCH,
     "append(n.best_cost <= c.best_cost)", "append(n.best_cost < c.best_cost)",
     bench_tests("ties_count")),
    ("summary: histogram bucket one width off", BENCH,
     "[ratio_bucket(ratio)] += 1", "[ratio_bucket(ratio) + RATIO_BUCKET_WIDTH] += 1",
     bench_tests("histogram_bucketing")),
    ("summary: time ratio inverted", BENCH,
     "c.wall_time_s / n.wall_time_s", "n.wall_time_s / c.wall_time_s",
     bench_tests("quartiles_per_capacity")),
    ("csv: two ResultRow fields swapped", BENCH,
     "    node_count: int\n    init_of_best: int\n", "    init_of_best: int\n    node_count: int\n",
     bench_tests("csv_fixed_order")),
    ("svg: the two quartile sections swapped", BENCH,
     '        ("cost ratio quartiles by capacity", "Q={}", summary.ratio_by_capacity),\n'
     '        ("CIH/NNH time ratio quartiles by node count", "{} nodes", summary.time_ratio_by_node_count),\n',
     '        ("CIH/NNH time ratio quartiles by node count", "{} nodes", summary.time_ratio_by_node_count),\n'
     '        ("cost ratio quartiles by capacity", "Q={}", summary.ratio_by_capacity),\n',
     bench_tests("svg_matches_golden")),
    # tsplib.read_utf8, every reader's decoding, and files.write_text
    ("reader: a decode error not named by its file", TSPLIB,
     "except UnicodeDecodeError as exc:", "except UnicodeEncodeError as exc:",
     ("tests/test_cli.py", "-k", "undecodable_file_is_a_usage_error")),
    ("reader: the locale's encoding in place of UTF-8", TSPLIB,
     'path.read_text(encoding="utf-8")', "path.read_text()", C_LOCALE),
    ("writer: the locale's encoding in place of UTF-8", "src/mpdtsp/files.py",
     'encoding="utf-8", newline=', "newline=", C_LOCALE),
    # cli.main: every exception has its exit code
    ("cli: an unexpected exception escapes main", "src/mpdtsp/cli.py",
     "except Exception as exc:", "except RuntimeError as exc:", ("tests/test_cli.py", "-k", "InternalError")),
    ("cli: a character the console lacks fails the print", "src/mpdtsp/cli.py",
     'sys.stdout.reconfigure(errors="backslashreplace")', "pass", C_LOCALE),
]


def run_row(file: str, snippet: str, replacement: str, selection: tuple[str, ...]) -> str | None:
    """Apply one mutant to a fresh copy and run its tests; the failure, or None when killed."""
    found = (ROOT / file).read_text().count(snippet)
    if found != 1:
        return f"snippet occurs {found} times in {file}, not once"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = copy / file
        target.write_text(target.read_text().replace(snippet, replacement))
        # the copy's pyproject.toml puts its own src first; PYTHONPATH says the same
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *selection],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode == 0:
        return "survived: " + " ".join(selection) + " passed"
    if result.returncode != 1:  # 1 is failed tests; anything else is a broken run
        return f"pytest exited {result.returncode}:\n{result.stdout[-2000:]}"
    return None


def main() -> int:
    failures = 0
    start = time.perf_counter()
    for label, *row in MUTANTS:
        problem = run_row(*row)
        failures += problem is not None
        print(f"{'FAIL' if problem else 'killed'}  {label}" + (f"\n      {problem}" if problem else ""),
              flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
