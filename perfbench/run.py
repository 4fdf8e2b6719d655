"""Benchmark of the mpdtsp library: four seeded workloads, checked outputs, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Workloads: ``sweep``, ``exact``, ``small-tight`` and ``prepare-large`` (see
``perfbench/README.md`` for what each stresses).  Each runs in its own
single-threaded process (``MPDTSP_THREADS=1``) against ``src/`` of this
checkout, as one caller in a closed loop.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer metrics and writes
its spans under ``perfbench/out/``.  The lines before it name every metric
with its unit, the run's environment and the output digest.

The gated timings end in ``.cal``: each unit's times are scaled by how fast a
fixed reference computation ran next to it (``reference.py``), so a shared
host's drift in speed cancels.  The timings as measured are printed
beside them.  ``setup_s`` is the median over several fresh processes of the time from
starting the interpreter to the first timed item, each calibrated by reference
repetitions this process times just before starting it.  The exit code is 0 only
when a result was printed; a failed output check still prints one, with
``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
from worker import P90_MIN_PASS_ITEMS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep", "exact", "small-tight", "prepare-large")

#: the end-to-end metrics of BENCHMARK.json, in its order
END_TO_END = ("items_per_s.cal", "item_s.p50.cal", "peak_rss_mb", "setup_s")

#: fresh processes whose set-up is timed; the measuring process is the last
SETUP_SAMPLES = 9

#: reference repetitions the parent times just before each set-up, to calibrate it
SETUP_REFERENCE_REPS = 15

#: a process that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170


class ChildError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), MPDTSP_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1",
               # a fixed threshold keeps glibc from moving freed cost matrices onto the heap,
               # where fragmentation would make peak_rss_mb depend on the pass count
               MALLOC_MMAP_THRESHOLD_="131072")
    return env


def run_child(args, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and, unless in setup mode, its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise ChildError(f"{mode} process exited with code {code} (ready line {ready.strip()!r})")
    if mode == "setup":
        return setup_s, None
    results = [ln for ln in rest if ln.startswith("RESULT ")]
    if not results:
        raise ChildError(f"{mode} process printed no result")
    return setup_s, json.loads(results[-1][len("RESULT "):])


def host_gauge() -> float:
    """Median time of a reference repetition, right now, in this process."""
    return statistics.median(reference.repetition() for _ in range(SETUP_REFERENCE_REPS))


def show(name: str, metric: dict, note: str = "") -> None:
    print(f"{name} = {metric['value']:.6g} {metric['unit']}" + (f" ({note})" if note else ""))


def report(args, result: dict, setups: list[tuple[float, float]]) -> dict:
    """Print the human-readable lines and return the metrics of the final JSON line."""
    passes, samples = result["passes"], result["samples"]
    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{passes} pass{'es' if passes != 1 else ''}, {samples} items")
    print("env " + json.dumps(result["env"]))
    e2e = result["metrics"]
    if args.trace:
        layers = result["layers"]
        for name, metric in layers.items():
            show(name, metric)
        for name in result["absent"]:
            print(f"{name}: absent (its wrap target is missing)")
        for group, info in result["dead_ends"].items():
            first = info["first"]
            print(f"dead ends {group}: {info['count']} in {passes} traced pass(es); first: start {first['start']} "
                  f"stalled at step {first['stall_step']} with {first['remaining']} nodes left")
        print(f"trace: {result['spans']} spans written to {result['trace_file']}")
        metrics = layers
    else:
        setup = {"value": statistics.median(s * reference.NOMINAL_S / g for s, g in setups), "unit": "s"}
        show("setup_s", setup, f"median of {len(setups)} set-ups, calibrated; as measured "
                               f"{statistics.median(s for s, _ in setups):.6g} s")
        show("items_per_s.cal", e2e["items_per_s.cal"],
             f"{samples} items a pass, mean of {passes} passes, calibrated; {result['busy_s']:.1f} s timed")
        show("item_s.p50.cal", e2e["item_s.p50.cal"], f"{samples} samples, each an item's calibrated mean")
        show("items_per_s", e2e["items_per_s"], "as measured")
        show("item_s.p50", e2e["item_s.p50"], "as measured")
        if "item_s.p90" in e2e:
            show("item_s.p90", e2e["item_s.p90"], f"as measured, over all {e2e['item_s.p90']['samples']} item runs")
        else:
            print(f"item_s.p90: not reported (fewer than {P90_MIN_PASS_ITEMS} items a pass)")
        show("reference_s", e2e["reference_s"],
             f"median reference repetition; calibration takes {reference.NOMINAL_S:g} s as nominal")
        show("peak_rss_mb", e2e["peak_rss_mb"])
        metrics = {k: setup if k == "setup_s" else e2e[k] for k in END_TO_END}
    show("failed_fraction", {"value": result["failed"] / result["attempted"], "unit": "ratio"},
         f"{result['failed']} of {result['attempted']} items")
    for error in result["errors"]:
        print(f"failure: {error}")
    recorded = "items checked against recorded digests" if result["digest_recorded"] else "no digests recorded for this seed"
    print(f"digest {result['digest']} ({recorded})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mpdtsp" / "__init__.py").is_file():
        print(f"perfbench: no src/mpdtsp package under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []      # (set-up seconds, reference repetition seconds just before it)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                gauge = host_gauge()
                setups.append((run_child(args, "setup", deadline)[0], gauge))
        gauge = host_gauge()
        setup_s, result = run_child(args, "trace" if args.trace else "measure", deadline)
        setups.append((setup_s, gauge))
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, result, setups)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
