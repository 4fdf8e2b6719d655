"""One workload in one process: inputs from the seed, a warm-up item, then the timed loop.

``run.py`` starts this file; it is not meant to be run by hand.  The process
prints ``READY`` once set-up ends (interpreter, ``import mpdtsp``, input
generation and one untimed, checked warm-up item).  In ``setup`` mode it then
exits; otherwise it runs whole passes over the workload's pool, one item after
another from a single caller, and prints one ``RESULT`` JSON line.  After
each timed unit the same caller runs the reference computation of
``reference.py``, which calibrates the times of the units next to it.

Untraced mode runs passes until another would take it past ``--seconds``.
Traced mode first does the same with half the time, which gives the base of
``trace.overhead_ratio``, then repeats exactly as many passes with every wrap
target traced; its per-layer numbers are per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
from check import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: seed whose digests are recorded, and the second seed held out for later claims
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: items one pass needs before the p90 is reported; counted per pass, not over the
#: run, so which metrics a workload prints does not depend on the host's speed
P90_MIN_PASS_ITEMS = 100

#: units on each side of a unit whose reference runs calibrate its times
CALIBRATION_RADIUS = 1


@dataclass
class Phase:
    """Timings of one run of whole passes; each unit keeps its time from every pass.

    After every unit the reference computation runs for a fifth of the unit's
    time (``reference.run_for``).  A unit's times in a pass are calibrated by
    the mean repetition time of the reference runs next to it: its own and
    those of up to ``CALIBRATION_RADIUS`` units before and after it in that
    pass.  So a slow spell of the host scales the items it fell on, not the
    whole pass.
    """

    passes: int = 0
    busy_s: float = 0.0          # total time the single caller waited on the library
    item_s: dict = field(default_factory=dict)     # unit key -> [[item seconds] per pass]
    rest_s: dict = field(default_factory=dict)     # unit key -> [unit time not in its items, per pass]
    ref_s: dict = field(default_factory=dict)      # unit key -> [[reference repetition seconds] per pass]
    attempted: int = 0
    failed: int = 0

    def scales(self, calibrated: bool) -> dict[str, list[float]]:
        """Per unit and pass, the factor its times are multiplied by: 1, or the
        reference's nominal time over its mean time next to that unit."""
        keys = list(self.item_s)
        if not calibrated:
            return {key: [1.0] * self.passes for key in keys}
        scales = {}
        for i, key in enumerate(keys):
            near = keys[max(0, i - CALIBRATION_RADIUS): i + CALIBRATION_RADIUS + 1]
            scales[key] = [reference.NOMINAL_S / statistics.fmean(
                               t for k in near if p < len(self.ref_s[k]) for t in self.ref_s[k][p])
                           for p in range(len(self.ref_s[key]))]
        return scales

    def mean_item_s(self, calibrated: bool) -> list[float]:
        """Each item's mean time over the passes."""
        scales = self.scales(calibrated)
        return [statistics.fmean(t * c for t, c in zip(times, scales[key]))
                for key, runs in self.item_s.items() for times in zip(*runs)]

    def items_per_s(self, calibrated: bool) -> float:
        """Items of one pass over the mean time of a pass, unit time outside its items included."""
        scales = self.scales(calibrated)
        items = self.mean_item_s(calibrated)
        rest = sum(statistics.fmean(r * c for r, c in zip(rests, scales[key]))
                   for key, rests in self.rest_s.items())
        return len(items) / (sum(items) + rest)

    def reference_s(self) -> float:
        return statistics.median(t for runs in self.ref_s.values() for reps in runs for t in reps)


class Runner:
    """Runs units of one workload, checks every output and compares digests."""

    def __init__(self, workload, recorded=None, corrupt=None):
        self.workload = workload
        self.recorded = recorded or {}
        self.corrupt = corrupt          # test hook: damages an output before it is checked
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def phase(self, budget: float | None = None, passes: int | None = None, tracer=None) -> Phase:
        """Run ``passes`` whole passes, or as many as fit in ``budget`` wall seconds, checks included."""
        ph = Phase()
        started = time.perf_counter()
        while True:
            for index, unit in enumerate(self.workload.pool):
                self.unit(ph, str(index), unit, tracer)
            ph.passes += 1
            if passes is not None:
                if ph.passes >= passes:
                    return ph
            elif (time.perf_counter() - started) / ph.passes * (ph.passes + 1) > budget:
                return ph

    def unit(self, ph: Phase, key: str | None, unit, tracer=None) -> None:
        wl = self.workload
        if tracer is not None:
            tracer.item, tracer.active = ph.attempted, True
        t0 = time.perf_counter()
        try:
            out = wl.run(unit)
            elapsed = time.perf_counter() - t0
        except Exception:
            ph.busy_s += time.perf_counter() - t0
            self._fail(ph, wl.expected_items(unit), traceback.format_exc(limit=3))
            return
        finally:
            if tracer is not None:
                tracer.active = False
        ph.busy_s += elapsed
        if key is not None:
            ph.ref_s.setdefault(key, []).append(reference.run_for(elapsed))
            times = wl.item_times(unit, out, elapsed)
            ph.item_s.setdefault(key, []).append(times)
            ph.rest_s.setdefault(key, []).append(elapsed - sum(times))
        if self.corrupt is not None:
            out = self.corrupt(out)
        try:
            results = wl.inspect(unit, out)
        except Exception:
            self._fail(ph, wl.expected_items(unit), "check raised: " + traceback.format_exc(limit=3))
            return
        for i, (error, digest) in enumerate(results):
            ph.attempted += 1
            if key is not None and error is None:
                ident = f"{key}.{i}"
                if self.digests.setdefault(ident, digest) != digest:
                    error = "output differs from the same item's earlier pass"
                elif self.recorded.get(ident, digest) != digest:
                    error = "output differs from the recorded digest for this seed"
            if error is not None:
                ph.failed += 1
                self.errors.append(f"item {key}.{i}: {error}")

    def _fail(self, ph: Phase, count: int, why: str) -> None:
        ph.attempted += count
        ph.failed += count
        self.errors.append(why.strip())

    def workload_digest(self) -> str:
        return digest(*sorted(self.digests.items()))


def make_workload(name: str, seed: int, tiny: bool, workdir: Path):
    from workloads import WORKLOADS
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), tiny, workdir)


def environment(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy_version, "workers": os.environ.get("MPDTSP_THREADS", "1"),
            "seed": seed, "held_out_seed": HELD_OUT_SEED}


def recorded_digests(workload: str, seed: int, tiny: bool) -> dict | None:
    if tiny or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(str(seed), {}).get(workload)


def end_to_end(ph: Phase) -> dict:
    """Calibrated timings (the gated metrics), the raw ones they come from, and memory."""
    every_run = [t for runs in ph.item_s.values() for times in runs for t in times]
    metrics = {
        "items_per_s.cal": {"value": ph.items_per_s(True), "unit": "1/s"},
        "item_s.p50.cal": {"value": statistics.median(ph.mean_item_s(True)), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        "items_per_s": {"value": ph.items_per_s(False), "unit": "1/s"},
        "item_s.p50": {"value": statistics.median(ph.mean_item_s(False)), "unit": "s"},
        "reference_s": {"value": ph.reference_s(), "unit": "s"},
    }
    if len(ph.mean_item_s(False)) >= P90_MIN_PASS_ITEMS:
        # the tail over every item run, so it includes the host's slow spells
        metrics["item_s.p90"] = {"value": statistics.quantiles(every_run, n=10)[-1], "unit": "s",
                                 "samples": len(every_run)}
    return metrics


def dead_end_summary(events: list[dict]) -> dict:
    """Dead-end counts by builder and capacity, with the first event of each."""
    groups: dict[str, dict] = {}
    for event in events:
        group = groups.setdefault(f"{event['fn']} Q={event['capacity']:g}", {"count": 0, "first": event})
        group["count"] += 1
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import mpdtsp
    if not Path(mpdtsp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported mpdtsp from {mpdtsp.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from tracer import Tracer, layer_metrics

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = make_workload(args.workload, args.seed, args.tiny, workdir)
        runner = Runner(wl, recorded_digests(args.workload, args.seed, args.tiny))
        warm = Phase()
        runner.unit(warm, None, wl.warmup)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0

        budget = args.seconds if args.mode == "measure" else args.seconds / 2
        timed = runner.phase(budget=budget)
        result = {"env": environment(args.seed, numpy.__version__), "passes": timed.passes,
                  "busy_s": timed.busy_s, "samples": len(timed.mean_item_s(False)),
                  "metrics": end_to_end(timed)}
        attempted, failed = timed.attempted + warm.attempted, timed.failed + warm.failed
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.phase(passes=timed.passes, tracer=tracer)
            finally:
                tracer.uninstall()
            attempted, failed = attempted + traced.attempted, failed + traced.failed
            layers, absent = layer_metrics(tracer.stats(), traced.passes, tracer.missing)
            layers["trace.overhead_ratio"] = {"value": traced.items_per_s(True) / timed.items_per_s(True),
                                              "unit": "ratio"}
            trace_file = OUT / f"trace-{args.workload}{'-tiny' if args.tiny else ''}.jsonl.gz"
            tracer.write(trace_file)
            result.update(layers=layers, absent=absent, dead_ends=dead_end_summary(tracer.dead_ends),
                          trace_file=str(trace_file.relative_to(ROOT)), spans=len(tracer.spans))
        result.update(attempted=attempted, failed=failed, errors=runner.errors[:20],
                      digest=runner.workload_digest(),
                      digest_recorded=runner.recorded != {})
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
