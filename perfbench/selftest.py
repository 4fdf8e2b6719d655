"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced through ``run.py --tiny``
and checks that:

- every metric that BENCHMARK.json names is printed with its unit;
- the small-tight trace records a Q=1 dead-end start with its stall position;
- a corrupted tour (one delivery moved before its pickup) makes
  ``failed_fraction`` positive;
- a wrap target that no longer exists leaves its metrics absent, with a
  warning, while the traced run goes on.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ["MPDTSP_THREADS"] = "1"

from run import WORKLOADS  # noqa: E402
from worker import OUT, Runner, make_workload  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_runs(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: outputs pass their checks")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label}: emits every {group} metric with its unit")
            printed = all(f"{name} = " in proc.stdout for name in wanted)
            expect(printed, f"{label}: prints every {group} metric by name")


def check_dead_end_trace() -> None:
    with gzip.open(OUT / "trace-small-tight-tiny.jsonl.gz", "rt") as fh:
        events = [json.loads(ln) for ln in fh if '"event"' in ln]
    q1 = [e for e in events if e["capacity"] == 1 and e["stall_step"] >= 1 and e["remaining"] >= 1]
    expect(bool(q1), "small-tight trace shows a Q=1 dead-end start with its stall position")


def move_delivery_before_pickup(out: dict) -> dict:
    tour = out["held_karp"]
    seq = list(tour.sequence)
    n = (len(seq) - 2) // 2
    delivery = next(v for v in seq if v > n)
    seq.remove(delivery)
    seq.insert(seq.index(delivery - n), delivery)
    return {**out, "held_karp": type(tour)(tuple(seq), tour.cost)}


def check_corruption(workdir: Path) -> None:
    for corrupt, positive in ((None, False), (move_delivery_before_pickup, True)):
        runner = Runner(make_workload("exact", 1, True, workdir), corrupt=corrupt)
        phase = runner.phase(passes=1)
        fraction = phase.failed / phase.attempted
        if positive:
            expect(fraction > 0, f"a corrupted tour gives failed_fraction {fraction:g} > 0")
        else:
            expect(fraction == 0, "the same items uncorrupted give failed_fraction 0")


def check_missing_target(workdir: Path) -> None:
    from tracer import TARGETS, Tracer, layer_metrics
    renamed = tuple((m, attr + "_renamed" if attr == "best_insertion" else attr, name, tag)
                    for m, attr, name, tag in TARGETS)
    tracer = Tracer()
    warning = io.StringIO()
    with contextlib.redirect_stderr(warning):
        tracer.install(renamed)
    try:
        runner = Runner(make_workload("small-tight", 1, True, workdir))
        phase = runner.phase(passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    values, absent = layer_metrics(tracer.stats(), phase.passes, tracer.missing)
    expect("best_insertion_renamed" in warning.getvalue(), "a missing wrap target is warned about")
    expect("cheapest_insertion.best_insertion.calls" in absent and "cheapest_insertion.starts" in values
           and not runner.errors, "its metrics are absent and the traced run goes on")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    check_dead_end_trace()
    workdir = OUT / f"selftest-{os.getpid()}"
    try:
        check_corruption(workdir / "corrupt")
        check_missing_target(workdir / "missing")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
