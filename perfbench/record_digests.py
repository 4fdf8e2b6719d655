"""Record the output digests that runs at the recorded seeds must reproduce.

    PYTHONPATH=src MPDTSP_THREADS=1 python3 perfbench/record_digests.py

Runs one pass of every workload at the default and the held-out seed and
writes ``perfbench/digests.json``: one digest per item, covering per-start
cost tables, best sequences, CSV rows without their wall times, and cost
matrices.  A run at either seed counts an item whose digest differs as
failed.  Re-record only with a change that is meant to alter tours.
"""

from __future__ import annotations

import json
import shutil
import sys

from worker import DEFAULT_SEED, DIGESTS, HELD_OUT_SEED, OUT, Runner, make_workload
from workloads import WORKLOADS


def main() -> int:
    recorded: dict[str, dict] = {}
    workdir = OUT / "record-digests"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for name in WORKLOADS:
                runner = Runner(make_workload(name, seed, False, workdir / f"{name}-{seed}"))
                runner.phase(passes=1)
                if runner.errors:
                    print(f"{name} seed {seed} failed its checks; nothing recorded:", *runner.errors,
                          sep="\n", file=sys.stderr)
                    return 1
                recorded.setdefault(str(seed), {})[name] = runner.digests
                print(f"{name} seed {seed}: {len(runner.digests)} items, digest {runner.workload_digest()}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
