"""A fixed reference computation that gauges how fast the host runs at the moment.

The benchmark runs on shared hosts whose speed drifts by a quarter or more for
seconds to minutes at a time, and CPU time drifts with wall time, so neither
clock alone can tell a slower program from a slower host.  The worker runs
this computation between the library calls it times, for about a fifth of
the timed work, and scales each pass's timings by how long the reference took
in that pass against ``NOMINAL_S``.  Calibrated times are therefore seconds on
a host that runs one reference repetition in ``NOMINAL_S``.

The reference never calls ``mpdtsp``, so a change to the library cannot move
it.  It mixes the three kinds of work the library does: interpreted loops over
dicts and floats (the exact DP, the scalar cost matrix), many calls on small
numpy arrays (the insertion heuristics) and one larger array operation.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: seconds one repetition took on a 2-core Xeon VM at its usual speed; fixed, so
#: calibrated figures compare across runs and commits
NOMINAL_S = 0.007

#: reference time as a share of the timed work it is interleaved with
SHARE = 0.2

_POINTS = np.random.default_rng(20230309).random((200, 2))
_COORDS = [tuple(p) for p in _POINTS[:48].tolist()]


def _interpreted() -> float:
    best: dict[tuple[int, int], float] = {}
    for i, (x, y) in enumerate(_COORDS * 120):
        key = (i & 31, i % 7)
        cost = best.get(key, math.inf)
        step = math.hypot(x - y, y * 0.5) + (i & 3)
        if step < cost:
            best[key] = step
    return sum(best.values())


def _small_arrays() -> float:
    total = 0.0
    row = _POINTS[:40, 0]
    for j in range(600):
        gaps = row + _POINTS[j % 200, 1] - row[j % 40]
        k = int(np.argmin(gaps))
        total += float(gaps[k])
    return total


def _array_block() -> float:
    xy = _POINTS
    d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    return float(d.min(axis=1).sum())


def repetition() -> float:
    """Seconds one repetition of the reference takes now."""
    t0 = time.perf_counter()
    _interpreted()
    _small_arrays()
    _array_block()
    return time.perf_counter() - t0


def run_for(work_s: float) -> list[float]:
    """Repetitions worth ``SHARE`` of ``work_s`` seconds (at least one); their times."""
    count = max(1, round(SHARE * work_s / NOMINAL_S))
    return [repetition() for _ in range(count)]
