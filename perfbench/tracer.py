"""Spans and counters recorded around calls into the library, from outside it.

``Tracer.install`` replaces each wrap target at every module binding of the
``mpdtsp`` package that refers to it (``validate`` is bound in ``model``,
``construction``, ``exact``, ``bench`` and the package itself; ``cih_from``
looks ``best_insertion`` up as a module global), so calls the library makes
to itself are seen too.  ``uninstall`` puts the originals back.

Every wrapped call records a span (name, start, end, parent, item, tag) in
memory; ``tag`` is a count taken from the call's arguments at the same
boundary.  A target that no longer exists is reported with a warning, and
the metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict

#: (module, attribute, span name, tag taken from the call's arguments)
TARGETS = (
    ("cheapest_insertion", "cih_best", "cih_best", None),
    ("cheapest_insertion", "cih_from", "cih_from", None),
    ("cheapest_insertion", "best_insertion", "best_insertion",
     lambda instance, state: len(state.remainder) * (len(state.partial) - 1)),
    ("cheapest_insertion", "apply_insertion", "apply_insertion", None),
    ("nearest_neighbor", "nnh_best", "nnh_best", None),
    ("nearest_neighbor", "nnh_from", "nnh_from", None),
    ("construction", "run_multistart", "run_multistart", None),
    ("exact", "held_karp", "held_karp", lambda instance, *a, **k: instance.n_pairs),
    ("exact", "brute_force", "brute_force", None),
    ("model", "validate", "validate", lambda instance, tour: len(tour)),
    ("model", "Instance.from_coords", "from_coords", lambda coords, *a, **k: len(coords) * (len(coords) - 1) // 2),
    ("generate", "generate", "generate", None),
    ("tsplib", "parse", "parse", None),
    ("files", "instance_to_text", "instance_to_text", None),
    ("files", "instance_from_text", "instance_from_text", None),
    ("bench", "run_corpus", "run_corpus", None),
    ("bench", "summarize", "summarize", None),
    ("bench", "emit_csv", "emit_csv", None),
    ("bench", "emit_svg_histogram", "emit_svg_histogram", None),
)

#: builders whose DeadEndError the wrapper records before re-raising it
DEAD_END_OBSERVED = ("nnh_from", "cih_from")

HELD_KARP_PAIR_COUNTS = (4, 7, 8, 9, 10)


class Spans:
    """Span columns; typed arrays keep hundreds of thousands of spans out of the garbage collector's scans."""

    def __init__(self):
        self.name: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")       # -1: a call from outside the library
        self.item = array("q")
        self.tag = array("q")          # -1: no count

    def __len__(self) -> int:
        return len(self.name)

    def rows(self):
        return zip(self.name, self.start, self.end, self.parent, self.item, self.tag)


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.dead_ends: list[dict] = []
        self.missing: list[str] = []
        self.item = -1
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mpdtsp" or name.startswith("mpdtsp."))]
        construction = sys.modules.get("mpdtsp.construction")
        dead_end_error = getattr(construction, "DeadEndError", None)
        for module_name, attr, span_name, tag in targets:
            owner = sys.modules.get(f"mpdtsp.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(leaf)
            if raw is None:
                print(f"perfbench: wrap target mpdtsp.{module_name}.{attr} not found; "
                      f"metrics from '{span_name}' are reported absent", file=sys.stderr)
                self.missing.append(span_name)
                continue
            observe = dead_end_error if span_name in DEAD_END_OBSERVED else None
            if isinstance(raw, classmethod):
                self._set(owner, leaf, classmethod(self._wrap(raw.__func__, span_name, tag, observe, skip=1)))
                continue
            wrapper = self._wrap(raw, span_name, tag, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap(self, fn, name, tag, dead_end_error, skip=0):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            count = -1
            if tag is not None:
                try:
                    count = int(tag(*args[skip:], **kwargs))
                except (TypeError, AttributeError, ValueError):
                    pass  # a changed signature loses the count, not the span
            sid = len(spans.name)
            spans.name.append(name)
            spans.parent.append(stack[-1] if stack else -1)
            spans.item.append(self.item)
            spans.tag.append(count)
            spans.end.append(0.0)
            stack.append(sid)
            spans.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if dead_end_error is not None and isinstance(exc, dead_end_error):
                    instance = args[0]
                    self.dead_ends.append({
                        "fn": name, "item": self.item, "span": sid, "start": exc.init,
                        "stall_step": len(exc.partial), "remaining": len(exc.remainder),
                        "capacity": instance.capacity, "nodes": instance.node_count})
                raise
            finally:
                spans.end[sid] = clock()
                stack.pop()

        return wrapper

    # -- results -------------------------------------------------------------------

    def write(self, path) -> None:
        """Gzipped JSON lines: one per span (id, name, start, end, parent, item, tag), then the dead ends."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, (name, start, end, parent, item, tag) in enumerate(self.spans.rows()):
                fh.write(f'{{"id":{sid},"name":"{name}","start":{start!r},"end":{end!r},'
                         f'"parent":{parent},"item":{item},"tag":{tag}}}\n')
            for event in self.dead_ends:
                fh.write(json.dumps({"event": "dead_end", **event}) + "\n")

    def stats(self) -> "SpanStats":
        return SpanStats(self.spans, self.dead_ends)


class SpanStats:
    """Per-name aggregates; self time is duration minus time covered by child spans."""

    def __init__(self, spans: Spans, dead_ends):
        child = [0.0] * len(spans)
        for start, end, parent in zip(spans.start, spans.end, spans.parent):
            if parent >= 0:
                child[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.tags: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.held_karp_s: dict[int, float] = defaultdict(float)
        self.validate_under_brute = 0
        for sid, (name, start, end, parent, _, tag) in enumerate(spans.rows()):
            self.calls[name] += 1
            own = end - start - child[sid]
            self.self_s[name] += own
            self.durations[name].append(end - start)
            if tag >= 0:
                self.tags[name] += tag
            if name == "held_karp":
                self.held_karp_s[tag] += own
            elif name == "validate" and parent >= 0 and spans.name[parent] == "brute_force":
                self.validate_under_brute += 1
        self.dead_ends: dict[str, int] = defaultdict(int)
        for event in dead_ends:
            self.dead_ends[event["fn"]] += 1


def _builder_metrics(layer, single):
    return [
        (f"{layer}.starts", "count/pass", (single,), lambda s: s.calls[single], True),
        (f"{layer}.dead_ends", "count/pass", (single,), lambda s: s.dead_ends[single], True),
        (f"{layer}.useful_ratio", "ratio", (single,),
         lambda s: (s.calls[single] - s.dead_ends[single]) / s.calls[single] if s.calls[single] else 0.0, False),
        (f"{layer}.start_s.p50", "s", (single,),
         lambda s: statistics.median(s.durations[single]) if s.durations[single] else 0.0, False),
    ]


#: (name, unit, span names it needs, value from SpanStats, divided by the pass count)
LAYER_METRICS = [
    *_builder_metrics("cheapest_insertion", "cih_from"),
    ("cheapest_insertion.self_s", "s/pass", ("cih_best", "cih_from", "best_insertion", "apply_insertion"),
     lambda s: s.self_s["cih_best"] + s.self_s["cih_from"] + s.self_s["best_insertion"]
     + s.self_s["apply_insertion"], True),
    ("cheapest_insertion.best_insertion.calls", "count/pass", ("best_insertion",),
     lambda s: s.calls["best_insertion"], True),
    ("cheapest_insertion.best_insertion.self_s", "s/pass", ("best_insertion",),
     lambda s: s.self_s["best_insertion"], True),
    ("cheapest_insertion.apply_insertion.self_s", "s/pass", ("apply_insertion",),
     lambda s: s.self_s["apply_insertion"], True),
    ("cheapest_insertion.ratio_cells", "count/pass", ("best_insertion",),
     lambda s: s.tags["best_insertion"], True),
    *_builder_metrics("nearest_neighbor", "nnh_from"),
    ("nearest_neighbor.self_s", "s/pass", ("nnh_best", "nnh_from"),
     lambda s: s.self_s["nnh_best"] + s.self_s["nnh_from"], True),
    ("construction.multistart.calls", "count/pass", ("run_multistart",),
     lambda s: s.calls["run_multistart"], True),
    ("construction.multistart.self_s", "s/pass", ("run_multistart",),
     lambda s: s.self_s["run_multistart"], True),
    ("exact.held_karp.calls", "count/pass", ("held_karp",), lambda s: s.calls["held_karp"], True),
    ("exact.held_karp.self_s", "s/pass", ("held_karp",), lambda s: s.self_s["held_karp"], True),
    *[(f"exact.held_karp.pairs{n}_s", "s/pass", ("held_karp",),
       lambda s, n=n: s.held_karp_s[n], True) for n in HELD_KARP_PAIR_COUNTS],
    ("exact.brute_force.calls", "count/pass", ("brute_force",), lambda s: s.calls["brute_force"], True),
    ("exact.brute_force.self_s", "s/pass", ("brute_force",), lambda s: s.self_s["brute_force"], True),
    ("exact.brute_force.validate_calls", "count/pass", ("brute_force", "validate"),
     lambda s: s.validate_under_brute, True),
    ("model.validate.calls", "count/pass", ("validate",), lambda s: s.calls["validate"], True),
    ("model.validate.self_s", "s/pass", ("validate",), lambda s: s.self_s["validate"], True),
    ("model.validate.nodes", "count/pass", ("validate",), lambda s: s.tags["validate"], True),
    ("model.from_coords.calls", "count/pass", ("from_coords",), lambda s: s.calls["from_coords"], True),
    ("model.from_coords.self_s", "s/pass", ("from_coords",), lambda s: s.self_s["from_coords"], True),
    ("model.cost_cells", "count/pass", ("from_coords",), lambda s: s.tags["from_coords"], True),
    ("generate.calls", "count/pass", ("generate",), lambda s: s.calls["generate"], True),
    ("generate.self_s", "s/pass", ("generate",), lambda s: s.self_s["generate"], True),
    ("tsplib.parse.calls", "count/pass", ("parse",), lambda s: s.calls["parse"], True),
    ("tsplib.parse.self_s", "s/pass", ("parse",), lambda s: s.self_s["parse"], True),
    ("files.calls", "count/pass", ("instance_to_text", "instance_from_text"),
     lambda s: s.calls["instance_to_text"] + s.calls["instance_from_text"], True),
    ("files.self_s", "s/pass", ("instance_to_text", "instance_from_text"),
     lambda s: s.self_s["instance_to_text"] + s.self_s["instance_from_text"], True),
    ("bench.run_corpus.self_s", "s/pass", ("run_corpus",), lambda s: s.self_s["run_corpus"], True),
    ("bench.summarize_s", "s/pass", ("summarize",), lambda s: s.self_s["summarize"], True),
    ("bench.emit_s", "s/pass", ("emit_csv", "emit_svg_histogram"),
     lambda s: s.self_s["emit_csv"] + s.self_s["emit_svg_histogram"], True),
]


def layer_metrics(stats: SpanStats, passes: int, missing) -> tuple[dict, list[str]]:
    """Per-layer values keyed by name, and the names left out because a target is missing."""
    values, absent = {}, []
    for name, unit, needs, value, per_pass in LAYER_METRICS:
        if any(n in missing for n in needs):
            absent.append(name)
            continue
        v = value(stats)
        values[name] = {"value": v / passes if per_pass else v, "unit": unit}
    return values, absent
