"""Span tracing of ramseylab from the outside.

The tracer wraps the public functions of each module, and the names the
modules import from one another, in every ``ramseylab`` namespace that
binds them.  Nothing inside ``src/`` changes.  Per-leaf helpers
(``eval_term``, ``value_color`` and the like) are never wrapped, so the
tracer only adds a constant cost per call-level boundary.

A span records its name, start, end, parent span and thread.  Each thread
keeps its own parent stack.  Chunks that ``_parallel.ordered_first_hit``
hands to worker threads become *task* spans: they carry the layer name of
the search that listed them and hang under that call's ``parallel`` span,
so the 2-worker run nests correctly.  A ``search.validate`` span is
opaque: the certificate re-check's inner instance scan is part of
validation, not a second ``search.scan``.

Spans stay in memory until :meth:`Tracer.dump`.  :func:`layer_metrics`
turns them into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "task",
                 "opaque", "counts")

    def __init__(self, name, parent, task=False, opaque=False):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.task = task
        self.opaque = opaque
        self.counts = None
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Installs wrappers around ramseylab's call-level boundaries and keeps
    the spans they record.  Use as ``install()`` ... ``uninstall()``; spans
    accumulate across installs until :meth:`take` hands them over."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []  # (namespace, attribute, original)

    # -- span plumbing

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _suppressed(self) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1].opaque

    def _open(self, name, parent=None, task=False, opaque=False) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent, task=task, opaque=opaque)
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers

    def _call_wrapper(self, fn, name, count=None, opaque=False):
        """Span around each call; ``name`` may be a function of the call's
        arguments, ``count(result, args, kwargs)`` returns a dict of
        counters for the span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._suppressed():
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            span = tracer._open(label, opaque=opaque)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.counts = count(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, fn, name):
        """Span around the whole life of a generator: from the first
        ``next`` to exhaustion."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._suppressed():
                yield from fn(*args, **kwargs)
                return
            span = tracer._open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer._close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _parallel_wrapper(self, fn):
        """``ordered_first_hit(tasks, workers)``: one ``parallel`` span per
        call, one task span per chunk actually started, and the counts
        behind ``useful_ratio``."""
        tracer = self

        def wrapper(tasks, workers=1):
            if tracer._suppressed():
                return fn(tasks, workers=workers)
            span = tracer._open("parallel")
            layer = span.parent.name if span.parent is not None else "parallel"
            lock = threading.Lock()
            state = {"run": 0, "winner": None}

            def wrap(index, task):
                def run():
                    task_span = tracer._open(layer, parent=span, task=True)
                    try:
                        result = task()
                    finally:
                        tracer._close(task_span)
                    with lock:
                        state["run"] += 1
                        if result[0] is not None and (
                                state["winner"] is None
                                or index < state["winner"]):
                            state["winner"] = index
                    return result
                return run

            try:
                return fn([wrap(i, t) for i, t in enumerate(tasks)],
                          workers=workers)
            finally:
                tracer._close(span)
                winner = state["winner"]
                span.counts = {
                    "tasks_listed": len(tasks),
                    "tasks_run": state["run"],
                    "useful": len(tasks) if winner is None else winner + 1,
                }

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def _patch(self, module, attr, wrapper_factory) -> None:
        original = getattr(module, attr)
        wrapper = wrapper_factory(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ramseylab"
                                   or name.startswith("ramseylab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        from ramseylab import (_parallel, cli, colorings, hindman, patterns,
                               sat, search, semigroups, structures)

        call = self._call_wrapper
        plan = [
            (cli, "main", lambda f: call(f, "cli")),
            (patterns, "instance_value_sets",
             lambda f: call(f, "patterns.value_sets",
                            lambda r, a, k: {"count": len(r)})),
            (colorings, "make_coloring",
             lambda f: call(f, "colorings.make", _cells)),
            (colorings, "load_file",
             lambda f: call(f, "colorings.load", _cells)),
            (search, "find_instance_detailed",
             lambda f: call(f, "search.scan",
                            lambda r, a, k: {"leaves": r[1]})),
            (search, "find_avoiding_coloring",
             lambda f: call(f, _avoid_name, _avoid_counts)),
            (search, "threshold_number",
             lambda f: call(f, "search.threshold",
                            lambda r, a, k: {"rows": len(r.rows)})),
            (sat, "encode_avoidance",
             lambda f: call(f, "sat.encode",
                            lambda r, a, k: {"clauses": len(r[0].clauses)})),
            (sat, "solve", lambda f: call(f, "sat.solve", _solve_counts)),
            (sat, "check_model", lambda f: call(f, "sat.check_model")),
            (hindman, "find_fs_witness_detailed",
             lambda f: call(f, "hindman.fs", _nodes)),
            (hindman, "find_grid_witness_detailed",
             lambda f: call(f, "hindman.grid", _nodes)),
            (hindman, "find_scaled_bundle_detailed",
             lambda f: call(f, "hindman.bundle", _nodes)),
            (hindman, "find_shifted_bundle_detailed",
             lambda f: call(f, "hindman.bundle", _nodes)),
            (hindman, "find_scaled_quad_detailed",
             lambda f: call(f, "hindman.quad", _nodes)),
            (hindman, "find_shifted_quad_detailed",
             lambda f: call(f, "hindman.quad", _nodes)),
            (hindman, "verify_witness",
             lambda f: call(f, "hindman.verify")),
            (structures, "contains_kap", lambda f: call(f, "structures.probe")),
            (structures, "contains_kgp", lambda f: call(f, "structures.probe")),
            (structures, "contains_kfs", lambda f: call(f, "structures.probe")),
            (structures, "contains_kfp", lambda f: call(f, "structures.probe")),
            (_parallel, "ordered_first_hit", self._parallel_wrapper),
            (semigroups, "iter_semigroups",
             lambda f: self._generator_wrapper(f, "semigroups.census")),
            (semigroups, "find_associativity_violation",
             lambda f: call(f, "semigroups.assoc")),
            (semigroups, "algebra_report",
             lambda f: call(f, "semigroups.report")),
        ]
        for module, attr, factory in plan:
            self._patch(module, attr, factory)
        # find_instance as called from inside search is the certificate
        # re-check of find_avoiding_coloring; patched there only.
        original = search.find_instance
        self._patches.append((search, "find_instance", original))
        search.find_instance = call(original, "search.validate", opaque=True)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    # -- output

    @staticmethod
    def dump(spans, path) -> None:
        """Write spans as JSON lines: id, name, start, end (seconds since
        the first span), parent id, thread, task flag, counts."""
        ids = {id(s): i for i, s in enumerate(spans)}
        t0 = min((s.start for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(spans):
                fh.write(json.dumps([
                    i, s.name, round(s.start - t0, 7), round(s.end - t0, 7),
                    ids.get(id(s.parent)), s.thread, s.task, s.counts,
                ], separators=(",", ":")) + "\n")


def _cells(result, args, kwargs):
    return {"cells": len(result.cells) if result.cells is not None else 0}


def _nodes(result, args, kwargs):
    return {"nodes": result[1]}


def _avoid_name(args, kwargs):
    engine = kwargs.get("engine", args[3] if len(args) > 3 else "backtracking")
    return "search.backtrack" if engine == "backtracking" else "search.avoid"


def _avoid_counts(result, args, kwargs):
    return {"nodes": result.stats.nodes}


def _solve_counts(result, args, kwargs):
    return {"conflicts": result.conflicts, "decisions": result.decisions,
            "status": result.status}


# ---------------------------------------------------------------------------
# aggregation


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    return "count"


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Map id(span) -> duration minus the part covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): (s.end - s.start)
            - _covered(children.get(id(s), ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics, each averaged per traced pass.  ``calls`` counts
    non-task spans; ``self_s`` sums self time over all spans of the layer,
    task spans on worker threads included."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    solve_by_status = defaultdict(float)
    for s in spans:
        if not s.task:
            calls[s.name] += 1
        self_s[s.name] += selfs[id(s)]
        if s.counts:
            for key, value in s.counts.items():
                if key == "status":
                    solve_by_status[value] += selfs[id(s)]
                else:
                    counts[s.name][key] += value
    # the self time of semigroups.census excludes its assoc children;
    # tables_per_s is measured over the whole census span instead
    census_s = sum(s.end - s.start for s in spans
                   if s.name == "semigroups.census")
    tables = sum(1 for s in spans if s.name == "semigroups.assoc"
                 and s.parent is not None
                 and s.parent.name == "semigroups.census")

    def rate(num, den):
        return num / den if den > 0 else 0.0

    p = max(passes, 1)
    par = counts["parallel"]
    m = {
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "patterns.value_sets.calls": calls["patterns.value_sets"],
        "patterns.value_sets.self_s": self_s["patterns.value_sets"],
        "patterns.value_sets.count": counts["patterns.value_sets"]["count"],
        "colorings.make.calls": calls["colorings.make"],
        "colorings.make.self_s": self_s["colorings.make"],
        "colorings.make.cells": counts["colorings.make"]["cells"],
        "colorings.load.self_s": self_s["colorings.load"],
        "colorings.load.cells": counts["colorings.load"]["cells"],
        "search.scan.calls": calls["search.scan"],
        "search.scan.self_s": self_s["search.scan"],
        "search.scan.leaves": counts["search.scan"]["leaves"],
        "search.backtrack.calls": calls["search.backtrack"],
        "search.backtrack.self_s": self_s["search.backtrack"],
        "search.backtrack.nodes": counts["search.backtrack"]["nodes"],
        "search.validate.calls": calls["search.validate"],
        "search.validate.self_s": self_s["search.validate"],
        "search.threshold.rows": counts["search.threshold"]["rows"],
        "sat.encode.calls": calls["sat.encode"],
        "sat.encode.self_s": self_s["sat.encode"],
        "sat.encode.clauses": counts["sat.encode"]["clauses"],
        "sat.solve.calls": calls["sat.solve"],
        "sat.solve.self_s": self_s["sat.solve"],
        "sat.solve.sat_self_s": solve_by_status["SAT"],
        "sat.solve.unsat_self_s": solve_by_status["UNSAT"],
        "sat.solve.conflicts": counts["sat.solve"]["conflicts"],
        "sat.solve.decisions": counts["sat.solve"]["decisions"],
        "sat.check_model.self_s": self_s["sat.check_model"],
        "hindman.fs.self_s": self_s["hindman.fs"],
        "hindman.fs.nodes": counts["hindman.fs"]["nodes"],
        "hindman.grid.self_s": self_s["hindman.grid"],
        "hindman.grid.nodes": counts["hindman.grid"]["nodes"],
        "hindman.bundle.self_s": self_s["hindman.bundle"],
        "hindman.bundle.nodes": counts["hindman.bundle"]["nodes"],
        "hindman.quad.self_s": self_s["hindman.quad"],
        "hindman.verify.calls": calls["hindman.verify"],
        "hindman.verify.self_s": self_s["hindman.verify"],
        "structures.probe.calls": calls["structures.probe"],
        "structures.probe.self_s": self_s["structures.probe"],
        "parallel.calls": calls["parallel"],
        "parallel.tasks_listed": par["tasks_listed"],
        "parallel.tasks_run": par["tasks_run"],
        "parallel.self_s": self_s["parallel"],
        "semigroups.tables_scanned": tables,
        "semigroups.census.self_s": self_s["semigroups.census"],
        "semigroups.assoc.calls": calls["semigroups.assoc"],
        "semigroups.assoc.self_s": self_s["semigroups.assoc"],
        "semigroups.report.calls": calls["semigroups.report"],
        "semigroups.report.self_s": self_s["semigroups.report"],
    }
    m = {k: v / p for k, v in m.items()}
    # ratios are taken over the totals, so they need no per-pass scaling
    m["search.scan.leaves_per_s"] = rate(counts["search.scan"]["leaves"],
                                         self_s["search.scan"])
    m["search.backtrack.nodes_per_s"] = rate(
        counts["search.backtrack"]["nodes"], self_s["search.backtrack"])
    m["sat.solve.conflicts_per_s"] = rate(counts["sat.solve"]["conflicts"],
                                          self_s["sat.solve"])
    m["hindman.bundle.nodes_per_s"] = rate(counts["hindman.bundle"]["nodes"],
                                           self_s["hindman.bundle"])
    m["parallel.useful_ratio"] = rate(par["useful"], par["tasks_run"])
    m["semigroups.tables_per_s"] = rate(tables, census_s)
    return m
