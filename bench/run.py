"""Known-answer benchmark for ramseylab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ramseylab is imported from ``src/``.
One run answers the workload's queries in whole passes, in process,
until about ``--seconds`` have passed and at least 100 queries were timed.
Correctness checks run after the timed region.  The last line of stdout
is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median over fresh processes of the time from process start to the first
timed query), ``wall_s`` (the time to answer every query once, each
query at its median latency over the passes), ``query_p50_ms`` and
``query_p90_ms`` (nearest-rank percentiles over the timed executions,
each taking its query's median latency), ``correct_frac`` and
``peak_rss_mb``.  Medians per query keep one slow pass, or one slow
moment of a shared host, from moving a run's figures.  With ``--trace 1``
passes alternate between untraced and traced, the metrics are the
per-layer ones from ``bench/tracing.py`` averaged per traced pass, and
``trace.overhead_s`` is ``wall_s`` of the traced passes minus that of the
untraced ones.

Lines before the result give the environment, one record row per query
(command, verdict, node count, digest of the report bytes) and a summary.
A query fails when it raises, exits non-zero, contradicts its known
answer, produces a certificate the independent check rejects, or gives
report bytes in a later pass that differ from the first pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 100   # query_p90_ms needs 10 samples beyond the 90th percentile
MIN_PASSES = 3
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tier", choices=("full", "tiny"), default="full",
                   help="tiny is the smoke-test tier")
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print 'ready' and exit "
                        "(used to time setup_s in fresh processes)")
    return p.parse_args(argv)


def make_workdir(workload) -> str:
    path = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup(workloads, args):
    """Write the workload's files and build its query list.  With the
    imports before it, this is everything setup_s covers."""
    workdir = make_workdir(args.workload)
    queries = workloads.build(args.workload, args.tier, args.seed, workdir)
    return workdir, queries


def time_setup(args) -> list:
    """Start fresh processes that only set up; time each from its start to
    its 'ready' line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--tier", args.tier]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup process failed: {line!r}")
        times.append(elapsed)
    return times


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()[:16]


def run_passes(queries, seconds, trace, tracer):
    """Answer every query once per pass until time is up.  With tracing,
    passes alternate untraced and traced.  Returns the passes as dicts:
    traced flag, per-query latencies and per-query outcomes (exit code and
    report bytes, or None and the error text).

    Each query starts from a collected heap, as it would in a fresh CLI
    process, so its time does not depend on the garbage that earlier
    queries left.  The objects alive before the first pass are frozen
    (``gc.freeze``), which makes that collection cheap.  A pass starts
    only if it is expected to end before ``seconds`` plus half a pass."""
    passes = []
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    while True:
        traced = trace == 1 and len(passes) % 2 == 1
        if traced:
            tracer.install()
        lat, outs = [], []
        try:
            for q in queries:
                gc.collect()
                s = time.perf_counter()
                try:
                    out = q.run()
                except Exception as exc:  # a query that raises is a failure
                    out = (None, f"raised {type(exc).__name__}: {exc}")
                lat.append(time.perf_counter() - s)
                outs.append(out)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "lat": lat, "outs": outs})
        if time.perf_counter() - t0 + 0.5 * sum(lat) < seconds:
            continue
        if trace:
            if len(passes) >= 2:
                return passes
        elif (len(passes) >= MIN_PASSES
              and len(passes) * len(queries) >= MIN_SAMPLES):
            return passes


def query_medians(passes, n) -> list:
    """Each of the ``n`` queries' median latency over ``passes``."""
    return [statistics.median(p["lat"][i] for p in passes) for i in range(n)]


def check_passes(workloads, queries, passes, medians):
    """Known-answer checks on the first pass; every later pass must give
    the same report bytes.  Returns (records, failed samples, errors); a
    record also carries the query's median latency from ``medians``."""
    records, errors = [], []
    first = passes[0]["outs"]
    bad = []
    for i, (q, (code, report)) in enumerate(zip(queries, first)):
        if code is None:
            err = report
        else:
            try:
                err = q.check(code, report)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        bad.append(err is not None)
        if err is not None:
            errors.append({"query": q.label, "error": err})
        verdict, nodes = (None, None) if code is None else \
            workloads.summary(code, report)
        records.append({"i": i, "query": q.label, "expect": q.expect,
                        "source": q.source, "exit": code, "verdict": verdict,
                        "nodes": nodes,
                        "median_ms": round(1000.0 * medians[i], 3),
                        "digest": None if code is None else digest(report)})
    failed = 0
    for n, p in enumerate(passes):
        for i, (code, report) in enumerate(p["outs"]):
            same = (code == first[i][0] and report == first[i][1])
            if bad[i] or not same:
                failed += 1
                if not same and not bad[i]:
                    errors.append({"query": queries[i].label,
                                   "error": f"pass {n} report differs from "
                                            f"pass 0"})
    return records, failed, errors


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = math.ceil(q * len(sorted_values)) - 1
    return sorted_values[max(0, k)]


def environment(ramsey_workers):
    """Python version, usable cores, and RAMSEY_WORKERS as inherited; the
    harness unsets it so that each query's --workers holds."""
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "RAMSEY_WORKERS": ramsey_workers}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ramseylab", "__init__.py")):
        print(f"bench: no ramseylab sources under {SRC}", file=sys.stderr)
        return 2
    ramsey_workers = os.environ.pop("RAMSEY_WORKERS", None)
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.BUILDERS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.setup_only:
        workdir, _ = setup(workloads, args)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_times = time_setup(args) if args.trace == 0 else []
    workdir, queries = setup(workloads, args)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    cwd = os.getcwd()
    os.chdir(workdir)  # relative file names keep report bytes stable
    try:
        passes = run_passes(queries, args.seconds, args.trace, tracer)
        untraced = [p for p in passes if not p["traced"]]
        medians = query_medians(untraced, len(queries))
        records, failed, errors = check_passes(workloads, queries, passes,
                                               medians)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(p["lat"]) for p in passes)
    traced = [p for p in passes if p["traced"]]
    walls = [sum(p["lat"]) for p in untraced]
    # each execution counts at its query's median latency; every query runs
    # once per pass, so that is a percentile over the per-query medians
    lat = sorted(medians)
    wall_s = sum(medians)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "tier": args.tier, "trace": args.trace,
                      "env": environment(ramsey_workers),
                      "sources": workloads.SOURCES}))
    for rec in records:
        print(json.dumps({"record": rec}))
    for err in errors[:50]:
        print(json.dumps({"error": err}))
    summary = {"passes": len(passes), "queries_per_pass": len(queries),
               "query_samples": len(untraced) * len(queries),
               "attempted": attempted,
               "failed": failed, "failed_frac": failed / attempted,
               "pass_wall_s": [round(w, 4) for w in walls],
               "setup_s_samples": [round(t, 4) for t in setup_times]}

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "query_p50_ms": (percentile(lat, 0.50) * 1000.0, "ms"),
            "query_p90_ms": (percentile(lat, 0.90) * 1000.0, "ms"),
            "correct_frac": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        spans = tracer.take()
        traced_wall = sum(query_medians(traced, len(queries)))
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracing.Tracer.dump(spans, spans_path)
        summary.update({"traced_passes": len(traced), "spans": len(spans),
                        "spans_file": os.path.relpath(spans_path, ROOT),
                        "traced_wall_s": round(traced_wall, 4),
                        "untraced_wall_s": round(wall_s, 4)})
        values = tracing.layer_metrics(spans, len(traced))
        values["trace.overhead_s"] = traced_wall - wall_s
        metrics = {k: (v, tracing.unit(k)) for k, v in values.items()}
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
