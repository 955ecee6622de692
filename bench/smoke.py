"""Smoke test of the benchmark itself, on the tiny tier.

    python3 bench/smoke.py

For every workload it runs ``bench/run.py --tier tiny`` untraced and
traced at seed 0, and untraced at a second seed, then checks that:

* every known answer matches (``correct`` is true, ``failed`` is 0);
* every metric named in ``BENCHMARK.json`` is emitted with its unit;
* each per-layer group has a nonzero call count or counter on the
  workload it maps to, and ``parallel.useful_ratio`` is 1.0 where the
  workload runs at one worker;
* the traced and untraced runs give identical per-query report digests.

It also checks that the benchmark exits non-zero without printing a
result when the checkout holds no ramseylab sources.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECOND_SEED = 7

# per-layer metrics that must be nonzero on the workload each group maps to
NONZERO = {
    "ladder": ("cli.calls", "patterns.value_sets.calls",
               "patterns.value_sets.count", "search.backtrack.calls",
               "search.backtrack.nodes", "search.validate.calls",
               "search.threshold.rows", "sat.encode.calls",
               "sat.encode.clauses", "sat.solve.calls", "sat.solve.conflicts",
               "sat.solve.decisions", "sat.check_model.self_s",
               "parallel.calls"),
    "scan-sweep": ("cli.calls", "colorings.make.calls", "colorings.make.cells",
                   "colorings.load.cells", "search.scan.calls",
                   "search.scan.leaves", "parallel.calls"),
    "witness-hunt": ("cli.calls", "hindman.fs.nodes", "hindman.grid.nodes",
                     "hindman.bundle.nodes", "hindman.quad.self_s",
                     "hindman.verify.calls", "structures.probe.calls",
                     "parallel.calls", "parallel.tasks_run"),
    "algebra": ("cli.calls", "semigroups.tables_scanned",
                "semigroups.assoc.calls", "semigroups.report.calls"),
}
ONE_WORKER = ("ladder", "scan-sweep")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--tier", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def digests(lines):
    return [json.loads(line)["record"]["digest"] for line in lines
            if line.startswith('{"record"')]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []

    for spec in bench["workloads"]:
        workload = spec["name"]
        outputs = {}
        for seed, trace in ((0, 0), (0, 1), (SECOND_SEED, 0)):
            tag = f"{workload} seed {seed} trace {trace}"
            code, lines = run(workload, seed, trace)
            if code != 0 or not lines:
                problems.append(f"{tag}: exit {code}")
                continue
            result = json.loads(lines[-1])
            outputs[(seed, trace)] = lines
            if not result["correct"] or result["failed"]:
                errors = [line for line in lines if line.startswith('{"error"')]
                problems.append(f"{tag}: {result['failed']} failed "
                                f"{errors[:3]}")
            metrics = result["metrics"]
            for name, unit in wanted[trace].items():
                got = metrics.get(name)
                if got is None or got.get("unit") != unit:
                    problems.append(f"{tag}: metric {name} missing or not "
                                    f"in {unit}: {got}")
            if trace == 1:
                for name in NONZERO[workload]:
                    if not metrics.get(name, {}).get("value"):
                        problems.append(f"{tag}: {name} is zero")
                ratio = metrics.get("parallel.useful_ratio", {}).get("value")
                if workload in ONE_WORKER and ratio != 1.0:
                    problems.append(f"{tag}: parallel.useful_ratio {ratio} "
                                    f"at one worker")
            print(f"ran {tag}: {result['attempted']} queries", flush=True)
        if (0, 0) in outputs and (0, 1) in outputs and \
                digests(outputs[(0, 0)]) != digests(outputs[(0, 1)]):
            problems.append(f"{workload}: traced and untraced digests differ")

    # a directory with only BENCHMARK.json and bench/ must make it fail
    bare = os.path.join(HERE, "_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("_work", "_out",
                                                      "__pycache__"))
        code, lines = run(bench["workloads"][0]["name"], 0, 0, cwd=bare)
        if code == 0 or any(line.startswith('{"correct"') for line in lines):
            problems.append(f"bare directory: exit {code}, output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
