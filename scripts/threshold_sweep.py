#!/usr/bin/env python3
"""Sweep exact avoidance thresholds N*(pattern, c) over a range of color
counts and print one row per (pattern, c), optionally as CSV.

Example:
    python scripts/threshold_sweep.py --pattern "{x, y, x+y}" \
        --colors 2,3 --n-max 20 --engine backtracking
"""

import argparse
import csv
import sys
import time

from ramseylab import parse_pattern, threshold_number


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pattern", action="append", required=True,
                    help="pattern schema; repeat for several")
    ap.add_argument("--colors", default="2",
                    help="comma-separated color counts (default 2)")
    ap.add_argument("--n-max", type=int, default=30,
                    help="largest N to scan before giving up (default 30)")
    ap.add_argument("--engine", default="backtracking",
                    choices=("backtracking", "sat", "exhaustive"))
    ap.add_argument("--max-nodes", type=int, default=None,
                    help="per-N node budget")
    ap.add_argument("--csv", help="also write rows to this CSV file")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    colors = [int(t) for t in args.colors.split(",") if t.strip()]
    rows = []
    for text in args.pattern:
        schema = parse_pattern(text)
        for c in colors:
            t0 = time.perf_counter()
            res = threshold_number(schema, c, args.n_max,
                                   engine=args.engine,
                                   max_nodes=args.max_nodes)
            dt = time.perf_counter() - t0
            nodes = sum(r[2] for r in res.rows)
            shown = res.threshold if res.threshold is not None else f">{args.n_max}"
            if res.status == "unknown" and res.threshold is None:
                shown = "unknown"
            rows.append((text, c, shown, nodes, round(dt, 3)))
            print(f"{text!r:36s} c={c}  N*={shown}  "
                  f"nodes={nodes}  {dt:.3f}s")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["pattern", "colors", "threshold", "nodes", "seconds"])
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
