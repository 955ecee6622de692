#!/usr/bin/env python3
"""How often does a pattern appear monochromatically in random colorings?

Draws seeded random c-colorings of [1..N] and scans each for the pattern,
reporting the forced fraction and the distribution of least witnesses.
With --min-value 2 the box starts at 2, matching product-flavored claims
whose instances must dodge the multiplicative unit.

Example:
    python scripts/random_instance_sweep.py \
        --pattern "{x, y, x*y, x+y}" --n 252 --colors 2 --trials 1000
"""

import argparse
import collections
import sys

from ramseylab import (InstanceQuery, RamseyError, find_instance,
                       make_coloring, parse_pattern)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pattern", required=True)
    ap.add_argument("--n", type=int, required=True, help="box size N")
    ap.add_argument("--colors", type=int, default=2)
    ap.add_argument("--trials", type=int, default=100,
                    help="number of seeds, starting at --seed0 (default 100)")
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--min-value", type=int, default=1)
    ap.add_argument("--distinct", action="store_true",
                    help="require pairwise distinct variable values")
    ap.add_argument("--show-misses", action="store_true",
                    help="print every seed whose coloring avoids the pattern")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except RamseyError as exc:
        print(f"random_instance_sweep: error: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    schema = parse_pattern(args.pattern, distinct_vars=args.distinct,
                           min_value=args.min_value)
    forced = 0
    least = collections.Counter()
    for trial in range(args.trials):
        seed = args.seed0 + trial
        col = make_coloring("random", 1, args.n, args.colors, seed=seed)
        hit = find_instance(InstanceQuery(schema=schema, coloring=col))
        if hit is None:
            if args.show_misses:
                print(f"seed {seed}: avoided")
            continue
        forced += 1
        assignment, _ = hit
        least[tuple(sorted(assignment.items()))] += 1
    frac = forced / args.trials if args.trials else 0.0
    print(f"pattern {args.pattern!r} on [{args.min_value}..{args.n}], "
          f"c={args.colors}: forced in {forced}/{args.trials} "
          f"({100.0 * frac:.2f}%)")
    for assignment, count in least.most_common(10):
        pretty = ", ".join(f"{k}={v}" for k, v in assignment)
        print(f"  least witness {pretty}: {count} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
