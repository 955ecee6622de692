#!/usr/bin/env python3
"""Census of all semigroups on {0..n-1} by brute enumeration: counts,
idempotent histograms, and spot checks of the ideal structure (every
minimal left ideal meets the idempotents; minimal idempotents exist).

Order 3 is instant (19683 tables, 113 associative); order 4 enumerates
4^16 ≈ 4.3e9 tables and is out of reach here — the script refuses n > 3
unless --force is given.
"""

import argparse
import collections
import sys

from ramseylab.errors import RamseyError
from ramseylab.semigroups import (idempotents, iter_semigroups,
                                  minimal_idempotents, minimal_left_ideals)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=3, help="semigroup order n")
    ap.add_argument("--force", action="store_true",
                    help="allow n > 3 despite the n^(n*n) table count")
    ap.add_argument("--show", type=int, default=0, metavar="K",
                    help="print the first K tables with their reports")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except RamseyError as exc:
        print(f"semigroup_census: error: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    if args.order > 3 and not args.force:
        raise SystemExit(f"order {args.order} means {args.order}^"
                         f"{args.order * args.order} tables; pass --force "
                         "if you really want that")
    total = 0
    idem_hist = collections.Counter()
    ideal_hist = collections.Counter()
    shown = 0
    for table in iter_semigroups(args.order):
        total += 1
        idem = idempotents(table)
        ideals = minimal_left_ideals(table)
        idem_hist[len(idem)] += 1
        ideal_hist[len(ideals)] += 1
        assert idem, "a finite semigroup always has an idempotent"
        assert minimal_idempotents(table)
        assert all(any(e in ideal for e in idem) for ideal in ideals)
        if shown < args.show:
            shown += 1
            rows = " | ".join(" ".join(map(str, r)) for r in table.rows)
            print(f"  [{rows}]  idempotents={idem}  ideals={ideals}")
    print(f"order {args.order}: {total} semigroups")
    for k in sorted(idem_hist):
        print(f"  {idem_hist[k]:5d} with {k} idempotent(s)")
    for k in sorted(ideal_hist):
        print(f"  {ideal_hist[k]:5d} with {k} minimal left ideal(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
