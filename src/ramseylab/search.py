"""Monochromatic-instance search, avoidance search, and threshold scans.

Three engines answer "does some c-coloring of [1..N] avoid the pattern?":

* ``backtracking`` — assigns colors to 1..N in increasing order, forbidding
  any color that would complete a monochromatic instance.  Only canonical
  colorings (new colors in first-use order) are explored; the first solution
  found is the lexicographically least avoiding coloring overall.
* ``sat`` — the CNF encoding from :mod:`ramseylab.sat`, with its canonical
  colour-order block.  Backtracking's first-use order starts at value 1;
  the block's starts at the least value that occurs in some instance, so
  it still breaks the symmetry of patterns whose instances never use 1
  (the ``--distinct`` corollary patterns).
* ``exhaustive`` — enumeration over canonical colorings; the test oracle.

The instance scan is its pattern's compiled scan
(:func:`ramseylab.patterns.compile_scan`): one loop per variable over
the box, in order, with the color test done at each leaf and only the
monochromatic leaves yielded.  The value sets the avoidance engines
read are the same scan's leaves under one color, and past
:data:`ramseylab.patterns.LEAF_BUDGET` leaves their verdict is
``unknown``.  So is that of a box of more than LEAF_BUDGET values, or on
the sat engine of more than LEAF_BUDGET exactly-one clauses, and no
engine allocates anything for such a box first.  Backtracking is one
depth-first search from value 1, and a backtracking threshold scan is one
such search carried one value deeper per N: each row's count is the one
a search of [1..N] alone would spend.  Every search counts its nodes
(leaves, color tries) in one counter on the calling thread, so
witnesses, node counts and budget verdicts depend only on the query.  A
budget of B nodes gives the answer when the search needs at most B
nodes; otherwise node B + 1 stops it (``BudgetExceededError.past``).
The scan stops itself there: it is handed leaf max(B, 0) + 1 as the leaf
to stop at, before that leaf's colors are read.  Avoiding colorings are
re-validated with ``find_instance``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from . import sat as satmod
from ._parallel import ordered_first_hit
from .colorings import Coloring, enumerate_colorings
from .errors import BudgetExceededError, MalformedInputError, RamseyError
from .patterns import (PatternSchema, compile_scan, instance_value_sets,
                       instantiate)

ENGINES = ("backtracking", "sat", "exhaustive")


@dataclass(frozen=True)
class InstanceQuery:
    schema: PatternSchema
    coloring: Coloring


@dataclass
class SearchStats:
    nodes: int = 0
    time_ms: float = 0.0


@dataclass
class AvoidanceResult:
    verdict: str  # "sat" | "unsat" | "unknown"
    coloring: Optional[Coloring]
    stats: SearchStats


@dataclass
class ThresholdResult:
    threshold: Optional[int]
    certificate: Optional[Coloring]
    rows: list = field(default_factory=list)  # (N, verdict, nodes, time_ms)
    status: str = "unknown"  # "found" once some N is unsat


# ---------------------------------------------------------------------------
# instance search


def instance_color(schema: PatternSchema, coloring: Coloring,
                   assignment) -> Optional[int]:
    """The one color of the schema's values at ``assignment``, or None when
    they differ: the check of a hit, independent of the scan.
    :func:`ramseylab.patterns.instantiate` refuses an assignment that
    breaks ``distinct_vars`` or ``min_value``, and a value outside the box
    raises OutOfBoxError."""
    colors = {coloring.value_color(v) for v in instantiate(schema, assignment)}
    return colors.pop() if len(colors) == 1 else None


def find_instance_detailed(query: InstanceQuery,
                           max_nodes: Optional[int] = None):
    """As :func:`find_instance`, also returning the leaf count."""

    def scan():
        hits, leaves = find_all_instances_detailed(query, limit=1,
                                                   max_nodes=max_nodes)
        return (hits[0] if hits else None), leaves

    # one task, so the bench's parallel.* counters still see the scan
    return ordered_first_hit([scan])


def find_instance(query: InstanceQuery, max_nodes: Optional[int] = None):
    """Lexicographically least monochromatic instance, as (assignment dict,
    color), or None.  Assignments are ordered by the schema's sorted
    variable list."""
    hit, _ = find_instance_detailed(query, max_nodes=max_nodes)
    return hit


def find_all_instances_detailed(query: InstanceQuery,
                                limit: Optional[int] = 1000,
                                max_nodes: Optional[int] = None):
    """In-order scan of the schema's in-box assignments (its compiled
    scan's leaves) for monochromatic ones: (hits as (assignment dict,
    color), leaves visited).  Stops once ``limit`` hits are in (at least
    one); leaf ``max_nodes + 1`` raises :class:`BudgetExceededError`."""
    variables = query.schema.variables
    table = query.coloring.value_table()
    stop = -1 if max_nodes is None else max(max_nodes, 0) + 1
    hits: list = []
    for leaves, asg, values in compile_scan(query.schema)(query.coloring.N,
                                                          table, stop):
        if values is None:
            if leaves == stop:
                raise BudgetExceededError.past(max_nodes)
            break
        hits.append((dict(zip(variables, asg)), table[values[0]]))
        if limit is not None and len(hits) >= limit:
            break
    return hits, leaves


# ---------------------------------------------------------------------------
# avoidance search


_NO_INSTANCE = ((), ())


def _index_by_max(value_sets, first, last):
    """For each n in [first..last] (list index n-first), the instances
    whose largest value is n, as lists of the 0-based positions of their
    other values, split into (pairs, rest) for :func:`_forbidden`; an n
    that tops no instance shares one empty entry."""
    index = [_NO_INSTANCE] * (last - first + 1)
    for *others, n in value_sets:
        if n >= first:
            if index[n - first] is _NO_INSTANCE:
                index[n - first] = ([], [])
            pairs, rest = index[n - first]
            (pairs if len(others) == 2 else rest).append([v - 1 for v in others])
    return index


def _forbidden(entry, bits) -> int:
    """Bit mask of the colors that would complete an instance of ``entry``
    (an :func:`_index_by_max` item), given ``bits[i]``, the one-hot bit of
    the color at position i."""
    pairs, rest = entry
    mask = 0
    for i, j in pairs:
        b = bits[i]
        if b == bits[j]:
            mask |= b
    for others in rest:
        if not others:
            return -1  # the singleton {n}: every color completes it
        b = bits[others[0]]
        for i in others:
            if bits[i] != b:
                break
        else:
            mask |= b
    return mask


def _backtrack(c, index, max_nodes: Optional[int]):
    """Canonical-coloring DFS over the positions ``index`` covers, one node
    per color tried.  A loop, not a recursion, so the box may pass
    Python's recursion limit; node ``max_nodes + 1`` raises
    :class:`BudgetExceededError`.

    A generator.  When the search first fills all N positions it yields
    (the lexicographically least avoiding coloring of [1..N], nodes so
    far); when the tree is exhausted it yields (None, nodes) and stops.
    The entries for n <= N do not depend on the box, so a search of
    [1..N] alone walks the same nodes in the same order: its count is
    the one yielded.  A caller that appends the entry for N + 1 to
    ``index`` before resuming carries the search one level deeper."""
    N = len(index)
    bits = [0] * N
    # choices[u]: the (color, bit) pairs open once u colors are in use, in
    # first-use order; a row is made when u colors are first in use, so
    # there are at most min(c, N) + 1
    choices = [[(0, 1)]]
    nodes = 0
    # position i's untried (color, bit) pairs, forbidden colors and colors
    # used before it; the stack holds them for positions 0..i-1
    i, used, stack = 0, 0, []
    untried, forbidden = iter(choices[0]), _forbidden(index[0], bits)
    while True:
        for color, bit in untried:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceededError.past(max_nodes)
            if not forbidden & bit:
                break
        else:  # every color was tried here: back up one position
            if not stack:
                yield None, nodes
                return
            i -= 1
            untried, forbidden, used = stack.pop()
            continue
        bits[i] = bit
        i += 1
        if i == N:
            yield tuple(b.bit_length() - 1 for b in bits), nodes
            N += 1
            bits.append(0)
        stack.append((untried, forbidden, used))
        if color == used:
            used += 1
            if used == len(choices):
                row = choices[-1]
                choices.append(row + [(used, 1 << used)] if used < c else row)
        untried, forbidden = iter(choices[used]), _forbidden(index[i], bits)


def _backtracking_results(schema: PatternSchema, c: int, first: int,
                          last: int, max_nodes: Optional[int]):
    """The backtracking engine's AvoidanceResult for each N in
    [first..last], from one :func:`_backtrack` search carried one level
    deeper per N, until the first that is not sat.  Each N reads its own
    value sets, so the LEAF_BUDGET verdict is that of a search of [1..N]
    alone, and an N's time_ms is the work added for it."""
    index: list = []
    dfs = _backtrack(c, index, max_nodes)
    for N in range(first, last + 1):
        t0 = time.perf_counter()
        stats = SearchStats()
        verdict, found = "unknown", None
        try:
            index += _index_by_max(instance_value_sets(schema, N),
                                   len(index) + 1, N)
            # one task, so the bench's parallel.* counters still see it
            cells, stats.nodes = ordered_first_hit([lambda: next(dfs)])
        except BudgetExceededError as exc:
            # a node budget, or the value sets' LEAF_BUDGET, ran out
            stats.nodes = exc.nodes
        else:
            verdict = "unsat" if cells is None else "sat"
            if cells is not None:
                found = Coloring(d=1, N=N, c=c, cells=cells)
        yield _checked(schema, "backtracking", verdict, found, stats, t0)
        if verdict != "sat":
            return


def _checked(schema, engine, verdict, found, stats, t0) -> AvoidanceResult:
    """The result, timed from ``t0``, once an avoiding coloring has been
    re-validated with ``find_instance``."""
    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    if found is not None:
        leftover = find_instance(InstanceQuery(schema=schema, coloring=found))
        if leftover is not None:
            raise RamseyError(f"engine {engine} returned an invalid certificate "
                              f"(monochromatic at {leftover})")
    return AvoidanceResult(verdict=verdict, coloring=found, stats=stats)


def _check_query(N: int, c: int, engine: str) -> None:
    if N < 1 or c < 1:
        raise MalformedInputError("avoidance search needs N >= 1 and c >= 1")
    if engine not in ENGINES:
        raise RamseyError(f"unknown engine {engine!r} (choose from {ENGINES})")


def find_avoiding_coloring(schema: PatternSchema, N: int, c: int,
                           engine: str = "backtracking",
                           max_nodes: Optional[int] = None) -> AvoidanceResult:
    """Search for a c-coloring of [1..N] with no monochromatic instance."""
    _check_query(N, c, engine)
    if engine == "backtracking":
        return next(_backtracking_results(schema, c, N, N, max_nodes))
    t0 = time.perf_counter()
    stats = SearchStats()
    verdict = "unsat"
    found: Optional[Coloring] = None

    try:
        if engine == "sat":
            formula, vmap = satmod.encode_avoidance(schema, N, c,
                                                    symmetry_break=True)
            sv = satmod.solve(formula, max_conflicts=max_nodes)
            stats.nodes = sv.conflicts + sv.decisions
            if sv.status == satmod.SAT:
                verdict, found = "sat", vmap.decode(sv.model)
            elif sv.status == satmod.UNKNOWN:
                verdict = "unknown"
        else:
            value_sets = instance_value_sets(schema, N)
            nodes = 0
            for col in enumerate_colorings(N, c, symmetry_break=True):
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    raise BudgetExceededError.past(max_nodes)
                cells = col.cells
                if not any(all(cells[v - 1] == cells[vs[0] - 1] for v in vs[1:])
                           for vs in value_sets):
                    verdict, found = "sat", col
                    break
            stats.nodes = nodes
    except BudgetExceededError as exc:
        # a node budget, or the value sets' LEAF_BUDGET, ran out
        verdict, stats.nodes = "unknown", exc.nodes
    return _checked(schema, engine, verdict, found, stats, t0)


# ---------------------------------------------------------------------------
# thresholds


def threshold_number(schema: PatternSchema, c: int, n_max: int,
                     engine: str = "backtracking",
                     max_nodes: Optional[int] = None) -> ThresholdResult:
    """Least N <= n_max such that every c-coloring of [1..N] contains a
    monochromatic instance; scans N upward so the certificate at N*-1 comes
    for free.  Forcing is monotone in N (instances only accumulate), so the
    first unsat N is the threshold.  The scan stops at the first verdict
    that is not sat; the certificate is the last sat coloring.  On the
    backtracking engine the rows come from one search, carried one value
    deeper per N, with the budget of each row spent as a search of [1..N]
    alone would spend it."""
    if n_max < 1:
        raise MalformedInputError("threshold scan needs n_max >= 1")
    _check_query(1, c, engine)
    if engine == "backtracking":
        results = _backtracking_results(schema, c, 1, n_max, max_nodes)
    else:
        results = (find_avoiding_coloring(schema, N, c, engine=engine,
                                          max_nodes=max_nodes)
                   for N in range(1, n_max + 1))
    result = ThresholdResult(threshold=None, certificate=None)
    for N, res in enumerate(results, 1):
        result.rows.append((N, res.verdict, res.stats.nodes, res.stats.time_ms))
        if res.verdict != "sat":
            if res.verdict == "unsat":
                result.threshold, result.status = N, "found"
            return result
        result.certificate = res.coloring
    return result
