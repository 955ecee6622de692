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
(:func:`ramseylab.patterns.compile_scan`): the kernel's loops, in order,
with the color test done at each leaf and only the monochromatic leaves
yielded.  Backtracking is one depth-first search from value 1.  Each
counts its nodes (leaves, color tries) in one counter on the calling
thread, so witnesses, node counts and budget verdicts depend only on the
query.  A budget of B nodes gives the answer when the search needs at most
B nodes; otherwise node B + 1 stops it (``BudgetExceededError.past``).
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
from .patterns import PatternSchema, compile_scan, instance_value_sets

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


def _scan_instances(schema: PatternSchema, coloring: Coloring,
                    max_nodes: Optional[int], limit: Optional[int] = 1):
    """In-order scan of the schema's in-box assignments (its compiled
    scan's leaves) for monochromatic ones.  Returns (hits as (assignment
    dict, color), leaves visited); stops once ``limit`` hits are in.  Leaf
    ``max_nodes + 1`` raises :class:`BudgetExceededError`."""
    variables = schema.variables
    stop = -1 if max_nodes is None else max(max_nodes, 0) + 1
    hits: list = []
    for leaves, asg, color in compile_scan(schema)(
            coloring.N, coloring.value_table(), stop):
        if color is None:
            if leaves == stop:
                raise BudgetExceededError.past(max_nodes)
            break
        hits.append((dict(zip(variables, asg)), color))
        if limit is not None and len(hits) >= limit:
            break
    return hits, leaves


def find_instance_detailed(query: InstanceQuery,
                           max_nodes: Optional[int] = None):
    """As :func:`find_instance`, also returning the leaf count."""

    def scan():
        hits, leaves = _scan_instances(query.schema, query.coloring,
                                       max_nodes)
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
    """All monochromatic instances in order (at most ``limit``, at least one)
    and the leaves visited, under :func:`find_instance`'s leaf budget."""
    return _scan_instances(query.schema, query.coloring, max_nodes, limit)


# ---------------------------------------------------------------------------
# avoidance search


def _index_by_max(value_sets, N):
    """For each n in [1..N] (list index n-1), the instances whose largest
    value is n, as lists of the 0-based positions of their other values,
    split into (pairs, rest) for :func:`_forbidden`."""
    index = [([], []) for _ in range(N)]
    for *others, n in value_sets:
        pairs, rest = index[n - 1]
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


def _backtrack(N, c, index, max_nodes: Optional[int]):
    """Canonical-coloring DFS over [1..N], one node per color tried;
    returns (lexicographically least avoiding coloring or None, nodes).
    Node ``max_nodes + 1`` raises :class:`BudgetExceededError`."""
    bits = [0] * N
    choices = [[(color, 1 << color) for color in range(min(u + 1, c))]
               for u in range(c + 1)]
    nodes = 0

    def rec(i: int, used: int):
        nonlocal nodes
        if i == N:
            return tuple(b.bit_length() - 1 for b in bits)
        forbidden = _forbidden(index[i], bits)
        for color, bit in choices[used]:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceededError.past(max_nodes)
            if not forbidden & bit:
                bits[i] = bit
                hit = rec(i + 1, used + 1 if color == used else used)
                if hit is not None:
                    return hit
        return None

    return rec(0, 0), nodes


def find_avoiding_coloring(schema: PatternSchema, N: int, c: int,
                           engine: str = "backtracking",
                           max_nodes: Optional[int] = None) -> AvoidanceResult:
    """Search for a c-coloring of [1..N] with no monochromatic instance."""
    if N < 1 or c < 1:
        raise MalformedInputError("avoidance search needs N >= 1 and c >= 1")
    if engine not in ENGINES:
        raise RamseyError(f"unknown engine {engine!r} (choose from {ENGINES})")
    t0 = time.perf_counter()
    stats = SearchStats()
    verdict = "unsat"
    found: Optional[Coloring] = None

    if engine == "sat":
        formula, vmap = satmod.encode_avoidance(schema, N, c,
                                                symmetry_break=True)
        sv = satmod.solve(formula, max_conflicts=max_nodes)
        stats.nodes = sv.conflicts + sv.decisions
        if sv.status == satmod.SAT:
            verdict, found = "sat", vmap.decode(sv.model)
        elif sv.status == satmod.UNKNOWN:
            verdict = "unknown"
    elif engine == "exhaustive":
        nodes = 0
        try:
            value_sets = instance_value_sets(schema, N)
            for col in enumerate_colorings(N, c, symmetry_break=True):
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    raise BudgetExceededError("exhaustive scan budget exceeded")
                cells = col.cells
                if not any(all(cells[v - 1] == cells[vs[0] - 1] for v in vs[1:])
                           for vs in value_sets):
                    verdict, found = "sat", col
                    break
        except BudgetExceededError:
            verdict = "unknown"
        stats.nodes = nodes
    else:
        index = _index_by_max(instance_value_sets(schema, N), N)
        try:
            # one task, so the bench's parallel.* counters still see it
            cells, stats.nodes = ordered_first_hit(
                [lambda: _backtrack(N, c, index, max_nodes)])
            if cells is not None:
                verdict, found = "sat", Coloring(d=1, N=N, c=c, cells=cells)
        except BudgetExceededError as exc:
            verdict = "unknown"
            stats.nodes = exc.nodes

    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    if found is not None:
        leftover = find_instance(InstanceQuery(schema=schema, coloring=found))
        if leftover is not None:
            raise RamseyError(f"engine {engine} returned an invalid certificate "
                              f"(monochromatic at {leftover})")
    return AvoidanceResult(verdict=verdict, coloring=found, stats=stats)


# ---------------------------------------------------------------------------
# thresholds


def threshold_number(schema: PatternSchema, c: int, n_max: int,
                     engine: str = "backtracking",
                     max_nodes: Optional[int] = None) -> ThresholdResult:
    """Least N <= n_max such that every c-coloring of [1..N] contains a
    monochromatic instance; scans N upward so the certificate at N*-1 comes
    for free.  Forcing is monotone in N (instances only accumulate), so the
    first unsat N is the threshold.  The scan stops at the first verdict
    that is not sat; the certificate is the last sat coloring."""
    if n_max < 1:
        raise MalformedInputError("threshold scan needs n_max >= 1")
    result = ThresholdResult(threshold=None, certificate=None)
    for N in range(1, n_max + 1):
        res = find_avoiding_coloring(schema, N, c, engine=engine,
                                     max_nodes=max_nodes)
        result.rows.append((N, res.verdict, res.stats.nodes, res.stats.time_ms))
        if res.verdict != "sat":
            if res.verdict == "unsat":
                result.threshold, result.status = N, "found"
            return result
        result.certificate = res.coloring
    return result
