"""Monochromatic-instance search, avoidance search, and threshold scans.

Three engines answer "does some c-coloring of [1..N] avoid the pattern?":

* ``backtracking`` — assigns colors to 1..N in increasing order, forbidding
  any color that would complete a monochromatic instance.  Only canonical
  colorings (new colors in first-use order) are explored; the first solution
  found is the lexicographically least avoiding coloring overall.
* ``sat`` — the CNF encoding from :mod:`ramseylab.sat`.
* ``exhaustive`` — enumeration over canonical colorings; the test oracle.

The instance scan walks its pattern's compiled kernel (see
:class:`ramseylab.patterns.TermPlan`) in order; backtracking runs chunks
split on a fixed-depth color prefix one after another; both on the calling
thread, so witnesses, node counts and budget verdicts depend only on the
query.  Avoiding colorings are re-validated with ``find_instance``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from . import sat as satmod
from ._parallel import NodeBudget, ordered_first_hit
from .colorings import Coloring, enumerate_colorings
from .errors import BudgetExceededError, RamseyError
from .patterns import PatternSchema, compile_kernel, instance_value_sets

ENGINES = ("backtracking", "sat", "exhaustive")

SPLIT_DEPTH = 8  # backtracking splits its tree at this prefix depth


@dataclass(frozen=True)
class InstanceQuery:
    schema: PatternSchema
    coloring: Coloring

    def __post_init__(self):
        if self.coloring.d != 1:
            raise RamseyError("instance search needs a 1-dimensional coloring")


@dataclass
class SearchStats:
    nodes: int = 0
    time_ms: float = 0.0
    engine: str = ""


@dataclass
class AvoidanceResult:
    verdict: str  # "sat" | "unsat" | "unknown"
    coloring: Optional[Coloring]
    stats: SearchStats


@dataclass
class ThresholdResult:
    pattern: str
    colors: int
    threshold: Optional[int]
    certificate: Optional[Coloring]
    rows: list = field(default_factory=list)  # (N, verdict, nodes, time_ms)
    status: str = "found"  # "found" | "unknown"


# ---------------------------------------------------------------------------
# instance search


class _LazyCells:
    """``cells[i]`` for a coloring that is not materialized."""

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, i):
        return self.fn(i)


def _scan_instances(schema: PatternSchema, coloring: Coloring,
                    budget: Optional[NodeBudget], limit: Optional[int] = 1):
    """In-order scan of the schema's in-box assignments (its kernel's
    leaves) for monochromatic ones.  Returns (hits as (assignment dict,
    color), leaves visited); stops once ``limit`` hits are in.  The budget
    is spent in batches of 512 leaves that restart at each value of the
    first variable; the rest of a batch is spent before the next value's
    first leaf and when the scan stops."""
    variables = schema.variables
    cells = coloring.cells if coloring.cells is not None \
        else _LazyCells(coloring.fn)
    hits: list = []
    leaves, batch, first = 0, 0, None
    for asg, values in compile_kernel(schema)(coloring.N):
        leaves += 1
        if budget is not None:
            if asg[:1] != first:
                if batch:
                    budget.spend(batch)
                first, batch = asg[:1], 0
            batch += 1
            if batch == 512:
                budget.spend(512)
                batch = 0
        color = cells[values[0] - 1]
        for v in values:
            if cells[v - 1] != color:
                break
        else:
            hits.append((dict(zip(variables, asg)), color))
            if limit is not None and len(hits) >= limit:
                break
    if budget is not None and batch:
        budget.spend(batch)
    return hits, leaves


def find_instance_detailed(query: InstanceQuery,
                           max_nodes: Optional[int] = None):
    """As :func:`find_instance`, also returning the leaf count."""
    budget = NodeBudget(max_nodes) if max_nodes is not None else None

    def scan():
        hits, leaves = _scan_instances(query.schema, query.coloring, budget)
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
    """As :func:`find_all_instances`, also returning the leaf count."""
    budget = NodeBudget(max_nodes) if max_nodes is not None else None
    return _scan_instances(query.schema, query.coloring, budget, limit)


def find_all_instances(query: InstanceQuery, limit: Optional[int] = 1000,
                       max_nodes: Optional[int] = None):
    """Every monochromatic instance in lexicographic order, capped at
    ``limit`` (at least one), under the leaf budget of :func:`find_instance`."""
    return find_all_instances_detailed(query, limit, max_nodes)[0]


def has_monochromatic_instance(schema: PatternSchema, coloring: Coloring) -> bool:
    return find_instance(InstanceQuery(schema=schema, coloring=coloring)) is not None


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


def _backtrack_chunk(N, c, index, prefix, budget: Optional[NodeBudget]):
    """Continue the canonical-coloring DFS from a fixed color prefix;
    returns (lexicographically least avoiding completion or None, nodes)."""
    bits = [1 << color for color in prefix] + [0] * (N - len(prefix))
    choices = [[(color, 1 << color) for color in range(min(u + 1, c))]
               for u in range(c + 1)]
    local_nodes = 0

    def rec(i: int, used: int):
        nonlocal local_nodes
        if i == N:
            return tuple(b.bit_length() - 1 for b in bits)
        forbidden = _forbidden(index[i], bits)
        for color, bit in choices[used]:
            local_nodes += 1
            if budget is not None and local_nodes % 1024 == 0:
                budget.spend(1024)
            if not forbidden & bit:
                bits[i] = bit
                hit = rec(i + 1, used + 1 if color == used else used)
                if hit is not None:
                    return hit
        return None

    hit = rec(len(prefix), len(set(prefix)))
    if budget is not None and local_nodes % 1024:
        budget.spend(local_nodes % 1024)
    return hit, local_nodes


def _backtrack_prefixes(c, index, depth):
    """Consistent canonical color prefixes of the given depth, in
    lexicographic order: the split frontier.  Instances with max value
    <= depth are fully assigned within the prefix, so the same forbidden-
    color rule applies."""
    prefixes = []
    bits = [0] * depth

    def rec(i, used):
        if i == depth:
            prefixes.append(tuple(b.bit_length() - 1 for b in bits))
            return
        forbidden = _forbidden(index[i], bits)
        for color in range(min(used + 1, c)):
            bit = 1 << color
            if not forbidden & bit:
                bits[i] = bit
                rec(i + 1, max(used, color + 1))

    rec(0, 0)
    return prefixes


def find_avoiding_coloring(schema: PatternSchema, N: int, c: int,
                           engine: str = "backtracking",
                           symmetry_break: bool = True,
                           max_nodes: Optional[int] = None,
                           validate: bool = True) -> AvoidanceResult:
    """Search for a c-coloring of [1..N] with no monochromatic instance."""
    if engine not in ENGINES:
        raise RamseyError(f"unknown engine {engine!r} (choose from {ENGINES})")
    t0 = time.perf_counter()
    stats = SearchStats(engine=engine)
    verdict = "unsat"
    found: Optional[Coloring] = None

    if engine == "sat":
        formula, vmap = satmod.encode_avoidance(schema, N, c,
                                                symmetry_break=symmetry_break)
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
            for col in enumerate_colorings(1, N, c, symmetry_break=True):
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
        budget = NodeBudget(max_nodes) if max_nodes is not None else None
        try:
            depth = min(SPLIT_DEPTH, N)
            if N <= depth:
                cells, nodes = _backtrack_chunk(N, c, index, (), budget)
            else:
                prefixes = _backtrack_prefixes(c, index, depth)
                tasks = [
                    (lambda p=p: _backtrack_chunk(N, c, index, p, budget))
                    for p in prefixes
                ]
                cells, nodes = ordered_first_hit(tasks)
            stats.nodes = nodes
            if cells is not None:
                verdict, found = "sat", Coloring(d=1, N=N, c=c, cells=cells)
        except BudgetExceededError:
            verdict = "unknown"
            stats.nodes = budget.count

    stats.time_ms = (time.perf_counter() - t0) * 1000.0
    if found is not None and validate:
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
    first unsat N is the threshold."""
    from .patterns import format_pattern

    result = ThresholdResult(pattern=format_pattern(schema), colors=c,
                             threshold=None, certificate=None)
    last_cert: Optional[Coloring] = None
    for N in range(1, n_max + 1):
        res = find_avoiding_coloring(schema, N, c, engine=engine,
                                     max_nodes=max_nodes)
        result.rows.append((N, res.verdict, res.stats.nodes, res.stats.time_ms))
        if res.verdict == "sat":
            last_cert = res.coloring
        elif res.verdict == "unsat":
            result.threshold = N
            result.certificate = last_cert
            result.status = "found"
            return result
        else:
            result.status = "unknown"
            result.certificate = last_cert
            return result
    result.status = "unknown"
    result.certificate = last_cert
    return result
