"""Monochromatic-instance search, avoidance search, and threshold scans.

Three engines answer "does some c-coloring of [1..N] avoid the pattern?":

* ``backtracking`` — assigns colors to 1..N in increasing order, forbidding
  any color that would complete a monochromatic instance.  Only canonical
  colorings (new colors in first-use order) are explored; the first solution
  found is the lexicographically least avoiding coloring overall.
* ``sat`` — the CNF encoding from :mod:`ramseylab.sat`.
* ``exhaustive`` — enumeration over canonical colorings; the test oracle.

Searches run as an ordered list of chunks (split on the leading witness
coordinate, or on a fixed-depth color prefix), one after another on the
calling thread, so reported witnesses, node counts and budget verdicts
depend only on the query.  Every returned avoiding coloring is re-validated
with ``find_instance`` before it leaves this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from . import sat as satmod
from ._parallel import NodeBudget, ordered_first_hit
from .colorings import Coloring, enumerate_colorings
from .errors import BudgetExceededError, RamseyError
from .patterns import PatternSchema, TermPlan, eval_term, instance_value_sets

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


def _scan_instances(plan: TermPlan, coloring: Coloring, first_lo: int,
                    first_hi: int, budget: Optional[NodeBudget],
                    collect: Optional[list] = None, limit: Optional[int] = None):
    """Lexicographic scan over in-box assignments with the first variable
    restricted to [first_lo..first_hi].  Returns (least monochromatic
    (assignment, color) or None, leaves visited); with ``collect`` set,
    appends every hit (up to ``limit``) instead."""
    schema = plan.schema
    N = coloring.N
    for t in plan.constant_terms:
        if eval_term(t, {}) > N:
            return None, 0
    cells = coloring.cells
    color_at = (lambda v: cells[v - 1]) if cells is not None else \
        (lambda v: coloring.fn(v - 1))
    variables = plan.variables
    k = len(variables)
    lo = schema.min_value
    distinct = schema.distinct_vars
    terms = schema.terms
    asg: dict = {}
    local_nodes = 0

    def leaf_check():
        values = set()
        for t in terms:
            values.add(eval_term(t, asg))
        it = iter(values)
        color = color_at(next(it))
        for v in it:
            if color_at(v) != color:
                return None
        return color

    def rec(level: int):
        nonlocal local_nodes
        if level == k:
            local_nodes += 1
            if budget is not None and local_nodes % 512 == 0:
                budget.spend(512)
            color = leaf_check()
            if color is None:
                return None
            hit = (dict(asg), color)
            if collect is not None:
                collect.append(hit)
                if limit is not None and len(collect) >= limit:
                    return hit  # stop signal
                return None
            return hit
        vlo = lo if level > 0 else max(lo, first_lo)
        vhi = N if level > 0 else min(N, first_hi)
        name = variables[level]
        for v in range(vlo, vhi + 1):
            if distinct and v in asg.values():
                continue
            asg[name] = v
            dead = False
            for t in plan.ready[level]:
                if eval_term(t, asg) > N:
                    dead = True
                    break
            if dead:
                del asg[name]
                break  # terms are monotone in this variable
            hit = rec(level + 1)
            del asg[name]
            if hit is not None:
                return hit
        return None

    if k == 0:
        if budget is not None:
            budget.spend(1)
        color = leaf_check()
        hit = (dict(), color) if color is not None else None
        if collect is not None and hit is not None:
            collect.append(hit)
            hit = None
        return hit, 1
    if first_lo > first_hi:
        return None, 0
    hit = rec(0)
    if budget is not None and local_nodes % 512:
        budget.spend(local_nodes % 512)
    return hit, local_nodes


def find_instance_detailed(query: InstanceQuery,
                           max_nodes: Optional[int] = None):
    """As :func:`find_instance`, also returning the leaf count."""
    schema, coloring = query.schema, query.coloring
    budget = NodeBudget(max_nodes) if max_nodes is not None else None
    plan = TermPlan(schema)
    lo, N = schema.min_value, coloring.N
    if not schema.variables:
        return _scan_instances(plan, coloring, lo, N, budget)
    tasks = [
        (lambda v0=v0: _scan_instances(plan, coloring, v0, v0, budget))
        for v0 in range(lo, N + 1)
    ]
    return ordered_first_hit(tasks)


def find_instance(query: InstanceQuery, max_nodes: Optional[int] = None):
    """Lexicographically least monochromatic instance, as (assignment dict,
    color), or None.  Assignments are ordered by the schema's sorted
    variable list."""
    hit, _ = find_instance_detailed(query, max_nodes=max_nodes)
    return hit


def find_all_instances(query: InstanceQuery, limit: int = 1000):
    """Flagged enumeration mode: every monochromatic instance in
    lexicographic order, capped at ``limit``."""
    out: list = []
    plan = TermPlan(query.schema)
    _scan_instances(plan, query.coloring, query.schema.min_value,
                    query.coloring.N, None, collect=out, limit=limit)
    return out


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
