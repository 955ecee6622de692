"""CNF encoding of avoidance problems and a small deterministic CDCL solver.

Variable map: integer n taking color j is the variable (n-1)*c + j + 1, a
pure function of (N, c).  The avoidance encoding emits, in this frozen
order: an optional symmetry unit fixing integer 1 to color 0, then per-n
exactly-one blocks (at-least-one clause followed by pairwise at-most-one
clauses), then one clause per (instance value set, color) forbidding that
set from being monochromatic in that color.  Value sets are deduplicated
and emitted in sorted order, so the encoding is stable byte-for-byte.

The solver is a first-UIP CDCL with two-watched-literal propagation.  It
branches on the lowest-index unassigned variable, true first, never
restarts and never deletes a learnt clause.  Inside it the literal v is
coded 2v and -v is 2v+1 (negation is ``code ^ 1``; CPython's fast list
subscript takes no negative index), and codes index flat lists:
``val[code]`` is the literal's truth value, ``watches[code]`` its watch
list.  The branching and propagation order, down to the order of watch
lists and of the literals in each clause, is frozen: node counts are part
of the report contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .colorings import Coloring
from .errors import MalformedInputError, RamseyError
from .patterns import PatternSchema, instance_value_sets

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass
class CnfFormula:
    var_count: int
    clauses: list

    def __post_init__(self):
        if self.var_count < 0:
            raise MalformedInputError("negative variable count")
        for cl in self.clauses:
            if not cl:
                raise MalformedInputError("empty clause")
            for lit in cl:
                if lit == 0 or abs(lit) > self.var_count:
                    raise MalformedInputError(f"literal {lit} out of range")


@dataclass
class SatVerdict:
    status: str
    model: Optional[list] = None  # signed literals, sorted by variable
    conflicts: int = 0
    decisions: int = 0


# ---------------------------------------------------------------------------
# avoidance encoding


@dataclass(frozen=True)
class ColorVarMap:
    """n in [1..N] gets color j in [0..c-1]  <=>  variable (n-1)*c + j + 1."""

    N: int
    c: int

    @property
    def var_count(self) -> int:
        return self.N * self.c

    def var(self, n: int, j: int) -> int:
        if not (1 <= n <= self.N and 0 <= j < self.c):
            raise MalformedInputError(f"no variable for n={n}, j={j}")
        return (n - 1) * self.c + j + 1

    def decode(self, model) -> Coloring:
        """Read a coloring off a model; exactly one color per value required."""
        truth = {}
        for lit in model:
            truth[abs(lit)] = lit > 0
        cells = []
        for n in range(1, self.N + 1):
            chosen = [j for j in range(self.c) if truth.get(self.var(n, j), False)]
            if len(chosen) != 1:
                raise MalformedInputError(f"model assigns {len(chosen)} colors to {n}")
            cells.append(chosen[0])
        return Coloring(d=1, N=self.N, c=self.c, cells=tuple(cells))


def encode_avoidance(schema: PatternSchema, N: int, c: int,
                     symmetry_break: bool = False):
    """CNF satisfiable iff some c-coloring of [1..N] has no monochromatic
    instance of the schema.  Returns (formula, var_map).

    Singleton value sets (an instance collapsing to one value) are
    monochromatic under every coloring, so they emit width-1 clauses for
    every color, making the formula unsatisfiable — in agreement with the
    other engines.
    """
    if N < 1 or c < 1:
        raise MalformedInputError("encode_avoidance needs N >= 1 and c >= 1")
    vmap = ColorVarMap(N=N, c=c)
    clauses = []
    if symmetry_break and c >= 1:
        clauses.append([vmap.var(1, 0)])
    for n in range(1, N + 1):
        clauses.append([vmap.var(n, j) for j in range(c)])
        for j1 in range(c):
            for j2 in range(j1 + 1, c):
                clauses.append([-vmap.var(n, j1), -vmap.var(n, j2)])
    for values in instance_value_sets(schema, N):
        for j in range(c):
            clauses.append([-vmap.var(v, j) for v in values])
    return CnfFormula(var_count=vmap.var_count, clauses=clauses), vmap


# ---------------------------------------------------------------------------
# solver


class _Solver:
    def __init__(self, formula: CnfFormula):
        n = self.nvars = formula.var_count
        self.val = [0] * (2 * n + 2)  # by literal code: +1 true, -1 false, 0 free
        self.watches = [[] for _ in range(2 * n + 2)]
        self.level = [0] * (n + 1)
        self.reason = [None] * (n + 1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.conflicts = 0
        self.decisions = 0
        self.root_conflict = False
        codes = list(range(2 * n + 2))  # shared ints: codes above 256 are not cached
        for cl in formula.clauses:
            self._add_clause([codes[2 * lit if lit > 0 else 1 - 2 * lit] for lit in cl])

    def _add_clause(self, lits) -> None:
        seen = set()
        out = []
        for lit in lits:
            if lit ^ 1 in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if len(out) == 1:
            if self.val[out[0]] == -1:
                self.root_conflict = True
            elif self.val[out[0]] == 0:
                self._assign(out[0], None)
            return
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)

    def _assign(self, lit: int, reason) -> None:
        """Make the free literal code ``lit`` true at the current level."""
        self.val[lit] = 1
        self.val[lit ^ 1] = -1
        v = lit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        val, watches, trail = self.val, self.watches, self.trail
        level, reason = self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            ws = watches[false_lit]
            if not ws:
                continue
            keep = watches[false_lit] = []
            for i, cl in enumerate(ws):
                first = cl[0]
                if first == false_lit:
                    first = cl[0] = cl[1]
                    cl[1] = false_lit
                first_val = val[first]
                if first_val == 1:
                    keep.append(cl)
                    continue
                for k in range(2, len(cl)):
                    lit = cl[k]
                    if val[lit] != -1:
                        cl[1], cl[k] = lit, false_lit
                        watches[lit].append(cl)
                        break
                else:
                    if first_val == -1:
                        keep += ws[i:]
                        self.qhead = len(trail)
                        return cl
                    keep.append(cl)
                    val[first] = 1
                    val[first ^ 1] = -1
                    v = first >> 1
                    level[v] = lvl
                    reason[v] = cl
                    trail.append(first)
        self.qhead = qhead
        return None

    def _analyze(self, confl):
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        level, reason, trail = self.level, self.reason, self.trail
        learnt = []
        seen = set()
        counter = 0
        p = None
        idx = len(trail) - 1
        btlevel = 0
        cur = len(self.trail_lim)
        while True:
            for q in (confl if p is None else confl[1:]):
                v = q >> 1
                lv = level[v]
                if v not in seen and lv > 0:
                    seen.add(v)
                    if lv == cur:
                        counter += 1
                    else:
                        learnt.append(q)
                        btlevel = max(btlevel, lv)
            while trail[idx] >> 1 not in seen:
                idx -= 1
            p = trail[idx]
            seen.discard(p >> 1)
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            confl = reason[p >> 1]
        return [p ^ 1] + learnt, btlevel

    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) > level:
            mark = self.trail_lim[level]
            val = self.val
            for lit in self.trail[mark:]:
                val[lit] = val[lit ^ 1] = 0
            del self.trail[mark:]
            del self.trail_lim[level:]
        self.qhead = len(self.trail)

    def _record(self, learnt) -> None:
        if len(learnt) > 1:
            # watch the asserting literal and a literal from the backjump level
            best = max(range(1, len(learnt)), key=lambda i: self.level[learnt[i] >> 1])
            learnt[1], learnt[best] = learnt[best], learnt[1]
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
        self._assign(learnt[0], learnt)  # a unit's reason, at level 0, is never read

    def solve(self, max_conflicts: Optional[int] = None) -> SatVerdict:
        if self.root_conflict:
            return SatVerdict(status=UNSAT)
        branch_from = 1
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    return SatVerdict(status=UNSAT, conflicts=self.conflicts,
                                      decisions=self.decisions)
                if max_conflicts is not None and self.conflicts > max_conflicts:
                    return SatVerdict(status=UNKNOWN, conflicts=self.conflicts,
                                      decisions=self.decisions)
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                self._record(learnt)
                branch_from = 1
                continue
            try:
                # both codes of a free variable hold 0
                v = self.val.index(0, 2 * branch_from) >> 1
            except ValueError:
                model = [w * self.val[2 * w] for w in range(1, self.nvars + 1)]
                return SatVerdict(status=SAT, model=model,
                                  conflicts=self.conflicts, decisions=self.decisions)
            branch_from = v
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._assign(2 * v, None)  # deterministic: lowest index, true first


def check_model(formula: CnfFormula, model) -> bool:
    truth = {abs(lit): lit > 0 for lit in model}
    for cl in formula.clauses:
        if not any(truth.get(abs(lit), False) == (lit > 0) for lit in cl):
            return False
    return True


def solve(formula: CnfFormula, max_conflicts: Optional[int] = None) -> SatVerdict:
    """Solve a CNF formula.  SAT models are re-validated before returning."""
    verdict = _Solver(formula).solve(max_conflicts=max_conflicts)
    if verdict.status == SAT and not check_model(formula, verdict.model):
        raise RamseyError("solver returned a model that fails re-validation")
    return verdict


# ---------------------------------------------------------------------------
# DIMACS and solver-output formats


def export_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.var_count} {len(formula.clauses)}\n"]
    for cl in formula.clauses:
        lines.append(" ".join(map(str, cl)) + " 0\n")
    return "".join(lines)


def parse_dimacs(text: str) -> CnfFormula:
    var_count = None
    declared = None
    clauses = []
    current = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise MalformedInputError(f"bad problem line: {line!r}")
            var_count, declared = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if current:
                    clauses.append(current)
                    current = []
            else:
                current.append(lit)
    if current:
        raise MalformedInputError("last clause is not 0-terminated")
    if var_count is None:
        raise MalformedInputError("missing 'p cnf' header")
    if declared is not None and declared != len(clauses):
        raise MalformedInputError(
            f"header declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(var_count=var_count, clauses=clauses)


def format_solver_output(verdict: SatVerdict) -> str:
    if verdict.status == SAT:
        lits = " ".join(map(str, verdict.model))
        return f"s SATISFIABLE\nv {lits} 0\n"
    if verdict.status == UNSAT:
        return "s UNSATISFIABLE\n"
    return "s UNKNOWN\n"
