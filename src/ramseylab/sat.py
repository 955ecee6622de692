"""CNF encoding of avoidance problems and a small deterministic CDCL solver.

Variable map: integer n taking color j is the variable (n-1)*c + j + 1, a
pure function of (N, c).  The avoidance encoding emits, in this frozen
order: the optional canonical colour-order block, then per-n exactly-one
blocks (at-least-one clause followed by pairwise at-most-one clauses),
then one clause per (instance value set, color) forbidding that set from
being monochromatic in that color.  Value sets are deduplicated and
emitted in sorted order, so the encoding is stable byte-for-byte.

The colour-order block (``symmetry_break=True``) ranges over occ, the
sorted values that occur in some value set.  occ[0] gets colour 0, and
colour j >= 2 may colour occ[i] only once colour j-1 has coloured one of
occ[0..i-1] (first-use order; Heule, *Schur Number Five*, AAAI 2018).
It is stated through auxiliary variables y(i, j), "colour j colours one
of occ[0..i]" for i in [0..|occ|-2] and j in [1..c-2], numbered after
the N*c colour variables as N*c + i*(c-2) + j: at most 4 clauses of
width <= 3 per (i, j), plus the unit.  Permuting the colours of an
avoiding colouring gives an avoiding colouring, and values outside occ
are in no instance, so some relabelling of every avoiding colouring
satisfies the block: it never changes the verdict.

The solver is a first-UIP CDCL with two-watched-literal propagation.  It
branches on the lowest-index unassigned variable, in that variable's
saved phase: the polarity it last held on the trail, true before it has
held one (phase saving; Pipatsrisawat & Darwiche, SAT 2007).  Up to the
first conflict every decision is true, as without saved phases; after
it, a model need not be the lexicographically least.  The solver never
restarts and never deletes a learnt clause.  It reads each input clause
as given: no encoder clause repeats a variable, and :func:`solve` drops
the repeated literals and tautologies of any other formula first, which
changes no verdict or node count.  Inside it the literal v is coded 2v
and -v is 2v+1 (negation is ``code ^ 1``; CPython's fast list subscript
takes no negative index), and codes index flat lists: ``val[code]`` is
the literal's truth value, ``watches[code]`` its watch list, ``phase[v]``
the saved phase (0 true, 1 false) that a decision adds to 2v.  The
branching and propagation order, down to the order of watch lists and of
the literals in each clause, is frozen: node counts are part of the
report contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .colorings import Coloring
from .errors import BudgetExceededError, MalformedInputError, RamseyError
from .patterns import LEAF_BUDGET, PatternSchema, instance_value_sets

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass
class CnfFormula:
    var_count: int
    clauses: list
    # True when no clause repeats a variable, as in every encoder clause;
    # :func:`solve` hands any other formula to the solver without its
    # repeated literals and tautologies
    simple: bool = field(default=False, compare=False)

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
    other engines.  When the exactly-one blocks alone, N*(1 + c(c-1)/2)
    clauses, pass :data:`ramseylab.patterns.LEAF_BUDGET`, it raises
    :class:`BudgetExceededError` before it builds anything.
    """
    if N < 1 or c < 1:
        raise MalformedInputError("encode_avoidance needs N >= 1 and c >= 1")
    if N * (1 + c * (c - 1) // 2) > LEAF_BUDGET:
        raise BudgetExceededError.past(LEAF_BUDGET)
    vmap = ColorVarMap(N=N, c=c)
    first = range(1 - c, N * c + 1, c)  # first[n] = var(n, 0), n in [1..N]
    value_sets = instance_value_sets(schema, N)
    clauses = []
    var_count = N * c
    if symmetry_break:
        occ = sorted({v for values in value_sets for v in values})
        var_count += _color_order_block(clauses, [first[v] for v in occ],
                                        var_count, c)
    for n in range(1, N + 1):
        f = first[n]
        clauses.append(list(range(f, f + c)))
        for j1 in range(f, f + c):
            for j2 in range(j1 + 1, f + c):
                clauses.append([-j1, -j2])
    for values in value_sets:
        negs = [-first[v] for v in values]
        clauses.append(negs)
        for j in range(1, c):
            clauses.append([b - j for b in negs])
    return CnfFormula(var_count=var_count, clauses=clauses, simple=True), vmap


def _color_order_block(clauses, occ_first, aux_base, c) -> int:
    """Append the colour-order block of the module docstring, with
    ``occ_first[i]`` = var(occ[i], 0) and y(i, j) = aux_base + i*(c-2) + j,
    and return the number of auxiliary variables it adds.  Clause order:
    the unit on occ[0], then per occ[i] the clauses (not x(occ[i], j+1) or
    y(i-1, j)) for j in [1..c-2] (i >= 1), then y(i, j)'s definition
    (i <= |occ|-2): x(occ[i], j) implies y(i, j); y(i-1, j) implies
    y(i, j); y(i, j) implies x(occ[i], j) or y(i-1, j).
    """
    if not occ_first:
        return 0
    clauses.append([occ_first[0]])
    width = c - 2
    if width <= 0:
        return 0
    last = len(occ_first) - 1
    for i, f in enumerate(occ_first):
        y = aux_base + i * width  # y(i, j) = y + j, y(i-1, j) = y + j - width
        if i:
            for j in range(1, c - 1):
                clauses.append([-(f + j + 1), y + j - width])
        if i == last:
            break
        for j in range(1, c - 1):
            x, yj = f + j, y + j
            clauses.append([-x, yj])
            if i:
                clauses.append([-(yj - width), yj])
                clauses.append([-yj, x, yj - width])
            else:
                clauses.append([-yj, x])
    return last * width


# ---------------------------------------------------------------------------
# solver


class _Solver:
    def __init__(self, formula: CnfFormula):
        n = self.nvars = formula.var_count
        self.val = [0] * (2 * n + 2)  # by literal code: +1 true, -1 false, 0 free
        self.watches = [[] for _ in range(2 * n + 2)]
        self.level = [0] * (n + 1)
        self.reason = [None] * (n + 1)
        self.phase = [0] * (n + 1)  # saved polarity: 0 true, 1 false
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.conflicts = 0
        self.decisions = 0
        self.root_conflict = False
        # code_of[lit] is the code of the signed literal lit (a negative
        # lit indexes from the end); one int per code, since ints above 256
        # are not cached
        code_of = [0] * (2 * n + 1)
        code_of[1:n + 1] = range(2, 2 * n + 2, 2)
        code_of[n + 1:] = range(2 * n + 1, 2, -2)
        val, watches, code = self.val, self.watches, code_of.__getitem__
        # each clause is read as given: no clause repeats a variable (see
        # :func:`solve`), so its code list is the solver's own clause
        for cl in formula.clauses:
            lits = list(map(code, cl))
            if len(lits) > 1:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif not val[lits[0]]:
                self._assign(lits[0], None)
            elif val[lits[0]] == -1:
                self.root_conflict = True

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
            put = keep.append
            for cl in ws:
                # a clause whose other watch is true stays as it is: its
                # watches are put back in order before it is next read
                first = cl[0]
                if first == false_lit:
                    first = cl[1]
                    first_val = val[first]
                    if first_val == 1:
                        put(cl)
                        continue
                    cl[0] = first
                    cl[1] = false_lit
                else:
                    first_val = val[first]
                    if first_val == 1:
                        put(cl)
                        continue
                k, size = 2, len(cl)
                while k < size:
                    lit = cl[k]
                    if val[lit] != -1:
                        cl[1], cl[k] = lit, false_lit
                        watches[lit].append(cl)
                        break
                    k += 1
                else:
                    if first_val == -1:
                        keep += ws[next(i for i, w in enumerate(ws)
                                        if w is cl):]
                        self.qhead = len(trail)
                        return cl
                    put(cl)
                    val[first] = 1
                    val[first ^ 1] = -1
                    v = first >> 1
                    level[v] = lvl
                    reason[v] = cl
                    trail.append(first)
        self.qhead = qhead
        return None

    def _analyze(self, confl):
        """First-UIP conflict analysis; returns (learnt clause, backjump
        level).  The learnt clause starts with the asserting literal, and
        its second literal is the first one from the backjump level."""
        level, reason, trail = self.level, self.reason, self.trail
        learnt = [0]
        seen = set()
        counter = 0
        p = None
        idx = len(trail) - 1
        btlevel = best = 0
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
                        if lv > btlevel:
                            btlevel, best = lv, len(learnt)
                        learnt.append(q)
            while trail[idx] >> 1 not in seen:
                idx -= 1
            p = trail[idx]
            seen.discard(p >> 1)
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            confl = reason[p >> 1]
        learnt[0] = p ^ 1
        if best:
            learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, btlevel

    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) > level:
            mark = self.trail_lim[level]
            val, phase = self.val, self.phase
            for lit in self.trail[mark:]:
                val[lit] = val[lit ^ 1] = 0
                phase[lit >> 1] = lit & 1
            del self.trail[mark:]
            del self.trail_lim[level:]
        self.qhead = len(self.trail)

    def _record(self, learnt) -> None:
        if len(learnt) > 1:
            # watch the asserting literal and a literal from the backjump level
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
            self._assign(2 * v + self.phase[v], None)


def check_model(formula: CnfFormula, model) -> bool:
    """True iff every clause has a true literal; a variable the model
    leaves out counts as false."""
    truth = {abs(lit): lit > 0 for lit in model}
    true = {v if truth.get(v) else -v
            for v in range(1, formula.var_count + 1)}
    return not any(map(true.isdisjoint, formula.clauses))


def solve(formula: CnfFormula, max_conflicts: Optional[int] = None) -> SatVerdict:
    """Solve a CNF formula.  SAT models are re-validated before returning.
    Unless the formula is ``simple``, the solver reads each clause without
    its repeated literals (first occurrences kept, in order) and skips
    tautologies, which constrain nothing: a DIMACS file's verdict and node
    count do not depend on how its clauses repeat themselves."""
    solver_input = formula
    if not formula.simple:
        clauses = []
        for cl in formula.clauses:
            lits = list(dict.fromkeys(cl))
            if len(set(map(abs, lits))) == len(lits):
                clauses.append(lits)
        solver_input = CnfFormula(formula.var_count, clauses, simple=True)
    verdict = _Solver(solver_input).solve(max_conflicts=max_conflicts)
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
