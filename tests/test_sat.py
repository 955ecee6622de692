"""CNF encoding, the bundled solver, and DIMACS interchange."""

import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab import sat as satmod
from ramseylab.errors import MalformedInputError, RamseyError
from ramseylab.patterns import instance_value_sets, parse_pattern
from ramseylab.sat import (CnfFormula, ColorVarMap, check_model,
                           encode_avoidance, export_dimacs, parse_dimacs,
                           solve)

DATA = pathlib.Path(__file__).parent / "data"


def test_var_map_layout():
    vmap = ColorVarMap(N=3, c=2)
    assert vmap.var_count == 6
    assert [vmap.var(n, j) for n in (1, 2, 3) for j in (0, 1)] == \
        [1, 2, 3, 4, 5, 6]


def test_encode_counts_schur_n5():
    formula, vmap = encode_avoidance(parse_pattern("{x, y, x+y}"), 5, 2)
    assert formula.var_count == 10
    assert len(formula.clauses) == 22


def test_symmetry_break_prepends_unit():
    formula, _ = encode_avoidance(parse_pattern("{x, y, x+y}"), 5, 2,
                                  symmetry_break=True)
    assert tuple(formula.clauses[0]) == (1,)


def test_golden_dimacs_bytes():
    formula, _ = encode_avoidance(parse_pattern("{x, y, x+y}"), 4, 2)
    golden = (DATA / "schur_n4_c2.cnf").read_text()
    assert export_dimacs(formula) == golden


def test_golden_solves_to_known_coloring():
    formula = parse_dimacs((DATA / "schur_n4_c2.cnf").read_text())
    verdict = solve(formula)
    assert verdict.status == satmod.SAT
    vmap = ColorVarMap(N=4, c=2)
    assert vmap.decode(verdict.model).cells == (0, 1, 1, 0)


def test_singleton_instances_emit_unit_clauses():
    # {x, 2*x} at N=2 admits x=1 -> {1, 2}; but a pure square {x*x}? use a
    # pattern whose instance is a single value: {x, x} collapses to {x}.
    schema = parse_pattern("{x+x}")
    formula, _ = encode_avoidance(schema, 4, 2)
    units = [cl for cl in formula.clauses if len(cl) == 1]
    # values 2 and 4 are singleton instances: one unit per color each
    assert len(units) == 4
    verdict = solve(formula)
    assert verdict.status == satmod.UNSAT


def test_unsat_at_schur_threshold():
    formula, _ = encode_avoidance(parse_pattern("{x, y, x+y}"), 5, 2)
    assert solve(formula).status == satmod.UNSAT


def test_conflict_budget_returns_unknown():
    formula, _ = encode_avoidance(parse_pattern("{x, y, x+y}"), 14, 3)
    verdict = solve(formula, max_conflicts=1)
    assert verdict.status in (satmod.UNKNOWN, satmod.UNSAT)


def test_dimacs_round_trip():
    f = CnfFormula(var_count=3, clauses=((1, -2), (2, 3), (-1,)))
    again = parse_dimacs(export_dimacs(f))
    assert again.var_count == 3
    assert tuple(tuple(c) for c in again.clauses) == f.clauses


def test_parse_dimacs_handles_comments_and_linebreaks():
    f = parse_dimacs("c hello\np cnf 2 2\n1\n-2 0\nc mid\n2 1 0\n")
    assert len(f.clauses) == 2
    assert tuple(f.clauses[0]) == (1, -2)


@pytest.mark.parametrize("bad", [
    "", "p cnf 2\n1 0\n", "p cnf 2 1\n1 3 0\n", "p cnf 2 2\n1 0\n",
    "p cnf 2 1\n1 0\n2 0\n",
])
def test_parse_dimacs_rejects_malformed(bad):
    with pytest.raises(MalformedInputError):
        parse_dimacs(bad)


def test_solver_output_round_trip():
    # the competition-style text that solve --out writes
    verdict = satmod.SatVerdict(status=satmod.SAT, model=(1, -2, 3))
    assert satmod.format_solver_output(verdict) == \
        "s SATISFIABLE\nv 1 -2 3 0\n"
    assert satmod.format_solver_output(
        satmod.SatVerdict(status=satmod.UNSAT)) == "s UNSATISFIABLE\n"
    assert satmod.format_solver_output(
        satmod.SatVerdict(status=satmod.UNKNOWN)) == "s UNKNOWN\n"


def _brute_sat(formula):
    n = formula.var_count
    for bits in itertools.product((False, True), repeat=n):
        ok = True
        for clause in formula.clauses:
            if not any((lit > 0) == bits[abs(lit) - 1] for lit in clause):
                ok = False
                break
        if ok:
            return True
    return False


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.sampled_from(
            [v for v in range(-n, n + 1) if v != 0]),
            min_size=1, max_size=3).map(tuple),
            min_size=1, max_size=10))))
@settings(max_examples=300, deadline=None)
def test_solver_agrees_with_brute_force(case):
    n, clauses = case
    formula = CnfFormula(var_count=n, clauses=tuple(clauses))
    verdict = solve(formula)
    assert verdict.status in (satmod.SAT, satmod.UNSAT)
    assert (verdict.status == satmod.SAT) == _brute_sat(formula)
    if verdict.status == satmod.SAT:
        assert check_model(formula, verdict.model)


def _repeating(formula):
    """The formula with every clause's first literal doubled, every unit
    repeated and a tautology after every third clause."""
    clauses = []
    for i, cl in enumerate(formula.clauses):
        clauses.append([cl[0]] + list(cl))
        if len(cl) == 1:
            clauses.append(list(cl))
        if i % 3 == 2:
            v = abs(cl[-1])
            clauses.append([v, -v] + list(cl))
    return CnfFormula(var_count=formula.var_count, clauses=clauses)


def _outcome(verdict):
    return verdict.status, verdict.conflicts, verdict.decisions, verdict.model


# A DIMACS file may repeat a literal, hold a tautology or repeat a unit.
# solve() hands the solver each clause without its repeats and skips
# tautologies, so such a file keeps the verdict and node count of the
# formula without them.  (Before phase saving the pins read 6 + 9, 23 + 23
# and 194 + 200, the counts of the solver that dropped repeats itself.)
@pytest.mark.parametrize("pattern, N, c, status, conflicts, decisions", [
    ("{x, y, x+y}", 13, 3, satmod.SAT, 15, 24),
    ("{x, y, x+y}", 14, 3, satmod.UNSAT, 22, 28),
    ("{a, a+d, a+2*d}", 26, 3, satmod.SAT, 256, 295),
])
def test_dimacs_repeats_keep_verdicts_and_node_counts(pattern, N, c, status,
                                                      conflicts, decisions):
    formula, _ = encode_avoidance(parse_pattern(pattern), N, c,
                                  symmetry_break=True)
    text = export_dimacs(_repeating(formula))
    assert len(text.splitlines()) > len(formula.clauses) + 1
    got = solve(parse_dimacs(text))
    assert got.status == status
    assert (got.conflicts, got.decisions) == (conflicts, decisions)
    assert _outcome(got) == _outcome(solve(formula))


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.sampled_from(
            [v for v in range(-n, n + 1) if v != 0]),
            min_size=1, max_size=5),
            min_size=1, max_size=14))))
@settings(max_examples=300, deadline=None)
def test_solve_reads_a_formula_as_its_simple_form(case):
    # the same run as on the clauses without repeats or tautologies
    n, clauses = case
    simple = []
    for cl in clauses:
        lits = list(dict.fromkeys(cl))
        if len({abs(lit) for lit in lits}) == len(lits):
            simple.append(lits)
    got = solve(CnfFormula(var_count=n, clauses=clauses))
    assert _outcome(got) == _outcome(
        solve(CnfFormula(var_count=n, clauses=simple, simple=True)))


@pytest.mark.parametrize("N", range(1, 9))
def test_symmetry_break_preserves_verdict(N):
    schema = parse_pattern("{x, y, x+y}")
    plain, _ = encode_avoidance(schema, N, 2)
    broken, _ = encode_avoidance(schema, N, 2, symmetry_break=True)
    assert solve(plain).status == solve(broken).status


_GRID_PATTERNS = ["{x, y, x+y}", "{a, a+d, a+2*d}", "{x, 2*x}", "{5}",
                  "{a*x, a*y, x*y, a*(x+y)}", "{u+b, v+b, u*v+b, u+v}"]


def _occurring(schema, N):
    return sorted({v for values in instance_value_sets(schema, N)
                   for v in values})


@pytest.mark.parametrize("pattern", _GRID_PATTERNS)
@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("min_value", [1, 2])
@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_color_order_block_keeps_every_verdict(pattern, distinct, min_value,
                                               c):
    # every avoiding colouring has a relabelling in canonical order over
    # the occurring values, so the block never turns sat into unsat; and
    # every model it admits is in that order
    schema = parse_pattern(pattern, distinct_vars=distinct,
                           min_value=min_value)
    for N in range(1, 22):
        plain, _ = encode_avoidance(schema, N, c)
        broken, vmap = encode_avoidance(schema, N, c, symmetry_break=True)
        verdict = solve(broken)
        assert verdict.status == solve(plain).status, N
        if verdict.status == satmod.SAT:
            cells = vmap.decode(verdict.model).cells
            top = -1
            for v in _occurring(schema, N):
                assert cells[v - 1] <= top + 1, (N, v, cells)
                top = max(top, cells[v - 1])


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_color_order_block_layout(c):
    # the block comes first, and its auxiliary variables y(i, j), i in
    # [0..|occ|-2] and j in [1..c-2], follow the N*c colour variables
    schema = parse_pattern("{x, 2*x}")
    occ = _occurring(schema, 10)  # [1..5] and 6, 8, 10
    plain, vmap = encode_avoidance(schema, 10, c)
    broken, _ = encode_avoidance(schema, 10, c, symmetry_break=True)
    added = len(broken.clauses) - len(plain.clauses)
    assert broken.clauses[0] == [vmap.var(1, 0)]
    assert broken.clauses[added:] == plain.clauses
    assert broken.var_count == 10 * c + (len(occ) - 1) * max(c - 2, 0)
    assert max(map(len, broken.clauses[:added])) <= 3


def test_color_order_block_golden():
    # {x, 2*x} at N=4, c=3: occ = [1, 2, 4], x(n, j) = 3(n-1) + j + 1,
    # y(0, 1) = 13 and y(1, 1) = 14
    broken, _ = encode_avoidance(parse_pattern("{x, 2*x}"), 4, 3,
                                 symmetry_break=True)
    assert broken.var_count == 14
    assert broken.clauses[:8] == [
        [1],                                  # occ[0] = 1 gets colour 0
        [-2, 13], [-13, 2],                   # y(0, 1) <-> x(1, 1)
        [-6, 13],                             # x(2, 2) -> y(0, 1)
        [-5, 14], [-13, 14], [-14, 5, 13],    # y(1, 1) <-> x(2, 1) | y(0, 1)
        [-12, 14],                            # x(4, 2) -> y(1, 1)
    ]
    assert broken.clauses[8] == [1, 2, 3]  # then the exactly-one blocks


def test_color_order_block_is_linear():
    # 4 clauses per (occurring value, colour in [1..c-2]) at most, plus
    # the unit; the quadratic long-clause form would need ~|occ|^2 / 2
    schema = parse_pattern("{x, 2*x}")
    plain, _ = encode_avoidance(schema, 2000, 3)
    broken, _ = encode_avoidance(schema, 2000, 3, symmetry_break=True)
    occ = _occurring(schema, 2000)  # [1..1000] and the even values above
    assert len(occ) == 1500
    added = len(broken.clauses) - len(plain.clauses)
    assert added <= 4 * len(occ) * (3 - 2) + 1


def test_color_order_block_starts_at_the_least_occurring_value():
    # {u+b, v+b, u*v+b, u+v} with --distinct never uses 1 or 2: the unit
    # pins the least value of any instance, not value 1
    schema = parse_pattern("{u+b, v+b, u*v+b, u+v}", distinct_vars=True)
    occ = _occurring(schema, 25)
    assert occ[0] > 1
    broken, vmap = encode_avoidance(schema, 25, 3, symmetry_break=True)
    assert broken.clauses[0] == [vmap.var(occ[0], 0)]


def test_color_order_block_needs_an_instance():
    # no instance in the box: nothing to order, no unit
    plain, _ = encode_avoidance(parse_pattern("{5}"), 4, 3)
    broken, _ = encode_avoidance(parse_pattern("{5}"), 4, 3,
                                 symmetry_break=True)
    assert broken.clauses == plain.clauses
    assert broken.var_count == plain.var_count


def test_check_model_counts_a_missing_variable_as_false():
    f = CnfFormula(var_count=3, clauses=((1, -2), (-3,)))
    assert check_model(f, (1,))
    assert check_model(f, (-1, -2))
    assert not check_model(f, (-1, 2))
    assert not check_model(f, (1, 3))
    assert check_model(f, ())


def test_decode_requires_exactly_one_color():
    vmap = ColorVarMap(N=2, c=2)
    with pytest.raises(RamseyError):
        vmap.decode((1, 2, 3, -4))  # value 1 got both colors
