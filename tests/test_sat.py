"""CNF encoding, the bundled solver, and DIMACS interchange."""

import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab import sat as satmod
from ramseylab.errors import MalformedInputError, RamseyError
from ramseylab.patterns import parse_pattern
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


@pytest.mark.parametrize("N", range(1, 9))
def test_symmetry_break_preserves_verdict(N):
    schema = parse_pattern("{x, y, x+y}")
    plain, _ = encode_avoidance(schema, N, 2)
    broken, _ = encode_avoidance(schema, N, 2, symmetry_break=True)
    assert solve(plain).status == solve(broken).status


def test_decode_requires_exactly_one_color():
    vmap = ColorVarMap(N=2, c=2)
    with pytest.raises(RamseyError):
        vmap.decode((1, 2, 3, -4))  # value 1 got both colors
