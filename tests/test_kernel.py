"""Differential tests of the compiled in-box kernel against brute force.

The reference enumerates [min_value..N]^k with ``itertools.product`` in
lexicographic order, evaluates every term with ``eval_term`` and keeps the
assignments whose values all land in [1..N].  Budget verdicts are checked
against the scan's exact rule: a budget of B leaves answers when the scan
stops within B leaves, and otherwise leaf B + 1 raises with ``nodes`` B + 1.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab.colorings import Coloring, make_coloring
from ramseylab.errors import BudgetExceededError
from ramseylab.patterns import (Add, Const, Mul, TermPlan, Var,
                                compile_kernel, eval_term,
                                instance_value_sets, parse_pattern,
                                schema_from_terms)
from ramseylab.search import (InstanceQuery, find_all_instances_detailed,
                              find_instance_detailed)


def brute_leaves(schema, N):
    """(assignment tuple, value tuple) of every in-box assignment."""
    out = []
    for vals in itertools.product(range(schema.min_value, N + 1),
                                  repeat=len(schema.variables)):
        if schema.distinct_vars and len(set(vals)) != len(vals):
            continue
        asg = dict(zip(schema.variables, vals))
        values = tuple(eval_term(t, asg) for t in schema.terms)
        if max(values) <= N:
            out.append((vals, values))
    return out


def box_assignments(schema, N):
    """The kernel's leaves as assignment dicts."""
    return [dict(zip(schema.variables, asg))
            for asg, _ in compile_kernel(schema)(N)]


def monochromatic(cells, values):
    return len({cells[v - 1] for v in values}) == 1


_names = st.sampled_from(["x", "y", "z"])
_terms = st.recursive(
    st.one_of(_names.map(Var), st.integers(1, 3).map(Const)),
    lambda sub: st.tuples(sub, sub).flatmap(
        lambda ab: st.sampled_from([Add(*ab), Mul(*ab)])),
    max_leaves=4)
schemas = st.builds(
    lambda terms, distinct, lo: schema_from_terms(terms, distinct, lo),
    st.lists(_terms, min_size=1, max_size=4), st.booleans(),
    st.integers(1, 3))


@given(schemas, st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_brute_force(schema, N):
    want = brute_leaves(schema, N)
    assert list(compile_kernel(schema)(N)) == want
    assert instance_value_sets(schema, N) == sorted(
        {tuple(sorted(set(values))) for _, values in want})


@given(schemas, st.integers(1, 30), st.integers(1, 3), st.integers(0, 99))
@settings(max_examples=150, deadline=None)
def test_scan_matches_brute_force(schema, N, c, seed):
    col = make_coloring("random", 1, N, c, seed=seed)
    query = InstanceQuery(schema=schema, coloring=col)
    leaves = brute_leaves(schema, N)
    hits = [(dict(zip(schema.variables, a)), col.cells[values[0] - 1])
            for a, values in leaves if monochromatic(col.cells, values)]
    stop = next((i + 1 for i, (_, values) in enumerate(leaves)
                 if monochromatic(col.cells, values)), len(leaves))

    assert find_instance_detailed(query) == (hits[0] if hits else None, stop)
    for limit in (None, 0, 1, 2, 5):
        keep = len(hits) if limit is None else max(limit, 1)
        assert find_all_instances_detailed(query, limit=limit)[0] == \
            hits[:keep]

    for budget in range(stop + 1):
        if budget >= stop:
            assert find_instance_detailed(query, max_nodes=budget)[1] == stop
        else:
            with pytest.raises(BudgetExceededError) as exc:
                find_instance_detailed(query, max_nodes=budget)
            assert exc.value.nodes == budget + 1


def test_budget_stops_at_the_leaf_past_it():
    # parity colors 2x+1000 and 2y+1 apart, so every one of the 50 * 549
    # leaves is visited, 549 per value of x; a budget stops at the leaf
    # past it wherever that falls, also across a change of x
    schema = parse_pattern("{2*x+1000, 2*y+1}")
    col = make_coloring("parity", 1, 1100, 2)
    query = InstanceQuery(schema=schema, coloring=col)
    total = 50 * 549
    assert find_instance_detailed(query) == (None, total)
    for budget in (0, 1, 511, 512, 548, 549, 550, 1024, 1098, total - 1):
        with pytest.raises(BudgetExceededError) as exc:
            find_instance_detailed(query, max_nodes=budget)
        assert exc.value.nodes == budget + 1
    assert find_instance_detailed(query, max_nodes=total) == (None, total)


def test_find_all_spends_its_budget():
    col = Coloring(d=1, N=6, c=1, cells=(0,) * 6)
    query = InstanceQuery(schema=parse_pattern("{x, y, x+y}"), coloring=col)
    assert len(find_all_instances_detailed(query, limit=None)[0]) == 15
    assert len(find_all_instances_detailed(query, limit=None,
                                           max_nodes=15)[0]) == 15
    with pytest.raises(BudgetExceededError) as exc:
        find_all_instances_detailed(query, limit=None, max_nodes=14)
    assert exc.value.nodes == 15


def test_kernel_source_has_no_pattern_text():
    schema = parse_pattern("{alpha, beta*gamma, 7*alpha+beta+gamma}")
    source = TermPlan(schema).source()
    assert not any(name in source for name in schema.variables)
    # pattern names that match the kernel's own names change nothing
    schema = parse_pattern("{range, N, hi, v1 + v0, t0*2}")
    assert box_assignments(schema, 6) == [
        dict(zip(schema.variables, a)) for a, _ in brute_leaves(schema, 6)]


def test_many_variables_chain_generated_functions():
    # x01+x02, ..., x21+x22 all <= 3: each variable is 1 or 2, never two
    # adjacent 2s; there are Fibonacci(24) such sequences
    names = [f"x{i:02d}" for i in range(1, 23)]
    schema = schema_from_terms(
        [Add(Var(a), Var(b)) for a, b in zip(names, names[1:])])
    got = [tuple(a[n] for n in names)
           for a in box_assignments(schema, 3)]
    assert len(got) == 46368
    assert got == sorted(got)
    assert all(a + b <= 3 for seq in got for a, b in zip(seq, seq[1:]))
