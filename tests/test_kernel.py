"""Differential tests of the compiled instance scan.

Two references check it, neither of which reads :class:`TermPlan`.  Brute
force enumerates [min_value..N]^k with ``itertools.product`` in
lexicographic order, evaluates every term with ``eval_term`` and keeps the
assignments whose values all land in [1..N].  :func:`walk` is a
plain-Python walk written from the rules in :class:`TermPlan`'s docstring;
it reaches boxes that brute force cannot, and it raises on overflow where
the scan must.  Budget verdicts are checked against the scan's exact rule:
a budget of B leaves answers when the scan stops within B leaves, and
otherwise leaf B + 1 raises with ``nodes`` B + 1.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab.colorings import Coloring, make_coloring
from ramseylab.errors import BudgetExceededError, ValueOverflowError
from ramseylab.patterns import (Add, Const, Mul, TermPlan, Var,
                                compile_scan, eval_term, instance_value_sets,
                                parse_pattern, schema_from_terms,
                                term_variables)
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


def walk(schema, N):
    """(assignment tuple, value tuple) of every in-box assignment, in order:
    one loop per variable, in schema order, over [min_value..N], skipping
    under ``distinct_vars`` a value that an earlier variable holds; each
    term evaluated by ``eval_term`` once its last variable is bound, the
    first one above N ending its loop; a constant term above N ends the
    walk."""
    names, terms = schema.variables, schema.terms
    last = [max((names.index(v) for v in term_variables(t)), default=-1)
            for t in terms]
    values = [eval_term(t, {}) if j < 0 else None
              for t, j in zip(terms, last)]
    if any(j < 0 and v > N for v, j in zip(values, last)):
        return
    ready = [[i for i, j in enumerate(last) if j == level]
             for level in range(len(names))]
    held = [None] * len(names)

    def loop(j):
        if j == len(names):
            yield tuple(held), tuple(values)
            return
        for v in range(schema.min_value, N + 1):
            if schema.distinct_vars and v in held[:j]:
                continue
            held[j] = v
            asg = dict(zip(names, held[:j + 1]))
            for i in ready[j]:
                values[i] = eval_term(terms[i], asg)
                if values[i] > N:
                    return
            yield from loop(j + 1)

    yield from loop(0)


@functools.lru_cache(maxsize=8)
def walked(schema, N):
    """The walk's leaves, and the ValueOverflowError that ended it (None
    when it ran to the end)."""
    leaves = []
    try:
        leaves.extend(walk(schema, N))
    except ValueOverflowError as exc:
        return leaves, exc
    return leaves, None


def one_color_leaves(schema, N):
    """The compiled scan's leaves under one color, where every leaf is a
    hit, as (assignment tuple, value tuple)."""
    return [(asg, values) for _, asg, values
            in compile_scan(schema)(N, bytes(N + 1), -1) if values is not None]


def box_assignments(schema, N):
    """The compiled scan's leaves as assignment dicts."""
    return [dict(zip(schema.variables, asg))
            for asg, _ in one_color_leaves(schema, N)]


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
    assert walked(schema, N) == (want, None)
    assert one_color_leaves(schema, N) == want
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
    # pattern names that match the scan's own names change nothing
    schema = parse_pattern("{range, N, hi, v1 + v0, t0*2}")
    assert box_assignments(schema, 6) == [
        dict(zip(schema.variables, a)) for a, _ in brute_leaves(schema, 6)]
    # nor do names that match the scan's
    schema = parse_pattern("{C, S + n, k*2, hi}")
    col = make_coloring("random", 1, 5, 2, seed=4)
    query = InstanceQuery(schema=schema, coloring=col)
    assert find_all_instances_detailed(query, limit=None) == \
        walk_scan(schema, col, None, None)


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
    assert walked(schema, 3) == (one_color_leaves(schema, 3), None)


# ---------------------------------------------------------------------------
# the compiled scan against the colour test over the walk's leaves


def walk_scan(schema, coloring, max_nodes, limit=1):
    """The instance scan as a Python loop over the walk's leaves: count the
    leaf, stop past the budget, then test its colours; after the last leaf,
    raise the overflow that ended the walk, if one did."""
    leaves_walked, overflow = walked(schema, coloring.N)
    colors = coloring.value_table()
    hits = []
    leaves = 0
    for asg, values in leaves_walked:
        leaves += 1
        if max_nodes is not None and leaves > max_nodes:
            raise BudgetExceededError.past(max_nodes)
        color = colors[values[0]]
        if all(colors[v] == color for v in values):
            hits.append((dict(zip(schema.variables, asg)), color))
            if limit is not None and len(hits) >= limit:
                return hits, leaves
    if overflow is not None:
        raise ValueOverflowError(str(overflow))
    return hits, leaves


def outcome(scan, *args):
    try:
        return scan(*args)
    except BudgetExceededError as exc:
        return "budget", str(exc), exc.nodes
    except ValueOverflowError as exc:
        return "overflow", str(exc)


def leaves_before_overflow(schema, N):
    """The leaves that the walk and the compiled scan each visit before
    they raise :class:`ValueOverflowError` (None for one that does not).
    Under one colour every scan leaf is a hit, so the index of the scan's
    last hit is its leaf count."""
    leaves, overflow = walked(schema, N)
    walk_count = len(leaves) if overflow else None
    visited = 0
    try:
        for n, _, values in compile_scan(schema)(N, bytes(N + 1), -1):
            if values is not None:
                visited = n
    except ValueOverflowError:
        return walk_count, visited
    return walk_count, None


def assert_scans_agree(schema, col, limits=(1, 3, None), budgets=()):
    query = InstanceQuery(schema=schema, coloring=col)
    for limit in limits:
        base = outcome(walk_scan, schema, col, None, limit)
        leaves = base[1] if isinstance(base[1], int) else 0
        for budget in (-1, 0, 1, leaves - 1, leaves, None) + tuple(budgets):
            want = outcome(walk_scan, schema, col, budget, limit)
            assert outcome(find_all_instances_detailed, query, limit,
                           budget) == want, (limit, budget)
            if limit == 1 and want[0] not in ("budget", "overflow"):
                hits, leaves_1 = want
                assert find_instance_detailed(query, budget) == \
                    (hits[0] if hits else None, leaves_1)


# besides small terms, at most one extra term: a constant up to 40, on
# either side of N, or a term that 2**62 or 2**63 - 1 takes past the cap
_big_terms = st.builds(lambda k, t, op: op(Const(k), t),
                       st.sampled_from([2 ** 62, 2 ** 63 - 1]), _terms,
                       st.sampled_from([Add, Mul]))
_extra_terms = st.one_of(st.just([]), st.integers(1, 40).map(Const),
                         _big_terms).map(lambda t: [t] if t else [])
scan_schemas = st.builds(
    lambda terms, extra, distinct, lo: schema_from_terms(terms + extra,
                                                         distinct, lo),
    st.lists(_terms, min_size=1, max_size=4), _extra_terms, st.booleans(),
    st.integers(1, 3))


@given(scan_schemas, st.integers(1, 30), st.integers(1, 3),
       st.integers(0, 99), st.booleans())
@settings(max_examples=200, deadline=None)
def test_compiled_scan_matches_walk_scan(schema, N, c, seed, lazy):
    col = make_coloring("random", 1, N, c, seed=seed,
                        cell_budget=0 if lazy else N)
    assert (col.cells is None) == lazy
    assert_scans_agree(schema, col)
    walked_leaves, scan = leaves_before_overflow(schema, N)
    assert walked_leaves == scan


def test_overflow_stops_both_scans_at_the_same_leaf():
    # x**64 * y is y while x = 1 and past the cap from x = 2, y = 1 on
    schema = parse_pattern("{x, y, " + "x*" * 64 + "y}")
    assert leaves_before_overflow(schema, 9) == (9, 9)
    for col in (make_coloring("constant", 1, 9, 1, (0,)),
                make_coloring("parity", 1, 9, 2)):
        assert_scans_agree(schema, col, budgets=(8, 9, 10))
        with pytest.raises(ValueOverflowError):
            find_all_instances_detailed(
                InstanceQuery(schema=schema, coloring=col), limit=None)


def test_scan_of_a_constant_pattern():
    # no loops at all: one leaf, or none once the constant leaves the box
    for N in (4, 5, 6):
        col = make_coloring("parity", 1, N, 2)
        assert_scans_agree(parse_pattern("{5}"), col)
        assert_scans_agree(parse_pattern("{5, 3}"), col)


def test_scan_count_carries_across_generated_functions():
    # the chain of test_many_variables_chain_generated_functions: loops 17
    # to 22 run in a second generated function, which must go on counting
    names = [f"x{i:02d}" for i in range(1, 23)]
    schema = schema_from_terms(
        [Add(Var(a), Var(b)) for a, b in zip(names, names[1:])])
    one = make_coloring("constant", 1, 3, 1, (0,))
    scan = compile_scan(schema)(3, one.value_table(), -1)
    assert [n for n, _, _ in scan] == list(range(1, 46369)) + [46368]
    # parity: every sum is 2 (all ones) or every sum is 3 (alternating)
    parity = make_coloring("parity", 1, 3, 2)
    assert len(walk_scan(schema, parity, None, None)[0]) == 3
    for col in (one, parity):
        assert_scans_agree(schema, col, limits=(1, 3),
                           budgets=(46367, 46368, 46369))
    assert_scans_agree(schema, parity, limits=(None,),
                       budgets=(46367, 46368, 46369))
