"""The budget rule every node-counting search follows.

A budget of B nodes gives the answer when the search needs at most B
nodes; otherwise node B + 1 stops it, and the error (or, for backtracking,
the ``unknown`` result) carries ``nodes`` B + 1.  The value sets the
avoidance engines read follow the same rule with the fixed budget
:data:`ramseylab.patterns.LEAF_BUDGET`.
"""

import tracemalloc

import pytest

from ramseylab.colorings import make_coloring
from ramseylab.errors import BudgetExceededError
from ramseylab.hindman import (find_fs_witness_detailed,
                               find_grid_witness_detailed,
                               find_scaled_bundle_detailed,
                               find_scaled_quad_detailed,
                               find_shifted_bundle_detailed)
from ramseylab import patterns
from ramseylab import sat as satmod
from ramseylab.patterns import LEAF_BUDGET, instance_value_sets, parse_pattern
from ramseylab.search import (ENGINES, InstanceQuery,
                              find_all_instances_detailed,
                              find_avoiding_coloring, find_instance_detailed,
                              threshold_number)


def _random(N, c=2, seed=0):
    return make_coloring("random", 1, N, c, seed=seed)


def _query(pattern, coloring):
    return InstanceQuery(schema=parse_pattern(pattern), coloring=coloring)


def _avoid(pattern, N, c):
    """Backtracking as (answer, nodes), raising where it reports unknown."""
    schema = parse_pattern(pattern)

    def search(budget):
        res = find_avoiding_coloring(schema, N, c, max_nodes=budget)
        if res.verdict == "unknown":
            raise BudgetExceededError(nodes=res.stats.nodes)
        return (res.verdict, res.coloring), res.stats.nodes
    return search


# each case maps a budget to (answer, nodes); "-none" cases search the
# whole tree and find nothing
SEARCHES = {
    # found at leaf 13, x = 1 and y = 13
    "scan": lambda b: find_instance_detailed(
        _query("{x, y, x*y, x+y}", _random(60)), max_nodes=b),
    # parity colors 2x+100 and 2y+1 apart: all 25 * 74 leaves, none
    "scan-none": lambda b: find_instance_detailed(
        _query("{2*x+100, 2*y+1}", make_coloring("parity", 1, 150, 2)),
        max_nodes=b),
    # three hits, the last at leaf 52
    "find-all": lambda b: find_all_instances_detailed(
        _query("{x, y, 4*x+4*y}", _random(3000, 4, 1)), limit=3,
        max_nodes=b),
    "backtracking-sat": _avoid("{x, y, x+y}", 13, 3),
    "backtracking-unsat": _avoid("{x, y, x+y}", 14, 3),
    "fs": lambda b: find_fs_witness_detailed(_random(60), 3, budget=b),
    "fs-none": lambda b: find_fs_witness_detailed(_random(30, 3, 5), 4,
                                                  budget=b),
    "grid": lambda b: find_grid_witness_detailed(_random(60), 4, 2, budget=b),
    "grid-none": lambda b: find_grid_witness_detailed(_random(12, 3, 8), 4, 2,
                                                      budget=b),
    "bundle14": lambda b: find_scaled_bundle_detailed(_random(100), 2,
                                                      budget=b),
    "bundle14-none": lambda b: find_scaled_bundle_detailed(_random(16, 3, 8),
                                                           2, budget=b),
    "bundle15": lambda b: find_shifted_bundle_detailed(_random(40), 2,
                                                       budget=b),
    "bundle15-none": lambda b: find_shifted_bundle_detailed(_random(20, 3, 3),
                                                            2, budget=b),
    # the shifted quad always hits at its first leaf, u = v = b = 1
    "quad14": lambda b: find_scaled_quad_detailed(_random(60), max_nodes=b),
}


@pytest.mark.parametrize("name", list(SEARCHES))
def test_budget_rule(name):
    search = SEARCHES[name]
    answer, nodes = search(None)
    assert nodes > 7
    assert search(nodes) == (answer, nodes)
    for budget in (0, 1, 7, nodes - 1):
        with pytest.raises(BudgetExceededError) as exc:
            search(budget)
        assert exc.value.nodes == budget + 1
    with pytest.raises(BudgetExceededError) as exc:
        search(-1)
    assert exc.value.nodes == 1  # a negative budget acts as 0


@pytest.mark.parametrize("pattern, distinct, c", [
    ("{x, y, x+y}", False, 3),
    ("{x, y, x+y}", True, 3),
    ("{a, a+d, a+2*d}", False, 2),
    ("{a, a+d, a+2*d, a+3*d}", False, 2),
])
def test_backtracking_rows_do_not_shrink_while_sat(pattern, distinct, c):
    # the search at N + 1 walks the same tree in the same order, one level
    # deeper, so it visits at least the nodes the search at N did
    schema = parse_pattern(pattern, distinct_vars=distinct)
    res = threshold_number(schema, c, 40)
    assert res.status == "found"
    sat_nodes = [nodes for _, verdict, nodes, _ in res.rows if verdict == "sat"]
    assert len(sat_nodes) >= 8
    assert sat_nodes == sorted(sat_nodes)


def test_value_sets_stop_at_the_leaf_past_the_leaf_budget():
    # {x+y} has N(N-1)/2 leaves: LEAF_BUDGET - 948 at N = 1448 and
    # LEAF_BUDGET + 500 at N = 1449
    schema = parse_pattern("{x+y}")
    assert LEAF_BUDGET == 1 << 20
    assert instance_value_sets(schema, 1448) == [(s,) for s in range(2, 1449)]
    with pytest.raises(BudgetExceededError) as exc:
        instance_value_sets(schema, 1449)
    assert exc.value.nodes == LEAF_BUDGET + 1


def test_value_sets_refuse_a_box_past_the_leaf_budget_before_allocating():
    # {x+999999990} has 10 leaves in [1..10^9], but the one-color table of
    # the scan would take N + 1 bytes: the box alone is refused, at once
    schema = parse_pattern("{x+999999990}")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as exc:
            instance_value_sets(schema, 10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.nodes == LEAF_BUDGET + 1
    assert peak < 1 << 20
    # the bound is the box, LEAF_BUDGET values, not the leaves
    near = parse_pattern("{x+1048570}")
    assert instance_value_sets(near, LEAF_BUDGET) == [
        (v,) for v in range(1048571, LEAF_BUDGET + 1)]
    with pytest.raises(BudgetExceededError):
        instance_value_sets(near, LEAF_BUDGET + 1)


@pytest.mark.parametrize("engine", ENGINES)
def test_leaf_budget_gives_unknown_on_every_engine(monkeypatch, engine):
    # Schur's pattern has 6 leaves at N = 4 and 10 at N = 5
    monkeypatch.setattr(patterns, "LEAF_BUDGET", 6)
    schema = parse_pattern("{x, y, x+y}")
    assert len(instance_value_sets(schema, 4)) == 4
    assert find_avoiding_coloring(schema, 4, 2, engine=engine).verdict == "sat"
    res = find_avoiding_coloring(schema, 5, 2, engine=engine)
    assert (res.verdict, res.coloring, res.stats.nodes) == ("unknown", None, 7)
    # a threshold scan keeps its rows and its certificate up to that N
    res = threshold_number(schema, 2, 8, engine=engine)
    assert (res.status, res.threshold) == ("unknown", None)
    assert [row[1] for row in res.rows] == ["sat"] * 4 + ["unknown"]
    assert res.rows[-1][2] == 7
    assert res.certificate.N == 4


@pytest.mark.parametrize("engine, module, bound", [
    ("backtracking", patterns, 5),  # a box of N values, N > bound
    ("exhaustive", patterns, 5),
    ("sat", satmod, 20),  # N * (1 + C(3, 2)) exactly-one clauses > bound
])
def test_a_threshold_keeps_its_rows_before_a_box_past_the_set_up_bound(
        monkeypatch, engine, module, bound):
    # the bounds are checked before anything is built for the box, and
    # answer unknown as the value sets past LEAF_BUDGET do; the box bound
    # is the value sets' own, so the pattern has at most N/2 leaves and
    # only the box can pass it
    monkeypatch.setattr(module, "LEAF_BUDGET", bound)
    res = threshold_number(parse_pattern("{x, 2*x}"), 3, 20, engine=engine)
    assert (res.status, res.threshold) == ("unknown", None)
    assert [row[1] for row in res.rows] == ["sat"] * 5 + ["unknown"]
    assert res.rows[-1][2] == bound + 1
    assert res.certificate.N == 5
