"""Instance scans, avoidance engines, and threshold numbers."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab.colorings import Coloring, enumerate_colorings, make_coloring
from ramseylab.errors import BudgetExceededError, RamseyError
from ramseylab.patterns import (instance_value_sets, iter_box_assignments,
                                parse_pattern)
from ramseylab.search import (ENGINES, InstanceQuery, find_all_instances,
                              find_avoiding_coloring, find_instance,
                              find_instance_detailed,
                              has_monochromatic_instance, threshold_number)

SCHUR = parse_pattern("{x, y, x+y}")


def test_find_instance_least_hit():
    col = make_coloring("parity", 1, 10, 2)
    hit = find_instance(InstanceQuery(schema=SCHUR, coloring=col))
    assert hit == ({"x": 2, "y": 2}, 0)


def test_find_instance_none_on_avoiding_coloring():
    col = Coloring(d=1, N=4, c=2, cells=(0, 1, 1, 0))
    assert find_instance(InstanceQuery(schema=SCHUR, coloring=col)) is None


def test_find_instance_rejects_grid_colorings():
    col = make_coloring("parity", 2, 3, 2)
    with pytest.raises(RamseyError):
        InstanceQuery(schema=SCHUR, coloring=col)


def test_find_all_prefix_matches_first():
    col = make_coloring("parity", 1, 12, 2)
    q = InstanceQuery(schema=SCHUR, coloring=col)
    hits = find_all_instances(q, limit=5)
    assert len(hits) == 5
    assert hits[0] == find_instance(q)
    # lexicographic over (x, y)
    keys = [(a["x"], a["y"]) for a, _ in hits]
    assert keys == sorted(keys)


def test_distinct_vars_skips_diagonal():
    schema = parse_pattern("{x, y, x+y}", distinct_vars=True)
    col = Coloring(d=1, N=4, c=1, cells=(0, 0, 0, 0))
    hit = find_instance(InstanceQuery(schema=schema, coloring=col))
    assert hit == ({"x": 1, "y": 2}, 0)


def test_min_value_floor():
    schema = parse_pattern("{x, y, x+y}", min_value=3)
    col = Coloring(d=1, N=8, c=1, cells=(0,) * 8)
    hit = find_instance(InstanceQuery(schema=schema, coloring=col))
    assert hit == ({"x": 3, "y": 3}, 0)


def test_singleton_value_set_is_monochromatic():
    schema = parse_pattern("{x+x}")
    col = make_coloring("parity", 1, 4, 2)
    hit = find_instance(InstanceQuery(schema=schema, coloring=col))
    assert hit == ({"x": 1}, 0)  # {2} alone, color of 2


def test_avoiding_coloring_is_lex_least():
    res = find_avoiding_coloring(SCHUR, 4, 2)
    assert res.verdict == "sat"
    assert res.coloring.cells == (0, 1, 1, 0)


def test_avoid_unsat_at_threshold():
    for engine in ("backtracking", "sat", "exhaustive"):
        res = find_avoiding_coloring(SCHUR, 5, 2, engine=engine)
        assert res.verdict == "unsat", engine
        assert res.coloring is None


def test_avoid_unknown_engine():
    with pytest.raises(RamseyError):
        find_avoiding_coloring(SCHUR, 4, 2, engine="oracle")


def test_variable_free_scan_spends_its_leaf():
    query = InstanceQuery(schema=parse_pattern("{3, 5}"),
                          coloring=make_coloring("parity", 1, 8, 2))
    assert find_instance_detailed(query, max_nodes=1) == (({}, 1), 1)
    with pytest.raises(BudgetExceededError) as exc:
        find_instance_detailed(query, max_nodes=0)
    assert exc.value.nodes == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_variable_free_pattern_is_forced_past_min_value(engine):
    # no variable is bounded by min_value, so {3} has its one instance
    # whatever min_value is, as the find scan has always said
    schema = parse_pattern("{3}", min_value=5)
    assert list(iter_box_assignments(schema, 4)) == [{}]
    assert instance_value_sets(schema, 4) == [(3,)]
    assert list(iter_box_assignments(schema, 2)) == []
    assert find_avoiding_coloring(schema, 4, 2, engine=engine).verdict == "unsat"
    res = threshold_number(schema, 2, 6, engine=engine)
    assert (res.status, res.threshold) == ("found", 3)
    assert res.certificate.cells == (0, 0)


def test_budget_gives_unknown_verdict():
    res = find_avoiding_coloring(SCHUR, 13, 3, max_nodes=5)
    assert res.verdict == "unknown"
    assert res.coloring is None


def test_threshold_rows_and_certificate():
    res = threshold_number(SCHUR, 2, 10)
    assert res.threshold == 5
    assert res.status == "found"
    assert res.certificate.cells == (0, 1, 1, 0)
    assert [r[0] for r in res.rows] == [1, 2, 3, 4, 5]
    assert [r[1] for r in res.rows] == ["sat"] * 4 + ["unsat"]


def test_threshold_gives_up_honestly():
    res = threshold_number(SCHUR, 3, 5)
    assert res.status == "unknown"
    assert res.threshold is None
    assert res.certificate is not None  # best coloring seen on the way


AP3 = "{a, a+d, a+2*d}"
AP4 = "{a, a+d, a+2*d, a+3*d}"
AP3_N26_C3 = "00110012122020010112022121"
WEAK_SCHUR_N23_C3 = "00101110220222202212101"
AP4_N34_C2 = "0010001110100100011101001000111011"


# Node counts are part of the report contract: the engines' branching and
# propagation order is frozen, so a speedup must leave these unchanged.
@pytest.mark.parametrize("engine, pattern, distinct, N, c, nodes, cells", [
    ("backtracking", AP3, False, 26, 3, 35639, AP3_N26_C3),
    ("backtracking", "{x, y, x+y}", True, 23, 3, 2826, WEAK_SCHUR_N23_C3),
    ("sat", AP3, False, 26, 3, 395, AP3_N26_C3),
    ("sat", "{x, y, x+y}", True, 23, 3, 31, WEAK_SCHUR_N23_C3),
    ("sat", AP4, False, 34, 2, 101, AP4_N34_C2),
])
def test_avoid_search_is_pinned(engine, pattern, distinct, N, c, nodes, cells):
    schema = parse_pattern(pattern, distinct_vars=distinct)
    res = find_avoiding_coloring(schema, N, c, engine=engine)
    assert (res.verdict, res.stats.nodes) == ("sat", nodes)
    assert "".join(map(str, res.coloring.cells)) == cells


@pytest.mark.parametrize("engine, nodes", [("backtracking", 1290),
                                           ("sat", 164)])
def test_threshold_search_is_pinned(engine, nodes):
    res = threshold_number(SCHUR, 3, 20, engine=engine)
    assert res.threshold == 14
    assert sum(r[2] for r in res.rows) == nodes
    assert "".join(map(str, res.certificate.cells)) == "0110220220110"


def _forced_brute(schema, cells):
    """Reference implementation straight off the value sets."""
    sets = instance_value_sets(schema, len(cells))
    return any(len({cells[v - 1] for v in vs}) == 1 for vs in sets)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=14))
def test_scan_matches_value_set_oracle(cells):
    col = Coloring(d=1, N=len(cells), c=2, cells=tuple(cells))
    assert has_monochromatic_instance(SCHUR, col) == \
        _forced_brute(SCHUR, cells)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=10),
       st.permutations(range(3)))
def test_instance_existence_is_color_blind(cells, perm):
    col = Coloring(d=1, N=len(cells), c=3, cells=tuple(cells))
    relabeled = Coloring(d=1, N=len(cells), c=3,
                         cells=tuple(perm[v] for v in cells))
    assert has_monochromatic_instance(SCHUR, col) == \
        has_monochromatic_instance(SCHUR, relabeled)


@pytest.mark.parametrize("engine", ["backtracking", "sat", "exhaustive"])
def test_engines_agree_on_mixed_patterns(engine):
    quad = parse_pattern("{x, y, x*y, x+y}")
    expected = {N: find_avoiding_coloring(quad, N, 2,
                                          engine="exhaustive").verdict
                for N in range(1, 11)}
    for N in range(1, 11):
        assert find_avoiding_coloring(quad, N, 2, engine=engine).verdict == \
            expected[N]
