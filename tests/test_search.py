"""Instance scans, avoidance engines, and threshold numbers."""

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab.colorings import Coloring, make_coloring
from ramseylab.errors import (BudgetExceededError, MalformedInputError,
                              RamseyError)
from ramseylab.patterns import (AssignmentError, compile_scan,
                                instance_value_sets, parse_pattern)
from ramseylab.search import (ENGINES, InstanceQuery,
                              find_all_instances_detailed,
                              find_avoiding_coloring, find_instance,
                              find_instance_detailed, instance_color,
                              threshold_number)

SCHUR = parse_pattern("{x, y, x+y}")


def test_find_instance_least_hit():
    col = make_coloring("parity", 1, 10, 2)
    hit = find_instance(InstanceQuery(schema=SCHUR, coloring=col))
    assert hit == ({"x": 2, "y": 2}, 0)


def test_instance_color_checks_the_assignment_as_instantiate_does():
    one = make_coloring("constant", 1, 10, 1, param=(0,))
    schema = parse_pattern("{x, y, x+y}", distinct_vars=True, min_value=2)
    assert instance_color(schema, one, {"x": 2, "y": 3}) == 0
    for bad in ({"x": 3, "y": 3}, {"x": 1, "y": 3}, {"x": 2}):
        with pytest.raises(AssignmentError):
            instance_color(schema, one, bad)
    parity = make_coloring("parity", 1, 10, 2)
    assert instance_color(SCHUR, parity, {"x": 1, "y": 2}) is None
    assert instance_color(SCHUR, parity, {"x": 2, "y": 4}) == 0


def test_find_instance_none_on_avoiding_coloring():
    col = Coloring(d=1, N=4, c=2, cells=(0, 1, 1, 0))
    assert find_instance(InstanceQuery(schema=SCHUR, coloring=col)) is None


def test_find_instance_rejects_grid_colorings():
    # a grid coloring is refused when it is built, before any query
    with pytest.raises(MalformedInputError):
        InstanceQuery(schema=SCHUR, coloring=make_coloring("parity", 2, 3, 2))


# (pattern, distinct, min_value, coloring, limit, hits as (values in
# variable order, color), leaves): recorded from the scan when it read
# colors by 0-based cell index, which must not drift
_RECORDED_SCANS = [
    ("{x, y, x+y}", False, 1, ("parity", 10, 2, (), 0), 1,
     [((2, 2), 0)], 11),
    ("{x, y, x+y}", False, 1, ("parity", 8, 2, (), 0), None,
     [((2, 2), 0), ((2, 4), 0), ((2, 6), 0), ((4, 2), 0), ((4, 4), 0),
      ((6, 2), 0)], 28),
    ("{x, y, x*y, x+y}", False, 1, ("random", 60, 2, (), 7), 5,
     [((1, 9), 1), ((1, 10), 1), ((1, 17), 1), ((1, 18), 1), ((1, 21), 1)],
     21),
    ("{x, y, x*y, x+y}", True, 2, ("random", 252, 2, (), 3), 1,
     [((2, 12), 1)], 10),
    ("{x, y, x+y}", True, 1, ("blocks", 30, 3, (3, 2, 1), 0), 3,
     [((1, 2), 0), ((1, 7), 0), ((1, 8), 0)], 7),
    ("{x, y, x+2*y}", False, 1, ("mod", 40, 3, (3,), 0), 4,
     [((3, 3), 0), ((3, 6), 0), ((3, 9), 0), ((3, 12), 0)], 50),
    ("{2*x, 2*y+1}", False, 1, ("parity", 40, 2, (), 0), None, [], 380),
    ("{x, y, x+y}", False, 1, ("constant", 9, 2, (1,), 0), 2,
     [((1, 1), 1), ((1, 2), 1)], 2),
]


@pytest.mark.parametrize("lazy", [False, True], ids=["materialized", "lazy"])
@pytest.mark.parametrize("pattern, distinct, min_value, box, limit, hits, "
                         "leaves", _RECORDED_SCANS)
def test_scan_is_unchanged(pattern, distinct, min_value, box, limit, hits,
                           leaves, lazy):
    schema = parse_pattern(pattern, distinct_vars=distinct,
                           min_value=min_value)
    generator, N, c, param, seed = box
    col = make_coloring(generator, 1, N, c, param=param, seed=seed,
                        cell_budget=0 if lazy else N)
    assert (col.cells is None) == lazy
    want = ([(dict(zip(schema.variables, values)), color)
             for values, color in hits], leaves)
    query = InstanceQuery(schema=schema, coloring=col)
    # a budget of exactly the leaves the scan needs still answers
    for budget in (None, leaves):
        assert find_all_instances_detailed(query, limit, budget) == want
    with pytest.raises(BudgetExceededError) as err:
        find_all_instances_detailed(query, limit, leaves - 1)
    assert err.value.nodes == leaves
    if limit == 1:
        assert find_instance_detailed(query) == (want[0][0], leaves)


def test_find_all_prefix_matches_first():
    col = make_coloring("parity", 1, 12, 2)
    q = InstanceQuery(schema=SCHUR, coloring=col)
    hits, _ = find_all_instances_detailed(q, limit=5)
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
    assert list(compile_scan(schema)(4, bytes(5), -1)) == [
        (1, (), (3,)), (1, None, None)]
    assert instance_value_sets(schema, 4) == [(3,)]
    assert list(compile_scan(schema)(2, bytes(3), -1)) == [(0, None, None)]
    assert instance_value_sets(schema, 2) == []
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


# Each exit of the scan: the first unsat N ("found"), a budget that runs out
# ("unknown", also at N = 1 with no certificate yet) and n_max reached with
# every N sat ("unknown").  The certificate is always the last sat coloring,
# so the rows are len(cert) sat rows and then the exit's own verdict.
@pytest.mark.parametrize("engine, c, n_max, budget, threshold, status, cert, "
                         "last", [
    ("backtracking", 2, 8, None, 5, "found", "0110", "unsat"),
    ("backtracking", 3, 20, 40, None, "unknown", "010202010", "unknown"),
    ("backtracking", 2, 8, 0, None, "unknown", "", "unknown"),
    ("backtracking", 2, 3, None, None, "unknown", "010", "sat"),
    ("sat", 2, 8, None, 5, "found", "0110", "unsat"),
    ("sat", 3, 20, 20, None, "unknown", "0110222220110", "unknown"),
    ("sat", 2, 3, None, None, "unknown", "010", "sat"),
    ("exhaustive", 2, 8, None, 5, "found", "0110", "unsat"),
    ("exhaustive", 3, 20, 40, None, "unknown", "01020", "unknown"),
    ("exhaustive", 2, 8, 0, None, "unknown", "", "unknown"),
    ("exhaustive", 2, 3, None, None, "unknown", "010", "sat"),
])
def test_threshold_exits_are_pinned(engine, c, n_max, budget, threshold,
                                    status, cert, last):
    res = threshold_number(SCHUR, c, n_max, engine=engine, max_nodes=budget)
    assert (res.threshold, res.status) == (threshold, status)
    if cert:
        assert "".join(map(str, res.certificate.cells)) == cert
    else:
        assert res.certificate is None
    verdicts = ["sat"] * len(cert) + ([last] if last != "sat" else [])
    assert [r[:2] for r in res.rows] == list(enumerate(verdicts, 1))


AP3 = "{a, a+d, a+2*d}"
AP4 = "{a, a+d, a+2*d, a+3*d}"
AP3_N26_C3 = "00110012122020010112022121"
WEAK_SCHUR_N23_C3 = "00101110220222202212101"
AP4_N34_C2 = "0010001110100100011101001000111011"
# the sat engine's certificates, found with phase saving: not the least
# avoiding colorings that backtracking finds
AP3_N26_C3_SAT = "00121002021122112020012100"
WEAK_SCHUR_N23_C3_SAT = "00101110220222222212101"


# Node counts are part of the report contract: the engines' branching and
# propagation order is frozen, so they change only with a declared change
# to the search or to the CNF it solves (the SAT counts below are those of
# the canonical colour-order block, solved with phase saving).
@pytest.mark.parametrize("engine, pattern, distinct, N, c, nodes, cells", [
    ("backtracking", AP3, False, 26, 3, 35709, AP3_N26_C3),
    ("backtracking", "{x, y, x+y}", True, 23, 3, 2841, WEAK_SCHUR_N23_C3),
    ("sat", AP3, False, 26, 3, 551, AP3_N26_C3_SAT),
    ("sat", "{x, y, x+y}", True, 23, 3, 64, WEAK_SCHUR_N23_C3_SAT),
    ("sat", AP4, False, 34, 2, 192, AP4_N34_C2),
])
def test_avoid_search_is_pinned(engine, pattern, distinct, N, c, nodes, cells):
    schema = parse_pattern(pattern, distinct_vars=distinct)
    res = find_avoiding_coloring(schema, N, c, engine=engine)
    assert (res.verdict, res.stats.nodes) == ("sat", nodes)
    assert "".join(map(str, res.coloring.cells)) == cells


SCHUR_N13_C3 = {"backtracking": "0110220220110", "sat": "0110222220110"}


@pytest.mark.parametrize("engine, nodes", [("backtracking", 1829),
                                           ("sat", 151)])
def test_threshold_search_is_pinned(engine, nodes):
    res = threshold_number(SCHUR, 3, 20, engine=engine)
    assert res.threshold == 14
    assert sum(r[2] for r in res.rows) == nodes
    assert "".join(map(str, res.certificate.cells)) == SCHUR_N13_C3[engine]


@pytest.mark.parametrize("pattern, n_star", [
    ("{u+b, v+b, u*v+b, u+v}", 25),  # shifted corollary, --distinct
    ("{x, y, x+y}", 24),  # weak Schur
])
def test_sat_and_backtracking_agree_on_distinct_thresholds(pattern, n_star):
    # the SAT encoding orders colours from the least value an instance
    # uses (not 1, for the shifted corollary); backtracking from value 1
    schema = parse_pattern(pattern, distinct_vars=True)
    for engine in ("backtracking", "sat"):
        res = threshold_number(schema, 3, n_star + 2, engine=engine)
        assert (res.threshold, res.status) == (n_star, "found"), engine
        assert res.certificate.N == n_star - 1
        assert not _forced(schema, res.certificate), engine


def _forced(schema, col):
    return find_instance(InstanceQuery(schema=schema, coloring=col)) is not None


def _forced_brute(schema, cells):
    """Reference implementation straight off the value sets."""
    sets = instance_value_sets(schema, len(cells))
    return any(len({cells[v - 1] for v in vs}) == 1 for vs in sets)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=14))
def test_scan_matches_value_set_oracle(cells):
    col = Coloring(d=1, N=len(cells), c=2, cells=tuple(cells))
    assert _forced(SCHUR, col) == _forced_brute(SCHUR, cells)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=10),
       st.permutations(range(3)))
def test_instance_existence_is_color_blind(cells, perm):
    col = Coloring(d=1, N=len(cells), c=3, cells=tuple(cells))
    relabeled = Coloring(d=1, N=len(cells), c=3,
                         cells=tuple(perm[v] for v in cells))
    assert _forced(SCHUR, col) == _forced(SCHUR, relabeled)


@pytest.mark.parametrize("engine", ["backtracking", "sat", "exhaustive"])
def test_engines_agree_on_mixed_patterns(engine):
    quad = parse_pattern("{x, y, x*y, x+y}")
    expected = {N: find_avoiding_coloring(quad, N, 2,
                                          engine="exhaustive").verdict
                for N in range(1, 11)}
    for N in range(1, 11):
        assert find_avoiding_coloring(quad, N, 2, engine=engine).verdict == \
            expected[N]


# A frozen copy of the per-N backtracking scan as it was when every N ran
# its own search from value 1: the threshold now carries one search one
# level deeper per N, and must give the same rows, status, threshold and
# certificate.
def _frozen_index(value_sets, N):
    index = [([], []) for _ in range(N)]
    for *others, n in value_sets:
        pairs, rest = index[n - 1]
        (pairs if len(others) == 2 else rest).append([v - 1 for v in others])
    return index


def _frozen_forbidden(entry, bits):
    pairs, rest = entry
    mask = 0
    for i, j in pairs:
        b = bits[i]
        if b == bits[j]:
            mask |= b
    for others in rest:
        if not others:
            return -1
        b = bits[others[0]]
        for i in others:
            if bits[i] != b:
                break
        else:
            mask |= b
    return mask


def _frozen_backtrack(N, c, index, max_nodes):
    bits = [0] * N
    choices = [[(color, 1 << color) for color in range(min(u + 1, c))]
               for u in range(c + 1)]
    nodes = 0
    i, used, stack = 0, 0, []
    untried, forbidden = iter(choices[0]), _frozen_forbidden(index[0], bits)
    while True:
        for color, bit in untried:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceededError.past(max_nodes)
            if not forbidden & bit:
                break
        else:
            if not stack:
                return None, nodes
            i -= 1
            untried, forbidden, used = stack.pop()
            continue
        bits[i] = bit
        i += 1
        if i == N:
            return tuple(b.bit_length() - 1 for b in bits), nodes
        stack.append((untried, forbidden, used))
        used = used + 1 if color == used else used
        untried = iter(choices[used])
        forbidden = _frozen_forbidden(index[i], bits)


def _frozen_threshold(schema, c, n_max, max_nodes):
    """(rows as (N, verdict, nodes), status, threshold, certificate)."""
    rows, cert = [], None
    for N in range(1, n_max + 1):
        try:
            index = _frozen_index(instance_value_sets(schema, N), N)
            cells, nodes = _frozen_backtrack(N, c, index, max_nodes)
            verdict = "unsat" if cells is None else "sat"
        except BudgetExceededError as exc:
            nodes, verdict = exc.nodes, "unknown"
        rows.append((N, verdict, nodes))
        if verdict != "sat":
            found = verdict == "unsat"
            return (rows, "found" if found else "unknown",
                    N if found else None, cert)
        cert = cells
    return rows, "unknown", None, cert


_SMALL_PATTERNS = ["{x, y, x+y}", "{a, a+d, a+2*d}", "{x, 2*x}", "{x+y}",
                   "{x, y, x*y, x+y}", "{x, x+2, 2*x+y}", "{3}", "{x*x, y}"]


@settings(max_examples=150, deadline=None)
@given(pattern=st.sampled_from(_SMALL_PATTERNS), distinct=st.booleans(),
       min_value=st.integers(1, 3), c=st.integers(1, 4),
       n_max=st.integers(1, 16),
       budget=st.one_of(st.none(), st.integers(0, 3),
                        st.integers(4, 400)))
def test_threshold_continues_the_per_n_backtracking_scan(
        pattern, distinct, min_value, c, n_max, budget):
    schema = parse_pattern(pattern, distinct_vars=distinct,
                           min_value=min_value)
    rows, status, threshold, cert = _frozen_threshold(schema, c, n_max,
                                                      budget)
    res = threshold_number(schema, c, n_max, max_nodes=budget)
    assert [r[:3] for r in res.rows] == rows
    assert (res.status, res.threshold) == (status, threshold)
    assert (res.certificate.cells if res.certificate else None) == cert
    for N, verdict, nodes in rows:
        if verdict == "sat":
            avoid = find_avoiding_coloring(schema, N, c, max_nodes=budget)
            assert (avoid.verdict, avoid.stats.nodes) == ("sat", nodes)
