"""Subset-sum/product closures and the four structure detectors."""

import math
import tracemalloc
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab.errors import (BudgetExceededError, RamseyError,
                              ValueOverflowError)
from ramseylab.patterns import VALUE_CAP
from ramseylab import structures
from ramseylab.structures import (MAX_FAMILY, OP_ADD, OP_MUL, PROBE_BUDGET,
                                  _contains_closure, contains_kap,
                                  contains_kfp, contains_kfs, contains_kgp,
                                  fs_values, min_closure_size, validate_kap,
                                  validate_kfp, validate_kfs, validate_kgp)


def _brute_fs(gens):
    out = set()
    for r in range(1, len(gens) + 1):
        for combo in combinations(range(len(gens)), r):
            out.add(sum(gens[i] for i in combo))
    return out


def test_fs_small():
    assert fs_values((1, 2)) == frozenset({1, 2, 3})
    assert fs_values((2, 2)) == frozenset({2, 4})
    assert fs_values((1, 2, 4)) == frozenset({1, 2, 3, 4, 5, 6, 7})


def test_fp_small():
    assert fs_values((2, 3), op=OP_MUL) == frozenset({2, 3, 6})
    assert fs_values((2, 2, 3), op=OP_MUL) == frozenset({2, 3, 4, 6, 12})


def test_fp_rejects_generator_one():
    with pytest.raises(RamseyError,
                       match="generator 1 < 2 for multiplicative family"):
        fs_values((1, 2), op=OP_MUL)


def test_family_size_limit():
    with pytest.raises(RamseyError, match=r"family size 31 outside \[1, 30\]"):
        fs_values(range(1, 32))
    with pytest.raises(RamseyError, match=r"family size 0 outside \[1, 30\]"):
        fs_values(())
    with pytest.raises(RamseyError, match="unknown op 'xor'"):
        fs_values((1, 2), op="xor")


def test_fs_overflow_guard():
    with pytest.raises(ValueOverflowError):
        fs_values((2 ** 62, 2 ** 62))


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
def test_fs_matches_brute_force(gens):
    assert fs_values(tuple(gens)) == frozenset(_brute_fs(tuple(gens)))


# --- detectors ---------------------------------------------------------------

def test_kap_least_witness():
    assert contains_kap(frozenset({1, 3, 5, 9}), 3) == (1, 2)
    assert contains_kap(frozenset({1, 2, 4, 8}), 3) is None
    assert contains_kap(frozenset({7}), 1) == (7, 1)


def test_kgp_least_witness():
    assert contains_kgp(frozenset({2, 6, 18}), 3) == (2, 3)
    assert contains_kgp(frozenset({5}), 1) == (5, 2)
    # ratio 1 never counts
    assert contains_kgp(frozenset({4, 5, 6}), 2) is None


def test_kfs_requires_strictly_increasing_generators():
    # {1, 2, 3} carries FS((1, 2)); (1, 1) would need a repeat and the
    # detector refuses repeats even though FS((1,1)) = {1, 2} is inside.
    assert contains_kfs(frozenset({1, 2, 3}), 2) == (1, 2)
    assert contains_kfs(frozenset({1, 2}), 2) is None


def test_kfp_generators_at_least_two():
    assert contains_kfp(frozenset({2, 3, 6}), 2) == (2, 3)
    assert contains_kfp(frozenset({1, 2, 3}), 2) is None
    # k = 1 is membership, so a lone 1 still passes
    assert contains_kfp(frozenset({1}), 1) == (1,)


def test_closure_detectors_take_a_repeated_element_once():
    # FS((1, 1)) = {1, 2} and FP((2, 2)) = {2, 4} lie inside, but a
    # generator tuple is strictly increasing
    assert contains_kfs([1, 1, 2], 2) is None
    assert contains_kfp([2, 2, 4], 2) is None
    assert contains_kfs([3, 1, 2, 1], 2) == (1, 2)


# lists holding some of their elements twice, among them sums (products)
# closed up to a bound, so that witnesses are common
_lists_with_repeats = st.one_of(
    st.lists(st.integers(1, 24), min_size=1, max_size=10),
    st.builds(lambda gens, mul: sorted(fs_values(gens, OP_MUL if mul
                                                 else OP_ADD)),
              st.lists(st.integers(2, 6), min_size=1, max_size=4),
              st.booleans()),
).flatmap(lambda xs: st.lists(st.sampled_from(xs), min_size=1,
                              max_size=6).map(lambda again: xs + again))


@given(_lists_with_repeats, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_closure_witnesses_from_lists_with_repeats_validate(A, k):
    for detect, validate in ((contains_kfs, validate_kfs),
                             (contains_kfp, validate_kfp)):
        hit = detect(A, k)
        if hit is not None:
            assert validate(A, k, hit)


@given(st.frozensets(st.integers(1, 60), min_size=1, max_size=8),
       st.sampled_from([OP_ADD, OP_MUL]))
def test_closures_hold_at_least_the_floor(G, op):
    gens = sorted(G) if op == OP_ADD else sorted(g + 1 for g in G)
    assert len(fs_values(gens, op)) >= min_closure_size(len(gens))


@pytest.mark.parametrize("k", range(1, 11))
def test_closure_floor_is_attained(k):
    assert len(fs_values(range(1, k + 1))) == min_closure_size(k)
    assert len(fs_values([2 ** i for i in range(1, k + 1)], OP_MUL)) == \
        min_closure_size(k)


def test_closure_detectors_answer_below_the_floor_at_once(monkeypatch):
    # with no budget at all, a set with fewer values than k(k+1)/2 still
    # answers None, while one at the floor needs the walk
    monkeypatch.setattr(structures, "PROBE_BUDGET", 0)
    assert contains_kfs(range(1, 15), 5) is None
    assert contains_kfp({2 ** i for i in range(1, 15)}, 5) is None
    # [1..100] ∪ {10^6} ran the walk past its budget with k = 14
    assert contains_kfs(frozenset(range(1, 101)) | {10 ** 6}, 14) is None
    with pytest.raises(BudgetExceededError):
        contains_kfs(range(1, 16), 5)
    with pytest.raises(BudgetExceededError):
        contains_kfp({2 ** i for i in range(1, 16)}, 5)


def test_k1_degeneracy_is_uniform():
    A = frozenset({5})
    assert contains_kap(A, 1) == (5, 1)
    assert contains_kgp(A, 1) == (5, 2)
    assert contains_kfs(A, 1) == (5,)
    assert contains_kfp(A, 1) == (5,)


_sets = st.frozensets(st.integers(1, 24), min_size=1, max_size=10)


@given(_sets, st.integers(1, 3))
def test_kap_matches_brute_force(A, k):
    hit = contains_kap(A, k)
    brute = None
    for a in sorted(A):
        for d in range(1, 25):
            if all(a + i * d in A for i in range(k)):
                brute = (a, d)
                break
        if brute:
            break
    assert (hit is None) == (brute is None)
    if hit is not None:
        assert hit == brute
        assert validate_kap(A, k, hit)


def _reference_kap(A, k):
    """contains_kap as it was: every step d up to the largest value."""
    sortedA = sorted(A)
    if k == 1:
        return (sortedA[0], 1)
    for a in sortedA:
        for d in range(1, (sortedA[-1] - a) // (k - 1) + 1):
            if all(a + i * d in A for i in range(1, k)):
                return (a, d)
    return None


def _reference_kgp(A, k):
    """contains_kgp as it was: every ratio r >= 2 up to the largest value."""
    sortedA = sorted(A)
    if k == 1:
        return (sortedA[0], 2)
    for a in sortedA:
        r = 2
        while a * r ** (k - 1) <= sortedA[-1]:
            if all(a * r ** i in A for i in range(1, k)):
                return (a, r)
            r += 1
    return None


# sets of positive values, some with a planted progression among noise
_progression_sets = st.one_of(
    st.frozensets(st.integers(1, 300), min_size=1, max_size=12),
    st.builds(lambda a, step, n, noise, geometric: noise | frozenset(
        a * step ** i if geometric else a + step * i for i in range(n)),
        st.integers(1, 12), st.integers(2, 6), st.integers(2, 5),
        st.frozensets(st.integers(1, 400), max_size=6), st.booleans()))


@pytest.mark.parametrize("detector, reference, validate", [
    (contains_kap, _reference_kap, validate_kap),
    (contains_kgp, _reference_kgp, validate_kgp),
], ids=["kap", "kgp"])
@given(A=_progression_sets, k=st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_progression_detectors_match_reference(detector, reference,
                                               validate, A, k):
    hit = detector(A, k)
    assert hit == reference(A, k)
    if hit is not None:
        assert validate(A, k, hit)


def test_progression_detectors_skip_steps_the_set_lacks():
    # two far-apart values: the old loops tried every step up to 10^12
    A = frozenset({1, 10 ** 12})
    assert contains_kap(A, 2) == (1, 10 ** 12 - 1)
    assert contains_kap(A, 3) is None
    assert contains_kgp(A, 2) == (1, 10 ** 12)
    assert contains_kgp(A, 3) is None
    assert contains_kgp(A | {10 ** 6}, 3) == (1, 10 ** 6)


@given(_sets, st.integers(2, 3))
@settings(max_examples=150)
def test_kfs_matches_brute_force(A, k):
    hit = contains_kfs(A, k)
    brute = next((c for c in combinations(sorted(A), k)
                  if _brute_fs(c) <= A), None)
    assert (hit is None) == (brute is None)
    if hit is not None:
        assert validate_kfs(A, k, hit)


@given(_sets, st.integers(1, 3))
def test_detector_witnesses_validate(A, k):
    for detect, validate in ((contains_kap, validate_kap),
                             (contains_kgp, validate_kgp),
                             (contains_kfs, validate_kfs),
                             (contains_kfp, validate_kfp)):
        hit = detect(A, k)
        if hit is not None:
            assert validate(A, k, hit)


def test_validators_reject_junk():
    A = frozenset({1, 2, 3})
    assert not validate_kap(A, 2, (1, 0))
    assert not validate_kgp(A, 2, (1, 1))
    assert not validate_kfs(A, 2, (2, 2))
    assert not validate_kfs(A, 2, (1, 3))  # 4 escapes A
    assert not validate_kfp(A, 2, (2, 3))  # 6 escapes A


# ---------------------------------------------------------------------------
# the closure walk against the k-subset scan it replaced


def _tuple_scan(A, k, op, max_tuples):
    """The closure search as it was: every k-subset in ``combinations``
    order, a value-cap pre-check where some tuple could pass the cap, and
    the budget error past ``max_tuples`` tuples."""
    if k < 1:
        raise RamseyError("k must be >= 1")
    if not A:
        return None
    if k == 1:
        return (min(A),)
    Aset = A if isinstance(A, (set, frozenset)) else set(A)
    mul = op == OP_MUL
    top = math.prod if mul else sum
    candidates = sorted(A)
    if candidates[0] < (2 if mul else 1):
        candidates = [a for a in candidates if a >= (2 if mul else 1)]
    guarded = k > MAX_FAMILY or top(candidates[-k:]) > VALUE_CAP
    tuples = combinations(candidates, k)
    for gens in islice(tuples, max(max_tuples, 0)):
        if guarded and (k > MAX_FAMILY or top(gens) > VALUE_CAP):
            fs_values(gens, op)
        if _closure_inside(gens, Aset, mul):
            return gens
    if next(tuples, None) is not None:
        raise BudgetExceededError(f"closure search budget {max_tuples} exceeded")
    return None


def _closure_inside(gens, Aset, mul):
    closure = [gens[0]]
    seen = {gens[0]}
    for g in gens[1:]:
        for i in range(len(closure)):
            v = closure[i] * g if mul else closure[i] + g
            if v in seen:
                continue
            if v not in Aset:
                return False
            seen.add(v)
            closure.append(v)
        if g not in seen:
            seen.add(g)
            closure.append(g)
    return True


def _least_closed_tuple(A, k, op):
    """Brute force with no value cap and no budget: the least k-subset of
    the admissible elements of A whose subset sums (products) all lie in A."""
    if not A:
        return None
    if k == 1:
        return (min(A),)
    floor = 2 if op == OP_MUL else 1
    candidates = sorted(a for a in A if a >= floor)
    if len(candidates) >= k > MAX_FAMILY:
        raise RamseyError(f"family size {k} outside [1, {MAX_FAMILY}]")
    fold = math.prod if op == OP_MUL else sum
    for gens in combinations(candidates, k):
        if all(fold(sub) in A for r in range(2, k + 1)
               for sub in combinations(gens, r)):
            return gens
    return None


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except RamseyError as exc:
        return type(exc).__name__, str(exc)


# the outcomes of the k-subset scan that the walk may change: it checks no
# value cap, since every value it keeps is an element of A, and it decides
# where the scan ran out of tuples
_DECLARED = ("ValueOverflowError", "BudgetExceededError")


def _check_against_scan(A, k, op, max_tuples):
    scan = _outcome(_tuple_scan, A, k, op, max_tuples)
    walk = _outcome(_contains_closure, A, k, op)
    if scan[0] in _DECLARED:
        assert walk == _outcome(_least_closed_tuple, set(A), k, op)
    else:
        assert walk == scan
    return scan, walk


# values whose sums or products land just under or over the 64-bit cap
_NEAR_CAP = [VALUE_CAP, VALUE_CAP - 1, VALUE_CAP + 1, VALUE_CAP // 2,
             VALUE_CAP // 2 + 1, VALUE_CAP // 3, 3037000499, 3037000500,
             2097151, 2097152, 2 ** 31, 2 ** 32]
_closure_sets = st.one_of(
    st.frozensets(st.integers(-1, 30), max_size=10),
    st.frozensets(st.one_of(st.integers(1, 12), st.sampled_from(_NEAR_CAP)),
                  max_size=8),
    # sets closed under + (or *) up to a bound, so witnesses are common
    st.builds(lambda gens, mul: frozenset(fs_values(gens, OP_MUL if mul
                                                    else OP_ADD)),
              st.lists(st.integers(2, 9), min_size=1, max_size=4),
              st.booleans()))


@given(_closure_sets, st.integers(1, 4), st.sampled_from([OP_ADD, OP_MUL]))
@settings(max_examples=400, deadline=None)
def test_closure_search_matches_reference(A, k, op):
    """Where the scan with a million-tuple budget returns, the walk gives
    the same tuple or None; where it raised, the walk gives the least
    closed tuple found by brute force."""
    for given_as in (A, sorted(A)):
        _check_against_scan(given_as, k, op, 1_000_000)


@pytest.mark.parametrize("A, k, op, max_tuples", [
    (range(1, 40), 31, OP_ADD, 10),            # family larger than 30
    (range(1, 40), 31, OP_ADD, 0),             # the scan's budget first
    ({1, 2, VALUE_CAP - 1}, 2, OP_ADD, 10),    # 2 + (cap - 1) overflows
    ({1, 2, 3, VALUE_CAP - 1}, 2, OP_ADD, 10),  # (1, 2) wins first
    ({2, 3, 4, VALUE_CAP // 2 + 1}, 2, OP_MUL, 10),
    ({2, 3, 6, VALUE_CAP // 2 + 1}, 2, OP_MUL, 2),
    ({1, 2, 3, 4, 5}, 3, OP_ADD, 3),
    (range(1, 200), 12, OP_ADD, 10),            # repeated subset sums
    ({2 ** i for i in range(1, 63)}, 10, OP_MUL, 10),  # repeated products
])
def test_closure_search_edge_cases_match_reference(A, k, op, max_tuples):
    """``max_tuples`` is the scan's budget; the walk has none to pass."""
    _check_against_scan(A, k, op, max_tuples)


@pytest.mark.parametrize("A, k, op, scan, walk", [
    ({1, 2, VALUE_CAP - 1}, 2, OP_ADD, "ValueOverflowError", None),
    ({2, 3, 4, VALUE_CAP // 2 + 1}, 2, OP_MUL, "ValueOverflowError", None),
    # values above the cap are elements like any other to the walk
    ({1, VALUE_CAP, VALUE_CAP + 1}, 2, OP_ADD, "ValueOverflowError",
     (1, VALUE_CAP)),
    ({2, VALUE_CAP + 1, 2 * VALUE_CAP + 2}, 2, OP_MUL, "ValueOverflowError",
     (2, VALUE_CAP + 1)),
    ({1, 2, 3, 4, 5}, 3, OP_ADD, "BudgetExceededError", None),
], ids=["sum-past-cap", "product-past-cap", "sum-above-cap",
        "product-above-cap", "scan-budget"])
def test_closure_walk_declared_changes(A, k, op, scan, walk):
    """The classes of input where the scan raised and the walk answers."""
    scan_outcome, walk_outcome = _check_against_scan(A, k, op, 3)
    assert (scan_outcome[0], walk_outcome) == (scan, ("value", walk))


def test_closure_walk_decides_where_the_scan_gave_up(monkeypatch):
    # no two of the 45 odd numbers below 90 sum into the set; the scan
    # tried its million 5-subsets for about a second and gave up, and the
    # walk needs 156 units: a budget of 155 stops it, one of 156 does not
    odd = frozenset(range(1, 90, 2))
    assert contains_kfs(odd, 5) is None
    assert contains_kfs(sorted(odd), 5) is None
    monkeypatch.setattr(structures, "PROBE_BUDGET", 156)
    assert contains_kfs(odd, 5) is None
    monkeypatch.setattr(structures, "PROBE_BUDGET", 155)
    with pytest.raises(BudgetExceededError) as exc:
        contains_kfs(odd, 5)
    assert exc.value.nodes == 156


def test_closure_walk_answers_where_the_scan_answered():
    # the scan tries all C(1200, 2) = 719,400 pairs of the odd numbers
    # below 2400 within its million and answers None; the walk spends more
    # than a million units on them but is never past the first million
    # pairs, so it answers too
    assert math.comb(1200, 2) < PROBE_BUDGET
    assert contains_kfs(frozenset(range(1, 2400, 2)), 2) is None


def test_closure_walk_stops_fast_at_its_budget():
    # every prefix of [1..104] summing to at most 104 stays inside A, so
    # the walk cannot finish; it stops at the first candidate past its
    # millionth unit where the 14-tuples ahead are past the first million
    A = frozenset(range(1, 105)) | {10 ** 6}
    spent = []
    for _ in range(2):
        with pytest.raises(BudgetExceededError,
                           match=f"node budget {PROBE_BUDGET} exceeded") as exc:
            contains_kfs(A, 14)
        spent.append(exc.value.nodes)
    assert spent == [1_074_214] * 2


def test_closure_walk_spends_its_budget_exactly(monkeypatch):
    """A budget of B answers when B units are enough, else the walk stops
    after more than B units: the outcomes over B = 0, 1, ... are the
    budget error up to some B*, then the answer."""
    for A, k, op, answer in ((range(1, 30, 2), 3, OP_ADD, None),
                             ({1, 2, 3, 4, 5, 6}, 3, OP_ADD, (1, 2, 3)),
                             ({2, 3, 4, 6, 8, 12, 24}, 3, OP_MUL, (2, 3, 4))):
        outcomes = []
        for budget in range(400):
            monkeypatch.setattr(structures, "PROBE_BUDGET", budget)
            try:
                outcomes.append(_contains_closure(A, k, op))
            except BudgetExceededError as exc:
                assert exc.nodes > budget
                outcomes.append("budget")
        first = outcomes.index(answer)
        assert first > 0
        assert outcomes == ["budget"] * first + [answer] * (400 - first)


@given(_closure_sets, st.integers(1, 4), st.sampled_from([OP_ADD, OP_MUL]),
       st.integers(0, 40))
@settings(max_examples=400, deadline=None)
def test_closure_walk_gives_up_only_where_the_scan_did(A, k, op, budget):
    """With both budgets set to B, the walk answers wherever a scan of B
    tuples answers, and gives the same answer; where the scan raised, the
    walk gives the least closed tuple or its own budget error."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structures, "PROBE_BUDGET", budget)
        for given_as in (A, sorted(A)):
            scan = _outcome(_tuple_scan, given_as, k, op, budget)
            walk = _outcome(_contains_closure, given_as, k, op)
            if scan[0] not in _DECLARED:
                assert walk == scan
            elif walk[0] != "BudgetExceededError":
                assert walk == _outcome(_least_closed_tuple, set(A), k, op)


def test_closure_search_keeps_distinct_values_only():
    # the first 22-tuple of a dense A has 2^22 subsets but 253 distinct sums
    tracemalloc.start()
    try:
        hit = contains_kfs(range(1, 1000), 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit == tuple(range(1, 23))
    assert peak < 1 << 20
    assert contains_kfs(range(1, 1000), 25) == tuple(range(1, 26))
    assert contains_kfs(range(1, 1000), 30) == tuple(range(1, 31))
    with pytest.raises(RamseyError, match=r"family size 31 outside \[1, 30\]"):
        contains_kfs(range(1, 1000), 31)
