"""Subset-sum/product closures and the four structure detectors."""

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab.errors import (BudgetExceededError, RamseyError,
                              ValueOverflowError)
from ramseylab.patterns import VALUE_CAP
from ramseylab.structures import (FSFamily, OP_ADD, OP_MUL, _contains_closure,
                                  contains_kap,
                                  contains_kfp, contains_kfs, contains_kgp,
                                  fs_set, fs_values, structure_report,
                                  validate_kap, validate_kfp, validate_kfs,
                                  validate_kgp)


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
    with pytest.raises(RamseyError):
        fs_values((1, 2), op=OP_MUL)


def test_family_size_limit():
    with pytest.raises(RamseyError):
        FSFamily(generators=tuple(range(1, 32)), op=OP_ADD)


def test_fs_overflow_guard():
    with pytest.raises(ValueOverflowError):
        fs_values((2 ** 62, 2 ** 62))


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
def test_fs_matches_brute_force(gens):
    assert fs_values(tuple(gens)) == frozenset(_brute_fs(tuple(gens)))


def test_fs_set_entry_point():
    fam = FSFamily(generators=(3, 5), op=OP_ADD)
    assert fs_set(fam) == frozenset({3, 5, 8})


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
def test_report_is_self_validating(A, k):
    rep = structure_report(A, k)
    if rep.has_ap:
        assert validate_kap(A, k, rep.ap)
    if rep.has_gp:
        assert validate_kgp(A, k, rep.gp)
    if rep.has_fs:
        assert validate_kfs(A, k, rep.fs)
    if rep.has_fp:
        assert validate_kfp(A, k, rep.fp)
    js = rep.to_json()
    assert js["k"] == k


def test_validators_reject_junk():
    A = frozenset({1, 2, 3})
    assert not validate_kap(A, 2, (1, 0))
    assert not validate_kgp(A, 2, (1, 1))
    assert not validate_kfs(A, 2, (2, 2))
    assert not validate_kfs(A, 2, (1, 3))  # 4 escapes A
    assert not validate_kfp(A, 2, (2, 3))  # 6 escapes A


# ---------------------------------------------------------------------------
# the closure search against the FSFamily/frozenset form it replaced


def _reference_closure(A, k, op, max_tuples):
    """The closure search as it was: one ``fs_values`` frozenset per tuple."""
    if k < 1:
        raise RamseyError("k must be >= 1")
    if not A:
        return None
    if k == 1:
        return (min(A),)
    Aset = set(A)
    floor = 2 if op == OP_MUL else 1
    candidates = sorted(a for a in A if a >= floor)
    tried = 0
    for gens in combinations(candidates, k):
        tried += 1
        if tried > max_tuples:
            raise BudgetExceededError(
                f"closure search budget {max_tuples} exceeded")
        if fs_values(gens, op) <= Aset:
            return gens
    return None


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except RamseyError as exc:
        return type(exc).__name__, str(exc)


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


@given(_closure_sets, st.integers(1, 3), st.sampled_from([OP_ADD, OP_MUL]),
       st.one_of(st.integers(0, 12), st.just(1_000_000)))
@settings(max_examples=400, deadline=None)
def test_closure_search_matches_reference(A, k, op, max_tuples):
    for given_as in (A, sorted(A)):
        assert (_outcome(_contains_closure, given_as, k, op, max_tuples) ==
                _outcome(_reference_closure, given_as, k, op, max_tuples))


@pytest.mark.parametrize("A, k, op, max_tuples", [
    (range(1, 40), 31, OP_ADD, 10),            # family larger than 30
    (range(1, 40), 31, OP_ADD, 0),             # budget before the family
    ({1, 2, VALUE_CAP - 1}, 2, OP_ADD, 10),    # 2 + (cap - 1) overflows
    ({1, 2, 3, VALUE_CAP - 1}, 2, OP_ADD, 10),  # (1, 2) wins first
    ({2, 3, 4, VALUE_CAP // 2 + 1}, 2, OP_MUL, 10),
    ({2, 3, 6, VALUE_CAP // 2 + 1}, 2, OP_MUL, 2),
    ({1, 2, 3, 4, 5}, 3, OP_ADD, 3),
    (range(1, 200), 12, OP_ADD, 10),            # repeated subset sums
    ({2 ** i for i in range(1, 63)}, 10, OP_MUL, 10),  # repeated products
])
def test_closure_search_edge_cases_match_reference(A, k, op, max_tuples):
    assert (_outcome(_contains_closure, A, k, op, max_tuples) ==
            _outcome(_reference_closure, A, k, op, max_tuples))


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
