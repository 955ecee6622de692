"""Finite-sum/product machinery and desk-scale structure detectors.

``fs_values`` expands a finite generator family into all sums (or
products) over nonempty subsets.  The detectors ask whether a finite set
contains a k-term arithmetic progression, geometric progression,
finite-sums set, or finite-products set, and return the lexicographically
least witness.

The finite-sums and finite-products detectors walk generator prefixes
depth first, in ascending order, and extend a prefix only while its
closure stays inside the set: a prefix's closure lies inside the closure
of every extension, so the first full tuple reached is the least one in
``itertools.combinations`` order.  Each distinct closure value is kept
once, and every kept value is an element of the set.  A level ends once
its candidate would take the full sum (product) past the set's largest
element.  The walk counts one unit per candidate tried and one per closure
value formed, and gives up (:class:`BudgetExceededError`) only once it is
past :data:`PROBE_BUDGET` units and past the first :data:`PROBE_BUDGET`
k-tuples in ``combinations`` order, where a scan of them had given up too.
A k-generator finite-sums (finite-products) set has at least
:func:`min_closure_size` distinct values, so a set with fewer distinct
candidates holds none and the detectors answer None at once.

Degeneracy policy: geometric ratios must be >= 2, geometric progressions
must start at a positive element, and product generators must be >= 2 —
otherwise every nonempty set (every set holding 0) contains these
structures and the detectors say nothing.  The k = 1 case is the
deliberate exception: a single element is trivially a 1-AP/1-GP/1-FS/1-FP,
so k = 1 always succeeds on nonempty sets (witness: the least element).
"""

from __future__ import annotations

from math import comb
from typing import Optional

from .errors import BudgetExceededError, RamseyError, ValueOverflowError
from .patterns import VALUE_CAP

OP_ADD = "additive"
OP_MUL = "multiplicative"

MAX_FAMILY = 30

# units, and k-tuples in combinations order, a probe passes before giving up
PROBE_BUDGET = 1_000_000


def fs_values(generators, op: str = OP_ADD) -> frozenset:
    """All sums (or products) over nonempty sub-multisets of 1 to
    :data:`MAX_FAMILY` generators, each at least 1 (2 for products); a
    value above :data:`VALUE_CAP` raises :class:`ValueOverflowError`."""
    gens = tuple(generators)
    if not 1 <= len(gens) <= MAX_FAMILY:
        raise RamseyError(f"family size {len(gens)} outside [1, {MAX_FAMILY}]")
    if op not in (OP_ADD, OP_MUL):
        raise RamseyError(f"unknown op {op!r}")
    floor = 2 if op == OP_MUL else 1
    for g in gens:
        if g < floor:
            raise RamseyError(f"generator {g} < {floor} for {op} family")
    acc: set = set()
    for g in gens:
        if op == OP_ADD:
            new = {s + g for s in acc}
        else:
            new = {s * g for s in acc}
        new.add(g)
        for v in new:
            if v > VALUE_CAP:
                raise ValueOverflowError(f"combined value {v} exceeds 64-bit cap")
        acc |= new
    return frozenset(acc)


def min_closure_size(k: int) -> int:
    """The fewest distinct values the closure of k distinct generators can
    have, k(k+1)/2, for sums of generators >= 1 and for products of
    generators >= 2.  For a_1 < ... < a_k let s_j be the sum of the j
    largest; the chain

        a_1 < ... < a_k < s_1+a_1 < ... < s_1+a_(k-1)
            < s_2+a_1 < ... < s_2+a_(k-2) < ... < s_(k-1)+a_1

    has k + (k-1) + ... + 1 subset sums, strictly increasing because each
    run s_j+a_1 < ... < s_j+a_(k-j) starts above s_j, the last value of
    the run before it.  The chain of products p_j*a_i increases strictly
    too once every generator is >= 2, and {1, 2, ..., k} (products:
    {2, 4, ..., 2^k}) attains the bound."""
    return k * (k + 1) // 2


# ---------------------------------------------------------------------------
# detectors — each returns the lexicographically least witness or None


def contains_kap(A, k: int) -> Optional[tuple]:
    """Least (a, d) with {a, a+d, ..., a+(k-1)d} <= A, step d >= 1.  The
    steps tried from a are the differences b - a to the larger elements b
    of A, in ascending order, so the work grows with |A|, not with the
    values."""
    if k < 1:
        raise RamseyError("k must be >= 1")
    if not A:
        return None
    Aset = set(A)
    sortedA = sorted(Aset)
    if k == 1:
        return (sortedA[0], 1)
    top = sortedA[-1]
    for i, a in enumerate(sortedA):
        for b in sortedA[i + 1:]:
            d = b - a
            if a + (k - 1) * d > top:
                break
            if all(a + j * d in Aset for j in range(2, k)):
                return (a, d)
    return None


def contains_kgp(A, k: int) -> Optional[tuple]:
    """Least (a, r) with {a, a*r, ..., a*r^(k-1)} <= A, ratio r >= 2 and
    a >= 1.  The ratios tried from a are the quotients b // a of the
    larger elements b of A that a divides, in ascending order."""
    if k < 1:
        raise RamseyError("k must be >= 1")
    if not A:
        return None
    Aset = set(A)
    sortedA = sorted(Aset)
    if k == 1:
        return (sortedA[0], 2)
    top = sortedA[-1]
    for i, a in enumerate(sortedA):
        if a < 1:
            continue
        for b in sortedA[i + 1:]:
            r, rest = divmod(b, a)
            if a * r ** (k - 1) > top:
                break
            if r >= 2 and not rest and \
                    all(a * r ** j in Aset for j in range(2, k)):
                return (a, r)
    return None


def contains_kfs(A, k: int) -> Optional[tuple]:
    """Least strictly increasing (a_1 < ... < a_k) from A whose full
    subset-sum closure stays inside A."""
    return _contains_closure(A, k, OP_ADD)


def contains_kfp(A, k: int) -> Optional[tuple]:
    """Least strictly increasing (a_1 < ... < a_k), all >= 2, from A whose
    full subset-product closure stays inside A."""
    return _contains_closure(A, k, OP_MUL)


def _contains_closure(A, k: int, op: str) -> Optional[tuple]:
    """Least k-tuple of candidates (in ``itertools.combinations`` order)
    whose closure lies in A, found by :func:`_closure_walk`, or the
    budget error where the walk gives up."""
    if k < 1:
        raise RamseyError("k must be >= 1")
    if not A:
        return None
    if k == 1:
        return (min(A),)
    Aset = A if isinstance(A, (set, frozenset)) else set(A)
    mul = op == OP_MUL
    candidates = sorted(Aset)
    if candidates[0] < (2 if mul else 1):
        candidates = [a for a in candidates if a >= (2 if mul else 1)]
    if len(candidates) >= k > MAX_FAMILY:
        raise RamseyError(f"family size {k} outside [1, {MAX_FAMILY}]")
    # every closure value is a candidate, so there are enough of them and
    # none passes the largest one
    if len(candidates) < min_closure_size(k):
        return None
    unit = 1 if mul else 0
    return _closure_walk(candidates, Aset, candidates[-1], mul, [unit], {unit},
                         unit, 0, k, [0], ())


def _closure_walk(candidates, Aset, top, mul, closure, seen, total, start,
                  remaining, spent, path) -> Optional[tuple]:
    """The least ``remaining`` more generators from ``candidates[start:]``,
    in ascending index order, that keep the closure inside Aset; None if
    there are none.  ``closure`` lists the prefix's closure and the unit
    (0, or 1 for products) once each, ``seen`` holds the same values,
    ``total`` is the prefix's sum (product) and ``path`` its candidate
    indices.  A candidate g is tried by forming g op c for each c in the
    closure, abandoning it at the first value outside Aset; it ends the
    level once even ``remaining`` copies of g would take the full sum
    (product) past ``top``.  ``spent[0]`` counts one unit per candidate
    tried and one per value formed; the walk gives up at the first candidate
    where both it and the k-tuples ahead of its subtree pass the budget."""
    for i in range(start, len(candidates) - remaining + 1):
        g = candidates[i]
        if (total * g ** remaining if mul else total + g * remaining) > top:
            break
        n = len(closure)
        inside = True
        for j in range(n):
            v = closure[j] * g if mul else closure[j] + g
            if v in seen:
                continue
            if v not in Aset:
                inside = False
                break
            seen.add(v)
            closure.append(v)
        spent[0] += 1 + (n if inside else j + 1)
        if spent[0] > PROBE_BUDGET and PROBE_BUDGET <= _tuples_before(
                (*path, i), len(candidates), len(path) + remaining):
            raise BudgetExceededError(f"node budget {PROBE_BUDGET} exceeded",
                                      nodes=spent[0])
        if inside:
            if remaining == 1:
                return (g,)
            hit = _closure_walk(candidates, Aset, top, mul, closure, seen,
                                total * g if mul else total + g, i + 1,
                                remaining - 1, spent, (*path, i))
            if hit is not None:
                return (g, *hit)
        for v in closure[n:]:
            seen.discard(v)
        del closure[n:]
    return None


def _tuples_before(indices, n, k) -> int:
    """How many k-subsets of ``range(n)`` come before the least one that
    starts with ``indices``, in ``combinations`` order."""
    return sum(comb(n - prev - 1, k - d) - comb(n - index, k - d)
               for d, (prev, index) in enumerate(zip((-1, *indices), indices)))


# ---------------------------------------------------------------------------
# witness re-validation (independent of the search loops above)


def validate_kap(A, k: int, witness) -> bool:
    a, d = witness
    if k >= 2 and d < 1:
        return False
    Aset = set(A)
    return all(a + i * d in Aset for i in range(k))


def validate_kgp(A, k: int, witness) -> bool:
    a, r = witness
    if k >= 2 and r < 2:
        return False
    Aset = set(A)
    return all(a * r ** i in Aset for i in range(k))


def validate_kfs(A, k: int, witness) -> bool:
    if len(witness) != k or any(witness[i] >= witness[i + 1] for i in range(k - 1)):
        return False
    return fs_values(witness, OP_ADD) <= set(A)


def validate_kfp(A, k: int, witness) -> bool:
    if len(witness) != k or any(witness[i] >= witness[i + 1] for i in range(k - 1)):
        return False
    if k >= 2 and any(g < 2 for g in witness):
        return False
    return fs_values(witness, OP_MUL) <= set(A) if k >= 2 else witness[0] in set(A)
