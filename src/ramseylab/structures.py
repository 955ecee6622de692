"""Finite-sum/product machinery and desk-scale structure detectors.

``fs_set`` expands a finite generator family into all sums (or products)
over nonempty subsets.  The detectors ask whether a finite set contains a
k-term arithmetic progression, geometric progression, finite-sums set, or
finite-products set, and return the lexicographically least witness.

Degeneracy policy: geometric ratios must be >= 2 and product generators
must be >= 2 — otherwise every nonempty set contains these structures and
the detectors say nothing.  The k = 1 case is the deliberate exception:
a single element is trivially a 1-AP/1-GP/1-FS/1-FP, so k = 1 always
succeeds on nonempty sets (witness: the least element).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, RamseyError, ValueOverflowError
from .patterns import VALUE_CAP

OP_ADD = "additive"
OP_MUL = "multiplicative"

MAX_FAMILY = 30


@dataclass(frozen=True)
class FSFamily:
    """A finite generator family with an operation tag."""

    generators: tuple
    op: str = OP_ADD

    def __post_init__(self):
        k = len(self.generators)
        if not 1 <= k <= MAX_FAMILY:
            raise RamseyError(f"family size {k} outside [1, {MAX_FAMILY}]")
        if self.op not in (OP_ADD, OP_MUL):
            raise RamseyError(f"unknown op {self.op!r}")
        floor = 2 if self.op == OP_MUL else 1
        for g in self.generators:
            if g < floor:
                raise RamseyError(
                    f"generator {g} < {floor} for {self.op} family")


def fs_set(fam: FSFamily) -> frozenset:
    """All sums (or products) over nonempty sub-multisets of the generators."""
    acc: set = set()
    for g in fam.generators:
        if fam.op == OP_ADD:
            new = {s + g for s in acc}
        else:
            new = {s * g for s in acc}
        new.add(g)
        for v in new:
            if v > VALUE_CAP:
                raise ValueOverflowError(f"combined value {v} exceeds 64-bit cap")
        acc |= new
    return frozenset(acc)


def fs_values(generators, op: str = OP_ADD) -> frozenset:
    return fs_set(FSFamily(generators=tuple(generators), op=op))


# ---------------------------------------------------------------------------
# detectors — each returns the lexicographically least witness or None


def contains_kap(A, k: int) -> Optional[tuple]:
    """Least (a, d) with {a, a+d, ..., a+(k-1)d} <= A, step d >= 1."""
    if k < 1:
        raise RamseyError("k must be >= 1")
    if not A:
        return None
    sortedA = sorted(A)
    if k == 1:
        return (sortedA[0], 1)
    Aset = set(A)
    top = sortedA[-1]
    for a in sortedA:
        max_d = (top - a) // (k - 1)
        for d in range(1, max_d + 1):
            if all(a + i * d in Aset for i in range(1, k)):
                return (a, d)
    return None


def contains_kgp(A, k: int) -> Optional[tuple]:
    """Least (a, r) with {a, a*r, ..., a*r^(k-1)} <= A, ratio r >= 2."""
    if k < 1:
        raise RamseyError("k must be >= 1")
    if not A:
        return None
    sortedA = sorted(A)
    if k == 1:
        return (sortedA[0], 2)
    Aset = set(A)
    top = sortedA[-1]
    for a in sortedA:
        r = 2
        while a * r ** (k - 1) <= top:
            if all(a * r ** i in Aset for i in range(1, k)):
                return (a, r)
            r += 1
    return None


def contains_kfs(A, k: int, max_tuples: int = 1_000_000) -> Optional[tuple]:
    """Least strictly increasing (a_1 < ... < a_k) from A whose full
    subset-sum closure stays inside A."""
    return _contains_closure(A, k, OP_ADD, max_tuples)


def contains_kfp(A, k: int, max_tuples: int = 1_000_000) -> Optional[tuple]:
    """Least strictly increasing (a_1 < ... < a_k), all >= 2, from A whose
    full subset-product closure stays inside A."""
    return _contains_closure(A, k, OP_MUL, max_tuples)


def _contains_closure(A, k: int, op: str, max_tuples: int) -> Optional[tuple]:
    """Least k-tuple of candidates (in ``itertools.combinations`` order)
    whose closure lies in A; past ``max_tuples`` tuples tried, the budget
    error.  Each tuple's closure is built in one plain list and abandoned
    at its first value outside A.  Where some tuple could be one that
    :func:`fs_values` refuses (a closure value above :data:`VALUE_CAP`, or
    more than :data:`MAX_FAMILY` generators), each tuple's largest value,
    the sum (product) of the whole tuple, is checked first, and a refused
    tuple goes through :func:`fs_values` to raise its error."""
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
    tuples = itertools.combinations(candidates, k)
    for gens in itertools.islice(tuples, max(max_tuples, 0)):
        if guarded and (k > MAX_FAMILY or top(gens) > VALUE_CAP):
            fs_values(gens, op)
        if _closure_inside(gens, Aset, mul):
            return gens
    if next(tuples, None) is not None:
        raise BudgetExceededError(f"closure search budget {max_tuples} exceeded")
    return None


def _closure_inside(gens, Aset, mul: bool) -> bool:
    """Do all subset sums (products) of ``gens`` lie in Aset?  The
    generators themselves are taken to lie in it.  Each distinct value is
    kept once, so the work is bounded by the size of the closure as a set,
    not by the 2^k subsets."""
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


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class StructureReport:
    k: int
    ap: Optional[tuple]
    gp: Optional[tuple]
    fs: Optional[tuple]
    fp: Optional[tuple]

    @property
    def has_ap(self) -> bool:
        return self.ap is not None

    @property
    def has_gp(self) -> bool:
        return self.gp is not None

    @property
    def has_fs(self) -> bool:
        return self.fs is not None

    @property
    def has_fp(self) -> bool:
        return self.fp is not None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "ap": list(self.ap) if self.ap else None,
            "gp": list(self.gp) if self.gp else None,
            "fs": list(self.fs) if self.fs else None,
            "fp": list(self.fp) if self.fp else None,
        }


def structure_report(A, k: int) -> StructureReport:
    """Run all four detectors; every returned witness is re-validated."""
    A = frozenset(A)
    ap = contains_kap(A, k)
    gp = contains_kgp(A, k)
    fs = contains_kfs(A, k)
    fp = contains_kfp(A, k)
    if ap is not None:
        assert validate_kap(A, k, ap)
    if gp is not None:
        assert validate_kgp(A, k, gp)
    if fs is not None:
        assert validate_kfs(A, k, fs)
    if fp is not None:
        assert validate_kfp(A, k, fp)
    return StructureReport(k=k, ap=ap, gp=gp, fs=fs, fp=fp)
