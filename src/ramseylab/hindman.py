"""Desk-scale witnesses for finite-sum phenomena.

A *finite-sums witness* is a generator tuple whose full subset-sum closure
is monochromatic.  A *grid witness* generalises this to a sequence plus cut
tuples: for cuts m_0 < m_1 < ... < m_d the blocks are the subset-sum
closures FS(seq[m_{i-1}:m_i]), and the witness demands one common color
over every block of every cut tuple drawn from {0..L}.  For d = 1 the union
of all window closures is exactly FS(seq), so grid witnesses and fs
witnesses coincide there — a fact the test suite leans on.

*Composed* checks push one block value per cut through a binary operation,
left-nested, and color the results; the *depth-indexed* variant ties the
number of blocks d to the subset sums of the sequence's own head.  Both are
check-only: there is no composed finder.

Bundle searches look for scaled structures

    lam*A ∪ lam*B ∪ lam*(A+B) ∪ A*B          (witness kind ``bundle14``)

with A carrying a k-term arithmetic progression and a k-generator
finite-sums set, and shifted structures

    (lam+A) ∪ (lam+B) ∪ (lam+A*B) ∪ (A+B)    (witness kind ``bundle15``)

with A carrying k-AP, k-GP, k-FS and k-FP simultaneously.  A+B and A*B are
the pairwise sum/product sets (a in A, b in B), never A with itself.

Finders enumerate candidates in a fixed documented order, split on the
leading coordinate into chunks that run one after another, so results,
node counts and budget verdicts depend only on the query.  They read
colors from a flat table indexed by value, without bounds checks: their
own loop bounds keep every lookup in [1..N].  Every checker recomputes its
verdict from the raw data through the bounds-checked accessor, so it does
not share the finders' indexing; the finders never hand back anything a
checker has not confirmed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from ._parallel import NodeBudget, ordered_first_hit
from .colorings import Coloring, ColoringSpec
from .errors import (CompositionOutOfBoxError, MalformedInputError,
                     OutOfBoxError, RamseyError)
from .patterns import VALUE_CAP, parse_pattern
from .search import InstanceQuery, find_instance_detailed
from .structures import (MAX_FAMILY, OP_ADD, contains_kap, contains_kfp,
                         contains_kfs, contains_kgp, fs_values)

WITNESS_KINDS = ("fs", "grid", "composed", "bundle14", "bundle15")
BUILTIN_OPS = ("multiplication-capped", "addition-capped")

_SPEND_BATCH = 512


def _value_color(coloring: Coloring, v: int) -> int:
    if not 1 <= v <= coloring.N:
        raise OutOfBoxError(f"value {v} outside [1..{coloring.N}]")
    return coloring.value_color(v)


def _require_d1(coloring: Coloring):
    if coloring.d != 1:
        raise RamseyError("witness search needs a 1-dimensional coloring")


# ---------------------------------------------------------------------------
# finite-sums witnesses


def check_fs_witness(coloring: Coloring, generators) -> tuple:
    """Is FS(generators) monochromatic?  Returns (ok, color or None); raises
    OutOfBoxError when the closure escapes [1..N]."""
    _require_d1(coloring)
    gens = tuple(int(g) for g in generators)
    closure = sorted(fs_values(gens, OP_ADD))
    color = _value_color(coloring, closure[0])
    for v in closure[1:]:
        if _value_color(coloring, v) != color:
            return False, None
    return True, color


def find_fs_witness_detailed(coloring: Coloring, k: int,
                             budget: Optional[int] = None):
    """Least non-decreasing generator tuple (a_1 <= ... <= a_k) whose
    subset-sum closure is monochromatic, plus the node count.

    Repeated generators are allowed (FS is a set, so (1, 1) witnesses via
    {1, 2}); the k-FS *detector* in :mod:`ramseylab.structures` stays
    strict about distinct generators — the two answer different questions.
    """
    _require_d1(coloring)
    if k < 1:
        raise RamseyError("k must be at least 1")
    N = coloring.N
    colors = coloring.value_table()
    shared = NodeBudget(budget) if budget is not None else None

    def chunk(a1: int):
        local = 0
        if a1 * k > N:  # non-decreasing tuple: total sum at least a1*k
            return None, 0
        anchor = colors[a1]
        gens = [a1]
        sums = [a1]

        def rec(total: int):
            nonlocal local
            if len(gens) == k:
                return tuple(gens)
            remaining = k - len(gens)
            for v in range(gens[-1], N + 1):
                local += 1
                if shared is not None and local % _SPEND_BATCH == 0:
                    shared.spend(_SPEND_BATCH)
                if total + v * remaining > N:
                    break
                if colors[v] != anchor:
                    continue
                for s in sums:  # s + v <= total + v <= N
                    if colors[s + v] != anchor:
                        break
                else:
                    n = len(sums)
                    sums.extend([s + v for s in sums])
                    sums.append(v)
                    gens.append(v)
                    hit = rec(total + v)
                    del sums[n:]
                    gens.pop()
                    if hit is not None:
                        return hit
            return None

        if k == 1:
            hit = (a1,)
        else:
            hit = rec(a1)
        if shared is not None and local % _SPEND_BATCH:
            shared.spend(local % _SPEND_BATCH)
        return hit, local

    tasks = [(lambda a=a: chunk(a)) for a in range(1, N + 1)]
    return ordered_first_hit(tasks)


def find_fs_witness(coloring: Coloring, k: int, budget: Optional[int] = None):
    hit, _ = find_fs_witness_detailed(coloring, k, budget=budget)
    return list(hit) if hit is not None else None


# ---------------------------------------------------------------------------
# grid witnesses


@dataclass(frozen=True)
class CutGrid:
    """A sequence together with one cut tuple m_0 < ... < m_d selecting the
    blocks seq[m_{i-1}:m_i]."""

    sequence: tuple
    cuts: tuple

    def __post_init__(self):
        seq = tuple(int(v) for v in self.sequence)
        cuts = tuple(int(m) for m in self.cuts)
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "cuts", cuts)
        if not seq:
            raise RamseyError("empty sequence")
        if any(v < 1 for v in seq):
            raise RamseyError("sequence entries must be positive")
        if len(cuts) < 2:
            raise RamseyError("need at least two cuts (one block)")
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise RamseyError(f"cuts must be strictly increasing: {cuts}")
        if cuts[0] < 0 or cuts[-1] > len(seq):
            raise RamseyError(f"cuts {cuts} escape [0..{len(seq)}]")

    @property
    def d(self) -> int:
        return len(self.cuts) - 1

    @property
    def blocks(self):
        return [self.sequence[a:b] for a, b in zip(self.cuts, self.cuts[1:])]


def check_grid_witness(coloring: Coloring, grid: CutGrid) -> tuple:
    """One cut tuple: is every block closure monochromatic in one common
    color?  Returns (ok, color or None)."""
    _require_d1(coloring)
    anchor = None
    for block in grid.blocks:
        for v in sorted(fs_values(block, OP_ADD)):
            color = _value_color(coloring, v)
            if anchor is None:
                anchor = color
            elif color != anchor:
                return False, None
    return True, anchor


def grid_common_color(coloring: Coloring, sequence, d: int):
    """Common color over *all* cut tuples of d blocks, or None.  Raises
    OutOfBoxError when some block closure escapes the box."""
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    if not 1 <= d <= L:
        raise RamseyError(f"need 1 <= d <= {L}, got d={d}")
    anchor = None
    for cuts in combinations(range(L + 1), d + 1):
        ok, color = check_grid_witness(coloring, CutGrid(seq, cuts))
        if not ok or (anchor is not None and color != anchor):
            return None
        anchor = color
    return anchor


def find_grid_witness_detailed(coloring: Coloring, L: int, d: int,
                               budget: Optional[int] = None):
    """Least sequence in [1..N]^L whose d-block grid is witnessed under one
    common color, plus node count.  Returns ((sequence, color) or None,
    nodes).

    Cut tuples are evaluated as soon as their last cut is covered by the
    prefix, against the color of the first entry — sound because the cut
    tuple (0, 1, ..., d) forces that color on any full witness.
    """
    _require_d1(coloring)
    if d < 1:
        raise RamseyError("d must be at least 1")
    if L < d:
        raise RamseyError(f"need L >= d, got L={L} d={d}")
    N = coloring.N
    colors = coloring.value_table()
    shared = NodeBudget(budget) if budget is not None else None
    # the blocks (lo, hi) of the cut tuples ending at each prefix length,
    # each once, in the order of their first appearance
    blocks_by_end: dict = {}
    for cuts in combinations(range(L + 1), d + 1):
        blocks = blocks_by_end.setdefault(cuts[-1], [])
        for block in zip(cuts, cuts[1:]):
            if block not in blocks:
                blocks.append(block)

    def chunk(a1: int):
        local = 0
        anchor = colors[a1]
        seq = [a1]

        def prefix_ok() -> bool:
            for lo, hi in blocks_by_end.get(len(seq), ()):
                if not _closure_colored(seq[lo:hi], colors, anchor, N):
                    return False
            return True

        def rec():
            nonlocal local
            if len(seq) == L:
                return (tuple(seq), anchor)
            for v in range(1, N + 1):
                local += 1
                if shared is not None and local % _SPEND_BATCH == 0:
                    shared.spend(_SPEND_BATCH)
                seq.append(v)
                if prefix_ok():
                    hit = rec()
                    if hit is not None:
                        return hit
                seq.pop()
            return None

        hit = rec() if prefix_ok() else None
        if shared is not None and local % _SPEND_BATCH:
            shared.spend(local % _SPEND_BATCH)
        return hit, local

    tasks = [(lambda a=a: chunk(a)) for a in range(1, N + 1)]
    return ordered_first_hit(tasks)


def _closure_colored(block, colors, anchor: int, N: int) -> bool:
    """Is every subset sum of ``block`` (entries in [1..N]) at most N and
    of color ``anchor``?  A block that :func:`fs_values` refuses (more than
    :data:`MAX_FAMILY` entries, or a total above :data:`VALUE_CAP`) goes
    through it to raise its error.  Each distinct sum is kept once, so the
    work is bounded by the distinct sums, not by the 2^len subsets."""
    if len(block) > MAX_FAMILY or sum(block) > VALUE_CAP:
        fs_values(block, OP_ADD)
    closure = [0]  # the empty sum; adding g to it gives g itself
    seen = {0}
    for g in block:
        for i in range(len(closure)):
            v = closure[i] + g
            if v in seen:
                continue
            if v > N or colors[v] != anchor:
                return False
            seen.add(v)
            closure.append(v)
    return True


def find_grid_witness(coloring: Coloring, L: int, d: int,
                      budget: Optional[int] = None):
    hit, _ = find_grid_witness_detailed(coloring, L, d, budget=budget)
    if hit is None:
        return None
    seq, color = hit
    return list(seq), color


# ---------------------------------------------------------------------------
# binary operations and composed checks


@dataclass(frozen=True)
class OpTable:
    """A binary operation on [1..n]: either an explicit n x n table or one
    of the built-in partial operations, which raise rather than wrap when
    the true product/sum escapes [1..n]."""

    kind: str
    n: int
    rows: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("table",) + BUILTIN_OPS:
            raise MalformedInputError(f"unknown operation kind {self.kind!r}")
        if self.n < 1:
            raise MalformedInputError("operation domain must be nonempty")
        if self.kind == "table":
            if self.rows is None:
                raise MalformedInputError("table operation needs rows")
            rows = tuple(tuple(int(x) for x in row) for row in self.rows)
            if len(rows) != self.n or any(len(r) != self.n for r in rows):
                raise MalformedInputError(
                    f"operation table must be {self.n}x{self.n}")
            for row in rows:
                for x in row:
                    if not 1 <= x <= self.n:
                        raise MalformedInputError(
                            f"table entry {x} outside [1..{self.n}]")
            object.__setattr__(self, "rows", rows)
        elif self.rows is not None:
            raise MalformedInputError(f"{self.kind} takes no rows")

    def apply(self, x: int, y: int) -> int:
        for v in (x, y):
            if not 1 <= v <= self.n:
                raise CompositionOutOfBoxError(
                    f"operand {v} outside [1..{self.n}]")
        if self.kind == "table":
            return self.rows[x - 1][y - 1]
        v = x * y if self.kind == "multiplication-capped" else x + y
        if v > self.n:
            raise CompositionOutOfBoxError(
                f"{self.kind}: {x} op {y} = {v} > {self.n}")
        return v

    def to_json(self) -> dict:
        out = {"kind": self.kind, "n": self.n}
        if self.rows is not None:
            out["rows"] = [list(r) for r in self.rows]
        return out


def op_from_json(obj: dict) -> OpTable:
    if not isinstance(obj, dict) or "kind" not in obj or "n" not in obj:
        raise MalformedInputError("operation record needs 'kind' and 'n'")
    rows = obj.get("rows")
    return OpTable(kind=obj["kind"], n=int(obj["n"]),
                   rows=tuple(tuple(r) for r in rows) if rows else None)


def builtin_op(kind: str, n: int) -> OpTable:
    if kind not in BUILTIN_OPS:
        raise MalformedInputError(
            f"unknown builtin operation {kind!r} (choose from {BUILTIN_OPS})")
    return OpTable(kind=kind, n=n)


def load_op_table(path) -> OpTable:
    """Read an explicit table: first line n, then n rows of n entries in
    [1..n] (rows[i][j] is op(i+1, j+1))."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise MalformedInputError(f"{path}: empty operation table")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise MalformedInputError(f"{path}: non-integer entry") from exc
    n = values[0]
    if n < 1 or len(values) != 1 + n * n:
        raise MalformedInputError(
            f"{path}: expected {n}*{n} entries after the header")
    rows = tuple(tuple(values[1 + i * n: 1 + (i + 1) * n]) for i in range(n))
    return OpTable(kind="table", n=n, rows=rows)


def check_composed_witness(coloring: Coloring, op: OpTable,
                           grid: CutGrid) -> tuple:
    """Pick one closure value per block, fold them through ``op``
    left-nested (d = 1 means the bare value), and demand one color over all
    choices.  Color mismatches return (False, None); values the operation
    or the coloring cannot take raise CompositionOutOfBoxError."""
    _require_d1(coloring)
    closures = [sorted(fs_values(b, OP_ADD)) for b in grid.blocks]
    anchor = None
    for choice in product(*closures):
        v = choice[0]
        for x in choice[1:]:
            v = op.apply(v, x)
        if v > coloring.N:
            raise CompositionOutOfBoxError(
                f"composed value {v} outside [1..{coloring.N}]")
        color = _value_color(coloring, v)
        if anchor is None:
            anchor = color
        elif color != anchor:
            return False, None
    return True, anchor


def composed_color_by_depth(coloring: Coloring, op: OpTable, sequence,
                            d_max: int):
    """Depth profile: for each d in 1..min(d_max, L), do all d-block cut
    tuples compose to one common color?  Escapes are recorded per depth
    rather than raised, so a profile always completes."""
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    profile = []
    for d in range(1, min(d_max, L) + 1):
        entry = {"d": d, "ok": False, "color": None, "oob": False}
        anchor = None
        ok = True
        try:
            for cuts in combinations(range(L + 1), d + 1):
                good, color = check_composed_witness(
                    coloring, op, CutGrid(seq, cuts))
                if not good or (anchor is not None and color != anchor):
                    ok = False
                    break
                anchor = color
        except (CompositionOutOfBoxError, OutOfBoxError):
            entry["oob"] = True
            ok = False
        if ok:
            entry["ok"] = True
            entry["color"] = anchor
        profile.append(entry)
    return profile


def check_depth_indexed_witness(coloring: Coloring, op: OpTable, sequence,
                                m0: int) -> tuple:
    """Depth-indexed check: the admissible block counts d are exactly the
    subset sums of seq[:m0], and for each such d every cut tuple
    (m0, m_1, ..., m_d) with m0 < m_1 < ... < m_d <= L must compose
    monochromatically, all in one shared color.  Returns (ok, color);
    (True, None) when no cut tuple exists at any admissible depth."""
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    if not 1 <= m0 <= L:
        raise RamseyError(f"need 1 <= m0 <= {L}, got {m0}")
    anchor = None
    checked = False
    for d in sorted(fs_values(seq[:m0], OP_ADD)):
        if d > L - m0:
            continue
        for rest in combinations(range(m0 + 1, L + 1), d):
            ok, color = check_composed_witness(
                coloring, op, CutGrid(seq, (m0,) + rest))
            if not ok or (anchor is not None and color != anchor):
                return False, None
            anchor = color
            checked = True
    return (True, anchor) if checked else (True, None)


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class ScaledBundle:
    lam: int
    a_set: tuple
    b_set: tuple
    k: int
    color: int


@dataclass(frozen=True)
class ShiftedBundle:
    lam: int
    a_set: tuple
    b_set: tuple
    k: int
    color: int


def derived_scaled(lam: int, a_set, b_set) -> tuple:
    """lam*A ∪ lam*B ∪ lam*(A+B) ∪ A*B, sorted."""
    out = set()
    for a in a_set:
        out.add(lam * a)
    for b in b_set:
        out.add(lam * b)
    for a in a_set:
        for b in b_set:
            out.add(lam * (a + b))
            out.add(a * b)
    return tuple(sorted(out))


def derived_shifted(lam: int, a_set, b_set) -> tuple:
    """(lam+A) ∪ (lam+B) ∪ (lam+A*B) ∪ (A+B), sorted."""
    out = set()
    for a in a_set:
        out.add(lam + a)
    for b in b_set:
        out.add(lam + b)
    for a in a_set:
        for b in b_set:
            out.add(lam + a * b)
            out.add(a + b)
    return tuple(sorted(out))


def _scaled_structure_ok(a_set: tuple, k: int) -> bool:
    A = frozenset(a_set)
    return (contains_kfs(A, k) is not None and
            contains_kap(A, k) is not None)


def _shifted_structure_ok(a_set: tuple, k: int) -> bool:
    A = frozenset(a_set)
    return (contains_kfs(A, k) is not None and
            contains_kap(A, k) is not None and
            contains_kgp(A, k) is not None and
            contains_kfp(A, k) is not None)


def check_scaled_bundle(coloring: Coloring, bundle: ScaledBundle) -> tuple:
    """Recompute everything from the raw sets: derived values in box and
    monochromatic in bundle.color, A carrying k-AP and k-FS.  Returns
    (ok, detail)."""
    _require_d1(coloring)
    for v in derived_scaled(bundle.lam, bundle.a_set, bundle.b_set):
        if _value_color(coloring, v) != bundle.color:
            return False, f"derived value {v} is not color {bundle.color}"
    if contains_kap(frozenset(bundle.a_set), bundle.k) is None:
        return False, f"A has no {bundle.k}-term arithmetic progression"
    if contains_kfs(frozenset(bundle.a_set), bundle.k) is None:
        return False, f"A has no {bundle.k}-generator finite-sums set"
    return True, None


def check_shifted_bundle(coloring: Coloring, bundle: ShiftedBundle) -> tuple:
    _require_d1(coloring)
    for v in derived_shifted(bundle.lam, bundle.a_set, bundle.b_set):
        if _value_color(coloring, v) != bundle.color:
            return False, f"derived value {v} is not color {bundle.color}"
    A = frozenset(bundle.a_set)
    for label, probe in (("arithmetic progression", contains_kap),
                         ("geometric progression", contains_kgp),
                         ("finite-sums set", contains_kfs),
                         ("finite-products set", contains_kfp)):
        if probe(A, bundle.k) is None:
            return False, f"A has no {bundle.k}-term {label}"
    return True, None


def _find_bundle(coloring: Coloring, k: int, cap_a: int,
                 budget: Optional[int], shifted: bool):
    """Shared bundle search.  Candidate order: lam ascending, |A|
    ascending, A lexicographic, then B — and since the per-b constraints
    are independent, the first feasible B is always a singleton, checked in
    ascending b.  Structure is checked once per A, after the first b that
    keeps the derived set monochromatic."""
    _require_d1(coloring)
    if k < 1:
        raise RamseyError("k must be at least 1")
    if cap_a < 1:
        raise RamseyError("cap_a must be at least 1")
    N = coloring.N
    colors = coloring.value_table()
    shared = NodeBudget(budget) if budget is not None else None
    structure_ok = _shifted_structure_ok if shifted else _scaled_structure_ok

    def chunk(lam: int):
        local = 0
        vmax = N - lam if shifted else N // lam
        if vmax < 1:
            return None, 0
        # image[v]: the color of lam+v (lam*v) for v in [1..vmax]
        if shifted:
            image = [None] + [colors[lam + v] for v in range(1, vmax + 1)]
        else:
            image = [None] + [colors[lam * v] for v in range(1, vmax + 1)]
        # b candidates by the color of their image, ascending
        b_by_color: dict = {}
        for b in range(1, vmax + 1):
            b_by_color.setdefault(image[b], []).append(b)

        def first_good_b(a_set, anchor):
            nonlocal local
            amax = a_set[-1]
            for b in b_by_color.get(anchor, ()):
                local += 1
                if shared is not None and local % _SPEND_BATCH == 0:
                    shared.spend(_SPEND_BATCH)
                if shifted:
                    if amax + b > N or lam + amax * b > N:
                        break  # both escapes are monotone in b
                    for a in a_set:
                        if colors[a + b] != anchor or \
                                colors[lam + a * b] != anchor:
                            break
                    else:
                        return b
                else:
                    if lam * (amax + b) > N or amax * b > N:
                        break
                    for a in a_set:
                        if colors[a * b] != anchor or \
                                colors[lam * (a + b)] != anchor:
                            break
                    else:
                        return b
            return None

        a_set: list = []

        def extend(anchor, size):
            # grows a_set in place; each A is reached once, so each
            # structure check is one node
            nonlocal local
            if len(a_set) == size:
                b = first_good_b(a_set, anchor)
                if b is None:
                    return None
                local += 1
                if shared is not None and local % _SPEND_BATCH == 0:
                    shared.spend(_SPEND_BATCH)
                key = tuple(a_set)
                return (key, (b,)) if structure_ok(key, k) else None
            start = a_set[-1] + 1 if a_set else 1
            need = size - len(a_set)
            for a in range(start, vmax + 1):
                local += 1
                if shared is not None and local % _SPEND_BATCH == 0:
                    shared.spend(_SPEND_BATCH)
                if vmax - a + 1 < need:
                    break  # not enough room left for the remaining elements
                color = image[a]
                if anchor is not None and color != anchor:
                    continue
                a_set.append(a)
                hit = extend(color, size)
                a_set.pop()
                if hit is not None:
                    return hit
            return None

        hit = None
        for size in range(k, cap_a + 1):
            found = extend(None, size)
            if found is not None:
                a_key, b_key = found
                anchor = image[a_key[0]]
                cls = ShiftedBundle if shifted else ScaledBundle
                hit = cls(lam=lam, a_set=a_key, b_set=b_key, k=k,
                          color=anchor)
                break
        if shared is not None and local % _SPEND_BATCH:
            shared.spend(local % _SPEND_BATCH)
        return hit, local

    lam_hi = N - 1 if shifted else N
    tasks = [(lambda lam=lam: chunk(lam)) for lam in range(1, lam_hi + 1)]
    return ordered_first_hit(tasks)


def find_scaled_bundle_detailed(coloring: Coloring, k: int,
                                cap_a: Optional[int] = None,
                                budget: Optional[int] = None):
    if cap_a is None:
        cap_a = max(k, min(7, 2 ** k - 1))
    return _find_bundle(coloring, k, cap_a, budget, shifted=False)


def find_scaled_bundle(coloring: Coloring, k: int,
                       cap_a: Optional[int] = None,
                       budget: Optional[int] = None):
    hit, _ = find_scaled_bundle_detailed(coloring, k, cap_a=cap_a,
                                         budget=budget)
    return hit


def find_shifted_bundle_detailed(coloring: Coloring, k: int,
                                 cap_a: Optional[int] = None,
                                 budget: Optional[int] = None):
    if cap_a is None:
        cap_a = max(k, min(9, 2 ** k))
    return _find_bundle(coloring, k, cap_a, budget, shifted=True)


def find_shifted_bundle(coloring: Coloring, k: int,
                        cap_a: Optional[int] = None,
                        budget: Optional[int] = None):
    hit, _ = find_shifted_bundle_detailed(coloring, k, cap_a=cap_a,
                                          budget=budget)
    return hit


# ---------------------------------------------------------------------------
# corollary quadruples

SCALED_QUAD = parse_pattern("{a*x, a*y, x*y, a*(x+y)}")
SHIFTED_QUAD = parse_pattern("{u+b, v+b, u*v+b, u+v}")


def find_scaled_quad_detailed(coloring: Coloring,
                              max_nodes: Optional[int] = None):
    return find_instance_detailed(
        InstanceQuery(schema=SCALED_QUAD, coloring=coloring),
        max_nodes=max_nodes)


def find_scaled_quad(coloring: Coloring, max_nodes: Optional[int] = None):
    """Least (a, x, y) with {a*x, a*y, x*y, a*(x+y)} monochromatic, as
    (assignment dict, color), or None."""
    hit, _ = find_scaled_quad_detailed(coloring, max_nodes=max_nodes)
    return hit


def check_scaled_quad(coloring: Coloring, a: int, x: int, y: int) -> tuple:
    values = (a * x, a * y, x * y, a * (x + y))
    colors = {_value_color(coloring, v) for v in values}
    return (True, colors.pop()) if len(colors) == 1 else (False, None)


def find_shifted_quad_detailed(coloring: Coloring,
                               max_nodes: Optional[int] = None):
    return find_instance_detailed(
        InstanceQuery(schema=SHIFTED_QUAD, coloring=coloring),
        max_nodes=max_nodes)


def find_shifted_quad(coloring: Coloring, max_nodes: Optional[int] = None):
    """Least (b, u, v) with {u+b, v+b, u*v+b, u+v} monochromatic."""
    hit, _ = find_shifted_quad_detailed(coloring, max_nodes=max_nodes)
    return hit


def check_shifted_quad(coloring: Coloring, b: int, u: int, v: int) -> tuple:
    values = (u + b, v + b, u * v + b, u + v)
    colors = {_value_color(coloring, w) for w in values}
    return (True, colors.pop()) if len(colors) == 1 else (False, None)


# ---------------------------------------------------------------------------
# witness records


def make_witness(kind: str, data: dict,
                 coloring_spec: Optional[ColoringSpec] = None,
                 validated: bool = False) -> dict:
    if kind not in WITNESS_KINDS:
        raise MalformedInputError(
            f"unknown witness kind {kind!r} (choose from {WITNESS_KINDS})")
    return {
        "schema_version": 1,
        "kind": kind,
        "data": data,
        "coloring_ref": coloring_spec.to_json() if coloring_spec else None,
        "validated": bool(validated),
    }


def save_witness(path, record: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def load_witness(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise MalformedInputError(f"{path}: witness record must be an object")
    if record.get("schema_version") != 1:
        raise MalformedInputError(f"{path}: unsupported schema_version")
    if record.get("kind") not in WITNESS_KINDS:
        raise MalformedInputError(f"{path}: unknown witness kind")
    if not isinstance(record.get("data"), dict):
        raise MalformedInputError(f"{path}: witness data must be an object")
    return record


def verify_witness(record: dict, coloring: Optional[Coloring] = None) -> tuple:
    """Re-check a witness record from scratch against a coloring (given
    directly, or loaded from the record's coloring_ref).  Returns
    (ok, detail string); out-of-box data verifies False, it does not
    raise."""
    kind = record.get("kind")
    if kind not in WITNESS_KINDS:
        raise MalformedInputError(f"unknown witness kind {kind!r}")
    data = record.get("data")
    if not isinstance(data, dict):
        raise MalformedInputError("witness data must be an object")
    if coloring is None:
        ref = record.get("coloring_ref")
        if ref is None:
            raise MalformedInputError(
                "no coloring given and the record carries no coloring_ref")
        coloring = ColoringSpec.from_json(ref).load()

    try:
        if kind == "fs":
            ok, color = check_fs_witness(coloring, data["generators"])
            want = data.get("color")
            if ok and (want is None or want == color):
                return True, f"FS closure monochromatic in color {color}"
            return False, ("closure is not monochromatic" if not ok else
                           f"closure color {color} != recorded {want}")
        if kind == "grid":
            seq = data["sequence"]
            if "cuts" in data:
                ok, color = check_grid_witness(
                    coloring, CutGrid(tuple(seq), tuple(data["cuts"])))
            else:
                color = grid_common_color(coloring, seq, int(data["d"]))
                ok = color is not None
            want = data.get("color")
            if ok and (want is None or want == color):
                return True, f"grid blocks monochromatic in color {color}"
            return False, ("blocks are not monochromatic" if not ok else
                           f"block color {color} != recorded {want}")
        if kind == "composed":
            op = op_from_json(data["op"])
            ok, color = check_composed_witness(
                coloring, op,
                CutGrid(tuple(data["sequence"]), tuple(data["cuts"])))
            want = data.get("color")
            if ok and (want is None or want == color):
                return True, f"composed values monochromatic in color {color}"
            return False, ("composed values are not monochromatic" if not ok
                           else f"composed color {color} != recorded {want}")
        if kind == "bundle14":
            bundle = ScaledBundle(lam=int(data["lam"]),
                                  a_set=tuple(data["a_set"]),
                                  b_set=tuple(data["b_set"]),
                                  k=int(data["k"]), color=int(data["color"]))
            ok, detail = check_scaled_bundle(coloring, bundle)
            return ok, detail or "scaled bundle verified"
        bundle = ShiftedBundle(lam=int(data["lam"]),
                               a_set=tuple(data["a_set"]),
                               b_set=tuple(data["b_set"]),
                               k=int(data["k"]), color=int(data["color"]))
        ok, detail = check_shifted_bundle(coloring, bundle)
        return ok, detail or "shifted bundle verified"
    except (OutOfBoxError, CompositionOutOfBoxError) as exc:
        return False, f"out of box: {exc}"
    except KeyError as exc:
        raise MalformedInputError(f"witness data missing field {exc}") from exc
