"""Desk-scale witnesses for finite-sum phenomena.

A *finite-sums witness* is a generator tuple whose full subset-sum closure
is monochromatic.  A *grid witness* is a sequence whose block closures
FS(seq[m_{i-1}:m_i]), over every cut tuple m_0 < ... < m_d from {0..L},
share one color.  For d = 1 the union of all window closures is FS(seq),
so grid and fs witnesses coincide there — a fact the test suite leans on.

*Composed* checks push one block value per cut through a binary operation,
left-nested, and color the results; the *depth-indexed* variant ties the
number of blocks d to the subset sums of the sequence's own head.  One
walk, :func:`_composed_walk`, answers both: it closes each block once and
gives up past :data:`structures.PROBE_BUDGET` units.  Each composed check
(``*_detailed``) returns its answer with the units spent, which
``composed-witness`` reports as its nodes.  No finder exists.

A :class:`Bundle` is one of the paper's two structures: the scaled lam*A ∪
lam*B ∪ lam*(A+B) ∪ A*B (kind ``bundle14``), A carrying k-FS and k-AP, or
the shifted (lam+A) ∪ (lam+B) ∪ (lam+A*B) ∪ (A+B) (``bundle15``), A
carrying k-FS, k-AP, k-GP and k-FP.  A+B and A*B are the pairwise
sum/product sets (a in A, b in B); lam >= 1, and A and B are nonempty sets
of positive integers.

Each finder (``find_*_detailed``) returns ``(hit or None, nodes)`` from one
in-order depth-first search in a fixed documented order, so results, node
counts and budget verdicts depend only on the query: a budget of B nodes
gives the answer when the search needs at most B nodes, else node B + 1
stops it (``BudgetExceededError.past``).  Finders read colors from a flat
table by value, unchecked (their loop bounds keep every lookup in
[1..N]); checkers recompute from the raw data through the bounds-checked
accessor, and the fs, cut-grid and composed checks size a closure by its
sum before they build it.  :func:`verify_witness` is the one judge of a
witness record: the CLI prints no fs, grid or bundle hit before it has
accepted the record built from the hit, and saves that record.  Every
color check is one fold, :func:`_common_color`, over what its walk yields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from typing import Optional

from .colorings import Coloring, ColoringSpec
from .errors import (BudgetExceededError, CompositionOutOfBoxError,
                     MalformedInputError, OutOfBoxError, RamseyError)
from .patterns import parse_pattern
from .search import InstanceQuery, find_instance_detailed
from .semigroups import parse_rows
from . import structures
from .structures import (MAX_FAMILY, OP_ADD, contains_kap, contains_kfp,
                         contains_kfs, contains_kgp, fs_family, fs_values,
                         min_closure_size)

WITNESS_KINDS = ("fs", "grid", "composed", "bundle14", "bundle15")
BUILTIN_OPS = ("multiplication-capped", "addition-capped")


# ---------------------------------------------------------------------------
# finite-sums witnesses


def _common_color(results) -> tuple:
    """Fold ``(ok, color)`` results into one shared color: (True, color)
    when all agree, (False, None) at the first that fails or disagrees
    (nothing after it is evaluated), (True, None) when there are none."""
    anchor = None
    for ok, color in results:
        if not ok or (anchor is not None and color != anchor):
            return False, None
        anchor = color
    return True, anchor


def check_fs_witness(coloring: Coloring, generators) -> tuple:
    """Is FS(generators) monochromatic?  Returns (ok, color or None).  The
    generators' sum, their closure's largest value, past N raises
    OutOfBoxError before any of the up to 2^k sums is built."""
    gens = fs_family(int(g) for g in generators)
    if sum(gens) > coloring.N:
        raise OutOfBoxError(
            f"closure value {sum(gens)} outside [1..{coloring.N}]")
    return _common_color((True, coloring.value_color(v))
                         for v in sorted(fs_values(gens, OP_ADD)))


def find_fs_witness_detailed(coloring: Coloring, k: int,
                             budget: Optional[int] = None):
    """Least non-decreasing generator tuple (a_1 <= ... <= a_k) whose
    subset-sum closure is monochromatic, plus the node count.

    Repeated generators are allowed (FS is a set, so (1, 1) witnesses via
    {1, 2}); the k-FS *detector* in :mod:`ramseylab.structures` stays
    strict about distinct generators — the two answer different questions.
    """
    if k < 1:
        raise RamseyError("k must be at least 1")
    if k > MAX_FAMILY:  # the closure check refuses more generators anyway
        raise RamseyError(f"family size {k} outside [1, {MAX_FAMILY}]")
    N = coloring.N
    colors = coloring.value_table()
    nodes = 0
    gens: list = []
    sums: dict = {}  # the distinct subset sums of gens (at most N), in order

    def rec(total: int, anchor: int):
        nonlocal nodes
        if len(gens) == k:
            return tuple(gens)
        remaining = k - len(gens)
        for v in range(gens[-1], N + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError.past(budget)
            if total + v * remaining > N:
                break
            if colors[v] != anchor:
                continue
            for s in sums:  # s + v <= total + v <= N
                if colors[s + v] != anchor:
                    break
            else:
                n = len(sums)
                sums.update(dict.fromkeys([v] + [s + v for s in sums]))
                gens.append(v)
                hit = rec(total + v, anchor)
                while len(sums) > n:  # the sums added here are the last
                    sums.popitem()
                gens.pop()
                if hit is not None:
                    return hit
        return None

    for a1 in range(1, N // k + 1):  # a non-decreasing tuple sums to >= a1*k
        gens[:] = [a1]
        sums.clear()
        sums[a1] = None
        hit = rec(a1, colors[a1])
        if hit is not None:
            return hit, nodes
    return None, nodes


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
    color?  Returns (ok, color or None); escapes raise as in
    :func:`check_fs_witness`."""
    return _common_color(check_fs_witness(coloring, block)
                         for block in grid.blocks)


def grid_common_color(coloring: Coloring, sequence, d: int):
    """Common color over *all* cut tuples of d blocks, or None.  Raises
    OutOfBoxError when some block closure escapes the box.  Checking each
    distinct block once, in :func:`_grid_blocks` order, against the first
    entry's color gives the answer and error of the per-tuple fold."""
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    if not 1 <= d <= L:
        raise RamseyError(f"need 1 <= d <= {L}, got d={d}")
    CutGrid(seq, (0, L))  # refuses entries below 1
    return _common_color((True, coloring.value_color(v))
                         for lo, hi in _grid_blocks(L, d)
                         for v in sorted(fs_values(seq[lo:hi], OP_ADD)))[1]


def _grid_blocks(L: int, d: int):
    """The distinct blocks (lo, hi) of the d-block cut tuples from {0..L},
    in the order the tuples, walked lexicographically, first hold them:
    the (lo, hi) with lo + (L - hi) >= d - 1, each first held by the tuple
    (0, 1, ..., i - 2, lo, hi, hi + 1, ...) with i = min(lo + 1, d)."""
    yield from ((j, j + 1) for j in range(d))  # (0, 1, ..., d)
    yield from ((d - 1, hi) for hi in range(d + 1, L + 1))  # (0..d-1, hi)
    for x in range(d, L + 1):  # (0, ..., d - 2, x, y)
        if d >= 2 and x < L:
            yield d - 2, x  # at y = x + 1, before (x, x + 1)
        yield from ((x, y) for y in range(x + 1, L + 1))
    for k in range(d - 2, 0, -1):  # (0, ..., k - 1, x, x + 1, ...)
        yield from ((k - 1, x) for x in range(k + 1, L - d + k + 1))


def find_grid_witness_detailed(coloring: Coloring, L: int, d: int,
                               budget: Optional[int] = None):
    """Least sequence in [1..N]^L whose d-block grid shares one color:
    ((sequence, color) or None, nodes), a node per candidate at m > 1.

    A block is checked against the first entry's color (the tuple (0, 1,
    ..., d) forces it) at the least m ending a cut tuple that holds it.
    Those ending before m, (lo, lo + m - d + 1) for lo < d - 1, are checked
    once per position: if one fails, all N candidates count at once.  At
    (lo, m), lo >= d - 1, a candidate v adds v + s for s in {0} and
    FS(seq[d-1:m-1]); those with v + sum(seq[d-1:m-1]) > N count at once."""
    if d < 1:
        raise RamseyError("d must be at least 1")
    if L < d:
        raise RamseyError(f"need L >= d, got L={L} d={d}")
    if L - d + 1 > MAX_FAMILY:  # every grid holds the block (0, L - d + 1)
        raise RamseyError(f"grid block length {L - d + 1}: family size "
                          f"{L - d + 1} outside [1, {MAX_FAMILY}]")
    N = coloring.N
    colors = coloring.value_table()
    nodes = 0
    for a1 in range(1, N + 1):
        anchor, seq, marks, stack = colors[a1], [a1], [], []
        sums = dict.fromkeys((0, a1) if d == 1 else (0,))  # 0, FS(seq[d-1:])
        # marks: len(sums) before each later entry; stack: open positions
        while True:
            if len(stack) < len(seq):  # an entry was placed: open the next
                if len(seq) == L:
                    return (tuple(seq), anchor), nodes
                w = len(seq) - d + 2  # the fixed blocks' length
                last = N - max(sums) if w < 1 or all(
                    v <= N and colors[v] == anchor for lo in range(d - 1)
                    for v in fs_values(seq[lo:lo + w], OP_ADD)) else 0
                stack.append((iter(range(1, last + 1)), last))
            candidates, last = stack[-1]
            fresh = sums if len(seq) >= d - 1 else ()
            for v in candidates:
                nodes += 1
                if budget is not None and nodes > budget:
                    raise BudgetExceededError.past(budget)
                for s in fresh:
                    if colors[s + v] != anchor:
                        break
                else:
                    break  # v passes
            else:  # none passed, nor can those past last
                nodes += N - last
                if budget is not None and nodes > budget:
                    raise BudgetExceededError.past(budget)
                stack.pop()
                if not stack:
                    break
                seq.pop()
                for _ in range(len(sums) - marks.pop()):
                    sums.popitem()
                continue
            marks.append(len(sums))
            if fresh:
                sums.update(dict.fromkeys([s + v for s in sums]))
            seq.append(v)
    return None, nodes


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
            bad = [x for row in rows for x in row if not 1 <= x <= self.n]
            if bad:
                raise MalformedInputError(
                    f"table entry {bad[0]} outside [1..{self.n}]")
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
    if rows:
        if not isinstance(rows, list):
            raise MalformedInputError(
                "witness field 'rows' must be a list of rows")
        rows = tuple(_ints({"rows": row}, "rows") for row in rows)
    return OpTable(kind=obj["kind"], n=_int(obj, "n"), rows=rows or None)


def load_op_table(path) -> OpTable:
    """Read an explicit table: first line n, then n rows of n entries in
    [1..n] (rows[i][j] is op(i+1, j+1))."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = parse_rows(fh.read(), "operation table")
    return OpTable(kind="table", n=len(rows), rows=rows)


def _composed_walk(coloring: Coloring, op: OpTable, seq: tuple):
    """``(close, fold, spent)`` with one unit counter.  ``close(block)``
    spends min(2^len - 1, sum) units, the most values FS(block) has, then
    builds it sorted.  ``fold(tuples)`` folds each cut tuple's picks (one
    closure value per block, in ``product`` order, left-nested through
    ``op``; a unit each) into the tuple's color, then those colors into
    (ok, color), so answers and errors are those of one check per tuple.
    A block (lo, hi) is closed when a tuple first holds it; the first tuple
    checks ``seq`` as its CutGrid did.  ``spent()`` is the units spent so
    far; unit PROBE_BUDGET + 1 raises BudgetExceededError."""
    budget, spent, closures = structures.PROBE_BUDGET, 0, {}

    def spend(units: int):
        nonlocal spent
        spent += units
        if spent > budget:
            raise BudgetExceededError.past(budget)

    def close(block) -> list:
        block = fs_family(block)
        spend(min(2 ** len(block) - 1, sum(block)))
        return sorted(fs_values(block, OP_ADD))

    def colors(cuts):
        blocks = list(zip(cuts, cuts[1:]))
        for lo, hi in blocks:
            if (lo, hi) not in closures:
                if not closures:
                    CutGrid(seq, (0, len(seq)))
                closures[lo, hi] = close(seq[lo:hi])
        for choice in product(*[closures[block] for block in blocks]):
            spend(1)
            v = reduce(op.apply, choice)
            if v > coloring.N:
                raise CompositionOutOfBoxError(
                    f"composed value {v} outside [1..{coloring.N}]")
            yield True, coloring.value_color(v)

    return close, lambda tuples: _common_color(
        _common_color(colors(cuts)) for cuts in tuples), lambda: spent


def check_composed_witness_detailed(coloring: Coloring, op: OpTable,
                                    grid: CutGrid):
    """Pick one closure value per block, fold the picks through ``op``
    left-nested (d = 1: the bare value), and demand one color over all
    choices.  Returns ((ok, color), units), with (False, None) on a
    mismatch; CompositionOutOfBoxError for a value the operation or the
    coloring cannot take."""
    _, fold, spent = _composed_walk(coloring, op, grid.sequence)
    return fold([grid.cuts]), spent()


def composed_color_by_depth_detailed(coloring: Coloring, op: OpTable,
                                     sequence, d_max: int):
    """Depth profile and units: for each d in 1..min(d_max, L), do all
    d-block cut tuples compose to one common color?  Escapes are recorded
    per depth; the depths share one walk and its budget.  Depth 1 holds
    the block (0, L), so a sequence of more than MAX_FAMILY entries is
    refused before any work."""
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    if d_max >= 1 and L > MAX_FAMILY:
        raise RamseyError(f"profile block length {L} (depth 1 holds the "
                          f"whole sequence): family size {L} outside "
                          f"[1, {MAX_FAMILY}]")
    _, fold, spent = _composed_walk(coloring, op, seq)
    profile = []
    for d in range(1, min(d_max, L) + 1):
        try:
            ok, color = fold(combinations(range(L + 1), d + 1))
            oob = False
        except OutOfBoxError:  # CompositionOutOfBoxError included
            ok, color, oob = False, None, True
        profile.append({"d": d, "ok": ok, "color": color, "oob": oob})
    return profile, spent()


def check_depth_indexed_witness_detailed(coloring: Coloring, op: OpTable,
                                         sequence, m0: int):
    """Depth-indexed check: for each subset sum d of seq[:m0], every cut
    tuple (m0, m_1, ..., m_d) with m_d <= L must compose to one color,
    shared by all.  Returns ((ok, color), units); (True, None) when no cut
    tuple exists at any admissible depth."""
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    if not 1 <= m0 <= L:
        raise RamseyError(f"need 1 <= m0 <= {L}, got {m0}")
    close, fold, spent = _composed_walk(coloring, op, seq)
    answer = fold((m0,) + rest for d in close(seq[:m0]) if d <= L - m0
                  for rest in combinations(range(m0 + 1, L + 1), d))
    return answer, spent()


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class Bundle:
    """A bundle witness, scaled (kind ``bundle14``) or ``shifted``
    (``bundle15``), all of ``color``, with A carrying the k-structures that
    :func:`_missing_structure` asks for."""

    shifted: bool
    lam: int
    a_set: tuple
    b_set: tuple
    k: int
    color: int

    def derived(self) -> tuple:
        """The structure's values, sorted."""
        lam, shifted = self.lam, self.shifted
        out = {lam + v if shifted else lam * v
               for v in (*self.a_set, *self.b_set)}
        for a in self.a_set:
            for b in self.b_set:
                out.update((lam + a * b, a + b) if shifted else
                           (lam * (a + b), a * b))
        return tuple(sorted(out))


def _missing_structure(A: frozenset, k: int, shifted: bool) -> Optional[str]:
    """The first k-structure A lacks, named for a detail after "k-", or
    None: FS, AP, then, when shifted, GP and FP.  The detectors are looked
    up at each call, so a wrapped ``contains_k*`` sees every probe."""
    if contains_kfs(A, k) is None:
        return "generator finite-sums set"
    if contains_kap(A, k) is None:
        return "term arithmetic progression"
    if shifted:
        if contains_kgp(A, k) is None:
            return "term geometric progression"
        if contains_kfp(A, k) is None:
            return "generator finite-products set"
    return None


def check_bundle(coloring: Coloring, bundle: Bundle) -> tuple:
    """Recompute everything from the raw data: the shape, the derived
    values in box and all of bundle.color, then A's structures in the
    finder's order.  Returns (ok, detail)."""
    if bundle.lam < 1:
        return False, f"lam {bundle.lam} is below 1"
    for name, values in (("A", bundle.a_set), ("B", bundle.b_set)):
        if not values or min(values) < 1 or len(set(values)) < len(values):
            return False, f"{name} is not a nonempty set of positive integers"
    for v in bundle.derived():
        if coloring.value_color(v) != bundle.color:
            return False, f"derived value {v} is not color {bundle.color}"
    missing = _missing_structure(frozenset(bundle.a_set), bundle.k,
                                 bundle.shifted)
    if missing is not None:
        return False, f"A has no {bundle.k}-{missing}"
    return True, None


def _find_bundle(coloring: Coloring, k: int, cap_a: Optional[int],
                 budget: Optional[int], shifted: bool):
    """Shared bundle search.  Candidate order: lam ascending, |A| ascending
    from ``min_closure_size(k)``, A lexicographic, then B, whose per-b
    constraints are independent, so the first feasible B is a singleton,
    tried in ascending b.  Structure is checked once per A, after the
    first b that keeps the derived set monochromatic.  No smaller A holds
    a k-FS set, so a cap below that size, given or the default, is
    refused: the walk it allows could not answer."""
    if k < 1:
        raise RamseyError("k must be at least 1")
    if cap_a is None:
        cap_a = min(9, 2 ** k) if shifted else min(7, 2 ** k - 1)
    least = min_closure_size(k)
    if cap_a < least:
        raise RamseyError(f"cap_a {cap_a} is below {least}, the least |A| "
                          f"that holds a {k}-generator FS set")
    N = coloring.N
    colors = coloring.value_table()
    nodes = 0
    a_set: list = []
    # first_good_b and extend read vmax, image, b_by_color and the shape's
    # sum and product tables and caps as the loop over lam below sets them

    def first_good_b(anchor):
        nonlocal nodes
        amax = a_set[-1]
        for b in b_by_color.get(anchor, ()):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError.past(budget)
            if amax + b > sum_cap or amax * b > prod_cap:
                break  # both escapes are monotone in b
            for a in a_set:
                if sum_colors[a + b] != anchor or \
                        prod_colors[a * b] != anchor:
                    break
            else:
                return b
        return None

    def extend(anchor, size):
        # grows a_set in place; each A is reached once per lam and size, so
        # each structure check is one node
        nonlocal nodes
        if len(a_set) == size:
            b = first_good_b(anchor)
            if b is None:
                return None
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError.past(budget)
            key = tuple(a_set)
            if _missing_structure(frozenset(key), k, shifted) is not None:
                return None
            return key, (b,)
        start = a_set[-1] + 1 if a_set else 1
        need = size - len(a_set)
        for a in range(start, vmax + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError.past(budget)
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

    for lam in range(1, (N - 1 if shifted else N) + 1):
        vmax = N - lam if shifted else N // lam
        # image[v]: the color of lam+v (lam*v) for v in [1..vmax]
        image = [None] + [colors[v] for v in (
            range(lam + 1, N + 1) if shifted else range(lam, N + 1, lam))]
        # shifted: a+b and lam+a*b, so the image is read at a*b <= N - lam;
        # scaled: lam*(a+b) and a*b, so the image is read at a+b <= N // lam
        sum_colors, prod_colors = (colors, image) if shifted else (image, colors)
        sum_cap, prod_cap = (N, vmax) if shifted else (vmax, N)
        # b candidates by the color of their image, ascending
        b_by_color: dict = {}
        for b in range(1, vmax + 1):
            b_by_color.setdefault(image[b], []).append(b)
        for size in range(least, cap_a + 1):
            found = extend(None, size)
            if found is not None:
                a_key, b_key = found
                return Bundle(shifted=shifted, lam=lam, a_set=a_key,
                              b_set=b_key, k=k, color=image[a_key[0]]), nodes
    return None, nodes


def find_scaled_bundle_detailed(coloring: Coloring, k: int,
                                cap_a: Optional[int] = None,
                                budget: Optional[int] = None):
    return _find_bundle(coloring, k, cap_a, budget, shifted=False)


def find_shifted_bundle_detailed(coloring: Coloring, k: int,
                                 cap_a: Optional[int] = None,
                                 budget: Optional[int] = None):
    return _find_bundle(coloring, k, cap_a, budget, shifted=True)


# ---------------------------------------------------------------------------
# corollary quadruples

SCALED_QUAD = parse_pattern("{a*x, a*y, x*y, a*(x+y)}")
SHIFTED_QUAD = parse_pattern("{u+b, v+b, u*v+b, u+v}")


def find_scaled_quad_detailed(coloring: Coloring,
                              max_nodes: Optional[int] = None):
    """Least (a, x, y) with {a*x, a*y, x*y, a*(x+y)} monochromatic, as
    (assignment dict, color) or None, plus the leaf count."""
    return find_instance_detailed(InstanceQuery(SCALED_QUAD, coloring),
                                  max_nodes=max_nodes)


def find_shifted_quad_detailed(coloring: Coloring,
                               max_nodes: Optional[int] = None):
    """Least (b, u, v) with {u+b, v+b, u*v+b, u+v} monochromatic, as
    (assignment dict, color) or None, plus the leaf count."""
    return find_instance_detailed(InstanceQuery(SHIFTED_QUAD, coloring),
                                  max_nodes=max_nodes)


# ---------------------------------------------------------------------------
# witness records


def make_witness(kind: str, data: dict,
                 coloring_spec: Optional[ColoringSpec] = None) -> dict:
    if kind not in WITNESS_KINDS:
        raise MalformedInputError(
            f"unknown witness kind {kind!r} (choose from {WITNESS_KINDS})")
    return {"schema_version": 1, "kind": kind, "data": data,
            "coloring_ref": coloring_spec.to_json() if coloring_spec else None}


def save_witness(path, record: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def load_witness(path) -> dict:
    """The JSON object in ``path``, as :func:`verify_witness` reads it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise MalformedInputError(f"{path}: witness record must be an object")
    return record


def _ints(data: dict, key: str) -> tuple:
    """``data[key]``, which must be a list of integers, as a tuple."""
    value = data[key]
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise MalformedInputError(
            f"witness field {key!r} must be a list of integers")
    return tuple(value)


def _int(data: dict, key: str) -> int:
    """``data[key]``, which must be an integer."""
    value = data[key]
    if type(value) is not int:
        raise MalformedInputError(f"witness field {key!r} must be an integer")
    return value


def verify_witness(record: dict, coloring: Optional[Coloring] = None) -> tuple:
    """Re-check a witness record from scratch against a coloring (given, or
    loaded from the record's coloring_ref): (ok, detail string), and
    out-of-box data verifies False.  A missing or mistyped field, or a
    record of another schema_version, raises MalformedInputError."""
    if record.get("schema_version") != 1:
        raise MalformedInputError("unsupported schema_version")
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
        if kind in ("bundle14", "bundle15"):
            shifted = kind == "bundle15"
            ok, detail = check_bundle(coloring, Bundle(
                shifted=shifted, lam=_int(data, "lam"),
                a_set=_ints(data, "a_set"), b_set=_ints(data, "b_set"),
                k=_int(data, "k"), color=_int(data, "color")))
            return ok, detail or \
                f"{'shifted' if shifted else 'scaled'} bundle verified"
        if kind == "fs":
            gens = _ints(data, "generators")
            if "k" in data and _int(data, "k") != len(gens):
                return False, f"k {data['k']} != {len(gens)} generators"
            ok, color = check_fs_witness(coloring, gens)
            values, subject, part = "FS closure", "closure is", "closure"
        elif kind == "grid":
            seq = _ints(data, "sequence")
            if "cuts" in data:
                ok, color = check_grid_witness(
                    coloring, CutGrid(seq, _ints(data, "cuts")))
            else:
                color = grid_common_color(coloring, seq, _int(data, "d"))
                ok = color is not None
            values, subject, part = "grid blocks", "blocks are", "block"
        else:
            (ok, color), _ = check_composed_witness_detailed(
                coloring, op_from_json(data["op"]),
                CutGrid(_ints(data, "sequence"), _ints(data, "cuts")))
            values, subject, part = ("composed values", "composed values are",
                                     "composed")
        want = data.get("color")
        if ok and (want is None or want == color):
            return True, f"{values} monochromatic in color {color}"
        return False, (f"{subject} not monochromatic" if not ok else
                       f"{part} color {color} != recorded {want}")
    except OutOfBoxError as exc:  # CompositionOutOfBoxError included
        return False, f"out of box: {exc}"
    except KeyError as exc:
        raise MalformedInputError(f"witness data missing field {exc}") from exc
