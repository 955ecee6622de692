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

A :class:`Bundle` is one of the paper's two structures, told apart by its
``shifted`` flag: the scaled

    lam*A ∪ lam*B ∪ lam*(A+B) ∪ A*B          (witness kind ``bundle14``)

with A carrying a k-generator finite-sums set and a k-term arithmetic
progression, or the shifted

    (lam+A) ∪ (lam+B) ∪ (lam+A*B) ∪ (A+B)    (witness kind ``bundle15``)

with A carrying k-FS, k-AP, k-GP and k-FP.  A+B and A*B are the pairwise
sum/product sets (a in A, b in B), never A with itself.  Both bundle
finders run one search, and :func:`check_bundle` checks either structure,
asking for A's structures in the finder's order.

Each finder (``find_*_detailed``) returns ``(hit or None, nodes)``; there
is one entry point per search.  Each is one in-order depth-first search
over its candidates, in a fixed documented order, that counts its nodes in
one counter, so results, node counts and budget verdicts depend only on
the query.  A budget of B nodes gives the answer when the search needs at
most B nodes; otherwise node B + 1 stops it
(``BudgetExceededError.past``).  Finders read colors from a flat table
indexed by value, without bounds checks: their own loop bounds keep every
lookup in [1..N].  Every checker recomputes its verdict from the raw data
through the bounds-checked accessor, so it does not share the finders'
indexing, and the CLI prints no hit before a checker has confirmed it.
Every color check (fs, grid, composed, depth-indexed) is one fold,
:func:`_common_color`, over the colors its walk yields.
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
from .patterns import VALUE_CAP, parse_pattern
from .search import InstanceQuery, find_instance_detailed
from .structures import (MAX_FAMILY, OP_ADD, contains_kap, contains_kfp,
                         contains_kfs, contains_kgp, fs_values,
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
    """Is FS(generators) monochromatic?  Returns (ok, color or None); raises
    OutOfBoxError when the closure escapes [1..N]."""
    gens = tuple(int(g) for g in generators)
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
    N = coloring.N
    colors = coloring.value_table()
    nodes = 0
    gens: list = []
    sums: list = []

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
                sums.extend([s + v for s in sums])
                sums.append(v)
                gens.append(v)
                hit = rec(total + v, anchor)
                del sums[n:]
                gens.pop()
                if hit is not None:
                    return hit
        return None

    for a1 in range(1, N // k + 1):  # a non-decreasing tuple sums to >= a1*k
        gens[:] = [a1]
        sums[:] = [a1]
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
    color?  Returns (ok, color or None)."""
    return _common_color((True, coloring.value_color(v))
                         for block in grid.blocks
                         for v in sorted(fs_values(block, OP_ADD)))


def grid_common_color(coloring: Coloring, sequence, d: int):
    """Common color over *all* cut tuples of d blocks, or None.  Raises
    OutOfBoxError when some block closure escapes the box."""
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    if not 1 <= d <= L:
        raise RamseyError(f"need 1 <= d <= {L}, got d={d}")
    return _common_color(
        check_grid_witness(coloring, CutGrid(seq, cuts))
        for cuts in combinations(range(L + 1), d + 1))[1]


def find_grid_witness_detailed(coloring: Coloring, L: int, d: int,
                               budget: Optional[int] = None):
    """Least sequence in [1..N]^L whose d-block grid is witnessed under one
    common color, plus node count.  Returns ((sequence, color) or None,
    nodes).

    Cut tuples are evaluated as soon as their last cut is covered by the
    prefix, against the color of the first entry — sound because the cut
    tuple (0, 1, ..., d) forces that color on any full witness.
    """
    if d < 1:
        raise RamseyError("d must be at least 1")
    if L < d:
        raise RamseyError(f"need L >= d, got L={L} d={d}")
    N = coloring.N
    colors = coloring.value_table()
    # the blocks (lo, hi) of the cut tuples ending at each prefix length,
    # each once, in the order of their first appearance
    blocks_by_end: dict = {}
    for cuts in combinations(range(L + 1), d + 1):
        blocks = blocks_by_end.setdefault(cuts[-1], [])
        for block in zip(cuts, cuts[1:]):
            if block not in blocks:
                blocks.append(block)

    nodes = 0
    seq: list = []

    def prefix_ok(anchor: int) -> bool:
        for lo, hi in blocks_by_end.get(len(seq), ()):
            if not _closure_colored(seq[lo:hi], colors, anchor, N):
                return False
        return True

    def rec(anchor: int):
        nonlocal nodes
        if len(seq) == L:
            return (tuple(seq), anchor)
        for v in range(1, N + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError.past(budget)
            seq.append(v)
            if prefix_ok(anchor):
                hit = rec(anchor)
                if hit is not None:
                    return hit
            seq.pop()
        return None

    for a1 in range(1, N + 1):
        seq[:] = [a1]
        anchor = colors[a1]
        if prefix_ok(anchor):
            hit = rec(anchor)
            if hit is not None:
                return hit, nodes
    return None, nodes


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
    if rows:
        if not isinstance(rows, list):
            raise MalformedInputError(
                "witness field 'rows' must be a list of rows")
        rows = tuple(_ints({"rows": row}, "rows") for row in rows)
    return OpTable(kind=obj["kind"], n=_int(obj, "n"), rows=rows or None)


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
    closures = [sorted(fs_values(b, OP_ADD)) for b in grid.blocks]

    def colors():
        for choice in product(*closures):
            v = reduce(op.apply, choice)
            if v > coloring.N:
                raise CompositionOutOfBoxError(
                    f"composed value {v} outside [1..{coloring.N}]")
            yield True, coloring.value_color(v)

    return _common_color(colors())


def composed_color_by_depth(coloring: Coloring, op: OpTable, sequence,
                            d_max: int):
    """Depth profile: for each d in 1..min(d_max, L), do all d-block cut
    tuples compose to one common color?  Escapes are recorded per depth
    rather than raised, so a profile always completes."""
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    profile = []
    for d in range(1, min(d_max, L) + 1):
        try:
            ok, color = _common_color(
                check_composed_witness(coloring, op, CutGrid(seq, cuts))
                for cuts in combinations(range(L + 1), d + 1))
            oob = False
        except (CompositionOutOfBoxError, OutOfBoxError):
            ok, color, oob = False, None, True
        profile.append({"d": d, "ok": ok, "color": color, "oob": oob})
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
    return _common_color(
        check_composed_witness(coloring, op, CutGrid(seq, (m0,) + rest))
        for d in sorted(fs_values(seq[:m0], OP_ADD)) if d <= L - m0
        for rest in combinations(range(m0 + 1, L + 1), d))


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class Bundle:
    """A bundle witness: the scaled structure lam*A ∪ lam*B ∪ lam*(A+B) ∪ A*B
    (``shifted`` False, kind ``bundle14``) or the shifted structure
    (lam+A) ∪ (lam+B) ∪ (lam+A*B) ∪ (A+B) (``shifted`` True, kind
    ``bundle15``), all of ``color``, with A carrying the k-structures that
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
    None: a finite-sums set, an arithmetic progression, then, when shifted,
    a geometric progression and a finite-products set.  The detectors are
    looked up at each call, so a wrapped ``contains_k*`` sees every probe."""
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
    """Recompute everything from the raw sets: the derived values in box
    and all of bundle.color, then A's structures in the finder's order.
    Returns (ok, detail)."""
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
    """Shared bundle search.  Candidate order: lam ascending, |A|
    ascending from ``min_closure_size(k)`` (no smaller A holds a
    k-generator finite-sums set), A lexicographic, then B — and since the
    per-b constraints are independent, the first feasible B is always a
    singleton, checked in ascending b.  Structure is checked once per A,
    after the first b that keeps the derived set monochromatic.  A cap
    below that least size answers None after 0 nodes."""
    if k < 1:
        raise RamseyError("k must be at least 1")
    if cap_a is None:
        cap_a = min(9, 2 ** k) if shifted else min(7, 2 ** k - 1)
    if cap_a < 1:
        raise RamseyError("cap_a must be at least 1")
    least = min_closure_size(k)
    if cap_a < least:
        return None, 0
    N = coloring.N
    colors = coloring.value_table()
    nodes = 0
    a_set: list = []
    # first_good_b and extend read lam, vmax, image and b_by_color as the
    # loop over lam at the bottom sets them

    def first_good_b(anchor):
        nonlocal nodes
        amax = a_set[-1]
        for b in b_by_color.get(anchor, ()):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError.past(budget)
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
        if shifted:
            image = [None] + [colors[lam + v] for v in range(1, vmax + 1)]
        else:
            image = [None] + [colors[lam * v] for v in range(1, vmax + 1)]
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
    return find_instance_detailed(
        InstanceQuery(schema=SCALED_QUAD, coloring=coloring),
        max_nodes=max_nodes)


def check_scaled_quad(coloring: Coloring, a: int, x: int, y: int) -> tuple:
    values = (a * x, a * y, x * y, a * (x + y))
    colors = {coloring.value_color(v) for v in values}
    return (True, colors.pop()) if len(colors) == 1 else (False, None)


def find_shifted_quad_detailed(coloring: Coloring,
                               max_nodes: Optional[int] = None):
    """Least (b, u, v) with {u+b, v+b, u*v+b, u+v} monochromatic, as
    (assignment dict, color) or None, plus the leaf count."""
    return find_instance_detailed(
        InstanceQuery(schema=SHIFTED_QUAD, coloring=coloring),
        max_nodes=max_nodes)


def check_shifted_quad(coloring: Coloring, b: int, u: int, v: int) -> tuple:
    values = (u + b, v + b, u * v + b, u + v)
    colors = {coloring.value_color(w) for w in values}
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
    """Re-check a witness record from scratch against a coloring (given
    directly, or loaded from the record's coloring_ref).  Returns
    (ok, detail string); out-of-box data verifies False, it does not
    raise.  A field that is missing or of the wrong type raises
    MalformedInputError."""
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
            ok, color = check_fs_witness(coloring, _ints(data, "generators"))
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
            ok, color = check_composed_witness(
                coloring, op_from_json(data["op"]),
                CutGrid(_ints(data, "sequence"), _ints(data, "cuts")))
            values, subject, part = ("composed values", "composed values are",
                                     "composed")
        want = data.get("color")
        if ok and (want is None or want == color):
            return True, f"{values} monochromatic in color {color}"
        return False, (f"{subject} not monochromatic" if not ok else
                       f"{part} color {color} != recorded {want}")
    except (OutOfBoxError, CompositionOutOfBoxError) as exc:
        return False, f"out of box: {exc}"
    except KeyError as exc:
        raise MalformedInputError(f"witness data missing field {exc}") from exc
