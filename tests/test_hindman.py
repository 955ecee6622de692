"""Finite-sums, grid, composed, and bundle witnesses plus the witness
record round trip."""

import json
import random
import tracemalloc
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseylab import hindman, structures
from ramseylab.colorings import Coloring, ColoringSpec, loads, make_coloring
from ramseylab.errors import (BudgetExceededError, CompositionOutOfBoxError,
                              MalformedInputError, OutOfBoxError, RamseyError)
from ramseylab.hindman import (BUILTIN_OPS, SCALED_QUAD, SHIFTED_QUAD,
                               Bundle, CutGrid, OpTable, check_bundle,
                               check_composed_witness_detailed,
                               check_depth_indexed_witness_detailed,
                               check_fs_witness, check_grid_witness,
                               composed_color_by_depth_detailed,
                               find_fs_witness_detailed,
                               find_grid_witness_detailed,
                               find_scaled_bundle_detailed,
                               find_scaled_quad_detailed,
                               find_shifted_bundle_detailed,
                               find_shifted_quad_detailed,
                               grid_common_color, _grid_blocks,
                               load_op_table, load_witness, make_witness,
                               op_from_json, save_witness, verify_witness,
                               _missing_structure)
from ramseylab.patterns import VALUE_CAP
from ramseylab.search import instance_color
from ramseylab.structures import (MAX_FAMILY, OP_ADD, contains_kfs,
                                  fs_family, fs_values, min_closure_size)


def parity(N):
    return make_coloring("parity", 1, N, 2)


# ---------------------------------------------------------------------------
# finite-sums witnesses


def test_check_fs_witness_monochromatic():
    assert check_fs_witness(parity(8), (2, 2)) == (True, 0)
    assert check_fs_witness(parity(8), (2, 4)) == (True, 0)


def test_check_fs_witness_mixed_colors():
    assert check_fs_witness(parity(8), (1, 2)) == (False, None)


def test_check_fs_witness_escape_raises():
    with pytest.raises(OutOfBoxError):
        check_fs_witness(loads("1 4 2\n0 1 0 1\n"), (3, 3))


def test_find_fs_witness_least_tuple():
    assert find_fs_witness_detailed(parity(8), 2)[0] == (2, 2)
    assert find_fs_witness_detailed(parity(8), 3)[0] == (2, 2, 2)


def test_find_fs_witness_allows_repeats_detector_does_not():
    """FS is a set, so the generator tuple (1, 1) witnesses via {1, 2};
    the k-FS detector keeps its generators strictly increasing and sees
    nothing in the class {1, 2}."""
    col = loads("1 5 2\n0 0 1 1 1\n")
    assert find_fs_witness_detailed(col, 2)[0] == (1, 1)
    assert contains_kfs(frozenset({1, 2}), 2) is None


def test_find_fs_witness_none_when_box_too_small():
    # any 2-generator closure needs a sum of at least 1+1 = 2 values up to 2N
    col = loads("1 3 2\n0 1 1\n")
    assert find_fs_witness_detailed(col, 2)[0] is None


def test_find_fs_witness_rejects_bad_k():
    with pytest.raises(RamseyError):
        find_fs_witness_detailed(parity(8), 0)


def test_find_fs_witness_rejects_grid_coloring():
    # a grid coloring is refused when it is built, before any search
    with pytest.raises(MalformedInputError):
        find_fs_witness_detailed(make_coloring("parity", 2, 3, 2), 2)


# ---------------------------------------------------------------------------
# grid witnesses


def test_cut_grid_blocks():
    grid = CutGrid((5, 1, 2, 9), (0, 2, 3, 4))
    assert grid.d == 3
    assert grid.blocks == [(5, 1), (2,), (9,)]


@pytest.mark.parametrize("seq,cuts", [
    ((), (0, 1)),          # empty sequence
    ((1, 2), (2, 0)),      # cuts not increasing
    ((1, 2), (1, 1)),      # cuts not strictly increasing
    ((1, 2), (0,)),        # fewer than two cuts
    ((1, 2), (0, 3)),      # cut beyond the sequence
    ((0, 2), (0, 1)),      # non-positive entry
])
def test_cut_grid_rejects_malformed(seq, cuts):
    with pytest.raises(RamseyError):
        CutGrid(seq, cuts)


def test_check_grid_witness_single_cut_tuple():
    assert check_grid_witness(parity(8), CutGrid((2, 2, 2), (0, 1, 3))) == (True, 0)
    assert check_grid_witness(parity(8), CutGrid((1, 2), (0, 2))) == (False, None)


def test_grid_common_color_quantifies_over_all_cut_tuples():
    assert grid_common_color(parity(8), (2, 2, 2), 2) == 0
    # (1, 2) has FS blocks of both colors somewhere
    assert grid_common_color(parity(8), (1, 2), 1) is None


def test_find_grid_witness_least_sequence():
    assert find_grid_witness_detailed(parity(8), 3, 1)[0] == ((2, 2, 2), 0)
    assert find_grid_witness_detailed(parity(8), 3, 2)[0] == ((2, 2, 2), 0)


def test_find_grid_witness_validates_shape():
    with pytest.raises(RamseyError):
        find_grid_witness_detailed(parity(8), 2, 0)
    with pytest.raises(RamseyError):
        find_grid_witness_detailed(parity(8), 1, 2)


def test_found_grid_witness_passes_full_check():
    col = make_coloring("random", 1, 30, 2, seed=3)
    hit, _ = find_grid_witness_detailed(col, 2, 1)
    assert hit is not None
    seq, color = hit
    assert grid_common_color(col, seq, 1) == color


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=10, max_size=10))
def test_grid_depth_one_matches_fs_existence(cells):
    """A d = 1 grid witness of length k exists exactly when a k-generator
    finite-sums witness does: the full window (0, k) already forces
    FS(sequence) to be monochromatic, and sorting any witness sequence
    gives a non-decreasing one."""
    col = loads("1 10 2\n" + " ".join(map(str, cells)) + "\n")
    for k in (1, 2):
        has_fs = find_fs_witness_detailed(col, k)[0] is not None
        has_grid = find_grid_witness_detailed(col, k, 1)[0] is not None
        assert has_fs == has_grid


def _first_held(L, d, ends=None):
    """The distinct blocks of the d-block cut tuples from {0..L} (those
    whose last cut is ``ends``, if given), in the order a lexicographic
    walk of the tuples first holds them."""
    out = []
    for cuts in combinations(range(L + 1), d + 1):
        if ends is None or cuts[-1] == ends:
            out += [b for b in zip(cuts, cuts[1:]) if b not in out]
    return out


def test_grid_blocks_match_the_cut_tuples():
    for L in range(1, 10):
        for d in range(1, L + 1):
            assert list(_grid_blocks(L, d)) == _first_held(L, d)
            assert set(_grid_blocks(L, d)) == {
                (lo, hi) for hi in range(1, L + 1) for lo in range(hi)
                if lo + (L - hi) >= d - 1}
            before = set()  # the blocks of the tuples ending before m
            for m in range(d, L + 1):
                fresh = {(lo, m) for lo in range(d - 1, m)}
                fixed = {(lo, hi) for hi in range(1, m) for lo in range(hi)
                         if d >= 2 and lo + (m - hi) >= d - 1}
                assert set(_first_held(L, d, ends=m)) == fresh | fixed
                # the finder checks at m the blocks that no tuple ending
                # before m holds: the fresh ones and the fixed ones of
                # length m - d + 1
                held = before | fresh | fixed
                assert held == set(_grid_blocks(m, d))
                assert held - before == fresh | {
                    (lo, lo + m - d + 1) for lo in range(d - 1)}
                before = held


def _ref_find_grid(coloring, L, d, budget=None):
    """The grid finder as it stood before it checked each block once per
    position: the blocks of the cut tuples ending at each prefix length,
    listed by walking every cut tuple, each checked for every candidate."""
    if d < 1:
        raise RamseyError("d must be at least 1")
    if L < d:
        raise RamseyError(f"need L >= d, got L={L} d={d}")
    N = coloring.N
    colors = coloring.value_table()
    blocks_by_end = {}
    for cuts in combinations(range(L + 1), d + 1):
        blocks = blocks_by_end.setdefault(cuts[-1], [])
        for block in zip(cuts, cuts[1:]):
            if block not in blocks:
                blocks.append(block)
    nodes = 0
    seq = []

    def closure_colored(block, anchor):
        if len(block) > MAX_FAMILY or sum(block) > VALUE_CAP:
            fs_values(block, OP_ADD)
        closure, seen = [0], {0}
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

    def prefix_ok(anchor):
        return all(closure_colored(seq[lo:hi], anchor)
                   for lo, hi in blocks_by_end.get(len(seq), ()))

    def rec(anchor):
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


def _budget_outcome(find, *args, **kwargs):
    try:
        return find(*args, **kwargs)
    except BudgetExceededError as exc:
        return "budget", exc.nodes, str(exc)


@settings(max_examples=300, deadline=None)
@given(N=st.integers(1, 40), c=st.integers(1, 3), seed=st.integers(0, 999),
       L=st.integers(1, 5), d=st.integers(1, 5), lazy=st.booleans())
@example(N=12, c=3, seed=8, L=4, d=2, lazy=False)  # none after 1188 nodes
@example(N=40, c=1, seed=0, L=5, d=5, lazy=False)  # only unchecked heads
@example(N=20, c=2, seed=0, L=5, d=3, lazy=True)
def test_grid_finder_matches_the_walk_over_every_cut_tuple(N, c, seed, L, d,
                                                           lazy):
    d = min(d, L)
    col = make_coloring("random", 1, N, c, seed=seed,
                        cell_budget=0 if lazy else N)
    hit, nodes = _ref_find_grid(col, L, d)
    assert find_grid_witness_detailed(col, L, d) == (hit, nodes)
    for budget in (0, 1, 7, nodes - 1, nodes):
        assert _budget_outcome(find_grid_witness_detailed, col, L, d,
                               budget=budget) == \
            _budget_outcome(_ref_find_grid, col, L, d, budget=budget)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.integers(0, 1), min_size=1, max_size=16),
       seq=st.lists(st.integers(1, 6), min_size=1, max_size=7),
       d=st.integers(1, 7))
@example(cells=[0, 1], seq=[3, 0], d=1)  # an entry below 1 is refused first
def test_grid_common_color_matches_the_per_tuple_fold(cells, seq, d):
    # short sequences of small entries on a small box: the sums of the
    # longer blocks escape it, and the first failure decides the outcome
    col = Coloring(d=1, N=len(cells), c=2, cells=tuple(cells))
    d = min(d, len(seq))
    assert _outcome(grid_common_color, col, seq, d) == \
        _outcome(_ref_grid_common_color, col, seq, d)


def test_grid_length_past_the_family_cap_is_refused_before_any_node():
    # the block (0, L - d + 1) of every grid would hold more than 30 entries
    col = make_coloring("parity", 1, 100, 2)
    for L, d in ((2000, 1), (60, 5), (32, 2)):
        with pytest.raises(RamseyError, match=rf"grid block length {L - d + 1}"
                           r": family size \d+ outside \[1, 30\]"):
            find_grid_witness_detailed(col, L, d, budget=0)
    one = make_coloring("constant", 1, 100, 1, param=(0,))
    assert find_grid_witness_detailed(one, 30, 1)[1] == 29
    hit, nodes = find_grid_witness_detailed(one, 30, 15)
    assert (hit, nodes) == (((1,) * 30, 0), 29)
    assert grid_common_color(one, hit[0], 15) == 0


# ---------------------------------------------------------------------------
# binary operations and composed witnesses


def _answer(detailed):
    """The composed check ``detailed`` without the units it returns."""
    return lambda *args: detailed(*args)[0]


_check_composed = _answer(check_composed_witness_detailed)
_composed_by_depth = _answer(composed_color_by_depth_detailed)
_depth_indexed = _answer(check_depth_indexed_witness_detailed)


def test_builtin_op_applies_and_escapes():
    mul = OpTable("multiplication-capped", 8)
    assert mul.apply(2, 4) == 8
    with pytest.raises(CompositionOutOfBoxError):
        mul.apply(3, 3)
    add = OpTable("addition-capped", 5)
    assert add.apply(2, 3) == 5
    with pytest.raises(CompositionOutOfBoxError):
        add.apply(3, 3)


def test_op_rejects_out_of_domain_operands():
    mul = OpTable("multiplication-capped", 8)
    with pytest.raises(CompositionOutOfBoxError):
        mul.apply(0, 2)
    with pytest.raises(CompositionOutOfBoxError):
        mul.apply(2, 9)


def test_builtin_op_unknown_kind():
    with pytest.raises(MalformedInputError):
        OpTable("subtraction-capped", 8)


def test_explicit_table_op():
    # the cyclic group on {1, 2} written multiplicatively
    op = OpTable(kind="table", n=2, rows=((1, 2), (2, 1)))
    assert op.apply(2, 2) == 1
    assert op.apply(1, 2) == 2


@pytest.mark.parametrize("kwargs", [
    {"kind": "table", "n": 2, "rows": None},
    {"kind": "table", "n": 2, "rows": ((1, 2),)},
    {"kind": "table", "n": 2, "rows": ((1, 2), (2, 3))},
    {"kind": "multiplication-capped", "n": 2, "rows": ((1, 2), (2, 1))},
    {"kind": "table", "n": 0, "rows": ()},
])
def test_op_table_rejects_malformed(kwargs):
    with pytest.raises(MalformedInputError):
        OpTable(**kwargs)


def test_op_json_round_trip():
    for op in (OpTable("addition-capped", 9),
               OpTable(kind="table", n=2, rows=((1, 2), (2, 1)))):
        again = op_from_json(json.loads(json.dumps(op.to_json())))
        assert again == op


def test_load_op_table(tmp_path):
    path = tmp_path / "op.txt"
    path.write_text("2\n1 2\n2 1\n")
    op = load_op_table(path)
    assert op.kind == "table" and op.apply(2, 2) == 1
    path.write_text("2\n1 2\n2\n")
    with pytest.raises(MalformedInputError):
        load_op_table(path)


@pytest.mark.parametrize("text, error", [
    ("", "empty operation table"),
    ("2\n1 2\n2 x\n", "non-integer table entry"),
    ("2\n1 2\n2\n", "expected 2*2 entries after the header"),
    ("0\n", "expected 0*0 entries after the header"),
    ("2\n1 2\n2 3\n", "table entry 3 outside [1..2]"),
])
def test_load_op_table_reads_the_semigroup_table_layout(tmp_path, text, error):
    """One reader (semigroups.parse_rows) tokenises both table files; the
    operation table keeps its own 1-based entry range."""
    path = tmp_path / "op.txt"
    path.write_text(text)
    with pytest.raises(MalformedInputError) as exc:
        load_op_table(path)
    assert str(exc.value) == error


def test_check_composed_witness_multiplication():
    mul = OpTable("multiplication-capped", 8)
    # blocks {2} and {2}: the single composed value is 4
    assert _check_composed(parity(8), mul, CutGrid((2, 2), (0, 1, 2))) == (True, 0)
    # blocks {1} and {2}: composed value 2, bare values of the d = 1 case unused
    assert _check_composed(parity(8), mul, CutGrid((1, 2), (0, 1, 2))) == (True, 0)


def test_check_composed_witness_escape_raises():
    mul = OpTable("multiplication-capped", 8)
    with pytest.raises(CompositionOutOfBoxError):
        _check_composed(parity(8), mul, CutGrid((3, 3), (0, 1, 2)))


def test_composed_depth_profile_records_escapes():
    mul = OpTable("multiplication-capped", 8)
    profile = _composed_by_depth(parity(8), mul, (2, 2), 2)
    assert profile == [
        {"d": 1, "ok": True, "color": 0, "oob": False},
        {"d": 2, "ok": True, "color": 0, "oob": False},
    ]
    profile = _composed_by_depth(parity(8), mul, (3, 3), 2)
    assert profile[0] == {"d": 1, "ok": False, "color": None, "oob": False}
    assert profile[1] == {"d": 2, "ok": False, "color": None, "oob": True}


def test_depth_indexed_witness():
    mul = OpTable("multiplication-capped", 8)
    # admissible depths FS((1,)) = {1}; every (1, m1) block is all-even
    assert _depth_indexed(parity(8), mul, (1, 2, 2, 2), 1) == (True, 0)
    # color mismatch across cut tuples
    bad = loads("1 8 2\n0 0 1 0 1 0 1 0\n")
    assert _depth_indexed(bad, mul, (1, 2, 3), 1) == (False, None)


def test_depth_indexed_witness_vacuous():
    mul = OpTable("multiplication-capped", 8)
    # FS((3,)) = {3} but only L - m0 = 0 cuts remain: nothing to check
    assert _depth_indexed(parity(8), mul, (3,), 1) == (True, None)


def test_depth_indexed_witness_validates_m0():
    mul = OpTable("multiplication-capped", 8)
    with pytest.raises(RamseyError):
        _depth_indexed(parity(8), mul, (1, 2), 0)
    with pytest.raises(RamseyError):
        _depth_indexed(parity(8), mul, (1, 2), 3)


# The color checks and cut-tuple walks as they were written before they
# shared one fold (the composed ones are the frozen per-tuple checks
# further down).  The differential test below holds the folded ones to
# them: same results, and the same first exception, since both evaluate in
# the same order.


def _ref_check_fs(coloring, generators):
    closure = sorted(fs_values(generators, OP_ADD))
    color = coloring.value_color(closure[0])
    for v in closure[1:]:
        if coloring.value_color(v) != color:
            return False, None
    return True, color


def _ref_check_grid(coloring, grid):
    anchor = None
    for block in grid.blocks:
        for v in sorted(fs_values(block, OP_ADD)):
            color = coloring.value_color(v)
            if anchor is None:
                anchor = color
            elif color != anchor:
                return False, None
    return True, anchor


def _ref_grid_common_color(coloring, seq, d):
    anchor = None
    for cuts in combinations(range(len(seq) + 1), d + 1):
        ok, color = _ref_check_grid(coloring, CutGrid(seq, cuts))
        if not ok or (anchor is not None and color != anchor):
            return None
        anchor = color
    return anchor


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and text of what it
    raised."""
    try:
        return fn(*args)
    except RamseyError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.integers(0, 2), min_size=2, max_size=12),
       constant=st.booleans(),
       seq=st.lists(st.integers(1, 12), min_size=1, max_size=5),
       op_kind=st.sampled_from(BUILTIN_OPS + ("table",)),
       table_seed=st.integers(0, 999), d=st.integers(1, 7),
       m0=st.integers(1, 5))
@example(cells=[0] * 8, constant=True, seq=[2, 2, 2], op_kind="table",
         table_seed=0, d=6, m0=1)   # d_max > L
@example(cells=[0] * 8, constant=True, seq=[3, 1], op_kind="table",
         table_seed=0, d=1, m0=1)   # no admissible depth: FS((3,)) > L - m0
@example(cells=[0, 1] * 4, constant=False, seq=[3, 3], op_kind=BUILTIN_OPS[0],
         table_seed=0, d=2, m0=1)   # 3*3 escapes the box
def test_folded_walks_match_the_loops_they_replace(cells, constant, seq,
                                                  op_kind, table_seed, d, m0):
    N = len(cells)
    col = Coloring(d=1, N=N, c=3, cells=(0,) * N if constant else tuple(cells))
    if op_kind == "table":
        rng = random.Random(table_seed)
        op = OpTable("table", N, rows=[[rng.randint(1, N) for _ in range(N)]
                                       for _ in range(N)])
    else:
        op = OpTable(op_kind, N)
    seq = tuple(seq)
    grid_d = min(d, len(seq))
    m0 = min(m0, len(seq))
    # a family whose sum passes N escapes before its closure is built, even
    # where a color clash comes first in the closure's order
    assert _outcome(check_fs_witness, col, seq) == (
        (OutOfBoxError, f"closure value {sum(seq)} outside [1..{N}]")
        if sum(seq) > N else _outcome(_ref_check_fs, col, seq))
    assert _outcome(grid_common_color, col, seq, grid_d) == \
        _outcome(_ref_grid_common_color, col, seq, grid_d)
    assert _outcome(_composed_by_depth, col, op, seq, d) == \
        _outcome(_frozen_composed_by_depth, col, op, seq, d)
    assert _outcome(_depth_indexed, col, op, seq, m0) == \
        _outcome(_frozen_depth_indexed, col, op, seq, m0)


# The three composed checks as they were when each cut tuple built its own
# CutGrid and closed every block again, frozen as the reference for the
# one walk that replaced them.


def _frozen_common_color(results):
    anchor = None
    for ok, color in results:
        if not ok or (anchor is not None and color != anchor):
            return False, None
        anchor = color
    return True, anchor


def _frozen_check_composed(coloring, op, grid):
    closures = [sorted(fs_values(b, OP_ADD)) for b in grid.blocks]

    def colors():
        for choice in product(*closures):
            v = reduce(op.apply, choice)
            if v > coloring.N:
                raise CompositionOutOfBoxError(
                    f"composed value {v} outside [1..{coloring.N}]")
            yield True, coloring.value_color(v)

    return _frozen_common_color(colors())


def _frozen_composed_by_depth(coloring, op, sequence, d_max):
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    profile = []
    for d in range(1, min(d_max, L) + 1):
        try:
            ok, color = _frozen_common_color(
                _frozen_check_composed(coloring, op, CutGrid(seq, cuts))
                for cuts in combinations(range(L + 1), d + 1))
            oob = False
        except (CompositionOutOfBoxError, OutOfBoxError):
            ok, color, oob = False, None, True
        profile.append({"d": d, "ok": ok, "color": color, "oob": oob})
    return profile


def _frozen_depth_indexed(coloring, op, sequence, m0):
    seq = tuple(int(v) for v in sequence)
    L = len(seq)
    if not 1 <= m0 <= L:
        raise RamseyError(f"need 1 <= m0 <= {L}, got {m0}")
    return _frozen_common_color(
        _frozen_check_composed(coloring, op, CutGrid(seq, (m0,) + rest))
        for d in sorted(fs_values(seq[:m0], OP_ADD)) if d <= L - m0
        for rest in combinations(range(m0 + 1, L + 1), d))


def _frozen_outcome(fn, *args):
    """The outcome of a frozen function, the units its work costs under the
    walk's rule (min(2^len - 1, sum) per closure it builds, one per fold),
    and the families it closed, in order."""
    units, closed = 0, []

    def closure(gens, op):
        nonlocal units
        gens = fs_family(gens, op)  # a refused family costs nothing
        units += min(2 ** len(gens) - 1, sum(gens))
        closed.append(gens)
        return structures.fs_values(gens, op)

    def fold(f, choice, reduce=reduce):
        nonlocal units
        units += 1
        return reduce(f, choice)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(globals(), "fs_values", closure)
        patch.setitem(globals(), "reduce", fold)
        return _outcome(fn, *args), units, closed


def _walk_outcome(fn, *args):
    """The outcome of a composed check and the families it closed."""
    closed = []

    def closure(gens, op):
        closed.append(tuple(gens))
        return fs_values(gens, op)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hindman, "fs_values", closure)
        return _outcome(fn, *args), closed


def _composed_cases(cells, seq, op_kind, op_n, table_seed, cut_seed, d, m0):
    """For each composed check, its function, its frozen reference and
    their arguments; a sequence with an entry below 1 has no CutGrid, so
    only the sequence walks take it."""
    N = len(cells)
    col = Coloring(d=1, N=N, c=max(cells) + 1, cells=tuple(cells))
    if op_kind == "table":
        rng = random.Random(table_seed)
        op = OpTable("table", op_n, rows=[
            [rng.randint(1, op_n) for _ in range(op_n)] for _ in range(op_n)])
    else:
        op = OpTable(op_kind, op_n)
    seq = tuple(seq)
    L = len(seq)
    cuts = sorted(random.Random(cut_seed).sample(range(L + 1), min(d, L) + 1))
    m0 = min(m0, L)
    cases = [(_composed_by_depth, _frozen_composed_by_depth,
              (col, op, seq, d)),
             (_depth_indexed, _frozen_depth_indexed,
              (col, op, seq, m0))]
    if min(seq) >= 1:
        cases.append((_check_composed, _frozen_check_composed,
                      (col, op, CutGrid(seq, cuts))))
    return cases


_COMPOSED_INPUTS = dict(
    cells=st.lists(st.integers(0, 2), min_size=2, max_size=16),
    op_kind=st.sampled_from(BUILTIN_OPS + ("table",)),
    op_n=st.integers(1, 20), table_seed=st.integers(0, 999),
    cut_seed=st.integers(0, 999), d=st.integers(1, 4), m0=st.integers(1, 6))


@settings(max_examples=400, deadline=None)
@given(seq=st.lists(st.integers(0, 20), min_size=1, max_size=6),
       budget=st.integers(0, 80), **_COMPOSED_INPUTS)
@example(cells=[0] * 8, seq=[2, 2, 2], op_kind="table", op_n=8,
         table_seed=0, cut_seed=0, d=4, m0=1, budget=0)  # d_max > L
@example(cells=[0, 1] * 4, seq=[3, 3], op_kind=BUILTIN_OPS[0], op_n=8,
         table_seed=0, cut_seed=0, d=2, m0=1, budget=5)  # 3*3 escapes
@example(cells=[0] * 4, seq=[1, 9, 2], op_kind=BUILTIN_OPS[1], op_n=20,
         table_seed=0, cut_seed=0, d=2, m0=1, budget=80)  # 9 escapes N
def test_composed_walk_matches_the_per_tuple_checks(seq, budget, cells,
                                                    op_kind, op_n,
                                                    table_seed, cut_seed, d,
                                                    m0):
    """Against the frozen per-tuple checks, at PROBE_BUDGET and at a small
    budget B: the same answer, profile or exception wherever the frozen
    check's own work is at most B units, else that or the budget error."""
    for fn, frozen, args in _composed_cases(cells, seq, op_kind, op_n,
                                            table_seed, cut_seed, d, m0):
        want, units, _ = _frozen_outcome(frozen, *args)
        assert _outcome(fn, *args) == want
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(structures, "PROBE_BUDGET", budget)
            got = _outcome(fn, *args)
        out_of_budget = (BudgetExceededError,
                         f"node budget {budget} exceeded")
        assert got == want or (units > budget and got == out_of_budget)


@settings(max_examples=200, deadline=None)
@given(seq=st.lists(st.integers(1, 20), min_size=1, max_size=6, unique=True),
       **_COMPOSED_INPUTS)
def test_composed_walk_closes_each_block_once(seq, cells, op_kind, op_n,
                                              table_seed, cut_seed, d, m0):
    """Distinct entries make a block's entries name its place, so the
    families closed are the frozen checks' first closings, in order: one
    fs_values call per distinct block (and the depth-indexed head)."""
    for fn, frozen, args in _composed_cases(cells, seq, op_kind, op_n,
                                            table_seed, cut_seed, d, m0):
        want, _, frozen_closed = _frozen_outcome(frozen, *args)
        got, closed = _walk_outcome(fn, *args)
        assert got == want
        assert closed == list(dict.fromkeys(frozen_closed))


def test_composed_walk_closes_blocks_by_place():
    # 8 ones: every (lo, hi) is a block of some cut tuple of depth <= 3,
    # 36 places in all (8 distinct families); the frozen checks closed
    # each block of each of the C(9, d + 1) tuples of depth d
    one = make_coloring("constant", 1, 100, 1, param=(0,))
    add = OpTable("addition-capped", 100)
    (profile, closed) = _walk_outcome(_composed_by_depth, one, add,
                                      (1,) * 8, 3)
    assert [row["ok"] for row in profile] == [True] * 3
    assert len(closed) == 36
    assert len(_frozen_outcome(_frozen_composed_by_depth, one, add,
                               (1,) * 8, 3)[2]) == 36 + 2 * 84 + 3 * 126


def test_composed_walk_spends_one_unit_per_fold_and_value(monkeypatch):
    # the blocks (2) and (2) cost a unit each before they are closed, and
    # their one fold, 2 * 2, a third
    mul = OpTable("multiplication-capped", 8)
    grid = CutGrid((2, 2), (0, 1, 2))
    monkeypatch.setattr(structures, "PROBE_BUDGET", 3)
    assert _check_composed(parity(8), mul, grid) == (True, 0)
    monkeypatch.setattr(structures, "PROBE_BUDGET", 2)
    with pytest.raises(BudgetExceededError) as exc:
        _check_composed(parity(8), mul, grid)
    assert exc.value.nodes == 3
    # the head (1, 2) of the depth-indexed check costs min(3, 3) = 3 units
    monkeypatch.setattr(structures, "PROBE_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        _depth_indexed(parity(8), mul, (1, 2, 2, 2, 2), 2)


@pytest.mark.parametrize("detailed, args, units", [
    (check_composed_witness_detailed, (CutGrid((2, 2), (0, 1, 2)),), 3),
    (composed_color_by_depth_detailed, ((2, 2), 2), 10),
    (check_depth_indexed_witness_detailed, ((1, 2, 2, 2), 1), 17),
])
def test_composed_walk_reports_the_units_it_needs(monkeypatch, detailed,
                                                  args, units):
    # a budget of exactly the reported units answers; one less stops it
    mul = OpTable("multiplication-capped", 8)
    answer, spent = detailed(parity(8), mul, *args)
    assert spent == units
    monkeypatch.setattr(structures, "PROBE_BUDGET", units)
    assert detailed(parity(8), mul, *args) == (answer, units)
    monkeypatch.setattr(structures, "PROBE_BUDGET", units - 1)
    with pytest.raises(BudgetExceededError):
        detailed(parity(8), mul, *args)


def test_composed_profile_refuses_a_block_past_30_entries(monkeypatch):
    # depth 1 holds (0, 31): refused before any block is closed
    monkeypatch.setattr(hindman, "fs_values", None)
    add = OpTable("addition-capped", 1000)
    one = make_coloring("constant", 1, 1000, 1, param=(0,))
    with pytest.raises(RamseyError, match="profile block length 31"):
        _composed_by_depth(one, add, (1,) * 31, 1)
    assert _composed_by_depth(one, add, (1,) * 31, 0) == []


def test_composed_walk_stops_at_its_budget():
    # 2^30 - 1 sums are charged before the block (1, 2, ..., 2^29) is
    # closed, so it is never built; 30 ones run out of folds instead
    one = make_coloring("constant", 1, 1000, 1, param=(0,))
    add = OpTable("addition-capped", 1000)
    powers = tuple(2 ** i for i in range(30))
    for call in (lambda: _check_composed(one, add,
                                                CutGrid(powers, (0, 30))),
                 lambda: _depth_indexed(one, add, powers, 30)):
        with pytest.raises(BudgetExceededError) as exc:
            call()
        assert exc.value.nodes == structures.PROBE_BUDGET + 1
    with pytest.raises(BudgetExceededError):
        _depth_indexed(one, add, (1,) * 30, 4)


ONE_COLOR_100 = make_coloring("constant", 1, 100, 1, param=(0,))
B15 = {"lam": 1, "a_set": [1, 2, 3, 6], "b_set": [1], "k": 2, "color": 0}
B14 = dict(B15, a_set=[1, 2, 3])
NOT_A_SET = "{} is not a nonempty set of positive integers"


@pytest.mark.parametrize("kind, data, detail", [
    ("bundle14", dict(B14, b_set=[]), NOT_A_SET.format("B")),
    ("bundle15", dict(B15, b_set=[]), NOT_A_SET.format("B")),
    ("bundle15", dict(B15, b_set=[0]), NOT_A_SET.format("B")),
    ("bundle15", dict(B15, a_set=[0, 1, 2, 3, 6]), NOT_A_SET.format("A")),
    ("bundle14", dict(B14, a_set=[1, 1, 2, 3]), NOT_A_SET.format("A")),
    ("bundle15", dict(B15, lam=0), "lam 0 is below 1"),
    ("fs", {"generators": [1, 2], "k": 5}, "k 5 != 2 generators"),
], ids=["14-empty-b", "15-empty-b", "15-b-zero", "15-a-zero",
        "14-a-repeats", "15-lam-zero", "fs-k"])
def test_verify_refuses_records_that_are_not_witnesses(kind, data, detail):
    """Each of these verified valid on one color before the shape rule."""
    assert verify_witness(make_witness(kind, data),
                          coloring=ONE_COLOR_100) == (False, detail)


@pytest.mark.parametrize("kind, data", [
    ("bundle14", B14), ("bundle15", B15),
    ("fs", {"generators": [1, 2], "k": 2}), ("fs", {"generators": [1, 2]})])
def test_verify_accepts_the_records_once_mended(kind, data):
    assert verify_witness(make_witness(kind, data),
                          coloring=ONE_COLOR_100)[0] is True


def test_checkers_size_a_family_by_its_sum_before_closing_it():
    # FS(1, 2, ..., 2^29) has 2^30 - 1 values; its sum is the largest
    powers = [2 ** i for i in range(30)]
    detail = f"out of box: closure value {2 ** 30 - 1} outside [1..100]"
    tracemalloc.start()
    try:
        fs = verify_witness(make_witness("fs", {"generators": powers}),
                            coloring=ONE_COLOR_100)
        grid = verify_witness(make_witness("grid", {
            "sequence": powers, "cuts": [0, 30]}), coloring=ONE_COLOR_100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fs == grid == (False, detail)
    assert peak < 1 << 20
    # a refused family is refused as before, not reported as an escape
    with pytest.raises(RamseyError, match="family size 31"):
        check_fs_witness(ONE_COLOR_100, [200] * 31)
    with pytest.raises(RamseyError, match="generator 0 < 1"):
        check_fs_witness(ONE_COLOR_100, [0, 200])


# ---------------------------------------------------------------------------
# bundles


def test_find_scaled_bundle_parity():
    bundle, _ = find_scaled_bundle_detailed(parity(20), 2)
    assert bundle == Bundle(shifted=False, lam=1, a_set=(2, 4, 6),
                            b_set=(2,), k=2, color=0)
    assert check_bundle(parity(20), bundle) == (True, None)


def test_find_shifted_bundle_parity():
    bundle, _ = find_shifted_bundle_detailed(parity(20), 2)
    assert bundle == Bundle(shifted=True, lam=2, a_set=(2, 4, 6, 8),
                            b_set=(2,), k=2, color=0)
    assert check_bundle(parity(20), bundle) == (True, None)


def test_bundle_derived_values():
    # A = {2, 3}, B = {5}, lam = 7: every value comes from one rule
    scaled = Bundle(shifted=False, lam=7, a_set=(2, 3), b_set=(5,), k=2,
                    color=0)
    # lam*A 14 21, lam*B 35, lam*(A+B) 49 56, A*B 10 15
    assert scaled.derived() == (10, 14, 15, 21, 35, 49, 56)
    # lam+A 9 10, lam+B 12, lam+A*B 17 22, A+B 7 8
    shifted = Bundle(shifted=True, lam=7, a_set=(2, 3), b_set=(5,), k=2,
                     color=0)
    assert shifted.derived() == (7, 8, 9, 10, 12, 17, 22)


def test_check_scaled_bundle_rejects_wrong_color():
    bundle = Bundle(shifted=False, lam=1, a_set=(2, 4, 6), b_set=(2,), k=2,
                    color=1)
    ok, detail = check_bundle(parity(20), bundle)
    assert not ok and "not color 1" in detail


def test_check_scaled_bundle_rejects_structureless_a():
    # lam*A, lam*B, lam*(A+B), A*B all even, but {2, 8} carries no 2-FS
    bundle = Bundle(shifted=False, lam=1, a_set=(2, 8), b_set=(2,), k=2,
                    color=0)
    ok, detail = check_bundle(parity(20), bundle)
    assert not ok and "finite-sums" in detail


def test_check_shifted_bundle_requires_all_four_structures():
    # {3, 6, 9} has a 2-AP and 2-FS (3 + 6 = 9) but no 2-FP (3 * 6 = 18)
    col = make_coloring("constant", 1, 30, 2, param=(0,))
    bundle = Bundle(shifted=True, lam=1, a_set=(3, 6, 9), b_set=(1,), k=2,
                    color=0)
    ok, detail = check_bundle(col, bundle)
    assert not ok and "finite-products" in detail


def test_bundle_checkers_raise_on_escape():
    with pytest.raises(OutOfBoxError):
        check_bundle(parity(8), Bundle(
            shifted=False, lam=1, a_set=(2, 4, 6), b_set=(2,), k=2, color=0))


def test_find_bundle_rejects_bad_k():
    with pytest.raises(RamseyError):
        find_scaled_bundle_detailed(parity(20), 0)


@pytest.mark.parametrize("find, N, seed", [
    (lambda col, b: find_fs_witness_detailed(col, 3, budget=b), 60, 0),
    (lambda col, b: find_grid_witness_detailed(col, 4, 2, budget=b), 60, 0),
    (lambda col, b: find_scaled_bundle_detailed(col, 2, budget=b), 100, 0),
    (lambda col, b: find_shifted_bundle_detailed(col, 2, budget=b), 40, 0),
    (lambda col, b: find_shifted_quad_detailed(col, max_nodes=b), 60, 0),
], ids=["fs", "grid", "bundle14", "bundle15", "quad15"])
def test_finder_budget_spends_every_node(find, N, seed):
    """A budget equal to the nodes visited finds the same witness; one node
    less runs out, having spent them all."""
    col = make_coloring("random", 1, N, 2, seed=seed)
    hit, nodes = find(col, None)
    assert hit is not None
    assert find(col, nodes) == (hit, nodes)
    with pytest.raises(BudgetExceededError) as exc:
        find(col, nodes - 1)
    assert exc.value.nodes == nodes


# Witness, node count and budget verdicts of each finder, captured before
# the finders read a flat color table; the bundle rows' node counts are
# those of the search that starts at |A| = k(k+1)/2: (kind, N, colors,
# seed, lazy, finder arguments, witness, nodes).  Lazy colorings go
# through ``fn``.
PINNED_FINDS = [
    ("fs", 500, 2, 0, False, (3,), [1, 13, 21], 22),
    ("fs", 500, 2, 1, False, (3,), [1, 1, 16], 17),
    ("fs", 500, 3, 2, False, (3,), [1, 45, 65], 66),
    ("fs", 1000, 2, 0, False, (4,), [1, 13, 21, 288], 290),
    ("fs", 1000, 2, 3, False, (4,), [1, 1, 1, 1], 3),
    ("fs", 1500, 2, 1, False, (5,), [1, 1, 16, 69, 781], 2158),
    ("fs", 1500, 2, 2, False, (5,), [1, 1, 17, 429, 430], 4771),
    ("fs", 30, 3, 5, False, (4,), None, 61),
    ("fs", 800, 2, 4, True, (4,), [1, 1, 18, 157], 159),
    ("fs", 12, 3, 9, True, (3,), [3, 3, 4], 25),
    ("grid", 60, 2, 0, False, (4, 2), [[1, 13, 21, 1], 1], 635),
    ("grid", 60, 2, 1, False, (4, 2), [[1, 1, 16, 1], 1], 198),
    ("grid", 120, 2, 2, False, (4, 2), [[1, 1, 17, 1], 0], 139),
    ("grid", 20, 3, 3, False, (4, 2), [[1, 1, 1, 1], 0], 3),
    ("grid", 12, 3, 8, False, (4, 2), None, 1188),
    ("grid", 60, 2, 5, True, (4, 2), [[1, 1, 58, 1], 0], 240),
    ("grid", 40, 3, 6, True, (4, 2), [[4, 4, 4, 4], 0], 3012),
    ("bundle14", 60, 2, 0, False, (2,), [1, [2, 4, 6], [2], 2, 0], 2165),
    ("bundle14", 120, 2, 1, False, (2,), [1, [1, 16, 17], [1], 2, 1], 1649),
    ("bundle14", 200, 2, 2, False, (2,), [1, [1, 17, 18], [1], 2, 0], 2325),
    ("bundle14", 30, 3, 3, False, (2,), [1, [1, 10, 11], [1], 2, 0], 206),
    ("bundle14", 16, 3, 8, False, (2,), None, 542),
    ("bundle14", 100, 2, 4, True, (2,), [1, [1, 18, 19], [1], 2, 0], 1525),
    ("bundle14", 40, 3, 6, True, (2,), None, 6614),
    ("bundle15", 40, 2, 0, False, (2,), [1, [3, 9, 18, 27], [1], 2, 0], 16184),
    ("bundle15", 60, 2, 1, False, (2,), [1, [1, 6, 7, 42], [1], 2, 1], 31555),
    ("bundle15", 30, 2, 9, False, (2,), [1, [1, 2, 3, 6], [1], 2, 0], 3331),
    ("bundle15", 20, 3, 3, False, (2,), None, 9530),
    ("bundle15", 36, 2, 4, True, (2,), [1, [3, 6, 12, 18], [1], 2, 0], 11042),
]

_PINNED_FINDERS = {
    "fs": lambda col, args, b: find_fs_witness_detailed(col, *args, budget=b),
    "grid": lambda col, args, b: find_grid_witness_detailed(col, *args,
                                                            budget=b),
    "bundle14": lambda col, args, b: find_scaled_bundle_detailed(col, *args,
                                                                 budget=b),
    "bundle15": lambda col, args, b: find_shifted_bundle_detailed(col, *args,
                                                                  budget=b),
}


def _plain_witness(hit):
    if hit is None:
        return None
    if isinstance(hit, Bundle):
        return [hit.lam, list(hit.a_set), list(hit.b_set), hit.k, hit.color]
    if isinstance(hit[0], tuple):  # grid: (sequence, color)
        return [list(hit[0]), hit[1]]
    return list(hit)


@pytest.mark.parametrize("kind, N, c, seed, lazy, args, witness, nodes",
                         PINNED_FINDS)
def test_finders_are_pinned(kind, N, c, seed, lazy, args, witness, nodes):
    col = make_coloring("random", 1, N, c, seed=seed,
                        cell_budget=0 if lazy else N)
    assert (col.cells is None) == lazy
    find = _PINNED_FINDERS[kind]
    hit, got = find(col, args, None)
    assert (_plain_witness(hit), got) == (witness, nodes)
    assert find(col, args, nodes) == (hit, nodes)
    with pytest.raises(BudgetExceededError) as exc:
        find(col, args, nodes - 1)
    assert exc.value.nodes == nodes


def _reference_find_bundle(coloring, k, cap_a, budget, shifted):
    """The bundle search as it was before it skipped the sizes of A below
    ``min_closure_size(k)``: every |A| from k up to the cap."""
    if k < 1:
        raise RamseyError("k must be at least 1")
    if cap_a is None:
        cap_a = max(k, min(9, 2 ** k) if shifted else min(7, 2 ** k - 1))
    if cap_a < 1:
        raise RamseyError("cap_a must be at least 1")
    N = coloring.N
    colors = coloring.value_table()
    nodes = 0
    a_set: list = []

    def first_good_b(anchor):
        nonlocal nodes
        amax = a_set[-1]
        for b in b_by_color.get(anchor, ()):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError.past(budget)
            if shifted:
                if amax + b > N or lam + amax * b > N:
                    break
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
                break
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
        if shifted:
            image = [None] + [colors[lam + v] for v in range(1, vmax + 1)]
        else:
            image = [None] + [colors[lam * v] for v in range(1, vmax + 1)]
        b_by_color: dict = {}
        for b in range(1, vmax + 1):
            b_by_color.setdefault(image[b], []).append(b)
        for size in range(k, cap_a + 1):
            found = extend(None, size)
            if found is not None:
                a_key, b_key = found
                return Bundle(shifted=shifted, lam=lam, a_set=a_key,
                              b_set=b_key, k=k, color=image[a_key[0]]), nodes
    return None, nodes


_BUNDLE_COLORINGS = [("random", 24, 2, 0), ("random", 20, 3, 2),
                     ("parity", 24, 2, 0), ("constant", 12, 1, 0)]


@pytest.mark.parametrize("lazy", [False, True], ids=["table", "fn"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shifted", [False, True],
                         ids=["bundle14", "bundle15"])
def test_bundle_finder_skips_only_sizes_that_cannot_hold(shifted, k, lazy):
    """Against the search that tried every |A| from k: the same witness,
    no more nodes, and the budget rule at the new count.  A cap below the
    least size that holds a k-FS set, where the old search could only
    answer None, is refused and names that size."""
    find = find_shifted_bundle_detailed if shifted else \
        find_scaled_bundle_detailed
    floor = min_closure_size(k)
    for generator, N, c, seed in _BUNDLE_COLORINGS:
        col = make_coloring(generator, 1, N, c, seed=seed,
                            param=(0,) if generator == "constant" else (),
                            cell_budget=0 if lazy else N)
        assert (col.cells is None) == lazy
        assert _outcome(find, col, k, floor - 1) == (
            RamseyError, f"cap_a {floor - 1} is below {floor}, the least "
            f"|A| that holds a {k}-generator FS set")
        for cap_a in (None, floor, floor + 1):
            (hit, nodes) = find(col, k, cap_a)
            ref_hit, ref_nodes = _reference_find_bundle(col, k, cap_a, None,
                                                        shifted)
            assert hit == ref_hit
            assert nodes <= ref_nodes
            assert find(col, k, cap_a, nodes) == (hit, nodes)
            with pytest.raises(BudgetExceededError) as exc:
                find(col, k, cap_a, nodes - 1)
            assert exc.value.nodes == nodes


def test_grid_finder_keeps_distinct_block_sums_only():
    # on one color every prefix of ones passes; a block of length m has 2^m
    # subsets but only m distinct sums
    col = make_coloring("constant", 1, 100, 1, param=(0,))
    tracemalloc.start()
    try:
        hit, nodes = find_grid_witness_detailed(col, 22, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (hit, nodes) == (((1,) * 22, 0), 21)
    assert peak < 1 << 20
    assert find_grid_witness_detailed(col, 25, 1) == (((1,) * 25, 0), 24)
    # a block longer than MAX_FAMILY is refused, as fs_values refuses it
    with pytest.raises(RamseyError, match=r"family size 31 outside \[1, 30\]"):
        find_grid_witness_detailed(col, 31, 1)


def test_fs_finder_keeps_each_sum_once():
    # on one color the generators (1, ..., 1) pass; their 2^k subsets have
    # only k distinct sums
    col = make_coloring("constant", 1, 3000, 1, param=(0,))
    tracemalloc.start()
    try:
        hit, nodes = find_fs_witness_detailed(col, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (hit, nodes) == ((1,) * 23, 22)
    assert peak < 1 << 20
    assert find_fs_witness_detailed(col, 30) == ((1,) * 30, 29)
    # the closure check takes at most MAX_FAMILY generators, so the finder
    # refuses more before it searches
    with pytest.raises(RamseyError, match=r"family size 31 outside \[1, 30\]"):
        find_fs_witness_detailed(col, 31)


# ---------------------------------------------------------------------------
# corollary quadruples


def test_scaled_quad_degenerate_least_instance():
    col = make_coloring("constant", 1, 6, 2, param=(0,))
    assert find_scaled_quad_detailed(col) == (({"a": 1, "x": 1, "y": 1}, 0), 1)
    assert instance_color(SCALED_QUAD, col, {"a": 1, "x": 1, "y": 1}) == 0


def test_shifted_quad_parity():
    assert find_shifted_quad_detailed(parity(8)) == (
        ({"b": 1, "u": 1, "v": 1}, 0), 1)
    assert instance_color(SHIFTED_QUAD, parity(8),
                          {"b": 2, "u": 2, "v": 2}) == 0
    assert instance_color(SHIFTED_QUAD, parity(8),
                          {"b": 1, "u": 2, "v": 2}) is None


def test_planted_quad_is_found():
    # color exactly the scaled-quad image of (a, x, y) = (2, 3, 4) in 0
    a, x, y = 2, 3, 4
    planted = {a * x, a * y, x * y, a * (x + y)}
    cells = [0 if v in planted else 1 for v in range(1, 31)]
    col = loads("1 30 2\n" + " ".join(map(str, cells)) + "\n")
    hit, _ = find_scaled_quad_detailed(col)
    assert hit is not None
    asg, color = hit
    assert instance_color(SCALED_QUAD, col, asg) == color


# ---------------------------------------------------------------------------
# witness records


def test_witness_record_round_trip(tmp_path):
    spec = ColoringSpec(kind="generator", generator="parity", d=1, N=8, c=2)
    record = make_witness("fs", {"generators": [2, 2], "color": 0},
                          coloring_spec=spec)
    assert sorted(record) == ["coloring_ref", "data", "kind",
                              "schema_version"]
    path = tmp_path / "w.json"
    save_witness(path, record)
    again = load_witness(path)
    assert again == record
    # canonical form: sorted keys, two-space indent, trailing newline
    assert path.read_text() == json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_make_witness_rejects_unknown_kind():
    with pytest.raises(MalformedInputError):
        make_witness("ultrafilter", {})


@pytest.mark.parametrize("text", [
    "not json",
    '{"schema_version": 2, "kind": "fs", "data": {}}',
    '{"schema_version": 1, "kind": "mystery", "data": {}}',
    '{"schema_version": 1, "kind": "fs", "data": []}',
    '["schema_version"]',
])
def test_load_witness_rejects_malformed(tmp_path, text):
    """load_witness refuses what is not a JSON object; verify_witness
    refuses an object of another schema_version, kind or data shape."""
    path = tmp_path / "w.json"
    path.write_text(text)
    with pytest.raises(MalformedInputError):
        verify_witness(load_witness(path), coloring=parity(8))


def test_verify_witness_through_coloring_ref():
    spec = ColoringSpec(kind="generator", generator="parity", d=1, N=8, c=2)
    record = make_witness("fs", {"generators": [2, 2], "color": 0},
                          coloring_spec=spec)
    ok, detail = verify_witness(record)
    assert ok and "color 0" in detail


def test_verify_witness_needs_some_coloring():
    record = make_witness("fs", {"generators": [2, 2]})
    with pytest.raises(MalformedInputError):
        verify_witness(record)


def test_verify_witness_flags_wrong_recorded_color():
    record = make_witness("fs", {"generators": [2, 2], "color": 1})
    ok, detail = verify_witness(record, coloring=parity(8))
    assert not ok and "recorded 1" in detail


def test_verify_witness_out_of_box_is_false_not_raise():
    record = make_witness("fs", {"generators": [7, 7]})
    ok, detail = verify_witness(record, coloring=parity(8))
    assert not ok and detail.startswith("out of box")


def test_verify_witness_missing_field():
    record = make_witness("fs", {"color": 0})
    with pytest.raises(MalformedInputError):
        verify_witness(record, coloring=parity(8))


def test_verify_grid_witness_both_forms():
    par = parity(8)
    with_cuts = make_witness("grid", {"sequence": [2, 2], "cuts": [0, 2],
                                      "color": 0})
    with_depth = make_witness("grid", {"sequence": [2, 2], "d": 1,
                                       "color": 0})
    assert verify_witness(with_cuts, coloring=par)[0]
    assert verify_witness(with_depth, coloring=par)[0]


def test_verify_composed_and_bundle_records():
    par20 = parity(20)
    mul = OpTable("multiplication-capped", 8)
    composed = make_witness("composed", {
        "sequence": [2, 2], "cuts": [0, 1, 2], "op": mul.to_json(),
        "color": 0})
    assert verify_witness(composed, coloring=parity(8)) == (
        True, "composed values monochromatic in color 0")
    b14 = make_witness("bundle14", {"lam": 1, "a_set": [2, 4, 6],
                                    "b_set": [2], "k": 2, "color": 0})
    assert verify_witness(b14, coloring=par20) == (
        True, "scaled bundle verified")
    b15 = make_witness("bundle15", {"lam": 2, "a_set": [2, 4, 6, 8],
                                    "b_set": [2], "k": 2, "color": 0})
    assert verify_witness(b15, coloring=par20) == (
        True, "shifted bundle verified")
    corrupt = make_witness("bundle14", {"lam": 1, "a_set": [2, 4, 6],
                                        "b_set": [2], "k": 2, "color": 1})
    assert verify_witness(corrupt, coloring=par20)[0] is False


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=12, max_size=12),
       st.integers(1, 2))
def test_found_fs_witness_always_passes_checker(cells, k):
    col = Coloring(d=1, N=12, c=3, cells=tuple(cells))
    gens, _ = find_fs_witness_detailed(col, k)
    if gens is not None:
        ok, color = check_fs_witness(col, gens)
        assert ok and color == col.value_color(gens[0])
