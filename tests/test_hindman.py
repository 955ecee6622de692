"""Finite-sums, grid, composed, and bundle witnesses plus the witness
record round trip."""

import json
import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseylab.colorings import Coloring, ColoringSpec, loads, make_coloring
from ramseylab.errors import (BudgetExceededError, CompositionOutOfBoxError,
                              MalformedInputError, OutOfBoxError, RamseyError)
from ramseylab.hindman import (BUILTIN_OPS, Bundle, CutGrid, OpTable,
                               builtin_op, check_bundle, check_composed_witness,
                               check_depth_indexed_witness, check_fs_witness,
                               check_grid_witness, check_scaled_quad,
                               check_shifted_quad, composed_color_by_depth,
                               find_fs_witness_detailed,
                               find_grid_witness_detailed,
                               find_scaled_bundle_detailed,
                               find_scaled_quad_detailed,
                               find_shifted_bundle_detailed,
                               find_shifted_quad_detailed,
                               grid_common_color,
                               load_op_table, load_witness, make_witness,
                               op_from_json, save_witness, verify_witness,
                               _missing_structure)
from ramseylab.structures import (OP_ADD, contains_kfs, fs_values,
                                  min_closure_size)


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


# ---------------------------------------------------------------------------
# binary operations and composed witnesses


def test_builtin_op_applies_and_escapes():
    mul = builtin_op("multiplication-capped", 8)
    assert mul.apply(2, 4) == 8
    with pytest.raises(CompositionOutOfBoxError):
        mul.apply(3, 3)
    add = builtin_op("addition-capped", 5)
    assert add.apply(2, 3) == 5
    with pytest.raises(CompositionOutOfBoxError):
        add.apply(3, 3)


def test_op_rejects_out_of_domain_operands():
    mul = builtin_op("multiplication-capped", 8)
    with pytest.raises(CompositionOutOfBoxError):
        mul.apply(0, 2)
    with pytest.raises(CompositionOutOfBoxError):
        mul.apply(2, 9)


def test_builtin_op_unknown_kind():
    with pytest.raises(MalformedInputError):
        builtin_op("subtraction-capped", 8)


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
    for op in (builtin_op("addition-capped", 9),
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


def test_check_composed_witness_multiplication():
    mul = builtin_op("multiplication-capped", 8)
    # blocks {2} and {2}: the single composed value is 4
    assert check_composed_witness(parity(8), mul, CutGrid((2, 2), (0, 1, 2))) == (True, 0)
    # blocks {1} and {2}: composed value 2, bare values of the d = 1 case unused
    assert check_composed_witness(parity(8), mul, CutGrid((1, 2), (0, 1, 2))) == (True, 0)


def test_check_composed_witness_escape_raises():
    mul = builtin_op("multiplication-capped", 8)
    with pytest.raises(CompositionOutOfBoxError):
        check_composed_witness(parity(8), mul, CutGrid((3, 3), (0, 1, 2)))


def test_composed_depth_profile_records_escapes():
    mul = builtin_op("multiplication-capped", 8)
    profile = composed_color_by_depth(parity(8), mul, (2, 2), 2)
    assert profile == [
        {"d": 1, "ok": True, "color": 0, "oob": False},
        {"d": 2, "ok": True, "color": 0, "oob": False},
    ]
    profile = composed_color_by_depth(parity(8), mul, (3, 3), 2)
    assert profile[0] == {"d": 1, "ok": False, "color": None, "oob": False}
    assert profile[1] == {"d": 2, "ok": False, "color": None, "oob": True}


def test_depth_indexed_witness():
    mul = builtin_op("multiplication-capped", 8)
    # admissible depths FS((1,)) = {1}; every (1, m1) block is all-even
    assert check_depth_indexed_witness(parity(8), mul, (1, 2, 2, 2), 1) == (True, 0)
    # color mismatch across cut tuples
    bad = loads("1 8 2\n0 0 1 0 1 0 1 0\n")
    assert check_depth_indexed_witness(bad, mul, (1, 2, 3), 1) == (False, None)


def test_depth_indexed_witness_vacuous():
    mul = builtin_op("multiplication-capped", 8)
    # FS((3,)) = {3} but only L - m0 = 0 cuts remain: nothing to check
    assert check_depth_indexed_witness(parity(8), mul, (3,), 1) == (True, None)


def test_depth_indexed_witness_validates_m0():
    mul = builtin_op("multiplication-capped", 8)
    with pytest.raises(RamseyError):
        check_depth_indexed_witness(parity(8), mul, (1, 2), 0)
    with pytest.raises(RamseyError):
        check_depth_indexed_witness(parity(8), mul, (1, 2), 3)


# The color checks and cut-tuple walks as they were written before they
# shared one fold.  The differential test below holds the folded ones to
# them: same results, and the same first exception, since both evaluate in
# the same order.


def _ref_check_fs(coloring, generators):
    closure = sorted(fs_values(generators, OP_ADD))
    color = coloring.value_color(closure[0])
    for v in closure[1:]:
        if coloring.value_color(v) != color:
            return False, None
    return True, color


def _ref_check_composed(coloring, op, grid):
    closures = [sorted(fs_values(b, OP_ADD)) for b in grid.blocks]
    anchor = None
    for choice in product(*closures):
        v = choice[0]
        for x in choice[1:]:
            v = op.apply(v, x)
        if v > coloring.N:
            raise CompositionOutOfBoxError(
                f"composed value {v} outside [1..{coloring.N}]")
        color = coloring.value_color(v)
        if anchor is None:
            anchor = color
        elif color != anchor:
            return False, None
    return True, anchor


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


def _ref_composed_by_depth(coloring, op, seq, d_max):
    L = len(seq)
    profile = []
    for d in range(1, min(d_max, L) + 1):
        entry = {"d": d, "ok": False, "color": None, "oob": False}
        anchor = None
        ok = True
        try:
            for cuts in combinations(range(L + 1), d + 1):
                good, color = _ref_check_composed(
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


def _ref_depth_indexed(coloring, op, seq, m0):
    L = len(seq)
    anchor = None
    checked = False
    for d in sorted(fs_values(seq[:m0], OP_ADD)):
        if d > L - m0:
            continue
        for rest in combinations(range(m0 + 1, L + 1), d):
            ok, color = _ref_check_composed(
                coloring, op, CutGrid(seq, (m0,) + rest))
            if not ok or (anchor is not None and color != anchor):
                return False, None
            anchor = color
            checked = True
    return (True, anchor) if checked else (True, None)


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
        op = builtin_op(op_kind, N)
    seq = tuple(seq)
    grid_d = min(d, len(seq))
    m0 = min(m0, len(seq))
    assert _outcome(check_fs_witness, col, seq) == \
        _outcome(_ref_check_fs, col, seq)
    assert _outcome(grid_common_color, col, seq, grid_d) == \
        _outcome(_ref_grid_common_color, col, seq, grid_d)
    assert _outcome(composed_color_by_depth, col, op, seq, d) == \
        _outcome(_ref_composed_by_depth, col, op, seq, d)
    assert _outcome(check_depth_indexed_witness, col, op, seq, m0) == \
        _outcome(_ref_depth_indexed, col, op, seq, m0)


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
    """Against the search that tried every |A| from k: the same witness or
    error, no more nodes, and the budget rule at the new count."""
    find = find_shifted_bundle_detailed if shifted else \
        find_scaled_bundle_detailed
    floor = min_closure_size(k)
    for generator, N, c, seed in _BUNDLE_COLORINGS:
        col = make_coloring(generator, 1, N, c, seed=seed,
                            param=(0,) if generator == "constant" else (),
                            cell_budget=0 if lazy else N)
        assert (col.cells is None) == lazy
        for cap_a in (None, floor - 1, floor, floor + 1):
            got = _outcome(find, col, k, cap_a)
            want = _outcome(_reference_find_bundle, col, k, cap_a, None,
                            shifted)
            if isinstance(want[0], type):  # both refuse a cap_a of 0
                assert got == want
                continue
            (hit, nodes), (ref_hit, ref_nodes) = got, want
            assert hit == ref_hit
            assert nodes <= ref_nodes
            if cap_a == floor - 1:
                assert (hit, nodes) == (None, 0)
                continue
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


# ---------------------------------------------------------------------------
# corollary quadruples


def test_scaled_quad_degenerate_least_instance():
    col = make_coloring("constant", 1, 6, 2, param=(0,))
    assert find_scaled_quad_detailed(col) == (({"a": 1, "x": 1, "y": 1}, 0), 1)
    assert check_scaled_quad(col, 1, 1, 1) == (True, 0)


def test_shifted_quad_parity():
    assert find_shifted_quad_detailed(parity(8)) == (
        ({"b": 1, "u": 1, "v": 1}, 0), 1)
    assert check_shifted_quad(parity(8), 2, 2, 2) == (True, 0)
    assert check_shifted_quad(parity(8), 1, 2, 2) == (False, None)


def test_planted_quad_is_found():
    # color exactly the scaled-quad image of (a, x, y) = (2, 3, 4) in 0
    a, x, y = 2, 3, 4
    planted = {a * x, a * y, x * y, a * (x + y)}
    cells = [0 if v in planted else 1 for v in range(1, 31)]
    col = loads("1 30 2\n" + " ".join(map(str, cells)) + "\n")
    hit, _ = find_scaled_quad_detailed(col)
    assert hit is not None
    asg, color = hit
    assert check_scaled_quad(col, asg["a"], asg["x"], asg["y"]) == (True, color)


# ---------------------------------------------------------------------------
# witness records


def test_witness_record_round_trip(tmp_path):
    spec = ColoringSpec(kind="generator", generator="parity", d=1, N=8, c=2)
    record = make_witness("fs", {"generators": [2, 2], "color": 0},
                          coloring_spec=spec, validated=True)
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
    path = tmp_path / "w.json"
    path.write_text(text)
    with pytest.raises(MalformedInputError):
        load_witness(path)


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
    mul = builtin_op("multiplication-capped", 8)
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
