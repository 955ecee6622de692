"""Finite-sums, grid, composed, and bundle witnesses plus the witness
record round trip."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab.colorings import Coloring, ColoringSpec, loads, make_coloring
from ramseylab.errors import (BudgetExceededError, CompositionOutOfBoxError,
                              MalformedInputError, OutOfBoxError, RamseyError)
from ramseylab.hindman import (CutGrid, OpTable, ScaledBundle, ShiftedBundle,
                               builtin_op, check_composed_witness,
                               check_depth_indexed_witness, check_fs_witness,
                               check_grid_witness, check_scaled_bundle,
                               check_scaled_quad, check_shifted_bundle,
                               check_shifted_quad, composed_color_by_depth,
                               find_fs_witness, find_fs_witness_detailed,
                               find_grid_witness, find_grid_witness_detailed,
                               find_scaled_bundle,
                               find_scaled_bundle_detailed, find_scaled_quad,
                               find_shifted_bundle,
                               find_shifted_bundle_detailed,
                               find_shifted_quad, find_shifted_quad_detailed,
                               grid_common_color,
                               load_op_table, load_witness, make_witness,
                               op_from_json, save_witness, verify_witness)
from ramseylab.structures import contains_kfs


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
    assert find_fs_witness(parity(8), 2) == [2, 2]
    assert find_fs_witness(parity(8), 3) == [2, 2, 2]


def test_find_fs_witness_allows_repeats_detector_does_not():
    """FS is a set, so the generator tuple (1, 1) witnesses via {1, 2};
    the k-FS detector keeps its generators strictly increasing and sees
    nothing in the class {1, 2}."""
    col = loads("1 5 2\n0 0 1 1 1\n")
    assert find_fs_witness(col, 2) == [1, 1]
    assert contains_kfs(frozenset({1, 2}), 2) is None


def test_find_fs_witness_none_when_box_too_small():
    # any 2-generator closure needs a sum of at least 1+1 = 2 values up to 2N
    col = loads("1 3 2\n0 1 1\n")
    assert find_fs_witness(col, 2) is None


def test_find_fs_witness_rejects_bad_k():
    with pytest.raises(RamseyError):
        find_fs_witness(parity(8), 0)


def test_find_fs_witness_rejects_grid_coloring():
    col = make_coloring("parity", 2, 3, 2)
    with pytest.raises(RamseyError):
        find_fs_witness(col, 2)


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
    assert find_grid_witness(parity(8), 3, 1) == ([2, 2, 2], 0)
    assert find_grid_witness(parity(8), 3, 2) == ([2, 2, 2], 0)


def test_find_grid_witness_validates_shape():
    with pytest.raises(RamseyError):
        find_grid_witness(parity(8), 2, 0)
    with pytest.raises(RamseyError):
        find_grid_witness(parity(8), 1, 2)


def test_found_grid_witness_passes_full_check():
    col = make_coloring("random", 1, 30, 2, seed=3)
    hit = find_grid_witness(col, 2, 1)
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
        has_fs = find_fs_witness(col, k) is not None
        has_grid = find_grid_witness(col, k, 1) is not None
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


# ---------------------------------------------------------------------------
# bundles


def test_find_scaled_bundle_parity():
    bundle = find_scaled_bundle(parity(20), 2)
    assert bundle == ScaledBundle(lam=1, a_set=(2, 4, 6), b_set=(2,), k=2,
                                  color=0)
    assert check_scaled_bundle(parity(20), bundle) == (True, None)


def test_find_shifted_bundle_parity():
    bundle = find_shifted_bundle(parity(20), 2)
    assert bundle == ShiftedBundle(lam=2, a_set=(2, 4, 6, 8), b_set=(2,), k=2,
                                   color=0)
    assert check_shifted_bundle(parity(20), bundle) == (True, None)


def test_check_scaled_bundle_rejects_wrong_color():
    bundle = ScaledBundle(lam=1, a_set=(2, 4, 6), b_set=(2,), k=2, color=1)
    ok, detail = check_scaled_bundle(parity(20), bundle)
    assert not ok and "not color 1" in detail


def test_check_scaled_bundle_rejects_structureless_a():
    # lam*A, lam*B, lam*(A+B), A*B all even, but {2, 8} carries no 2-FS
    bundle = ScaledBundle(lam=1, a_set=(2, 8), b_set=(2,), k=2, color=0)
    ok, detail = check_scaled_bundle(parity(20), bundle)
    assert not ok and "finite-sums" in detail


def test_check_shifted_bundle_requires_all_four_structures():
    # {3, 6, 9} has a 2-AP and 2-FS (3 + 6 = 9) but no 2-FP (3 * 6 = 18)
    col = make_coloring("constant", 1, 30, 2, param=(0,))
    bundle = ShiftedBundle(lam=1, a_set=(3, 6, 9), b_set=(1,), k=2, color=0)
    ok, detail = check_shifted_bundle(col, bundle)
    assert not ok and "finite-products" in detail


def test_bundle_checkers_raise_on_escape():
    with pytest.raises(OutOfBoxError):
        check_scaled_bundle(parity(8), ScaledBundle(
            lam=1, a_set=(2, 4, 6), b_set=(2,), k=2, color=0))


def test_find_bundle_rejects_bad_k():
    with pytest.raises(RamseyError):
        find_scaled_bundle(parity(20), 0)


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
# the finders read a flat color table: (kind, N, colors, seed, lazy,
# finder arguments, witness, nodes).  Lazy colorings go through ``fn``.
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
    ("bundle14", 60, 2, 0, False, (2,), [1, [2, 4, 6], [2], 2, 0], 5646),
    ("bundle14", 120, 2, 1, False, (2,), [1, [1, 16, 17], [1], 2, 1], 14983),
    ("bundle14", 200, 2, 2, False, (2,), [1, [1, 17, 18], [1], 2, 0], 39207),
    ("bundle14", 30, 3, 3, False, (2,), [1, [1, 10, 11], [1], 2, 0], 905),
    ("bundle14", 16, 3, 8, False, (2,), None, 862),
    ("bundle14", 100, 2, 4, True, (2,), [1, [1, 18, 19], [1], 2, 0], 10845),
    ("bundle14", 40, 3, 6, True, (2,), None, 8649),
    ("bundle15", 40, 2, 0, False, (2,), [1, [3, 9, 18, 27], [1], 2, 0], 17512),
    ("bundle15", 60, 2, 1, False, (2,), [1, [1, 6, 7, 42], [1], 2, 1], 34627),
    ("bundle15", 30, 2, 9, False, (2,), [1, [1, 2, 3, 6], [1], 2, 0], 4043),
    ("bundle15", 20, 3, 3, False, (2,), None, 11493),
    ("bundle15", 36, 2, 4, True, (2,), [1, [3, 6, 12, 18], [1], 2, 0], 12128),
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
    if isinstance(hit, (ScaledBundle, ShiftedBundle)):
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
    assert find_scaled_quad(col) == ({"a": 1, "x": 1, "y": 1}, 0)
    assert check_scaled_quad(col, 1, 1, 1) == (True, 0)


def test_shifted_quad_parity():
    assert find_shifted_quad(parity(8)) == ({"b": 1, "u": 1, "v": 1}, 0)
    assert check_shifted_quad(parity(8), 2, 2, 2) == (True, 0)
    assert check_shifted_quad(parity(8), 1, 2, 2) == (False, None)


def test_planted_quad_is_found():
    # color exactly the scaled-quad image of (a, x, y) = (2, 3, 4) in 0
    a, x, y = 2, 3, 4
    planted = {a * x, a * y, x * y, a * (x + y)}
    cells = [0 if v in planted else 1 for v in range(1, 31)]
    col = loads("1 30 2\n" + " ".join(map(str, cells)) + "\n")
    hit = find_scaled_quad(col)
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
    gens = find_fs_witness(col, k)
    if gens is not None:
        ok, color = check_fs_witness(col, gens)
        assert ok and color == col.value_color(gens[0])
