"""Colorings: generators, the seeded cell stream, files, enumeration."""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from ramseylab import colorings
from ramseylab.colorings import (Coloring, ColoringSpec, dumps,
                                 enumerate_colorings, load_file, loads,
                                 make_coloring, save_file, seeded_cell_color)
from ramseylab.errors import (BudgetExceededError, MalformedInputError,
                              RamseyError)


# (generator, param, seed, c, N, cells, value 1 first): cells recorded from
# the point-based generators these replaced, which must not drift
_RECORDED_CELLS = [
    ("constant", (2,), 0, 3, 7, "2222222"),
    ("parity", (), 0, 2, 9, "101010101"),
    ("mod", (3,), 0, 3, 10, "1201201201"),
    ("blocks", (3, 2), 0, 2, 12, "000110001100"),
    ("blocks", (1, 2, 3), 0, 3, 13, "0112220112220"),
    ("random", (), 42, 10, 9, "318402585"),
    ("random", (), 2 ** 64 + 3, 7, 12, "236031105326"),
    ("random", (), -5, 2, 10, "0011011001"),
]


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("generator, param, seed, c, N, cells",
                         _RECORDED_CELLS)
def test_generator_cells_are_unchanged(generator, param, seed, c, N, cells,
                                       lazy):
    col = make_coloring(generator, 1, N, c, param=param, seed=seed,
                        cell_budget=0 if lazy else N)
    assert (col.cells is None) == lazy
    assert "".join(str(col.value_color(x)) for x in range(1, N + 1)) == cells


_D_MESSAGE = r"^a coloring colors \[1\.\.N\], so d must be 1, got d={}$"


@pytest.mark.parametrize("d", [2, 0, -1])
@pytest.mark.parametrize("build", [
    lambda d: Coloring(d=d, N=2, c=2, cells=(0, 1)),
    lambda d: Coloring(d=d, N=2, c=2, cells=(0, 1, 1, 0)),
    lambda d: make_coloring("parity", d, 3, 2),
    lambda d: make_coloring("random", d, 3, 2, cell_budget=0),
    lambda d: ColoringSpec(kind="generator", generator="constant", d=d, N=3,
                           c=2, param=(1,)).load(),
    lambda d: loads(f"{d} 2 2\n0 1 1 0"),
], ids=["cells", "grid-cells", "eager", "lazy", "spec", "file"])
def test_only_one_dimension_is_a_coloring(build, d):
    with pytest.raises(MalformedInputError, match=_D_MESSAGE.format(d)):
        build(d)


@pytest.mark.parametrize("generator", colorings.GENERATORS)
def test_an_empty_box_keeps_its_message(generator):
    with pytest.raises(MalformedInputError,
                       match=r"^coloring requires N >= 1 and c >= 1$"):
        make_coloring(generator, 2, 0, 3, param=(1,))


def test_mod_generator():
    col = make_coloring("mod", 1, 7, 3, param=(3,))
    assert col.cells == (1, 2, 0, 1, 2, 0, 1)


def test_blocks_generator_cycles():
    col = make_coloring("blocks", 1, 10, 2, param=(3, 2))
    assert col.cells == (0, 0, 0, 1, 1, 0, 0, 0, 1, 1)


def test_constant_generator_validates_color():
    assert make_coloring("constant", 1, 4, 3, param=(2,)).cells == (2, 2, 2, 2)
    with pytest.raises(RamseyError):
        make_coloring("constant", 1, 4, 3, param=(3,))


def test_seeded_stream_is_frozen():
    # splitmix64 mix of (seed + (i+1)*golden); these values are part of the
    # reproducibility contract and must never drift.
    assert [seeded_cell_color(0, i, 256) for i in range(5)] == \
        [175, 244, 79, 236, 155]
    assert [seeded_cell_color(42, i, 10) for i in range(5)] == [3, 1, 8, 4, 0]


def test_random_generator_uses_stream():
    col = make_coloring("random", 1, 5, 10, seed=42)
    assert col.cells == (3, 1, 8, 4, 0)


BLOCK = colorings._BLOCK

_seeds = st.one_of(st.sampled_from([0, 2 ** 64 - 1, 2 ** 64, -1]),
                   st.integers(0, 2 ** 64 - 1), st.integers(2 ** 64, 2 ** 80),
                   st.integers(-2 ** 70, -1))
_colors = st.sampled_from([1, 2, 3, 7, 256, 1000])
#: box sizes up to past two blocks
_sides = st.integers(1, 2 * BLOCK + 9)


@settings(max_examples=60, deadline=None)
@given(_sides, _colors, _seeds)
@example(BLOCK - 1, 3, 2 ** 64 - 1)
@example(BLOCK, 7, -5)
@example(BLOCK + 1, 2, 2 ** 64 + 3)
@example(2 * BLOCK, 1000, 0)
@example(2197, 256, 12345)  # one full block and a tail
def test_random_cells_follow_the_one_cell_formula(N, c, seed):
    col = make_coloring("random", 1, N, c, seed=seed)
    assert col.cells == tuple(seeded_cell_color(seed, i, c)
                              for i in range(N))


@settings(max_examples=30, deadline=None)
@given(_sides, _colors, _seeds)
@example(BLOCK + 1, 2, 2 ** 64 - 1)
def test_lazy_and_materialized_agree(N, c, seed):
    eager = make_coloring("random", 1, N, c, seed=seed)
    lazy = make_coloring("random", 1, N, c, seed=seed, cell_budget=0)
    assert lazy.cells is None
    assert [lazy.value_color(v) for v in range(1, N + 1)] == list(eager.cells)


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_build_holds_one_tuple():
    # the reference is a tuple built from a generator, as the one-cell path
    # built it: the kernel may add its block scratch, not a second copy
    n = 10 ** 6
    reference = _peak_bytes(lambda: tuple(0 for _ in range(n)))
    peak = _peak_bytes(lambda: make_coloring("random", 1, n, 2, seed=5))
    assert peak <= reference + (1 << 20)


@pytest.mark.parametrize("cells, bad", [((0, 5, -1), 5), ((0, -1, 5), -1),
                                        ((0, -1, 1), -1), ((1, 1, 2), 2)])
def test_coloring_names_the_first_bad_cell(cells, bad):
    with pytest.raises(MalformedInputError,
                       match=rf"^cell color {bad} out of range \[0, 2\)$"):
        Coloring(d=1, N=3, c=2, cells=cells)


_GENERATOR_CASES = [("constant", (1,), 2), ("parity", (), 2),
                    ("mod", (3,), 3), ("blocks", (3, 1, 2), 3),
                    ("random", (), 3)]


@pytest.mark.parametrize("N", [2047, 2048, 2049])
@pytest.mark.parametrize("generator, param, c", _GENERATOR_CASES)
def test_generated_coloring_equals_a_checked_one(generator, param, c, N):
    # generators skip the cell scan; what they build must be exactly the
    # coloring that Coloring(...), which checks every cell, builds
    col = make_coloring(generator, 1, N, c, param=param, seed=11)
    checked = Coloring(d=1, N=N, c=c, cells=col.cells)
    assert type(col) is Coloring
    assert vars(col) == vars(checked)


@pytest.mark.parametrize("N", [2047, 2048, 2049])
def test_checked_constructors_still_scan_every_cell(N):
    cells = (0, 1) * (N // 2) + (0,) * (N % 2)
    for bad in (2, -1):
        message = rf"^cell color {bad} out of range \[0, 2\)$"
        with pytest.raises(MalformedInputError, match=message):
            Coloring(d=1, N=N, c=2, cells=cells[:-1] + (bad,))
        with pytest.raises(MalformedInputError, match=message):
            loads(f"1 {N} 2\n" + " ".join(map(str, cells[:-1] + (bad,))))


def test_value_color_out_of_range():
    col = make_coloring("parity", 1, 5, 2)
    for value in (0, 6):
        with pytest.raises(RamseyError):
            col.value_color(value)


def test_dumps_format():
    col = Coloring(d=1, N=4, c=2, cells=(0, 1, 1, 0))
    assert dumps(col) == "1 4 2\n0 1 1 0\n"


def test_loads_is_whitespace_insensitive():
    col = loads("1   4\n2\n0 1\n1 0\n")
    assert (col.d, col.N, col.c) == (1, 4, 2)
    assert col.cells == (0, 1, 1, 0)


_LOAD_ERRORS = {
    "": "coloring file needs a 'd N c' header",
    "1 4": "coloring file needs a 'd N c' header",
    "1 4 2\n0 1 1": "expected 4 cells, got 3",
    "1 4 2\n0 1 1 0 1": "expected 4 cells, got 5",
    "1 4 2\n0 1 2 0": "cell color 2 out of range [0, 2)",
    "1 4 x\n0 1 1 0": "non-integer token in coloring file: "
                       "invalid literal for int() with base 10: 'x'",
}


@pytest.mark.parametrize("bad", list(_LOAD_ERRORS))
def test_loads_rejects_malformed(bad):
    with pytest.raises(MalformedInputError) as err:
        loads(bad)
    assert str(err.value) == _LOAD_ERRORS[bad]


def test_file_round_trip(tmp_path):
    col = make_coloring("random", 1, 16, 3, seed=9)
    path = tmp_path / "coloring.txt"
    save_file(col, path)
    again = load_file(path)
    assert again.cells == col.cells
    assert (again.d, again.N, again.c) == (1, 16, 3)
    # byte stability
    first = path.read_bytes()
    save_file(again, path)
    assert path.read_bytes() == first


def test_spec_json_round_trip():
    spec = ColoringSpec(kind="generator", generator="random", d=1, N=20,
                        c=3, seed=7)
    again = ColoringSpec.from_json(spec.to_json())
    assert again.load().cells == spec.load().cells
    fspec = ColoringSpec(kind="file", path="somewhere.grid")
    assert ColoringSpec.from_json(fspec.to_json()).path == "somewhere.grid"
    bspec = ColoringSpec(kind="generator", generator="blocks", d=1, N=8, c=2,
                         param=(1, 2))
    assert ColoringSpec.from_json(bspec.to_json()) == bspec


_GEN = {"kind": "generator", "generator": "blocks", "d": 1, "N": 8, "c": 2,
        "param": [1, 2], "seed": 0}


@pytest.mark.parametrize("obj", [
    "parity", None, ["kind"], {"kind": "file"}, {"kind": "file", "path": 3},
    {"kind": "mystery"},
    {k: v for k, v in _GEN.items() if k != "N"},
    {k: v for k, v in _GEN.items() if k != "generator"},
    dict(_GEN, N="8"), dict(_GEN, c=2.0), dict(_GEN, d=True),
    dict(_GEN, param="12"), dict(_GEN, param=[1, "2"]), dict(_GEN, seed=None),
])
def test_spec_from_json_rejects_malformed(obj):
    with pytest.raises(MalformedInputError):
        ColoringSpec.from_json(obj)


def test_spec_from_json_reads_a_missing_d_as_one():
    spec = ColoringSpec.from_json({k: v for k, v in _GEN.items() if k != "d"})
    assert spec == ColoringSpec.from_json(_GEN)
    assert spec.to_json()["d"] == 1
    with pytest.raises(MalformedInputError,
                       match="so d must be 1, got d=2"):
        ColoringSpec.from_json(dict(_GEN, d=2)).load()


def test_enumerate_full_count():
    cols = list(enumerate_colorings(3, 2))
    assert len(cols) == 8
    assert cols[0].cells == (0, 0, 0)
    assert cols[-1].cells == (1, 1, 1)


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_colorings(30, 2, budget=1000))


def test_enumerate_budget_is_decided_without_a_huge_power():
    # c^N would have 40M bits here; bit lengths refuse it at once
    with pytest.raises(BudgetExceededError):
        list(enumerate_colorings(1 << 20, 10 ** 12))
    with pytest.raises(BudgetExceededError):
        list(enumerate_colorings(10, 2, budget=1023))  # 2^10 = budget + 1
    assert len(list(enumerate_colorings(10, 2, budget=1024))) == 1024
    assert len(list(enumerate_colorings(1 << 20, 1, budget=1))) == 1


def _orbit_least(cells, c):
    """Lexicographically least color relabeling — the canonical form."""
    best = None
    for perm in itertools.permutations(range(c)):
        relabeled = tuple(perm[v] for v in cells)
        if best is None or relabeled < best:
            best = relabeled
    return best


@pytest.mark.parametrize("n,c", [(1, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_enumerate_canonical_matches_orbit_representatives(n, c):
    full = {col.cells for col in enumerate_colorings(n, c)}
    canonical = {col.cells
                 for col in enumerate_colorings(n, c, symmetry_break=True)}
    expected = {_orbit_least(cells, c) for cells in full}
    assert canonical == expected


@pytest.mark.parametrize("lazy", [False, True], ids=["copied", "lazy"])
def test_value_table_is_one_based(lazy):
    eager = make_coloring("random", 1, 9, 3, seed=4)
    col = make_coloring("random", 1, 9, 3, seed=4, cell_budget=0 if lazy else 9)
    table = col.value_table()
    assert isinstance(table, tuple) == (not lazy)
    assert [table[v] for v in range(1, 10)] == list(eager.cells)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
def test_dumps_loads_round_trip(cells):
    col = Coloring(d=1, N=len(cells), c=3, cells=tuple(cells))
    assert loads(dumps(col)).cells == tuple(cells)
