"""Colorings: generators, the seeded cell stream, files, enumeration."""

import itertools

import pytest
from hypothesis import given, strategies as st

from ramseylab.colorings import (Coloring, ColoringSpec, dumps,
                                 enumerate_colorings, load_file, loads,
                                 make_coloring, save_file, seeded_cell_color)
from ramseylab.errors import (BudgetExceededError, MalformedInputError,
                              RamseyError)


def test_row_major_indexing():
    col = make_coloring("parity", 2, 3, 2)
    # axis 1 is the slow axis: (x1, x2) -> (x1-1)*N + (x2-1)
    assert col.index_of((1, 1)) == 0
    assert col.index_of((1, 3)) == 2
    assert col.index_of((2, 1)) == 3
    assert col.color_of((2, 3)) == (2 + 3) % 2


def test_parity_cells_d2():
    col = make_coloring("parity", 2, 3, 2)
    assert col.cells == (0, 1, 0, 1, 0, 1, 0, 1, 0)


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


def test_value_color_out_of_range():
    col = make_coloring("parity", 1, 5, 2)
    with pytest.raises(RamseyError):
        col.color_of((6,))


def test_dumps_format():
    col = Coloring(d=1, N=4, c=2, cells=(0, 1, 1, 0))
    assert dumps(col) == "1 4 2\n0 1 1 0\n"


def test_loads_is_whitespace_insensitive():
    col = loads("1   4\n2\n0 1\n1 0\n")
    assert (col.d, col.N, col.c) == (1, 4, 2)
    assert col.cells == (0, 1, 1, 0)


@pytest.mark.parametrize("bad", [
    "", "1 4", "1 4 2\n0 1 1", "1 4 2\n0 1 1 0 1", "1 4 2\n0 1 2 0",
    "1 4 x\n0 1 1 0",
])
def test_loads_rejects_malformed(bad):
    with pytest.raises(MalformedInputError):
        loads(bad)


def test_file_round_trip(tmp_path):
    col = make_coloring("random", 2, 4, 3, seed=9)
    path = tmp_path / "grid.txt"
    save_file(col, path)
    again = load_file(path)
    assert again.cells == col.cells
    assert (again.d, again.N, again.c) == (2, 4, 3)
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


def test_enumerate_full_count():
    cols = list(enumerate_colorings(1, 3, 2))
    assert len(cols) == 8
    assert cols[0].cells == (0, 0, 0)
    assert cols[-1].cells == (1, 1, 1)


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_colorings(1, 30, 2, budget=1000))


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
    full = {col.cells for col in enumerate_colorings(1, n, c)}
    canonical = {col.cells
                 for col in enumerate_colorings(1, n, c, symmetry_break=True)}
    expected = {_orbit_least(cells, c) for cells in full}
    assert canonical == expected


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2 ** 30))
def test_lazy_and_materialized_agree(N, c, seed):
    eager = make_coloring("random", 1, N, c, seed=seed)
    lazy = make_coloring("random", 1, N, c, seed=seed, cell_budget=0)
    assert lazy.cells is None
    assert [lazy.value_color(v) for v in range(1, N + 1)] == list(eager.cells)


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
