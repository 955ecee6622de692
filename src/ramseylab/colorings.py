"""Colorings of integer boxes [1..N]^d.

Cells are stored row-major with axis 1 slowest: the cell for point
(x1, ..., xd) sits at index ((x1-1)*N + (x2-1))*N + ... + (xd-1).

File format (whitespace-insensitive on read, canonical on write)::

    d N c
    <N^d cell colors in row-major order>

The writer emits the header line, then all cells on one line separated by
single spaces, with a trailing newline — loading and re-saving a file is
byte-exact.

Seeded colorings use a splitmix-style mixer: for 0-based row-major cell
index i and 64-bit seed s, ::

    z = (s + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    color(i) = (z ^ (z >> 31)) mod c

This is the reproducibility contract for every ``random`` coloring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, MalformedInputError, OutOfBoxError, RamseyError

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: colorings larger than this many cells are not materialized
CELL_BUDGET = 1 << 26

#: default cap on c^(N^d) for exhaustive coloring enumeration
ENUM_BUDGET = 1 << 22

GENERATORS = ("constant", "parity", "mod", "blocks", "random")


def seeded_cell_color(seed: int, index: int, c: int) -> int:
    """Color of 0-based row-major cell ``index`` in the documented stream."""
    z = (seed + (index + 1) * _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) % c


@dataclass(frozen=True)
class Coloring:
    """A total coloring of [1..N]^d with colors {0..c-1}.

    Either ``cells`` (materialized, row-major) or ``fn`` (lazy, taking the
    0-based row-major index) is set; small colorings are always materialized.
    """

    d: int
    N: int
    c: int
    cells: Optional[tuple] = None
    fn: Optional[Callable[[int], int]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.d < 1 or self.N < 1 or self.c < 1:
            raise MalformedInputError("coloring requires d >= 1, N >= 1, c >= 1")
        if self.cells is None and self.fn is None:
            raise MalformedInputError("coloring needs cells or a generator function")
        if self.cells is not None:
            if len(self.cells) != self.N ** self.d:
                raise MalformedInputError(
                    f"expected {self.N ** self.d} cells, got {len(self.cells)}")
            for v in self.cells:
                if not 0 <= v < self.c:
                    raise MalformedInputError(f"cell color {v} out of range [0, {self.c})")

    @property
    def cell_count(self) -> int:
        return self.N ** self.d

    def index_of(self, point: Sequence[int]) -> int:
        if len(point) != self.d:
            raise OutOfBoxError(f"point has {len(point)} coordinates, expected {self.d}")
        idx = 0
        for x in point:
            if not 1 <= x <= self.N:
                raise OutOfBoxError(f"coordinate {x} outside [1..{self.N}]")
            idx = idx * self.N + (x - 1)
        return idx

    def color_of(self, point: Sequence[int]) -> int:
        idx = self.index_of(point)
        if self.cells is not None:
            return self.cells[idx]
        return self.fn(idx)

    def value_table(self):
        """Colors indexed by value, for the search loops of a 1-dimensional
        coloring: ``table[v]`` is the color of v for v in [1..N].  Lookups
        are unchecked, so callers keep v in the box."""
        if self.cells is None:
            return _ByValue(self.fn)
        return (None,) + self.cells

    def value_color(self, n: int) -> int:
        """1-dimensional convenience accessor."""
        if self.d != 1:
            raise OutOfBoxError("value_color requires a 1-dimensional coloring")
        if not 1 <= n <= self.N:
            raise OutOfBoxError(f"value {n} outside [1..{self.N}]")
        if self.cells is not None:
            return self.cells[n - 1]
        return self.fn(n - 1)


class _ByValue:
    """``table[v]`` as ``fn(v - 1)``: the value table of a lazy coloring."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, v):
        return self.fn(v - 1)


# ---------------------------------------------------------------------------
# generators


def _generator_fn(generator: str, d: int, N: int, c: int, param, seed: int):
    if generator == "constant":
        if len(param) != 1 or not 0 <= param[0] < c:
            raise MalformedInputError("constant generator needs one color k with 0 <= k < c")
        k = param[0]
        return lambda point, rank: k
    if generator == "parity":
        if c < 2:
            raise MalformedInputError("parity generator needs c >= 2")
        return lambda point, rank: sum(point) % 2
    if generator == "mod":
        if len(param) != 1 or not 1 <= param[0] <= c:
            raise MalformedInputError("mod generator needs one modulus m with 1 <= m <= c")
        m = param[0]
        return lambda point, rank: sum(point) % m
    if generator == "blocks":
        if not param or any(w < 1 for w in param) or len(param) > c:
            raise MalformedInputError("blocks generator needs <= c positive widths")
        cycle = []
        for i, w in enumerate(param):
            cycle.extend([i] * w)
        period = len(cycle)
        return lambda point, rank: cycle[rank % period]
    if generator == "random":
        return lambda point, rank: seeded_cell_color(seed, rank, c)
    raise MalformedInputError(f"unknown generator {generator!r}")


def make_coloring(generator: str, d: int, N: int, c: int, param=(), seed: int = 0,
                  cell_budget: int = CELL_BUDGET) -> Coloring:
    """Materialize a named-generator coloring (lazy beyond the cell budget)."""
    fn = _generator_fn(generator, d, N, c, tuple(param), seed)
    cells_total = N ** d
    if cells_total > cell_budget:
        def by_index(idx: int, _fn=fn, _N=N, _d=d) -> int:
            point = []
            rem = idx
            for _ in range(_d):
                rem, r = divmod(rem, _N)
                point.append(r + 1)
            point.reverse()
            return _fn(tuple(point), idx)
        return Coloring(d=d, N=N, c=c, fn=by_index)
    if d == 1:
        cells = tuple(fn((x,), x - 1) for x in range(1, N + 1))
    else:
        cells = tuple(fn(point, rank) for rank, point
                      in enumerate(itertools.product(range(1, N + 1), repeat=d)))
    return Coloring(d=d, N=N, c=c, cells=cells)


@dataclass(frozen=True)
class ColoringSpec:
    """Where a coloring comes from: an explicit file or a named generator."""

    kind: str  # "file" | "generator"
    path: Optional[str] = None
    generator: Optional[str] = None
    d: int = 1
    N: int = 0
    c: int = 2
    param: tuple = ()
    seed: int = 0

    def load(self, cell_budget: int = CELL_BUDGET) -> Coloring:
        if self.kind == "file":
            if not self.path:
                raise MalformedInputError("file coloring spec needs a path")
            return load_file(self.path)
        if self.kind == "generator":
            return make_coloring(self.generator, self.d, self.N, self.c,
                                 self.param, self.seed, cell_budget=cell_budget)
        raise MalformedInputError(f"unknown coloring spec kind {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "file":
            return {"kind": "file", "path": self.path}
        obj = {"kind": "generator", "generator": self.generator,
               "d": self.d, "N": self.N, "c": self.c}
        if self.param:
            obj["param"] = list(self.param)
        if self.generator == "random":
            obj["seed"] = self.seed
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ColoringSpec":
        kind = obj.get("kind")
        if kind == "file":
            return cls(kind="file", path=obj["path"])
        if kind == "generator":
            return cls(kind="generator", generator=obj["generator"],
                       d=obj["d"], N=obj["N"], c=obj["c"],
                       param=tuple(obj.get("param", ())), seed=obj.get("seed", 0))
        raise MalformedInputError(f"unknown coloring spec kind {kind!r}")


# ---------------------------------------------------------------------------
# file IO


def dumps(col: Coloring) -> str:
    if col.cells is None:
        raise MalformedInputError("cannot serialize a lazy coloring")
    return f"{col.d} {col.N} {col.c}\n" + " ".join(map(str, col.cells)) + "\n"


def loads(text: str) -> Coloring:
    tokens = text.split()
    if len(tokens) < 3:
        raise MalformedInputError("coloring file needs a 'd N c' header")
    try:
        d, N, c = (int(t) for t in tokens[:3])
        cells = tuple(int(t) for t in tokens[3:])
    except ValueError as exc:
        raise MalformedInputError(f"non-integer token in coloring file: {exc}") from None
    if d < 1 or N < 1 or c < 1:
        raise MalformedInputError(f"bad header d={d} N={N} c={c}")
    if len(cells) != N ** d:
        raise MalformedInputError(f"expected {N ** d} cells, got {len(cells)}")
    return Coloring(d=d, N=N, c=c, cells=cells)


def save_file(col: Coloring, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(col))


def load_file(path: str) -> Coloring:
    with open(path) as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# enumeration


def enumerate_colorings(d: int, N: int, c: int, symmetry_break: bool = False,
                        budget: int = ENUM_BUDGET) -> Iterator[Coloring]:
    """All colorings of [1..N]^d, lexicographic by row-major cell tuple.

    With ``symmetry_break`` only one representative per color-permutation
    orbit is produced: the cell at (1, ..., 1) is fixed to color 0 and new
    colors appear in first-use order (restricted-growth strings).  Each orbit
    representative is also the lexicographically least member of its orbit.
    """
    cells_total = N ** d
    if c ** cells_total > budget:
        raise BudgetExceededError(
            f"{c}^{cells_total} colorings exceed enumeration budget {budget}")
    if not symmetry_break:
        for tup in itertools.product(range(c), repeat=cells_total):
            yield Coloring(d=d, N=N, c=c, cells=tup)
        return

    prefix = [0] * cells_total

    def rec(i: int, used: int) -> Iterator[Coloring]:
        if i == cells_total:
            yield Coloring(d=d, N=N, c=c, cells=tuple(prefix))
            return
        for v in range(min(used + 1, c)):
            prefix[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(0, 0)
