"""Colorings of [1..N].

The paper colors the natural numbers, so a coloring here assigns one of c
colors to each value 1..N: cell x - 1 holds the color of value x.

File format (whitespace-insensitive on read, canonical on write)::

    1 N c
    <N cell colors, value 1 first>

The header's first field is the dimension, which must be 1.  The writer
emits the header line, then all cells on one line separated by single
spaces, with a trailing newline — loading and re-saving a file is
byte-exact.

``Coloring(...)`` checks that every cell lies in [0, c), and so does each
constructor that builds through it: :func:`loads` (and
:func:`load_file`), :func:`enumerate_colorings` and the SAT model decoder
``ColorVarMap.decode``.  :func:`make_coloring` builds its colorings
without that scan, since each generator's colors lie in [0, c) by
construction: residues mod c, or parameters it has already checked.

Seeded colorings use a splitmix-style mixer: for value x, cell index
i = x - 1 and 64-bit seed s, ::

    z = (s + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    color(i) = (z ^ (z >> 31)) mod c

This is the reproducibility contract for every ``random`` coloring.
:func:`seeded_cell_color` computes it for one cell, as lazy colorings do.
A materialized coloring computes the same formula a block of cells at a
time: each cell's state sits in its own 128-bit lane of one Python int, so
each step above is one big-integer operation over the whole block.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .errors import BudgetExceededError, MalformedInputError, OutOfBoxError

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: colorings larger than this many cells are not materialized
CELL_BUDGET = 1 << 26

#: default cap on c^N for exhaustive coloring enumeration
ENUM_BUDGET = 1 << 22

GENERATORS = ("constant", "parity", "mod", "blocks", "random")


def seeded_cell_color(seed: int, index: int, c: int) -> int:
    """Color of 0-based cell ``index``, the cell of value ``index + 1``, in
    the documented stream."""
    z = (seed + (index + 1) * _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return (z ^ (z >> 31)) % c


#: cells per block of the batch kernel; its three lane constants take
#: 16 bytes per cell each
_BLOCK = 2048


def _lanes(values) -> int:
    """One int holding ``values[j]`` (each below 2^128) in bits
    [128j, 128j + 128)."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values),
                          "little")


_ONES = _lanes([1] * _BLOCK)
_STEPS = _lanes([(j * _GOLDEN) & _M64 for j in range(_BLOCK)])
_LOW64 = _ONES * _M64


def _random_blocks(seed: int, count: int, c: int):
    """The colors of cells 0..count-1 of the seeded stream, one iterator
    per block of at most ``_BLOCK`` cells.

    Lane j of a block starting at cell b holds cell b+j's state.  The
    arithmetic is exact: the start plus the step is below 2^65, a product of
    two 64-bit numbers fits its lane, and ``& low64`` drops the bits a right
    shift pulls down from the next lane before they reach a product.  After
    the last shift they stay in the lane's upper half, which is not read."""
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        ones, steps, low64 = _ONES, _STEPS, _LOW64
        if n < _BLOCK:
            keep = (1 << (128 * n)) - 1
            ones, steps, low64 = ones & keep, steps & keep, low64 & keep
        z = (((seed + (start + 1) * _GOLDEN) & _M64) * ones + steps) & low64
        z = (((z ^ (z >> 30)) & low64) * _MIX1) & low64
        z = (((z ^ (z >> 27)) & low64) * _MIX2) & low64
        z ^= z >> 31
        lanes = memoryview(z.to_bytes(16 * n, "little")).cast("Q")[0::2]
        yield map(operator.mod, lanes, itertools.repeat(c, n))


@dataclass(frozen=True)
class Coloring:
    """A total coloring of [1..N] with colors {0..c-1}.

    Either ``cells`` (materialized: ``cells[x - 1]`` is the color of x) or
    ``fn`` (lazy: ``fn(x)`` is the color of x) is set; small colorings are
    always materialized.  ``d`` is the dimension that files and coloring
    specs carry; it must be 1.
    """

    d: int
    N: int
    c: int
    cells: Optional[tuple] = None
    fn: Optional[Callable[[int], int]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.N < 1 or self.c < 1:
            raise MalformedInputError("coloring requires N >= 1 and c >= 1")
        if self.d != 1:
            raise MalformedInputError(
                f"a coloring colors [1..N], so d must be 1, got d={self.d}")
        if self.cells is None and self.fn is None:
            raise MalformedInputError("coloring needs cells or a generator function")
        if self.cells is not None:
            if len(self.cells) != self.N:
                raise MalformedInputError(
                    f"expected {self.N} cells, got {len(self.cells)}")
            if min(self.cells) < 0 or max(self.cells) >= self.c:
                for v in self.cells:
                    if not 0 <= v < self.c:
                        raise MalformedInputError(
                            f"cell color {v} out of range [0, {self.c})")

    def value_table(self):
        """Colors indexed by value, for the search loops: ``table[v]`` is
        the color of v for v in [1..N].  Lookups are unchecked, so callers
        keep v in the box."""
        if self.cells is None:
            return _ByValue(self.fn)
        return (None,) + self.cells

    def value_color(self, n: int) -> int:
        """The color of value n, bounds-checked."""
        if not 1 <= n <= self.N:
            raise OutOfBoxError(f"value {n} outside [1..{self.N}]")
        if self.cells is not None:
            return self.cells[n - 1]
        return self.fn(n)


class _ByValue:
    """``table[v]`` as ``fn(v)``: the value table of a lazy coloring."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, v):
        return self.fn(v)


# ---------------------------------------------------------------------------
# generators


def _generator_fn(generator: str, c: int, param, seed: int):
    """The color of value x under the named generator, as a function of x."""
    if generator == "constant":
        if len(param) != 1 or not 0 <= param[0] < c:
            raise MalformedInputError("constant generator needs one color k with 0 <= k < c")
        k = param[0]
        return lambda x: k
    if generator == "parity":
        if c < 2:
            raise MalformedInputError("parity generator needs c >= 2")
        return lambda x: x % 2
    if generator == "mod":
        if len(param) != 1 or not 1 <= param[0] <= c:
            raise MalformedInputError("mod generator needs one modulus m with 1 <= m <= c")
        m = param[0]
        return lambda x: x % m
    if generator == "blocks":
        if not param or any(w < 1 for w in param) or len(param) > c:
            raise MalformedInputError("blocks generator needs <= c positive widths")
        cycle = []
        for i, w in enumerate(param):
            cycle.extend([i] * w)
        period = len(cycle)
        return lambda x: cycle[(x - 1) % period]
    if generator == "random":
        return lambda x: seeded_cell_color(seed, x - 1, c)
    raise MalformedInputError(f"unknown generator {generator!r}")


def make_coloring(generator: str, d: int, N: int, c: int, param=(), seed: int = 0,
                  cell_budget: int = CELL_BUDGET) -> Coloring:
    """Materialize a named-generator coloring of [1..N] (lazy beyond the
    cell budget); ``d`` must be 1."""
    fn = _generator_fn(generator, c, tuple(param), seed)
    # the box is checked after the generator's own checks, which name its
    # parameter, and before any cell: a random color is a residue mod c
    lazy = Coloring(d=d, N=N, c=c, fn=fn)
    if N > cell_budget:
        return lazy
    if generator == "random":
        cells = tuple(itertools.chain.from_iterable(_random_blocks(seed, N, c)))
    else:
        cells = tuple(map(fn, range(1, N + 1)))
    return _generated(lazy, cells)


def _generated(lazy: Coloring, cells: tuple) -> Coloring:
    """``lazy`` with its N cells materialized, built without the cell scan
    of ``Coloring(...)``: every generator's colors lie in [0, c) by
    construction, and ``lazy`` has checked the rest."""
    col = object.__new__(Coloring)
    col.__dict__.update(lazy.__dict__, cells=cells, fn=None)
    return col


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

    def load(self) -> Coloring:
        if self.kind == "file":
            if not self.path:
                raise MalformedInputError("file coloring spec needs a path")
            return load_file(self.path)
        if self.kind == "generator":
            return make_coloring(self.generator, self.d, self.N, self.c,
                                 self.param, self.seed)
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
    def from_json(cls, obj) -> "ColoringSpec":
        """Inverse of :meth:`to_json`.  Anything but an object with every
        field of its kind, each of the right type, is malformed input; a
        generator spec may leave out ``d``, which is then 1."""
        if not isinstance(obj, dict):
            raise MalformedInputError("coloring spec must be an object")
        kind = obj.get("kind")
        if kind == "file":
            return cls(kind="file", path=_spec_field(obj, "path", str))
        if kind == "generator":
            param = _spec_field(obj, "param", list, [])
            if not all(type(p) is int for p in param):
                raise MalformedInputError(
                    "coloring spec field 'param' must be a list of integers")
            return cls(kind="generator",
                       generator=_spec_field(obj, "generator", str),
                       d=_spec_field(obj, "d", int, 1),
                       N=_spec_field(obj, "N", int),
                       c=_spec_field(obj, "c", int), param=tuple(param),
                       seed=_spec_field(obj, "seed", int, 0))
        raise MalformedInputError(f"unknown coloring spec kind {kind!r}")


def _spec_field(obj: dict, key: str, kind: type, default=None):
    """``obj[key]``, of type ``kind``; required unless ``default`` is given."""
    if key not in obj and default is not None:
        return default
    value = obj.get(key)
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise MalformedInputError(
            f"coloring spec needs field {key!r} of type {kind.__name__}")
    return value


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
        d, N, c = map(int, tokens[:3])
        cells = tuple(map(int, itertools.islice(tokens, 3, None)))
    except ValueError as exc:
        raise MalformedInputError(f"non-integer token in coloring file: {exc}") from None
    if N < 1 or c < 1:
        raise MalformedInputError(f"bad header d={d} N={N} c={c}")
    return Coloring(d=d, N=N, c=c, cells=cells)


def save_file(col: Coloring, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(col))


def load_file(path: str) -> Coloring:
    with open(path) as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# enumeration


def enumerate_colorings(N: int, c: int, symmetry_break: bool = False,
                        budget: int = ENUM_BUDGET) -> Iterator[Coloring]:
    """All colorings of [1..N], lexicographic by cell tuple.

    With ``symmetry_break`` only one representative per color-permutation
    orbit is produced: value 1 is fixed to color 0 and new colors appear in
    first-use order (restricted-growth strings).  Each orbit representative
    is also the lexicographically least member of its orbit.
    """
    # bit lengths decide a huge c or N before any big power is built:
    # c >= 2^(bit_length - 1), so the first test implies c^N > budget
    if (c.bit_length() - 1) * N > budget.bit_length() or c ** N > budget:
        raise BudgetExceededError(
            f"{c}^{N} colorings exceed enumeration budget {budget}")
    if not symmetry_break:
        for tup in itertools.product(range(c), repeat=N):
            yield Coloring(d=1, N=N, c=c, cells=tup)
        return

    prefix = [0] * N
    used = [0] + [1] * N  # used[i]: the colors among prefix[:i]
    while True:
        yield Coloring(d=1, N=N, c=c, cells=tuple(prefix))
        # next: raise the last entry below both c - 1 and its used count
        i = N - 1
        while i >= 0 and (prefix[i] == used[i] or prefix[i] + 1 == c):
            i -= 1
        if i < 0:
            return
        prefix[i] += 1
        prefix[i + 1:] = [0] * (N - 1 - i)
        used[i + 1:] = [max(used[i], prefix[i] + 1)] * (N - i)
