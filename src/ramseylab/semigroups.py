"""Exact idempotent and ideal algebra of finite semigroups.

Everything here is brute-force honest: a semigroup is its Cayley table,
ideals are computed by enumeration, and the ordering on idempotents is the
left preorder

    e <=_L f   iff   e + f = e

(writing + for the table operation).  Minimal idempotents are the ones
nothing sits strictly below in that preorder, a subset is *central* when it
contains a minimal idempotent, and A - s is the translate {t : s + t in A}.

Elements are 0-indexed throughout; table files carry the order n on the
first line and then n rows of n entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import MalformedInputError, RamseyError


class NonAssociativeError(RamseyError):
    """Raised when rows fail associativity; carries the witness triple."""

    def __init__(self, triple):
        self.triple = triple
        a, b, c = triple
        super().__init__(f"not associative: ({a}+{b})+{c} != {a}+({b}+{c})")


@dataclass(frozen=True)
class CayleyTable:
    """An n x n operation table; rows[x][y] is x + y."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise MalformedInputError("empty table")
        for row in rows:
            if len(row) != n:
                raise MalformedInputError("table must be square")
            for v in row:
                if not 0 <= v < n:
                    raise MalformedInputError(
                        f"entry {v} outside [0..{n - 1}]")

    @property
    def n(self) -> int:
        return len(self.rows)

    def add(self, x: int, y: int) -> int:
        return self.rows[x][y]


def find_associativity_violation(rows) -> Optional[tuple]:
    """First triple (a, b, c) with (a+b)+c != a+(b+c), scanning in
    lexicographic order; None when the operation is associative."""
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            ab = ra[b]
            rab = rows[ab]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return (a, b, c)
    return None


def table_from_rows(rows) -> CayleyTable:
    """Validate range and associativity; the usual constructor for data
    that is supposed to be a semigroup."""
    table = CayleyTable(rows=tuple(tuple(r) for r in rows))
    triple = find_associativity_violation(table.rows)
    if triple is not None:
        raise NonAssociativeError(triple)
    return table


def parse_rows(text: str, what: str = "semigroup table") -> tuple:
    """The rows of a square table file: the order n, then n*n integers,
    row by row.  The entries' range is the caller's to check."""
    tokens = text.split()
    if not tokens:
        raise MalformedInputError(f"empty {what}")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise MalformedInputError("non-integer table entry") from exc
    n = values[0]
    if n < 1 or len(values) != 1 + n * n:
        raise MalformedInputError(f"expected {n}*{n} entries after the header")
    return tuple(tuple(values[1 + i * n: 1 + (i + 1) * n]) for i in range(n))


def parse_table(text: str) -> CayleyTable:
    return table_from_rows(parse_rows(text))


def load_table(path) -> CayleyTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read())


# ---------------------------------------------------------------------------
# idempotents and ideals


def idempotents(table: CayleyTable) -> list:
    return [e for e in range(table.n) if table.add(e, e) == e]


def principal_left_ideal(table: CayleyTable, s: int) -> frozenset:
    """S^1 + s, i.e. {s} together with {t + s : t in S}."""
    out = {s}
    for t in range(table.n):
        out.add(table.add(t, s))
    return frozenset(out)


def minimal_left_ideals(table: CayleyTable) -> list:
    """Inclusion-minimal principal left ideals, deduplicated, as sorted
    tuples ordered by (least element, contents)."""
    ideals = {principal_left_ideal(table, s) for s in range(table.n)}
    minimal = [I for I in ideals
               if not any(J < I for J in ideals)]
    return sorted((tuple(sorted(I)) for I in minimal),
                  key=lambda t: (t[0], t))


def le_l(table: CayleyTable, e1: int, e2: int) -> bool:
    """The left preorder on idempotents: e1 <=_L e2 iff e1 + e2 = e1."""
    return table.add(e1, e2) == e1


def minimal_idempotents(table: CayleyTable) -> list:
    """Idempotents e such that any idempotent below e is also above it —
    preorder-minimal elements."""
    idem = idempotents(table)
    out = []
    for e in idem:
        if all(le_l(table, e, f) for f in idem if le_l(table, f, e)):
            out.append(e)
    return out


def le_l_pairs(table: CayleyTable) -> list:
    """All comparable idempotent pairs [e1, e2] with e1 <=_L e2."""
    idem = idempotents(table)
    return [[e1, e2] for e1 in idem for e2 in idem if le_l(table, e1, e2)]


def is_central(table: CayleyTable, subset) -> bool:
    """A subset is central when it contains a minimal idempotent."""
    members = set(subset)
    for v in members:
        if not 0 <= v < table.n:
            raise RamseyError(f"subset element {v} outside [0..{table.n - 1}]")
    return any(e in members for e in minimal_idempotents(table))


def translate_set(table: CayleyTable, subset, s: int) -> frozenset:
    """A - s = {t : s + t in A}."""
    members = set(subset)
    if not 0 <= s < table.n:
        raise RamseyError(f"element {s} outside [0..{table.n - 1}]")
    return frozenset(t for t in range(table.n)
                     if table.add(s, t) in members)


# ---------------------------------------------------------------------------
# reports and sweeps


@dataclass(frozen=True)
class AlgebraReport:
    n: int
    idempotents: tuple
    minimal_left_ideals: tuple
    minimal_idempotents: tuple
    le_l: tuple

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "idempotents": list(self.idempotents),
            "minimal_left_ideals": [list(I) for I in self.minimal_left_ideals],
            "minimal_idempotents": list(self.minimal_idempotents),
            "le_l": [list(p) for p in self.le_l],
        }


def algebra_report(table: CayleyTable) -> AlgebraReport:
    return AlgebraReport(
        n=table.n,
        idempotents=tuple(idempotents(table)),
        minimal_left_ideals=tuple(minimal_left_ideals(table)),
        minimal_idempotents=tuple(minimal_idempotents(table)),
        le_l=tuple(tuple(p) for p in le_l_pairs(table)),
    )


def iter_tables(n: int):
    """Every n x n operation table (n^(n*n) of them), lexicographically."""
    for flat in product(range(n), repeat=n * n):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(n))


def iter_semigroups(n: int):
    """The associative tables among iter_tables(n), as CayleyTable."""
    for rows in iter_tables(n):
        if find_associativity_violation(rows) is None:
            yield CayleyTable(rows=rows)
