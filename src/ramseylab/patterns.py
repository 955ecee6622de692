"""Pattern schemas: finite sets of arithmetic terms over existential variables.

A pattern such as ``{x, y, x*y, x+y}`` denotes the family of value sets
obtained by substituting positive integers for the variables.  Terms are
built from variables, positive integer constants, ``+`` and ``*`` (``*`` is
always explicit).  Grammar::

    pattern := "{" term ("," term)* "}"
    term    := expr
    expr    := prod ("+" prod)*
    prod    := atom ("*" atom)*
    atom    := IDENT | NUMBER | "(" expr ")"

Canonicalization folds constant-constant nodes and sorts the operands of
each commutative node under a fixed total order; it never distributes, so
term identity stays predictable.  Evaluation is exact and errors once a
value exceeds the signed 64-bit cap.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Union

from .errors import BudgetExceededError, RamseyError, ValueOverflowError

#: evaluation width — values above this raise ValueOverflowError
VALUE_CAP = 2**63 - 1


class PatternError(RamseyError):
    pass


class PatternSyntaxError(PatternError):
    """Malformed pattern text.  ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundVariableError(PatternError):
    pass


class AssignmentError(PatternError):
    pass


# ---------------------------------------------------------------------------
# term AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


Term = Union[Var, Const, Add, Mul]


def term_key(t: Term):
    """Total order on canonical terms: Const < Var < Add < Mul, then fields."""
    if isinstance(t, Const):
        return (0, t.value)
    if isinstance(t, Var):
        return (1, t.name)
    if isinstance(t, Add):
        return (2, term_key(t.left), term_key(t.right))
    return (3, term_key(t.left), term_key(t.right))


def canonicalize(t: Term) -> Term:
    """Fold constant-constant nodes, sort commutative operands.  Idempotent."""
    if isinstance(t, (Var, Const)):
        return t
    left = canonicalize(t.left)
    right = canonicalize(t.right)
    if isinstance(left, Const) and isinstance(right, Const):
        if isinstance(t, Add):
            return Const(left.value + right.value)
        return Const(left.value * right.value)
    if term_key(right) < term_key(left):
        left, right = right, left
    return type(t)(left, right)


def term_variables(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    return term_variables(t.left) | term_variables(t.right)


def eval_term(t: Term, assignment: Mapping[str, int]) -> int:
    """Exact evaluation; raises on unbound variables and 64-bit overflow."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {t.name!r}") from None
    a = eval_term(t.left, assignment)
    b = eval_term(t.right, assignment)
    v = a + b if isinstance(t, Add) else a * b
    if v > VALUE_CAP:
        raise ValueOverflowError(f"term value {v} exceeds 64-bit cap")
    return v


def format_term(t: Term) -> str:
    """Render a term; parentheses are emitted exactly where reparsing needs them."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Add):
        ls = format_term(t.left)
        rs = format_term(t.right)
        if isinstance(t.right, Add):
            rs = f"({rs})"
        return f"{ls}+{rs}"
    ls = format_term(t.left)
    rs = format_term(t.right)
    if isinstance(t.left, Add):
        ls = f"({ls})"
    if isinstance(t.right, (Add, Mul)):
        rs = f"({rs})"
    return f"{ls}*{rs}"


# ---------------------------------------------------------------------------
# schemas


@dataclass(frozen=True)
class PatternSchema:
    """A canonicalized, duplicate-free term set plus instantiation policy."""

    terms: tuple
    variables: tuple
    distinct_vars: bool = False
    min_value: int = 1

    def __post_init__(self):
        if not self.terms:
            raise PatternError("empty term set")
        if self.min_value < 1:
            raise PatternError("min_value must be >= 1")

    @property
    def source(self) -> str:
        return format_pattern(self)


def schema_from_terms(terms, distinct_vars: bool = False, min_value: int = 1) -> PatternSchema:
    canon = []
    for t in terms:
        ct = canonicalize(t)
        if ct not in canon:
            canon.append(ct)
    names = set()
    for t in canon:
        names |= term_variables(t)
    return PatternSchema(
        terms=tuple(canon),
        variables=tuple(sorted(names)),
        distinct_vars=distinct_vars,
        min_value=min_value,
    )


def format_pattern(schema: PatternSchema) -> str:
    return "{" + ", ".join(format_term(t) for t in schema.terms) + "}"


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<sym>[{}(),+*])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PatternSyntaxError(f"unexpected character {ch!r}", pos)
        if m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "num":
            value = int(m.group())
            if value == 0:
                raise PatternSyntaxError("constant 0 is not allowed", pos)
            tokens.append(("num", value, pos))
        else:
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("eof", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise PatternSyntaxError(f"expected {kind!r}", tok[2])
        self.i += 1
        return tok

    def parse_pattern(self):
        self.take("{")
        if self.peek()[0] == "}":
            raise PatternSyntaxError("empty term set", self.peek()[2])
        terms = [self.parse_expr()]
        while self.peek()[0] == ",":
            self.take(",")
            terms.append(self.parse_expr())
        self.take("}")
        if self.peek()[0] != "eof":
            raise PatternSyntaxError("trailing input after pattern", self.peek()[2])
        return terms

    def parse_expr(self):
        t = self.parse_prod()
        while self.peek()[0] == "+":
            self.take("+")
            t = Add(t, self.parse_prod())
        return t

    def parse_prod(self):
        t = self.parse_atom()
        while self.peek()[0] == "*":
            self.take("*")
            t = Mul(t, self.parse_atom())
        return t

    def parse_atom(self):
        kind, value, pos = self.peek()
        if kind == "ident":
            self.take()
            return Var(value)
        if kind == "num":
            self.take()
            return Const(value)
        if kind == "(":
            self.take("(")
            t = self.parse_expr()
            self.take(")")
            return t
        raise PatternSyntaxError("expected a term", pos)


def parse_pattern(text: str, distinct_vars: bool = False, min_value: int = 1) -> PatternSchema:
    """Parse pattern source text into a canonicalized schema."""
    terms = _Parser(text).parse_pattern()
    return schema_from_terms(terms, distinct_vars=distinct_vars, min_value=min_value)


# ---------------------------------------------------------------------------
# assignments and instantiation


def validate_assignment(schema: PatternSchema, assignment: Mapping[str, int]) -> None:
    """Check that ``assignment`` covers exactly the schema's variables and
    respects positivity, min_value, and the distinctness flag."""
    keys = set(assignment)
    want = set(schema.variables)
    if keys != want:
        missing = sorted(want - keys)
        extra = sorted(keys - want)
        raise AssignmentError(f"assignment keys mismatch (missing={missing}, extra={extra})")
    for name, v in assignment.items():
        if not isinstance(v, int) or v < 1:
            raise AssignmentError(f"{name}={v!r} is not a positive integer")
        if v < schema.min_value:
            raise AssignmentError(f"{name}={v} below min_value={schema.min_value}")
    if schema.distinct_vars:
        vals = list(assignment.values())
        if len(set(vals)) != len(vals):
            raise AssignmentError("distinct_vars requires pairwise distinct values")


def instantiate(schema: PatternSchema, assignment: Mapping[str, int], check: bool = True) -> frozenset:
    """Value set of all terms at the assignment.  Collapses coincident values."""
    if check:
        validate_assignment(schema, assignment)
    return frozenset(eval_term(t, assignment) for t in schema.terms)


# ---------------------------------------------------------------------------
# in-box assignment enumeration (shared by the search engines and the encoder)

_SEGMENT = 16  # loops per generated function; CPython nests at most 20 blocks


class TermPlan:
    """A schema's in-box enumeration, rendered as the source of one
    generator, the *kernel*: ``kernel(N)`` runs one ``for`` per variable,
    in schema order, over ``[min_value..N]``, skipping (under
    ``distinct_vars``) values equal to an earlier variable's.  Each term is
    evaluated once its last variable is bound; terms never decrease in any
    variable, so one above ``N`` ends its loop (one above
    :data:`VALUE_CAP` there raises :class:`ValueOverflowError`), and a
    constant term above ``N`` ends the kernel.  Each leaf yields the
    variable values and the term values (in ``schema.terms`` order) as two
    tuples.  The source names only ``N``, ``hi``, ``v0..vk``, ``t0..tm``
    and integer literals, never pattern text."""

    def __init__(self, schema: PatternSchema):
        self.schema = schema
        self.variables = schema.variables
        self.index = index = {name: i for i, name in enumerate(self.variables)}
        self.ready = [[] for _ in self.variables]  # term indices per level
        self.constant_terms = []
        for i, t in enumerate(schema.terms):
            tv = term_variables(t)
            if not tv:
                self.constant_terms.append(t)
            else:
                self.ready[max(index[name] for name in tv)].append(i)

    def source(self) -> str:
        def expr(t):
            if isinstance(t, Const):
                return str(t.value)
            if isinstance(t, Var):
                return f"v{self.index[t.name]}"
            op = "+" if isinstance(t, Add) else "*"
            return f"({expr(t.left)} {op} {expr(t.right)})"

        terms, lo = self.schema.terms, self.schema.min_value
        bound = prefix = ""  # names bound so far / variables so far
        lines = ["def _k0(N):", f"    hi = min(N, {VALUE_CAP})"]
        lines += [f"    if {t.value} > N: return" for t in self.constant_terms]
        pad = "    "
        for j in range(len(self.variables)):
            if j and j % _SEGMENT == 0:
                lines += [f"{pad}yield from _k{j}(N, hi{bound})",
                          f"def _k{j}(N, hi{bound}):"]
                pad = "    "
            lines.append(f"{pad}for v{j} in range({lo}, N + 1):")
            pad += "    "
            if self.schema.distinct_vars and j:
                same = " or ".join(f"v{j} == v{i}" for i in range(j))
                lines.append(f"{pad}if {same}: continue")
            prefix += f"v{j}, "
            bound += f", v{j}"
            for i in self.ready[j]:
                if isinstance(terms[i], Var):
                    continue  # a bare variable never leaves [lo..N]
                lines += [f"{pad}t{i} = {expr(terms[i])}",
                          f"{pad}if t{i} > hi:",
                          f"{pad}    if t{i} > {VALUE_CAP}: _overflow({i}, ({prefix}))",
                          f"{pad}    break"]
                bound += f", t{i}"
        values = "".join(f"t{i}, " if isinstance(t, (Add, Mul)) else
                         f"{expr(t)}, " for i, t in enumerate(terms))
        lines.append(f"{pad}yield ({prefix}), ({values})")
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def compile_kernel(schema: PatternSchema) -> Callable[[int], Iterator[tuple]]:
    """The compiled :class:`TermPlan` kernel of ``schema``, as a function
    of ``N`` (see :class:`TermPlan`).  Compiled on first use, then cached."""
    terms, variables = schema.terms, schema.variables

    def overflow(i, prefix):
        # re-evaluate the slow way, which raises with the intermediate value
        eval_term(terms[i], dict(zip(variables, prefix)))

    namespace = {"_overflow": overflow}
    exec(TermPlan(schema).source(), namespace)
    return namespace["_k0"]


def _box_leaves(schema: PatternSchema, N: int, max_assignments: Optional[int]):
    """Kernel leaves for [1..N], capped at ``max_assignments``."""
    for count, leaf in enumerate(compile_kernel(schema)(N), 1):
        if max_assignments is not None and count > max_assignments:
            raise BudgetExceededError("assignment enumeration budget exceeded")
        yield leaf


def iter_box_assignments(schema: PatternSchema, N: int,
                         max_assignments: Optional[int] = None) -> Iterator[dict]:
    """Yield, as dicts, the assignments (lexicographic in schema variable
    order) whose term values all land in [1..N]: the leaves of the schema's
    kernel.  A pattern with variables yields nothing once ``min_value``
    exceeds N; a pattern without variables yields ``{}`` once when its
    constants fit, whatever ``min_value`` is.
    ``max_assignments`` bounds the number of leaves, raising once exceeded."""
    variables = schema.variables
    for asg, _ in _box_leaves(schema, N, max_assignments):
        yield dict(zip(variables, asg))


def instance_value_sets(schema: PatternSchema, N: int,
                        max_assignments: Optional[int] = None) -> list:
    """Deduplicated in-box instance value sets, as sorted tuples, sorted."""
    return sorted({tuple(sorted(set(values))) for _, values
                   in _box_leaves(schema, N, max_assignments)})
