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

The parser refuses a term whose operators, or whose parentheses, nest
deeper than :data:`MAX_TERM_DEPTH`, before anything recurses over it.

Canonicalization folds constant-constant nodes and sorts the operands of
each commutative node under a fixed total order; it never distributes, so
term identity stays predictable.  Evaluation is exact and errors once a
value exceeds the signed 64-bit cap.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Union

from .errors import BudgetExceededError, RamseyError, ValueOverflowError

#: evaluation width — values above this raise ValueOverflowError
VALUE_CAP = 2**63 - 1

#: how deep a term's operators, and its parentheses, may nest (a chain of
#: n sums is n - 1 deep); the compiled scan's source holds one parenthesis
#: pair per operator, and CPython compiles at most 200 nested
MAX_TERM_DEPTH = 100


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
        self.parens = 0  # open parentheses around the current token

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
        terms = [self.parse_expr()[0]]
        while self.peek()[0] == ",":
            self.take(",")
            terms.append(self.parse_expr()[0])
        self.take("}")
        if self.peek()[0] != "eof":
            raise PatternSyntaxError("trailing input after pattern", self.peek()[2])
        return terms

    def parse_expr(self):
        return self._chain("+", Add, self.parse_prod)

    def parse_prod(self):
        return self._chain("*", Mul, self.parse_atom)

    def _chain(self, op: str, node, operand):
        """``operand (op operand)*``, left-nested: (term, depth)."""
        t, depth = operand()
        while self.peek()[0] == op:
            pos = self.take(op)[2]
            right, d = operand()
            t, depth = node(t, right), max(depth, d) + 1
            if depth > MAX_TERM_DEPTH:
                raise PatternSyntaxError(
                    f"term nested deeper than {MAX_TERM_DEPTH}", pos)
        return t, depth

    def parse_atom(self):
        kind, value, pos = self.peek()
        if kind == "ident":
            self.take()
            return Var(value), 0
        if kind == "num":
            self.take()
            return Const(value), 0
        if kind == "(":
            self.take("(")
            self.parens += 1
            if self.parens > MAX_TERM_DEPTH:
                raise PatternSyntaxError(
                    f"parentheses nested deeper than {MAX_TERM_DEPTH}", pos)
            t = self.parse_expr()
            self.take(")")
            self.parens -= 1
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


def instantiate(schema: PatternSchema, assignment: Mapping[str, int]) -> frozenset:
    """Value set of all terms at the assignment.  Collapses coincident values."""
    validate_assignment(schema, assignment)
    return frozenset(eval_term(t, assignment) for t in schema.terms)


# ---------------------------------------------------------------------------
# in-box assignment enumeration (shared by the search engines and the encoder)

_SEGMENT = 16  # loops per generated function; CPython nests at most 20 blocks

#: leaves :func:`instance_value_sets` walks before it gives up
LEAF_BUDGET = 1 << 20


class TermPlan:
    """A schema's in-box enumeration, rendered as the source of one
    generator, the *scan* ``scan(N, C, S)``: one ``for`` per variable, in
    schema order, over ``[min_value..N]``, skipping (under
    ``distinct_vars``) values equal to an earlier variable's.  Each term is
    evaluated once its last variable is bound; terms never decrease in any
    variable, so one above ``N`` ends its loop (one above
    :data:`VALUE_CAP` there raises :class:`ValueOverflowError`), and a
    constant term above ``N`` ends the scan.  Each leaf adds one to the
    leaf count ``n``, which carries across the generated functions; leaf
    ``S`` stops the scan before its colors are read.  Otherwise the leaf
    compares the colors ``C[t]`` of its term values and, when they are all
    equal, yields ``(n, variable values, term values)``, the term values
    in ``schema.terms`` order.  The scan ends with one ``(n, None, None)``,
    after its last leaf or at leaf ``S``.  So ``S = max(B, 0) + 1`` spends
    a budget of B leaves under the one rule of :mod:`ramseylab.search`
    (leaf B + 1 stops), ``S = -1`` never stops, and under one color every
    leaf is a hit.  The source names only ``N``, ``C``, ``S``, ``n``,
    ``hi``, ``v0..vk``, ``t0..tm`` and integer literals, never pattern
    text."""

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

        def end(j):  # the last line of the function of loops j, j+1..
            return "    return n" if j else "    yield n, None, None"

        terms, lo = self.schema.terms, self.schema.min_value
        bound = prefix = ""  # names bound so far / variables so far
        lines = ["def _k0(N, C, S):", f"    hi = min(N, {VALUE_CAP})"]
        for t in self.constant_terms:
            lines += [f"    if {t.value} > N:", "        yield 0, None, None",
                      "        return"]
        lines.append("    n = 0")
        pad = "    "
        for j in range(len(self.variables)):
            if j and j % _SEGMENT == 0:
                lines += [f"{pad}n = yield from _k{j}(N, hi, C, S, n{bound})",
                          f"{pad}if n is None: return", end(j - _SEGMENT),
                          f"def _k{j}(N, hi, C, S, n{bound}):"]
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
        values = [f"t{i}" if isinstance(t, (Add, Mul)) else expr(t)
                  for i, t in enumerate(terms)]
        hit = f"yield n, ({prefix}), ({''.join(v + ', ' for v in values)})"
        if len(values) > 1:
            hit = f"if {' == '.join(f'C[{v}]' for v in values)}: {hit}"
        last = max(len(self.variables) - 1, 0) // _SEGMENT * _SEGMENT
        lines += [f"{pad}n += 1", f"{pad}if n == S:",
                  f"{pad}    yield n, None, None", f"{pad}    return",
                  pad + hit, end(last)]
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def compile_scan(schema: PatternSchema) -> Callable[..., Iterator[tuple]]:
    """The compiled :class:`TermPlan` scan of ``schema``, as a function of
    the box ``N``, the colors by value ``C`` and the leaf ``S`` to stop
    at.  Compiled on first use, then cached."""
    terms, variables = schema.terms, schema.variables

    def overflow(i, prefix):
        # re-evaluate the slow way, which raises with the intermediate value
        eval_term(terms[i], dict(zip(variables, prefix)))

    namespace = {"_overflow": overflow}
    exec(TermPlan(schema).source(), namespace)
    return namespace["_k0"]


def instance_value_sets(schema: PatternSchema, N: int) -> list:
    """Deduplicated in-box instance value sets, as sorted tuples, sorted:
    the term values of every leaf of the compiled scan under one color.
    Leaf :data:`LEAF_BUDGET` + 1 raises :class:`BudgetExceededError`, and
    so does a box of more than LEAF_BUDGET values, before the one-color
    table of N + 1 bytes is allocated."""
    if N > LEAF_BUDGET:
        raise BudgetExceededError.past(LEAF_BUDGET)
    stop = LEAF_BUDGET + 1
    sets = set()
    for n, _, values in compile_scan(schema)(N, bytes(N + 1), stop):
        if values is None:
            if n == stop:
                raise BudgetExceededError.past(LEAF_BUDGET)
            break
        sets.add(tuple(sorted(set(values))))
    return sorted(sets)
