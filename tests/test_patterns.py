"""Pattern DSL: grammar, canonical forms, evaluation, instantiation."""

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab import patterns
from ramseylab.patterns import (Add, AssignmentError, Const, MAX_TERM_DEPTH,
                                Mul, PatternSyntaxError, UnboundVariableError,
                                VALUE_CAP, Var, canonicalize, eval_term,
                                format_pattern, format_term,
                                compile_scan, instance_value_sets,
                                instantiate, parse_pattern,
                                schema_from_terms, term_variables,
                                validate_assignment)
from ramseylab.errors import ValueOverflowError


def test_parse_simple_sum():
    schema = parse_pattern("{x, y, x+y}")
    assert schema.variables == ("x", "y")
    assert format_pattern(schema) == "{x, y, x+y}"


def test_parse_products_and_parens():
    schema = parse_pattern("{a*x, a*y, x*y, a*(x+y)}")
    assert schema.variables == ("a", "x", "y")
    assert instantiate(schema, {"a": 2, "x": 3, "y": 5}) == \
        frozenset({6, 10, 15, 16})


def test_parse_constant_multiplier():
    schema = parse_pattern("{x, y, x*y, x+2*y}")
    assert instantiate(schema, {"x": 3, "y": 4}) == frozenset({3, 4, 12, 11})


def test_duplicate_terms_collapse():
    # y+x and x+y canonicalize to the same term
    schema = parse_pattern("{x+y, y+x, x}")
    assert len(schema.terms) == 2


@pytest.mark.parametrize("bad, offset", [
    ("{x, y", 5),
    ("{}", 1),
    ("{x+}", 3),
    ("{x} y", 4),
    ("{0}", 1),
])
def test_syntax_errors_carry_offsets(bad, offset):
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern(bad)
    assert err.value.offset == offset


def _sum(n):
    return "+".join(["x"] * n)


def _nested(n, inner="x"):
    return "(" * n + inner + ")" * n


@pytest.mark.parametrize("text, error, offset", [
    # at the operator that makes the term 101 deep, or at the 101st "("
    (_sum(202), "term nested deeper than 100", 201),
    (_sum(1000), "term nested deeper than 100", 201),
    ("*".join(["x"] * 102), "term nested deeper than 100", 201),
    ("x*(" * 100 + "x*x" + ")" * 100, "term nested deeper than 100", 1),
    (_nested(400), "parentheses nested deeper than 100", 100),
    (_nested(101), "parentheses nested deeper than 100", 100),
], ids=["sum-202", "sum-1000", "product-102", "right-nested-102", "parens-400",
        "parens-101"])
def test_parse_refuses_a_term_nested_past_the_bound(monkeypatch, text, error,
                                                   offset):
    # the term is refused while it is parsed: nothing recurses over it
    for name in ("canonicalize", "format_term", "compile_scan"):
        monkeypatch.setattr(patterns, name, None)
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern("{y, " + text + "}")
    assert str(err.value) == f"{error} (at offset {offset + 4})"


@pytest.mark.parametrize("text", [
    _sum(101), "*".join(["x"] * 101), "x*(" * 100 + "x" + ")" * 100,
    _nested(100), _nested(50, "x+" + _nested(49, "x")),
], ids=["sum-101", "product-101", "right-nested-101", "parens-100",
        "parens-99-sum"])
def test_terms_at_the_depth_bound_parse_format_and_scan(text):
    assert MAX_TERM_DEPTH == 100
    schema = parse_pattern("{" + text + "}")
    assert parse_pattern(format_pattern(schema)) == schema
    # the first leaf, x = 1, is a hit under one color
    assert next(compile_scan(schema)(200, bytes(201), -1))[:2] == (1, (1,))


def test_rejects_unknown_characters():
    with pytest.raises(PatternSyntaxError):
        parse_pattern("{x - y}")


def test_eval_unbound_variable():
    schema = parse_pattern("{x, y, x+y}")
    with pytest.raises(UnboundVariableError):
        eval_term(schema.terms[-1], {"x": 1})


def test_eval_overflow_guard():
    t = Mul(Const(VALUE_CAP), Const(2))
    with pytest.raises(ValueOverflowError):
        eval_term(t, {})


def test_validate_assignment_exact_cover():
    schema = parse_pattern("{x, y, x+y}")
    with pytest.raises(AssignmentError):
        validate_assignment(schema, {"x": 1})
    with pytest.raises(AssignmentError):
        validate_assignment(schema, {"x": 1, "y": 2, "z": 3})
    with pytest.raises(AssignmentError):
        validate_assignment(schema, {"x": 0, "y": 2})


def test_min_value_and_distinct():
    schema = parse_pattern("{x, y, x+y}", distinct_vars=True, min_value=2)
    with pytest.raises(AssignmentError):
        validate_assignment(schema, {"x": 1, "y": 3})
    with pytest.raises(AssignmentError):
        validate_assignment(schema, {"x": 3, "y": 3})
    validate_assignment(schema, {"x": 2, "y": 3})


def test_kernel_leaves_lexicographic():
    schema = parse_pattern("{x, y, x+y}")
    # under one color every leaf is a hit: its number, variable values and
    # term values
    assert list(compile_scan(schema)(3, bytes(4), -1)) == [
        (1, (1, 1), (1, 1, 2)), (2, (1, 2), (1, 2, 3)), (3, (2, 1), (2, 1, 3)),
        (3, None, None)]


def test_instance_value_sets_dedupes():
    schema = parse_pattern("{x, y, x+y}")
    sets = instance_value_sets(schema, 4)
    assert sets == [(1, 2), (1, 2, 3), (1, 3, 4), (2, 4)]


def test_zero_variable_schema():
    schema = parse_pattern("{3, 4}")
    assert schema.variables == ()
    assert instance_value_sets(schema, 4) == [(3, 4)]
    assert instance_value_sets(schema, 3) == []


# --- property tests ---------------------------------------------------------

_names = st.sampled_from(["a", "b", "x", "y", "z"])


def _terms(depth=3):
    leaves = st.one_of(_names.map(Var), st.integers(1, 9).map(Const))
    return st.recursive(
        leaves,
        lambda sub: st.tuples(sub, sub).flatmap(
            lambda ab: st.sampled_from([Add(*ab), Mul(*ab)])),
        max_leaves=6)


@given(_terms())
def test_canonicalize_is_idempotent(t):
    c = canonicalize(t)
    assert canonicalize(c) == c


@given(_terms(), st.integers(1, 50), st.integers(1, 50), st.integers(1, 50),
       st.integers(1, 50), st.integers(1, 50))
def test_canonicalize_preserves_value(t, va, vb, vx, vy, vz):
    asg = dict(zip("abxyz", (va, vb, vx, vy, vz)))
    assert eval_term(t, asg) == eval_term(canonicalize(t), asg)


@given(st.lists(_terms(), min_size=1, max_size=4))
@settings(max_examples=200)
def test_print_parse_round_trip(terms):
    schema = schema_from_terms(terms)
    back = parse_pattern(format_pattern(schema),
                         distinct_vars=schema.distinct_vars,
                         min_value=schema.min_value)
    assert back.terms == schema.terms
    assert back.variables == schema.variables


@given(_terms())
def test_format_term_round_trips_exactly(t):
    c = canonicalize(t)
    reparsed = parse_pattern("{" + format_term(c) + "}")
    assert reparsed.terms == (c,)


@given(_terms())
def test_term_variables_matches_format(t):
    printed = format_term(t)
    for name in term_variables(t):
        assert name in printed
