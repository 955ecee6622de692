"""Cayley-table algebra: idempotents, minimal left ideals, the left
preorder, central subsets, and the small-order census."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab.errors import MalformedInputError, RamseyError
from ramseylab.semigroups import (AlgebraReport, CayleyTable,
                                  NonAssociativeError, algebra_report,
                                  find_associativity_violation, idempotents,
                                  is_central, iter_semigroups, iter_tables,
                                  le_l, le_l_pairs, load_table,
                                  minimal_idempotents, minimal_left_ideals,
                                  parse_table, principal_left_ideal,
                                  table_from_rows, translate_set)

Z3 = table_from_rows(((0, 1, 2), (1, 2, 0), (2, 0, 1)))            # Z/3
RIGHT_ZERO = table_from_rows(((0, 1), (0, 1)))                     # x + y = y
LEFT_ZERO = table_from_rows(((0, 0), (1, 1)))                      # x + y = x
NULL2 = table_from_rows(((0, 0), (0, 0)))                          # x + y = 0


def test_table_validation():
    with pytest.raises(MalformedInputError):
        CayleyTable(rows=())
    with pytest.raises(MalformedInputError):
        CayleyTable(rows=((0, 1), (0,)))
    with pytest.raises(MalformedInputError):
        CayleyTable(rows=((0, 2), (0, 1)))


def test_associativity_violation_is_first_lex_triple():
    # (0+0)+1 = 1+1 = 0 while 0+(0+1) = 0+0 = 1
    rows = ((1, 0), (0, 0))
    assert find_associativity_violation(rows) == (0, 0, 1)
    with pytest.raises(NonAssociativeError) as exc:
        table_from_rows(rows)
    assert exc.value.triple == (0, 0, 1)


def test_parse_format_round_trip():
    assert parse_table("3\n0 1 2\n1 2 0\n2 0 1\n") == Z3


@pytest.mark.parametrize("text", [
    "", "2\n0 1\n1", "2\n0 1\n1 x", "0", "2\n0 1\n1 2",
])
def test_parse_table_rejects_malformed(text):
    with pytest.raises(MalformedInputError):
        parse_table(text)


def test_load_table(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    assert load_table(path) == Z3


def test_cyclic_group_algebra():
    """In a group the identity is the only idempotent, the whole group is
    the only left ideal, and a subset is central iff it contains 0."""
    assert idempotents(Z3) == [0]
    assert minimal_left_ideals(Z3) == [(0, 1, 2)]
    assert minimal_idempotents(Z3) == [0]
    assert is_central(Z3, {0, 1})
    assert not is_central(Z3, {1, 2})
    assert translate_set(Z3, {0, 1}, 2) == frozenset({1, 2})


def test_right_zero_semigroup():
    # every element is idempotent; s + t = t makes {t} a left ideal
    assert idempotents(RIGHT_ZERO) == [0, 1]
    assert minimal_left_ideals(RIGHT_ZERO) == [(0,), (1,)]
    assert minimal_idempotents(RIGHT_ZERO) == [0, 1]
    # e1 + e2 = e2, so only the reflexive pairs are comparable
    assert le_l_pairs(RIGHT_ZERO) == [[0, 0], [1, 1]]


def test_left_zero_semigroup():
    # e1 + e2 = e1 always: everything is below everything
    assert idempotents(LEFT_ZERO) == [0, 1]
    assert le_l_pairs(LEFT_ZERO) == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert minimal_idempotents(LEFT_ZERO) == [0, 1]
    assert minimal_left_ideals(LEFT_ZERO) == [(0, 1)]


def test_null_semigroup():
    assert idempotents(NULL2) == [0]
    assert minimal_left_ideals(NULL2) == [(0,)]
    assert is_central(NULL2, {0})
    assert not is_central(NULL2, {1})


def test_principal_left_ideal():
    assert principal_left_ideal(Z3, 1) == frozenset({0, 1, 2})
    assert principal_left_ideal(RIGHT_ZERO, 1) == frozenset({1})


def test_is_central_validates_range():
    with pytest.raises(RamseyError):
        is_central(Z3, {3})


def test_translate_set_validates_range():
    with pytest.raises(RamseyError):
        translate_set(Z3, {0}, 5)


def test_census_counts():
    assert sum(1 for _ in iter_tables(1)) == 1
    assert sum(1 for _ in iter_tables(2)) == 16
    assert sum(1 for _ in iter_semigroups(2)) == 8
    assert sum(1 for _ in iter_semigroups(3)) == 113


def test_every_order_three_semigroup_is_well_behaved():
    """Structural invariants over the whole order-3 census: idempotents
    exist, every minimal left ideal contains an idempotent, minimal
    idempotents exist, and <=_L is reflexive and transitive on
    idempotents."""
    count = 0
    for table in iter_semigroups(3):
        count += 1
        idem = idempotents(table)
        assert idem, table.rows
        assert minimal_idempotents(table), table.rows
        for ideal in minimal_left_ideals(table):
            assert any(e in ideal for e in idem), table.rows
        for e in idem:
            assert le_l(table, e, e)
        for e1 in idem:
            for e2 in idem:
                for e3 in idem:
                    if le_l(table, e1, e2) and le_l(table, e2, e3):
                        assert le_l(table, e1, e3), table.rows
    assert count == 113


def test_minimal_left_ideals_are_disjoint():
    for table in iter_semigroups(3):
        ideals = [set(I) for I in minimal_left_ideals(table)]
        for i, a in enumerate(ideals):
            for b in ideals[i + 1:]:
                assert not (a & b), table.rows


def test_algebra_report_json_shape():
    report = algebra_report(Z3)
    assert isinstance(report, AlgebraReport)
    assert report.to_json() == {
        "n": 3,
        "idempotents": [0],
        "minimal_left_ideals": [[0, 1, 2]],
        "minimal_idempotents": [0],
        "le_l": [[0, 0]],
    }


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(st.integers(0, n - 1), min_size=n * n,
                                 max_size=n * n))))
def test_minimal_idempotents_lie_in_minimal_left_ideals(args):
    """For any semigroup: e minimal implies e belongs to some minimal left
    ideal (here checked by direct enumeration)."""
    n, flat = args
    rows = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
    if find_associativity_violation(rows) is not None:
        return
    table = CayleyTable(rows=rows)
    ideals = minimal_left_ideals(table)
    for e in minimal_idempotents(table):
        assert any(e in ideal for ideal in ideals)
