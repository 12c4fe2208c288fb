"""3-CNF model and DIMACS serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holesandwich.cnf import (CnfError, CnfFormula, all_assignments,
                              format_dimacs, parse_dimacs)


def formulas():
    def build(num_vars, picks):
        clauses = []
        for variables, signbits in picks:
            trio = sorted(set(v % num_vars + 1 for v in variables))
            if len(trio) != 3:
                trio = [1, 2, 3]
            clauses.append(tuple(v if signbits >> i & 1 else -v
                                 for i, v in enumerate(trio)))
        return CnfFormula(num_vars, tuple(clauses))
    picks = st.tuples(st.tuples(st.integers(0, 999), st.integers(0, 999),
                                st.integers(0, 999)), st.integers(0, 7))
    return st.builds(build, st.integers(3, 8), st.lists(picks, max_size=6))


def test_model_validation():
    CnfFormula(3, ((1, -2, 3),))
    with pytest.raises(CnfError):
        CnfFormula(3, ((1, 2),))           # short clause
    with pytest.raises(CnfError):
        CnfFormula(3, ((1, 2, 4),))        # literal out of range
    with pytest.raises(CnfError):
        CnfFormula(3, ((1, -1, 2),))       # repeated variable
    with pytest.raises(CnfError):
        CnfFormula(3, ((1, 0, 2),))        # zero literal
    with pytest.raises(CnfError):
        CnfFormula(-1, ())
    with pytest.raises(CnfError):
        CnfFormula(3.0, ((1, 2, 3),))      # non-integer variable count
    with pytest.raises(CnfError):
        CnfFormula(3, ((1.0, 2, 3),))      # non-integer literal
    with pytest.raises(CnfError):
        CnfFormula(True, ())               # bool variable count
    with pytest.raises(CnfError):
        CnfFormula(3, ((True, 2, 3),))     # bool literal


def test_satisfied_by():
    f = CnfFormula(3, ((1, -2, 3), (-1, 2, 3)))
    assert f.satisfied_by({1: True, 2: True, 3: False})
    assert not f.satisfied_by({1: True, 2: False, 3: False})
    sat = sum(f.satisfied_by(a) for a in all_assignments(3))
    assert sat == 6  # 8 assignments minus the two single-clause falsifiers
    assert f.num_clauses == 2


def test_parse_dimacs_round_trip():
    text = "c a comment\n\np cnf 4 2\n1 -2 3 0\nc mid comment\n-1 2 4 0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 4
    assert f.clauses == ((1, -2, 3), (-1, 2, 4))
    assert parse_dimacs(format_dimacs(f)) == f


def test_parse_dimacs_stops_at_satlib_end_marker():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0\n%\n0\n")
    assert f.clauses == ((1, 2, 3),)


def test_parse_dimacs_multiline_and_split_clauses():
    f = parse_dimacs("p cnf 3 2\n1 2\n3 0 -1\n-2 -3 0\n")
    assert f.clauses == ((1, 2, 3), (-1, -2, -3))


@pytest.mark.parametrize("text, message", [
    ("1 2 3 0\n", "before header"),
    ("p cnf 3\n1 2 3 0\n", "malformed header"),
    ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "duplicate header"),
    ("p cnf three 1\n1 2 3 0\n", "non-numeric"),
    ("p cnf 3 1\n1 2 x 0\n", "bad literal"),
    ("p cnf 3 1\n1 2 3\n", "zero-terminated"),
    ("p cnf 3 2\n1 2 3 0\n", "promises 2 clauses"),
    ("", "missing 'p cnf' header"),
    ("p cnf 3 1\n1 2 0\n", "has 2 literals"),
    ("p cnf 2 1\n1 2 3 0\n", "out of range"),
    ("p cnf \u0663 1\n1 2 3 0\n", "non-numeric"),
    ("p cnf 3 1\n+1 2 3 0\n", "bad literal"),
    ("p cnf 3 1\n1 2 \u0663 0\n", "bad literal"),
    ("p cnf 3 1\n1_0 2 3 0\n", "bad literal"),
])
def test_parse_dimacs_rejects(text, message):
    with pytest.raises(CnfError, match=message):
        parse_dimacs(text)


def test_all_assignments_order():
    got = list(all_assignments(2))
    assert got == [{1: False, 2: False}, {1: False, 2: True},
                   {1: True, 2: False}, {1: True, 2: True}]
    assert len(list(all_assignments(0))) == 1


@given(formulas())
def test_dimacs_round_trip_property(f):
    assert parse_dimacs(format_dimacs(f)) == f
