"""Value semantics of the result and certificate records.

Graphs, certificates, instances, solve results and formulas are immutable
values: equal contents compare equal and hash equal, and no attribute can
be assigned or deleted after construction.  A cycle is a plain tuple in
canonical order, so it equals its rotations and reflections once each is
put through `canonical_rotation`.
"""

import copy
import pickle

import pytest

from holesandwich.cnf import CnfError, CnfFormula
from holesandwich.graph import Graph, canonical_rotation
from holesandwich.recognition import Certificate
from holesandwich.sandwich import Completion, SandwichInstance, SolveResult

SQUARE = {(0, 1), (1, 2), (2, 3), (0, 3)}


# (value, an equal value built separately, one of its field names)
EQUAL_PAIRS = [
    pytest.param(Graph(4, SQUARE), Graph(4, [(3, 2), (0, 3), (2, 1), (1, 0)]),
                 "adj", id="Graph"),
    pytest.param(Certificate("hole", (0, 1, 2, 3)),
                 Certificate("hole", (0, 1, 2, 3)), "kind", id="Certificate"),
    pytest.param(SandwichInstance(4, SQUARE, {(0, 2)}, "abcd"),
                 SandwichInstance(4, {(1, 0), (2, 1), (3, 2), (3, 0)},
                                  [(2, 0)], ["a", "b", "c", "d"]),
                 "forced", id="SandwichInstance"),
    pytest.param(SolveResult("SAT", Completion(frozenset({(0, 2)})), 3),
                 SolveResult("SAT", Completion(frozenset({(0, 2)})), 3,
                             frontier=0),
                 "verdict", id="SolveResult"),
    pytest.param(CnfFormula(3, [[1, -2, 3]]), CnfFormula(3, ((1, -2, 3),)),
                 "clauses", id="CnfFormula"),
]


@pytest.mark.parametrize("value,twin,field", EQUAL_PAIRS)
def test_equal_values_compare_and_hash_equal(value, twin, field):
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("value,twin,field", EQUAL_PAIRS)
def test_fields_cannot_be_assigned_or_deleted(value, twin, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before and value == twin


def test_different_values_differ():
    assert SandwichInstance(4, SQUARE, set()) != \
        SandwichInstance(4, SQUARE, {(0, 2)})
    assert SolveResult("SAT", None, 3) != SolveResult("SAT", None, 4)
    assert CnfFormula(3, ((1, 2, 3),)) != CnfFormula(4, ((1, 2, 3),))


def test_replace_goes_through_the_checks():
    inst = SandwichInstance(3, [(0, 1)], [(1, 2)])
    assert inst._replace(forced=[(2, 0)]) == \
        SandwichInstance(3, [(0, 2)], [(1, 2)])
    with pytest.raises(ValueError, match=r"forced edge \(0, 0\) is a loop"):
        inst._replace(forced={(0, 0)})
    formula = CnfFormula(3, [(1, 2, 3)])
    assert formula._replace(clauses=[[3, -2, 1]]) == \
        CnfFormula(3, ((3, -2, 1),))
    with pytest.raises(CnfError, match="clause 1 has 2 literals"):
        formula._replace(clauses=((1, 2),))
    # A graph's masks are not its checked input: no _replace at all.
    with pytest.raises(TypeError, match=r"use Graph\(n, edges\)"):
        Graph(3, [(0, 1)])._replace(adj=(1, 2, 4))


def test_cycle_equals_its_rotations_and_reflections_only():
    # A cycle is its canonical vertex tuple.
    base = (0, 1, 2, 3, 4)
    for i in range(5):
        rotation = base[i:] + base[:i]
        assert canonical_rotation(rotation) == base
        assert canonical_rotation(reversed(rotation)) == base
    assert canonical_rotation((0, 2, 1, 3, 4)) != base
    assert canonical_rotation((0, 1, 2, 3)) != canonical_rotation((0, 2, 1, 3))
