"""Graph primitives against the brute-force oracle and frozen examples."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesandwich.budget import Budget, BudgetExhausted
from holesandwich.graph import (Graph, canonical_rotation, is_bipartite,
                               is_hole, iter_chordless_cycles)
from holesandwich.sandwich import normalized_edge
from holesandwich.verify import (chordless_cycles, complete_graph,
                                 cycle_graph, degeneracy_order, later_degree,
                                 path_graph)

from oracles import (chordless_cycles_oracle, complement_edges,
                     degeneracy_oracle, edge_set, is_induced_cycle,
                     is_two_colourable, petersen_edges)


def small_graphs(max_n=7):
    """Hypothesis strategy: a Graph on up to max_n vertices."""
    def build(n, bits):
        pairs = list(combinations(range(n), 2))
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        return Graph(n, edges)
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))


# -- construction and accessors ----------------------------------------------

def test_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1)
    # bool is an int subclass, and a float is no vertex.
    for n, edges in ((3, [(True, 2)]), (True, []), (2.0, []), (3, [(0, 1.0)])):
        with pytest.raises(ValueError):
            Graph(n, edges)
    for edge in (5, None, (0,), (0, 1, 2)):
        with pytest.raises(ValueError, match="is not a pair of ints"):
            Graph(3, [edge])
    with pytest.raises(ValueError, match="subset out of range"):
        Graph(3).induced([0, 3])
    with pytest.raises(ValueError, match="loop edge at vertex 2"):
        normalized_edge(2, 2)


def test_accessors_on_square():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert Graph(4, [(2, 3), (0, 3), (1, 2), (1, 0)]) == g
    assert hash(Graph(4, g.edges())) == hash(g)


def test_repr_shows_the_masks():
    # A mask can hold a vertex's own bit (through _make), which the
    # edge list does not show; unequal graphs must not print alike.
    assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, adj=(2, 1, 0))"
    looped = Graph._make((1, (1,)))
    assert looped != Graph(1) and repr(looped) != repr(Graph(1))


def test_complement_of_square_is_perfect_matching():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.complement().edges() == [(0, 2), (1, 3)]


def test_induced_reindexes_in_sorted_order():
    g = Graph(5, [(0, 2), (2, 4), (1, 4), (0, 1)])
    h = g.induced([4, 0, 2])
    assert h.n == 3
    assert h.edges() == [(0, 1), (1, 2)]  # 0-2, 2-4 survive


def test_a_bool_or_non_int_is_no_vertex():
    # As in Graph(n, edges): True would read as vertex 1 in a shift.
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for cycle in ((0, True, 2, 3), (0, 1.0, 2, 3), (0, None, 2, 3)):
        assert not is_hole(square, cycle)
    for subset in ([True, 2, 3], [0, 1.0], [None], ["1"]):
        with pytest.raises(ValueError, match="subset out of range"):
            square.induced(subset)


@given(small_graphs())
def test_complement_is_involution(g):
    assert g.complement().complement() == g


@given(small_graphs())
def test_complement_matches_oracle(g):
    want = complement_edges(g.n, g.edges())
    assert edge_set(g.complement().edges()) == edge_set(want)
    # Equality compares adjacency masks, which edges() cannot show: a
    # vertex's own bit set in its complement mask fails here.
    assert g.complement() == Graph(g.n, want)


@given(small_graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * len(g.edges())


# -- cycles -------------------------------------------------------------------

def test_cycle_canonical_form():
    assert canonical_rotation((3, 1, 0, 2)) == (0, 1, 3, 2)
    assert canonical_rotation([0, 2, 3, 1]) == (0, 1, 3, 2)
    assert canonical_rotation((0, 1, 2, 3)) == (0, 1, 2, 3)
    assert canonical_rotation((4, 2, 5)) == (2, 4, 5)


def test_cycle_chordless_in():
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_hole(square, (0, 1, 2, 3))
    assert is_hole(square, [2, 1, 0, 3])
    # The order is checked as given: 0-2 is no edge of the square.
    assert not is_hole(square, (0, 2, 1, 3))
    chorded = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert not is_hole(chorded, (0, 1, 2, 3))
    # A vertex outside range(n) is not the graph's; has_edge does not check
    # its arguments, and reads a negative one from the end.
    c5 = cycle_graph(5)
    assert not is_hole(c5, (0, 1, 2, 3, -1))
    assert not is_hole(c5, (0, 1, 2, 3, 5))
    # Consecutive vertices must be adjacent: five independent vertices are
    # no cycle.
    assert not is_hole(Graph(5), (0, 1, 2, 3, 4))


def test_petersen_census_frozen():
    g = Graph(10, petersen_edges())
    census = Counter(len(c) for c in chordless_cycles(g))
    assert dict(census) == {5: 12, 6: 10}
    co_census = Counter(len(c) for c in chordless_cycles(g.complement()))
    assert dict(co_census) == {4: 15, 5: 12}


def test_chordless_cycles_of_cycle_graph():
    for k in range(4, 9):
        cycles = chordless_cycles(cycle_graph(k))
        assert cycles == [tuple(range(k))]
    assert chordless_cycles(complete_graph(6)) == []
    assert chordless_cycles(path_graph(6)) == []


@given(small_graphs())
@settings(max_examples=60)
def test_chordless_cycles_match_oracle(g):
    want = chordless_cycles_oracle(g.n, g.edges())
    got = set(chordless_cycles(g))
    assert got == {canonical_rotation(c) for c in want}
    for c in chordless_cycles(g):
        assert is_induced_cycle(g.edges(), c)


# Each shape `iter_chordless_cycles` takes, as a test on the cycle length.
SHAPES = {None: lambda k: True, "odd": lambda k: k % 2 == 1,
          "even": lambda k: k % 2 == 0, 4: (4).__eq__, 5: (5).__eq__,
          6: (6).__eq__}


@given(small_graphs(max_n=8))
@settings(max_examples=60)
def test_enumerated_cycles_are_already_canonical(g):
    """The enumerator yields its closed paths as they are; callers compare
    them as values, which is sound only because every path it closes is in
    canonical order."""
    for shape in SHAPES:
        for cyc in iter_chordless_cycles(g, shape=shape):
            assert type(cyc) is tuple and cyc == canonical_rotation(cyc)
            assert canonical_rotation(reversed(cyc[1:] + cyc[:1])) == cyc


@given(small_graphs(max_n=8))
@settings(max_examples=60)
def test_shaped_enumeration_filters_the_unshaped_one(g):
    """A shape only filters: it yields the unshaped enumeration's cycles
    of that shape, in the same order.  A parity spends the unshaped
    search's expansions; a length also stops growing paths that cannot
    close into it, so spends no more."""
    every = Budget(None)
    cycles = list(iter_chordless_cycles(g, every))
    for shape, fits in SHAPES.items():
        spent = Budget(None)
        got = list(iter_chordless_cycles(g, spent, shape))
        assert got == [c for c in cycles if fits(len(c))]
        if isinstance(shape, int):
            assert spent.spent <= every.spent
        else:
            assert spent.spent == every.spent


def test_enumeration_refuses_unknown_shapes():
    chorded = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert list(iter_chordless_cycles(chorded)) == []
    # A triangle is no hole, so 3 is no length the enumerator serves.
    for shape in (3, 0, -5, "triangle", "Odd", True, 5.0, (5,)):
        with pytest.raises(ValueError, match="shape"):
            list(iter_chordless_cycles(chorded, shape=shape))


def test_chordless_cycles_budget_raises():
    g = Graph(10, petersen_edges())
    with pytest.raises(BudgetExhausted):
        chordless_cycles(g, budget=40)


@given(small_graphs())
def test_is_bipartite_matches_two_colouring_oracle(g):
    assert is_bipartite(g) == is_two_colourable(g.n, g.edges())


def test_is_bipartite_sees_an_odd_cycle_in_any_component():
    assert is_bipartite(Graph(0)) and is_bipartite(cycle_graph(8))
    square_and_pentagon = Graph(9, [(0, 1), (1, 2), (2, 3), (0, 3)]
                                + [(4 + i, 4 + (i + 1) % 5) for i in range(5)])
    assert not is_bipartite(square_and_pentagon)
    assert not is_bipartite(Graph(10, petersen_edges()))


# -- degeneracy ---------------------------------------------------------------

@given(small_graphs())
def test_degeneracy_order_matches_oracle(g):
    order = degeneracy_order(g)
    assert later_degree(g, order) == degeneracy_oracle(g.n, g.edges())


def test_later_degree_checks_any_permutation():
    petersen = Graph(10, petersen_edges())
    assert later_degree(petersen, range(10)) == 3
    assert later_degree(petersen, degeneracy_order(petersen)) == 3
    for order in ([], list(range(9)), [0] + list(range(9)), list(range(1, 11))):
        with pytest.raises(ValueError, match="not a permutation"):
            later_degree(petersen, order)
