"""Graph primitives against the brute-force oracle and frozen examples."""

from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesandwich.budget import BudgetExhausted
from holesandwich.graph import (Graph, canonical_rotation, is_bipartite,
                               is_hole, iter_chordless_cycles)
from holesandwich.sandwich import normalized_edge
from holesandwich.verify import (chordless_cycles, complete_graph,
                                 cycle_graph, find_gem, find_induced_path,
                                 path_graph, triangles)

from oracles import (GEM_EDGES, chordless_cycles_oracle, complement_edges,
                     edge_set, has_gem, is_gem, is_induced_cycle,
                     is_two_colourable, petersen_edges, triangle_count_trace)


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
    # A mask can hold a vertex's own bit (through _from_masks), which the
    # edge list does not show; unequal graphs must not print alike.
    assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, adj=(2, 1, 0))"
    looped = Graph._from_masks(1, [1])
    assert looped != Graph(1) and repr(looped) != repr(Graph(1))


def test_complement_of_square_is_perfect_matching():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.complement().edges() == [(0, 2), (1, 3)]


def test_induced_reindexes_in_sorted_order():
    g = Graph(5, [(0, 2), (2, 4), (1, 4), (0, 1)])
    h = g.induced([4, 0, 2])
    assert h.n == 3
    assert h.edges() == [(0, 1), (1, 2)]  # 0-2, 2-4 survive


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


@given(small_graphs(max_n=8))
@settings(max_examples=60)
def test_enumerated_cycles_are_already_canonical(g):
    """The enumerator yields its closed paths as they are; callers compare
    them as values, which is sound only because every path it closes is in
    canonical order."""
    for length in (None, 5):
        for cyc in iter_chordless_cycles(g, length=length):
            assert type(cyc) is tuple and cyc == canonical_rotation(cyc)
            assert canonical_rotation(reversed(cyc[1:] + cyc[:1])) == cyc


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


# -- triangles and subgraphs --------------------------------------------------

@given(small_graphs())
def test_triangle_count_matches_trace_oracle(g):
    assert len(triangles(g)) == triangle_count_trace(g.n, g.edges())


def test_triangles_are_sorted_cliques():
    g = complete_graph(4)
    assert triangles(g) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_find_gem_is_not_induced_containment():
    # K5 has no induced gem, but a gem plus three chords; the wheel on a
    # four-cycle has one through the cycle's non-induced P4.
    k5 = complete_graph(5)
    assert is_gem(k5.edges(), find_gem(k5))
    wheel = Graph(5, list(cycle_graph(4).edges()) + [(v, 4) for v in range(4)])
    assert is_gem(wheel.edges(), find_gem(wheel))
    assert find_gem(complete_graph(4)) is None
    assert find_gem(Graph(10, petersen_edges())) is None


def test_find_gem_returns_a_gem():
    # Vertex i of the returned tuple plays the gem's vertex i: the path
    # 0-1-2-3 and the hub 4.
    assert find_gem(Graph(5, GEM_EDGES)) == (0, 1, 2, 3, 4)
    relabel = (3, 0, 4, 2, 1)
    moved = Graph(5, [(relabel[u], relabel[v]) for u, v in GEM_EDGES])
    assert is_gem(moved.edges(), find_gem(moved))


@given(small_graphs())
@settings(max_examples=80)
def test_find_gem_matches_oracle(g):
    gem = find_gem(g)
    assert (gem is not None) == has_gem(g.n, g.edges())
    assert gem is None or is_gem(g.edges(), gem)


# -- induced paths -------------------------------------------------------------

def _induced_path_oracle(g, k):
    if k == 1:
        return g.n > 0
    for perm in permutations(range(g.n), k):
        ok = True
        for i, j in combinations(range(k), 2):
            adjacent = g.has_edge(perm[i], perm[j])
            if adjacent != (abs(i - j) == 1):
                ok = False
                break
        if ok:
            return True
    return False


def test_petersen_has_no_induced_six_vertex_path():
    g = Graph(10, petersen_edges())
    assert find_induced_path(g, 5) is not None
    assert find_induced_path(g, 6) is None


def test_induced_path_result_is_an_induced_path():
    g = Graph(10, petersen_edges())
    path = find_induced_path(g, 5)
    for i, j in combinations(range(5), 2):
        assert g.has_edge(path[i], path[j]) == (abs(i - j) == 1)


@given(small_graphs(max_n=6), st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_find_induced_path_matches_oracle(g, k):
    assert (find_induced_path(g, k) is not None) == _induced_path_oracle(g, k)
