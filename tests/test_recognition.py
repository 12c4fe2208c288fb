"""Property recognition: frozen examples, oracle agreement, certificates."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holesandwich import recognition
from holesandwich.budget import BudgetExhausted
from holesandwich.graph import Graph
from holesandwich.recognition import (PROPERTY_IDS, Certificate, check,
                                      verify_certificate)
from holesandwich.verify import (chordless_cycles, complete_graph,
                                 cycle_graph, path_graph)

from oracles import peo_oracle, petersen_edges, property_oracle

from test_graph import small_graphs


def test_property_ids_frozen():
    assert PROPERTY_IDS == ("chordal", "c5-free", "odd-hole-free",
                            "even-hole-free", "odd-antihole-free", "berge")


# -- frozen examples ----------------------------------------------------------

def test_square_is_not_chordal():
    ok, cert = check(cycle_graph(4), "chordal")
    assert not ok
    assert cert.kind == "hole" and sorted(cert.vertices) == [0, 1, 2, 3]


def test_complete_graphs_are_chordal_with_peo():
    for n in (1, 2, 5, 8):
        g = complete_graph(n)
        ok, cert = check(g, "chordal")
        assert ok and cert.kind == "peo"
        assert verify_certificate(g, "chordal", ok, cert)
    # An order that is no permutation of the vertices, or names a vertex
    # that is not an int, is false, not an error.
    # So is an order that is no tuple or list.
    for order in ((0, 1, 1), (0, 1), (0, 1, None), (0, 1, 2.0), (False, 1, 2),
                  None, 3, {0, 1, 2}):
        assert not verify_certificate(complete_graph(3), "chordal", True,
                                      Certificate("peo", order))


def test_positive_orientation_triangulates_the_six_cycle():
    # Six-cycle H, S_X, K_!X, F, K_X, S_!X plus the positive-orientation
    # edges H-K_X, K_X-S_X, S_X-F (vertices 0..5 in that order); the three
    # chords leave no hole.
    ring = [(i, (i + 1) % 6) for i in range(6)]
    g = Graph(6, ring + [(0, 4), (4, 1), (1, 3)])
    ok, cert = check(g, "chordal")
    assert ok
    assert verify_certificate(g, "chordal", ok, cert)


def test_five_cycle_has_an_odd_hole():
    ok, cert = check(cycle_graph(5), "odd-hole-free")
    assert not ok
    assert cert.kind == "hole" and len(cert.vertices) == 5


def test_bipartite_graphs_are_odd_hole_free():
    for g in (cycle_graph(6), path_graph(7),
              Graph(6, [(u, v + 3) for u in range(3) for v in range(3)])):
        ok, cert = check(g, "odd-hole-free")
        assert ok and cert is None


def test_bipartite_graphs_skip_the_odd_hole_search():
    # K20,20 has 36,100 four-holes; enumerating them to rule out an odd hole
    # spends far more than 1,000 expansions, and the five-subset scan would
    # pay C(39, 4) = 82,251 once it had scanned its first anchor.
    k20 = Graph(40, [(u, v) for u in range(20) for v in range(20, 40)])
    for prop in ("c5-free", "odd-hole-free", "berge"):
        assert check(k20, prop, budget=1000) == (True, None)
    ok, cert = check(k20, "even-hole-free", budget=1000)
    assert not ok and len(cert.vertices) == 4


def two_sided_graphs(max_n=16):
    """Hypothesis strategy: a graph whose edges all join the two sides of a
    random split of its vertices."""
    def build(n, sides, bits):
        cross = [(u, v) for u, v in combinations(range(n), 2)
                 if (sides >> u ^ sides >> v) & 1]
        return Graph(n, [p for i, p in enumerate(cross) if bits >> i & 1])
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(build, st.just(n), st.integers(0, 2 ** n - 1),
                            st.integers(0, 2 ** (n * n // 4) - 1)))


@given(two_sided_graphs())
@example(cycle_graph(6))
@settings(max_examples=60)
def test_two_sided_graphs_spend_no_budget_on_odd_shapes(g):
    # A 2-colourable graph has no antihole longer than four either, so the
    # antihole entries are ruled out without the complement, which for C6
    # (the prism) is neither 2-colourable nor chordal.
    for prop in ("c5-free", "odd-hole-free", "odd-antihole-free", "berge"):
        assert check(g, prop, budget=0) == (True, None)


def chordal_graphs():
    """Hypothesis strategy: a chordal graph on 5 to 40 vertices with a
    triangle on 0, 1, 2, in which each later vertex joins a subset of a
    clique of earlier ones."""
    def build(n, picks):
        edges = [(0, 1), (0, 2), (1, 2)]
        cliques = [(0, 1, 2)]
        for v, (which, bits) in zip(range(3, n), picks):
            clique = cliques[which % len(cliques)]
            joined = tuple(u for i, u in enumerate(clique) if bits >> i & 1)
            edges += [(u, v) for u in joined]
            cliques.append(joined + (v,))
        return Graph(n, edges)
    picks = st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 40 - 1))
    return st.integers(5, 40).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.lists(picks, min_size=n - 3, max_size=n - 3)))


@given(chordal_graphs())
@example(path_graph(4))
@example(Graph(6, [(0, v) for v in range(1, 6)]
               + [(v, v + 1) for v in range(1, 5)]))
@settings(max_examples=60)
def test_chordal_graphs_spend_no_budget(g):
    # The triangle makes the graph not 2-colourable, so only chordality
    # keeps it from the five-subset scan, which pays C(n-1, 4) after its
    # first anchor, and from the path searches.  P4 is 2-colourable, which
    # rules out no even hole.  The complement is the antihole host.  A
    # chordal graph has no antihole longer than four, so the antihole
    # entries are ruled out from the graph itself; the complement of the
    # triangle fan is neither 2-colourable nor chordal.
    for prop in ("c5-free", "odd-hole-free", "even-hole-free",
                 "odd-antihole-free", "berge"):
        assert check(g, prop, budget=0) == (True, None)
    verdict, cert = check(g, "chordal", budget=0)
    assert verdict and verify_certificate(g, "chordal", verdict, cert)
    assert check(g.complement(), "odd-antihole-free", budget=0) == (True, None)
    if g.n <= 10:
        for prop in ("c5-free", "odd-antihole-free", "berge"):
            assert property_oracle(g.n, g.edges(), prop)


def test_peo_decides_chordality():
    # The search stops at the first vertex that breaks the clique
    # condition, so it returns None exactly when the graph has a hole.
    rng = random.Random(11)
    for _ in range(600):
        n, density = rng.randint(0, 12), rng.uniform(0.1, 0.9)
        g = Graph(n, [p for p in combinations(range(n), 2)
                      if rng.random() < density])
        order = recognition._peo(g)
        assert (order is None) == bool(chordless_cycles(g))
        assert order is None or recognition._verify_peo(g, order)


def test_verify_peo_matches_the_definition():
    # _peo's own orders, the same with two entries swapped, random
    # permutations and lists that are no permutation of the vertices, so
    # that rejection is exercised as well as acceptance.
    rng = random.Random(17)
    outcomes = set()
    for _ in range(300):
        n, density = rng.randint(0, 9), rng.uniform(0.1, 0.9)
        edges = [p for p in combinations(range(n), 2) if rng.random() < density]
        g = Graph(n, edges)
        orders = [rng.sample(range(n), n), list(range(n))[1:],
                  [rng.randrange(n + 1) for _ in range(n)]]
        peo = recognition._peo(g)
        if peo is not None and n >= 2:
            swapped = list(peo)
            i, j = rng.sample(range(n), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            orders += [peo, swapped]
        for order in orders:
            verdict = recognition._verify_peo(g, tuple(order))
            assert verdict == peo_oracle(n, edges, order), (n, edges, order)
            outcomes.add((sorted(order) == list(range(n)), verdict))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_chordal_certificates_frozen():
    # Ties in the search go to the smallest vertex, so a chordal graph has
    # one certificate.
    fan = Graph(6, [(0, v) for v in range(1, 6)]
                + [(v, v + 1) for v in range(1, 5)])
    ring = [(i, (i + 1) % 6) for i in range(6)]
    triangulated = Graph(6, ring + [(0, 4), (4, 1), (1, 3)])
    for g, order in ((complete_graph(4), (3, 2, 1, 0)),
                     (path_graph(6), (5, 4, 3, 2, 1, 0)),
                     (fan, (5, 4, 3, 2, 1, 0)),
                     (triangulated, (5, 2, 3, 4, 1, 0))):
        assert check(g, "chordal") == (True, Certificate("peo", order))


def test_six_cycle_is_berge():
    ok, cert = check(cycle_graph(6), "berge")
    assert ok and cert is None


def test_square_has_an_even_hole():
    ok, cert = check(cycle_graph(4), "even-hole-free")
    assert not ok
    assert cert.kind == "hole" and len(cert.vertices) == 4


def test_five_cycle_violates_both_self_complementary_properties():
    g = cycle_graph(5)
    for prop in ("c5-free", "odd-antihole-free", "berge"):
        ok, cert = check(g, prop)
        assert not ok
        assert verify_certificate(g, prop, ok, cert)
    # A certificate naming a vertex outside the graph, or one that is not
    # an int, is false, not an error; so is a missing one.
    for last in (-1, 4.0, None, "4"):
        assert not verify_certificate(g, "c5-free", False,
                                      Certificate("hole", (0, 1, 2, 3, last)))
    assert not verify_certificate(g, "c5-free", False,
                                  Certificate("hole", (False, 1, 2, 3, 4)))
    assert not verify_certificate(g, "c5-free", False, None)
    # So is a certificate that is no Certificate.
    for cert in (("hole", (0, 1, 2, 3, 4)), "hole"):
        assert not verify_certificate(g, "c5-free", False, cert)
    # So is a vertex sequence that is no tuple or list.
    for vertices in (5, None, {0, 1, 2, 3, 4}, iter((0, 1, 2, 3, 4))):
        assert not verify_certificate(g, "c5-free", False,
                                      Certificate("hole", vertices))
    # Five independent vertices are no hole.
    assert not verify_certificate(Graph(5), "c5-free", False,
                                  Certificate("hole", (0, 1, 2, 3, 4)))
    # Every rotation and reflection of the hole and of the antihole, as a
    # tuple or a list, is accepted; an order that is no cycle of the host
    # and a repeated vertex are not.
    for kind, props, cyc in (
            ("hole", ("c5-free", "odd-hole-free", "berge", "chordal"),
             (0, 1, 2, 3, 4)),
            ("antihole", ("odd-antihole-free", "berge"), (0, 2, 4, 1, 3))):
        for prop in props:
            for seq in (cyc, cyc[::-1]):
                for i in range(5):
                    turned = seq[i:] + seq[:i]
                    for vs in (turned, list(turned)):
                        assert verify_certificate(g, prop, False,
                                                  Certificate(kind, vs))
            for vs in ((0, 2, 1, 3, 4), (0, 1, 2, 3, 4, 0)):
                assert not verify_certificate(g, prop, False,
                                              Certificate(kind, vs))
    # A triangle is a chordless cycle but no hole.
    triangle = Certificate("hole", (0, 1, 2))
    for prop in ("chordal", "odd-hole-free", "berge"):
        assert not verify_certificate(complete_graph(3), prop, False,
                                      triangle)


def test_certificates_must_match_the_table():
    # A certificate is checked against the kind, parity and length of the
    # property's forbidden structures.
    square, c5, c6 = cycle_graph(4), cycle_graph(5), cycle_graph(6)
    hole = Certificate("hole", (0, 1, 2, 3))
    assert verify_certificate(square, "even-hole-free", False, hole)
    assert verify_certificate(square, "chordal", False, hole)
    for prop in ("c5-free", "odd-hole-free", "odd-antihole-free", "berge"):
        assert not verify_certificate(square, prop, False, hole)
    five = Certificate("hole", tuple(range(5)))
    assert verify_certificate(c5, "berge", False, five)
    assert not verify_certificate(c5, "berge", False, five._replace(kind="peo"))
    six = Certificate("hole", tuple(range(6)))
    assert not verify_certificate(c6, "odd-hole-free", False, six)
    assert not verify_certificate(c6, "c5-free", False, six)


def test_seven_antihole_caught_only_by_antihole_properties():
    g = cycle_graph(7).complement()
    assert check(g, "odd-hole-free")[0]
    ok, cert = check(g, "odd-antihole-free")
    assert not ok and cert.kind == "antihole" and len(cert.vertices) == 7
    assert verify_certificate(g, "odd-antihole-free", ok, cert)
    assert not check(g, "berge")[0]


def test_petersen_verdicts_frozen():
    g = Graph(10, petersen_edges())
    got = {prop: check(g, prop)[0] for prop in PROPERTY_IDS}
    assert got == {"chordal": False, "c5-free": False,
                   "odd-hole-free": False, "even-hole-free": False,
                   "odd-antihole-free": False, "berge": False}


# -- oracle agreement ---------------------------------------------------------

def test_exhaustive_oracle_agreement_up_to_five_vertices():
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            for prop in PROPERTY_IDS:
                assert check(g, prop)[0] == property_oracle(n, edges, prop), \
                    (n, edges, prop)


@given(small_graphs(), st.sampled_from(PROPERTY_IDS))
@settings(max_examples=80)
def test_sampled_oracle_agreement(g, prop):
    assert check(g, prop)[0] == property_oracle(g.n, g.edges(), prop)


@given(small_graphs())
@settings(max_examples=60)
def test_certificates_reverify(g):
    for prop in PROPERTY_IDS:
        verdict, cert = check(g, prop)
        assert verify_certificate(g, prop, verdict, cert)


@given(small_graphs())
def test_chordal_matches_empty_cycle_list(g):
    assert check(g, "chordal")[0] == (not chordless_cycles(g))


@given(small_graphs())
def test_chordal_implies_hole_free_properties(g):
    if check(g, "chordal")[0]:
        for prop in ("c5-free", "odd-hole-free", "even-hole-free"):
            assert check(g, prop)[0]


@given(small_graphs())
def test_antihole_freeness_is_complement_hole_freeness(g):
    assert check(g, "odd-antihole-free")[0] == \
        check(g.complement(), "odd-hole-free")[0]


@given(small_graphs())
def test_berge_is_the_conjunction(g):
    assert check(g, "berge")[0] == (check(g, "odd-hole-free")[0]
                                    and check(g, "odd-antihole-free")[0])


# -- C5 path search -----------------------------------------------------------

@given(small_graphs(max_n=8))
@settings(max_examples=80)
def test_c5_path_search_matches_oracle(g):
    # Graphs up to C5_SCAN_MAX_VERTICES take the five-subset scan; with
    # the threshold at 0 every graph takes the path search.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recognition, "C5_SCAN_MAX_VERTICES", 0)
        verdict, cert = check(g, "c5-free")
    assert verdict == property_oracle(g.n, g.edges(), "c5-free")
    assert verify_certificate(g, "c5-free", verdict, cert)


def test_c5_scan_keeps_the_path_search_certificate():
    # The scan only decides whether a C5 exists, so below the threshold the
    # certificate is still the first C5 in enumeration order.
    rng = random.Random(7)
    graphs = []
    for _ in range(400):
        n, density = rng.randint(6, 14), rng.uniform(0.2, 0.7)
        graphs.append(Graph(n, [p for p in combinations(range(n), 2)
                                if rng.random() < density]))
    scanned = [check(g, "c5-free") for g in graphs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recognition, "C5_SCAN_MAX_VERTICES", 0)
        searched = [check(g, "c5-free") for g in graphs]
    assert scanned == searched


def test_c5_path_search_above_the_scan_threshold():
    # n = 45: holes of length 6 and 7 on 0..5 and 6..12, K13,14 on 13..39,
    # a five-cycle on 40..44, and 40 joined to the side 13..25.  Every
    # cycle through 40 and the bipartite part is even, so the planted
    # cycle is the only C5, found after the longer holes.
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 7) for i in range(7)]
    edges += [(u, v) for u in range(13, 26) for v in range(26, 40)]
    edges += [(40 + i, 40 + (i + 1) % 5) for i in range(5)]
    edges += [(u, 40) for u in range(13, 26)]
    planted = Graph(45, edges)
    ok, cert = check(planted, "c5-free")
    assert not ok and sorted(cert.vertices) == list(range(40, 45))
    assert verify_certificate(planted, "c5-free", ok, cert)
    k = Graph(45, [(u, v) for u in range(22) for v in range(22, 45)])
    assert check(k, "c5-free") == (True, None)


# -- budget -------------------------------------------------------------------

# Inputs whose searches a small budget exhausts: the complement of C24
# (even-hole-free, budget 1) and K20,20 plus the edge (0, 1) (c5-free,
# budget 1000).  The history test below checks them too.
ANTI_C24 = Graph(24, [(i, (i + 1) % 24) for i in range(24)]).complement()
K20_AND_EDGE = Graph(40, [(u, v) for u in range(20) for v in range(20, 40)]
                     + [(0, 1)])


def test_tiny_budget_exhausts():
    with pytest.raises(BudgetExhausted):
        check(ANTI_C24, "even-hole-free", budget=1)
    with pytest.raises(ValueError, match="non-negative"):
        check(ANTI_C24, "even-hole-free", budget=-1)


def test_c5_scan_spends_the_budget():
    # The five-subset scan pays for the C(n-a-1, 4) subsets whose smallest
    # vertex is a once it has scanned them: C(39, 4) = 82,251 at a = 0.  The
    # edge (0, 1) gives K20,20 a triangle, so the graph is not 2-colourable,
    # and its four-holes make it not chordal: it still takes the scan.  But
    # every cycle through (0, 1) is a triangle or has a chord: there is no
    # C5.
    assert check(K20_AND_EDGE, "chordal")[0] is False
    with pytest.raises(BudgetExhausted):
        check(K20_AND_EDGE, "c5-free", budget=1000)
    assert check(K20_AND_EDGE, "c5-free") == (True, None)


def test_c5_scan_charges_only_what_it_scanned():
    # A C5 on 0..4 among isolated vertices turns up in anchor 0's first
    # subset; the scan pays nothing for that anchor, so budget 3 answers at
    # n = 10 and n = 40 as it does at n = 41, where no scan runs.
    for n in (10, 40, 41):
        c5 = Graph(n, [(i, (i + 1) % 5) for i in range(5)])
        assert check(c5, "c5-free", budget=3) == (
            False, Certificate("hole", (0, 1, 2, 3, 4)))


# -- a graph's 2-colouring and elimination order, shared ----------------------

def test_checks_of_one_graph_run_one_search_per_host(monkeypatch):
    # Maximum cardinality search runs once per host graph value: once for
    # the six checks of a chordal graph, whose antihole entries are ruled
    # out from it, and once each on the 7-antihole and its complement C7
    # for berge.  A search per property, antihole rule-out and berge entry
    # would run 7 and 3.  (Berge on C7 itself stops at its hole after one.)
    searches = []
    peo = recognition._peo
    monkeypatch.setattr(recognition, "_peo",
                        lambda g: searches.append(g) or peo(g))
    fan = Graph(6, [(0, v) for v in range(1, 6)]
                + [(v, v + 1) for v in range(1, 5)])
    for g, props, hosts in ((complete_graph(6), PROPERTY_IDS, 1),
                            (fan, PROPERTY_IDS, 1),
                            (cycle_graph(7).complement(), ("berge",), 2)):
        recognition._facts.cache_clear()
        searches.clear()
        for prop in props:
            check(g, prop)
        assert len(searches) == len(set(searches)) == hosts


def _outcome(g, prop, budget):
    """check's (verdict, certificate), or BudgetExhausted when it raises."""
    try:
        return check(g, prop, budget)
    except BudgetExhausted:
        return BudgetExhausted


@given(small_graphs(), st.sampled_from((None, 0, 1, 4)))
@example(ANTI_C24, 1)
@example(K20_AND_EDGE, 1000)
@settings(max_examples=60, deadline=None)
def test_check_does_not_depend_on_call_history(g, budget):
    # The shared facts are pure functions of the graph value and spend no
    # budget, so each property answers alike cold, warm, right after the
    # complement was checked and on an equal graph rebuilt from its edges;
    # a budget too small for the search runs out each time.
    for prop in PROPERTY_IDS:
        recognition._facts.cache_clear()
        cold = _outcome(g, prop, budget)
        assert _outcome(g, prop, budget) == cold
        _outcome(g.complement(), prop, budget)
        assert _outcome(g, prop, budget) == cold
        assert _outcome(Graph(g.n, g.edges()), prop, budget) == cold


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        check(cycle_graph(4), "planar")
    with pytest.raises(ValueError):
        verify_certificate(cycle_graph(4), "bogus", True, None)
    # An unhashable id is unknown too, not a TypeError.
    with pytest.raises(ValueError):
        check(cycle_graph(4), ["c5-free"])
    with pytest.raises(ValueError):
        verify_certificate(cycle_graph(4), ["c5-free"], True, None)
