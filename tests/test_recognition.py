"""Property recognition: frozen examples, oracle agreement, certificates."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesandwich import recognition
from holesandwich.budget import BudgetExhausted
from holesandwich.graph import Graph
from holesandwich.recognition import (PROPERTY_IDS, check, first_violation,
                                      is_chordal, verify_certificate)
from holesandwich.verify import (chordless_cycles, complete_graph,
                                 cycle_graph, path_graph)

from oracles import petersen_edges, property_oracle

from test_graph import small_graphs


def test_property_ids_frozen():
    assert PROPERTY_IDS == ("chordal", "c5-free", "odd-hole-free",
                            "even-hole-free", "odd-antihole-free", "berge")


# -- frozen examples ----------------------------------------------------------

def test_square_is_not_chordal():
    ok, cert = is_chordal(cycle_graph(4))
    assert not ok
    assert cert.kind == "hole" and sorted(cert.vertices) == [0, 1, 2, 3]


def test_complete_graphs_are_chordal_with_peo():
    for n in (1, 2, 5, 8):
        g = complete_graph(n)
        ok, cert = is_chordal(g)
        assert ok and cert.kind == "peo"
        assert verify_certificate(g, "chordal", ok, cert)


def test_positive_orientation_triangulates_the_six_cycle():
    # Six-cycle H, S_X, K_!X, F, K_X, S_!X plus the positive-orientation
    # edges H-K_X, K_X-S_X, S_X-F (vertices 0..5 in that order); the three
    # chords leave no hole.
    ring = [(i, (i + 1) % 6) for i in range(6)]
    g = Graph(6, ring + [(0, 4), (4, 1), (1, 3)])
    ok, cert = is_chordal(g)
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
    # spends far more than 1,000 expansions.
    k20 = Graph(40, [(u, v) for u in range(20) for v in range(20, 40)])
    for prop in ("odd-hole-free", "berge"):
        assert check(k20, prop, budget=1000) == (True, None)
    ok, cert = check(k20, "even-hole-free", budget=1000)
    assert not ok and len(cert.vertices) == 4


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
        violation = first_violation(g, prop)
        assert verdict == (violation is None)
        if not verdict:
            assert cert == violation


@given(small_graphs())
def test_chordal_matches_empty_cycle_list(g):
    assert is_chordal(g)[0] == (not chordless_cycles(g))


@given(small_graphs())
def test_chordal_implies_hole_free_properties(g):
    if is_chordal(g)[0]:
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

def test_tiny_budget_exhausts():
    g = Graph(24, [(i, (i + 1) % 24) for i in range(24)]).complement()
    with pytest.raises(BudgetExhausted):
        check(g, "even-hole-free", budget=1)


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        check(cycle_graph(4), "planar")
    with pytest.raises(ValueError):
        verify_certificate(cycle_graph(4), "bogus", True, None)
