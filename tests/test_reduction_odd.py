"""The five-cycle construction: structure, census, completions, extraction."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holesandwich import sandwich
from holesandwich.cnf import CnfFormula, all_assignments
from holesandwich.recognition import check
from holesandwich.reduction_odd import (GadgetError, build_c5_instance,
                                        build_odd_hole_free_instance,
                                        completion_from_assignment,
                                        extract_assignment)
from holesandwich.sandwich import complement_instance, solve
from holesandwich.verify import (degeneracy_order, five_cycle_census,
                                 is_sandwich_graph, later_degree)

from oracles import property_oracle

XYZ = CnfFormula(3, ((1, -2, 3),))

TWO_CLAUSE = CnfFormula(4, ((1, 2, 3), (-2, -3, 4)))


def planted_formula(seed, num_vars, num_clauses):
    """A seeded 3-CNF whose clauses a random planted assignment satisfies."""
    rng = random.Random(seed)
    planted = [None] + [rng.random() < 0.5 for _ in range(num_vars)]
    clauses = []
    while len(clauses) < num_clauses:
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, num_vars + 1), 3))
        if any(planted[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return CnfFormula(num_vars, tuple(clauses))


def small_formulas():
    def build(num_vars, rows):
        clauses = []
        for a, b, c, bits in rows:
            trio = sorted({a % num_vars + 1, b % num_vars + 1,
                           c % num_vars + 1})
            if len(trio) != 3:
                trio = [1, 2, 3]
            clauses.append(tuple(v if bits >> i & 1 else -v
                                 for i, v in enumerate(trio)))
        return CnfFormula(num_vars, tuple(clauses))
    rows = st.tuples(st.integers(0, 99), st.integers(0, 99),
                     st.integers(0, 99), st.integers(0, 7))
    return st.builds(build, st.integers(3, 5),
                     st.lists(rows, min_size=1, max_size=4))


# -- construction shape ---------------------------------------------------------

def test_single_clause_counts_frozen():
    inst, gmap = build_c5_instance(XYZ)
    assert inst.n == 68
    assert len(inst.forced) == 89
    assert len(inst.optional) == 24
    assert len(gmap.five_cycles) == 22


@given(small_formulas())
@settings(max_examples=25, deadline=None)
def test_optional_edges_partition_by_owner(formula):
    """2 chords per variable, 3 clause edges + 3 releases + 12 repeater
    chords per clause, and nothing else is optional."""
    inst, gmap = build_c5_instance(formula)
    owned = set()
    for i in range(1, formula.num_vars + 1):
        owned.update((gmap.true_chord[i], gmap.false_chord[i]))
    for j in range(1, formula.num_clauses + 1):
        owned.update(gmap.clause_edges[j])
        for q in (1, 2, 3):
            owned.add(gmap.release_edge[(j, q)])
            owned.update(gmap.repeater_chords[(j, q, "clause")])
            owned.update(gmap.repeater_chords[(j, q, "var")])
    assert owned == inst.optional
    assert len(inst.optional) == 2 * formula.num_vars + 18 * formula.num_clauses


def test_gadget_cycles_live_in_the_allowed_graph():
    inst, gmap = build_c5_instance(TWO_CLAUSE)
    g2 = inst.g2()
    for cyc, pair in gmap.five_cycles:
        assert len(cyc) == 5
        for idx in range(5):
            assert g2.has_edge(cyc[idx], cyc[(idx + 1) % 5])
        for edge in pair:
            assert edge in inst.optional


def test_five_cycle_census_single_clause_frozen():
    inst, gmap = build_c5_instance(XYZ)
    safe, intended, rogue = five_cycle_census(inst, gmap)
    assert rogue == []
    assert len(intended) == 22  # 3 var + 1 clause + 3 guard + 6 rep + 9 link
    assert len(safe) == 12
    assert len(set(intended)) == len(intended)


@given(small_formulas())
@settings(max_examples=10, deadline=None)
def test_census_never_finds_rogue_cycles(formula):
    inst, gmap = build_c5_instance(formula)
    _, intended, rogue = five_cycle_census(inst, gmap)
    assert rogue == []
    per_unit = formula.num_vars + 19 * formula.num_clauses
    assert len(intended) == per_unit


@given(small_formulas())
@example(planted_formula(40, 40, 160))
@settings(max_examples=15, deadline=None)
def test_allowed_graph_has_degeneracy_two(formula):
    g2 = build_c5_instance(formula)[0].g2()
    assert later_degree(g2, degeneracy_order(g2)) == 2


def test_k4_closing_pair_raises_degeneracy_to_three():
    inst, _ = build_c5_instance(XYZ)
    # x1.0-x1.3 carry the forced path 0-1-2-3 and the optional chords
    # (0, 2) and (1, 3), so the pair (0, 3) closes a K4 in the allowed graph.
    damaged = type(inst)(inst.n, inst.forced, inst.optional | {(0, 3)},
                         inst.names)
    g2 = damaged.g2()
    assert later_degree(g2, degeneracy_order(g2)) == 3


# -- completions and extraction -------------------------------------------------

def test_satisfying_completions_are_c5_free():
    inst, gmap = build_c5_instance(XYZ)
    for assignment in all_assignments(3):
        if not XYZ.satisfied_by(assignment):
            continue
        chosen = completion_from_assignment(gmap, assignment)
        g = inst.realize(chosen)
        assert is_sandwich_graph(inst, g)
        ok, cert = check(g, "c5-free")
        assert ok, (assignment, cert)
        assert extract_assignment(gmap, g) == assignment


def test_falsifying_assignment_is_rejected():
    inst, gmap = build_c5_instance(XYZ)
    with pytest.raises(GadgetError, match="clause 1"):
        completion_from_assignment(gmap, {1: False, 2: True, 3: False})


def test_partial_assignment_is_rejected():
    inst, gmap = build_c5_instance(XYZ)
    with pytest.raises(ValueError, match="cover variables 1..3"):
        completion_from_assignment(gmap, {1: True})


def test_assignment_with_an_extra_variable_is_rejected():
    inst, gmap = build_c5_instance(XYZ)
    with pytest.raises(ValueError, match="cover variables 1..3"):
        completion_from_assignment(gmap, {1: True, 2: True, 3: True, 4: True})


def test_empty_completion_leaves_induced_five_cycles():
    inst, gmap = build_c5_instance(XYZ)
    g = inst.realize(frozenset())
    ok, cert = check(g, "c5-free")
    assert not ok and len(cert.vertices) == 5
    with pytest.raises(GadgetError, match="variable 1 five-cycle has no chord"):
        extract_assignment(gmap, g)


def test_extraction_prefers_true_chord():
    inst, gmap = build_c5_instance(XYZ)
    chosen = completion_from_assignment(gmap, {1: True, 2: False, 3: True})
    both = set(chosen) | {gmap.false_chord[1]}
    assignment = extract_assignment(gmap, inst.realize(both))
    assert assignment[1] is True


def test_two_clause_end_to_end():
    inst, gmap = build_c5_instance(TWO_CLAUSE)
    result = solve(inst, "c5-free")
    assert result.verdict == "SAT"
    g = inst.realize(result.completion.chosen)
    assert TWO_CLAUSE.satisfied_by(extract_assignment(gmap, g))


# -- realized-graph equivalences -------------------------------------------------

def test_c5_freeness_equals_odd_antihole_freeness_on_realizations():
    """On this construction's sandwich graphs the two target properties
    coincide, which is what lets one instance serve both."""
    inst, gmap = build_c5_instance(XYZ)
    satisfying = [a for a in all_assignments(3) if XYZ.satisfied_by(a)]
    graphs = [inst.realize(completion_from_assignment(gmap, a))
              for a in satisfying[:3]]
    graphs.append(inst.realize(frozenset()))
    graphs.append(inst.realize(inst.optional))
    for g in graphs:
        assert check(g, "c5-free")[0] == check(g, "odd-antihole-free")[0]


# -- the complemented variant ----------------------------------------------------

def test_odd_hole_free_variant_is_the_complement():
    c5_inst, c5_map = build_c5_instance(XYZ)
    odd_inst, odd_map = build_odd_hole_free_instance(XYZ)
    assert odd_inst == complement_instance(c5_inst)
    assert complement_instance(odd_inst) == c5_inst
    assert odd_inst.optional == c5_inst.optional
    assert odd_map.true_chord == c5_map.true_chord


def test_odd_hole_free_variant_solves_and_extracts():
    inst, gmap = build_odd_hole_free_instance(XYZ)
    result = solve(inst, "odd-hole-free")
    assert result.verdict == "SAT"
    g = inst.realize(result.completion.chosen)
    assert check(g, "odd-hole-free")[0]
    assert XYZ.satisfied_by(extract_assignment(gmap, g))


# -- the search, pinned -----------------------------------------------------------

# solve's nodes and first completion on two sign patterns of one clause.  A
# change to the cost of a node must leave them as they are; they move only
# when the search itself (node order, violation order, repair pair) does.
SEARCH_PINS = {
    ((1, -2, 3), "c5-free"): (23, [
        (0, 2), (5, 7), (10, 12), (15, 16), (16, 17), (23, 25), (28, 30),
        (39, 41), (44, 46), (52, 53), (56, 58), (61, 63)]),
    ((1, -2, 3), "odd-hole-free"): (13, [
        (1, 3), (5, 7), (11, 13), (15, 16), (23, 25), (28, 30), (36, 37),
        (39, 41), (52, 53), (55, 57)]),
    ((-1, 2, -3), "c5-free"): (71, [
        (0, 2), (5, 7), (10, 12), (15, 16), (17, 18), (23, 25), (28, 30),
        (36, 37), (40, 42), (45, 47), (55, 57), (60, 62)]),
    ((-1, 2, -3), "odd-hole-free"): (13, [
        (0, 2), (6, 8), (10, 12), (15, 16), (23, 25), (28, 30), (36, 37),
        (39, 41), (52, 53), (55, 57)]),
}


@pytest.mark.parametrize("clause, prop", sorted(SEARCH_PINS))
def test_one_clause_search_is_pinned(clause, prop):
    build = (build_c5_instance if prop == "c5-free"
             else build_odd_hole_free_instance)
    inst, _ = build(CnfFormula(3, (clause,)))
    result = solve(inst, prop)
    nodes, chosen = SEARCH_PINS[(clause, prop)]
    assert (result.verdict, result.nodes) == ("SAT", nodes)
    assert sorted(result.completion.chosen) == chosen


def test_each_node_searches_through_check(monkeypatch):
    # `check` is the one violation search: solve calls it once per node.
    calls = []

    def counting(g, prop, budget):
        calls.append(prop)
        return check(g, prop, budget)

    monkeypatch.setattr(sandwich, "check", counting)
    inst, _ = build_c5_instance(XYZ)
    result = solve(inst, "c5-free")
    assert (result.verdict, result.nodes) == ("SAT", 23)
    assert calls == ["c5-free"] * 23


# -- oracle cross-check on a tiny sub-gadget -------------------------------------

def test_variable_gadget_matches_subset_oracle():
    inst, gmap = build_c5_instance(XYZ)
    cyc, _ = gmap.five_cycles[0]
    sub = sorted(cyc)
    g = inst.realize(frozenset()).induced(sub)
    assert not property_oracle(5, g.edges(), "c5-free")
    both = inst.realize(frozenset({gmap.true_chord[1]})).induced(sub)
    assert property_oracle(5, both.edges(), "c5-free")
