"""The five-cycle construction: structure, census, completions, extraction."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesandwich.cnf import CnfFormula, all_assignments
from holesandwich.graph import Cycle
from holesandwich.recognition import check
from holesandwich.reduction_odd import (GadgetError, build_c5_instance,
                                        build_odd_hole_free_instance,
                                        completion_from_assignment,
                                        extract_assignment)
from holesandwich.sandwich import complement_instance, solve, validate
from holesandwich.verify import (five_cycle_census, is_sandwich_graph,
                                 structural_report)

from oracles import property_oracle

XYZ = CnfFormula(3, ((1, -2, 3),))

TWO_CLAUSE = CnfFormula(4, ((1, 2, 3), (-2, -3, 4)))


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
    assert validate(inst) == []
    assert gmap.variable_cycle.keys() == {1, 2, 3}
    assert gmap.clause_cycle.keys() == {1}


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
    for cyc, pair in gmap.gadget_five_cycles():
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
@settings(max_examples=15, deadline=None)
def test_structural_report_clean(formula):
    inst, _ = build_c5_instance(formula)
    report = structural_report(inst)
    assert report.forced_triangle_free.ok, report.forced_triangle_free
    assert report.optional_component_shapes.ok
    assert report.triangle_sharing.ok
    assert report.no_gem_subgraph.ok
    assert report.all_ok()


def test_structural_report_flags_planted_damage():
    inst, _ = build_c5_instance(XYZ)
    # Force a triangle: promote two optional chords of one variable cycle.
    bad = inst.forced | {(0, 2), (1, 3)}
    damaged = type(inst).build(inst.n, bad, inst.optional - {(0, 2), (1, 3)},
                               inst.names)
    report = structural_report(damaged)
    assert not report.all_ok()


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


def test_empty_completion_leaves_induced_five_cycles():
    inst, gmap = build_c5_instance(XYZ)
    g = inst.realize(frozenset())
    ok, cert = check(g, "c5-free")
    assert not ok and len(cert.vertices) == 5
    with pytest.raises(GadgetError) as info:
        extract_assignment(gmap, g)
    assert isinstance(info.value.witness, Cycle)


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
    # Chord conventions live in the uncomplemented world.
    assignment = extract_assignment(gmap, g.complement())
    assert XYZ.satisfied_by(assignment)


# -- oracle cross-check on a tiny sub-gadget -------------------------------------

def test_variable_gadget_matches_subset_oracle():
    inst, gmap = build_c5_instance(XYZ)
    cyc = gmap.variable_cycle[1]
    sub = sorted(cyc)
    g = inst.realize(frozenset()).induced(sub)
    assert not property_oracle(5, g.edges(), "c5-free")
    both = inst.realize(frozenset({gmap.true_chord[1]})).induced(sub)
    assert property_oracle(5, both.edges(), "c5-free")
