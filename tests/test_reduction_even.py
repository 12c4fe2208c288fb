"""The even-hole construction: census, completions, propagation, solving."""

from itertools import product

import pytest

from holesandwich.cnf import CnfFormula, all_assignments
from holesandwich import reduction_even
from holesandwich.graph import Cycle
from holesandwich.recognition import check, is_chordal
from holesandwich.reduction_even import (IncompleteOrientationError,
                                         MixedOrientationError,
                                         build_even_instance,
                                         chosen_edges_for_assignment,
                                         completion_from_assignment,
                                         extract_assignment,
                                         propagate_orientations,
                                         read_orientation,
                                         solve_with_orientations)
from holesandwich.sandwich import (SandwichInstance, is_sandwich_graph,
                                   normalized_edge, solve, validate)

XYZ = CnfFormula(3, ((1, 2, 3),))
MIXED = CnfFormula(3, ((1, -2, 3),))


def build(formula=XYZ):
    return build_even_instance(formula)


# -- construction shape --------------------------------------------------------

def test_single_clause_counts_frozen():
    inst, gmap = build()
    assert (inst.n, len(inst.forced), len(inst.forbidden()),
            len(inst.optional)) == (16, 27, 33, 60)
    assert validate(inst) == []
    assert [inst.name(v) for v in range(10)] == [
        "H", "F", "W1", "W2", "S_x1", "S_!x1", "S_x2", "S_!x2", "S_x3",
        "S_!x3"]
    assert inst.name(gmap.knee[(1, 1)]) == "K_x1.c1"
    assert inst.name(gmap.knee[(-3, 1)]) == "K_!x3.c1"


def test_w_path_is_isolated_except_its_ends():
    inst, gmap = build()
    g2 = inst.g2()
    assert g2.degree(gmap.w1) == 2 and g2.degree(gmap.w2) == 2
    assert g2.has_edge(gmap.head, gmap.w1)
    assert g2.has_edge(gmap.w1, gmap.w2)
    assert g2.has_edge(gmap.w2, gmap.foot)


def test_forbidden_pairs_off_w_form_a_perfect_matching():
    inst, gmap = build()
    off_w = [e for e in inst.forbidden()
             if gmap.w1 not in e and gmap.w2 not in e]
    assert len(off_w) == 7  # HF + 3 shoulder pairs + 3 knee pairs
    touched = [v for e in off_w for v in e]
    assert sorted(touched) == sorted(set(range(16)) - {gmap.w1, gmap.w2})
    assert normalized_edge(gmap.head, gmap.foot) in off_w
    for i in (1, 2, 3):
        assert normalized_edge(gmap.shoulder[i], gmap.shoulder[-i]) in off_w
        assert normalized_edge(gmap.knee[(i, 1)], gmap.knee[(-i, 1)]) in off_w


def test_incidence_six_cycles_are_forced_holes():
    inst, gmap = build(MIXED)
    g1 = inst.g1()
    for lit in (1, -2, 3):
        i = abs(lit)
        ring = (gmap.head, gmap.shoulder[i], gmap.knee[(-i, 1)], gmap.foot,
                gmap.knee[(i, 1)], gmap.shoulder[-i])
        assert Cycle(ring).is_chordless_in(g1)


def test_orientation_edges_disjoint_and_optional():
    inst, gmap = build()
    pos = set(gmap.orientation_edges(1, 1, True))
    neg = set(gmap.orientation_edges(1, 1, False))
    assert len(pos) == 3 and len(neg) == 3 and not pos & neg
    assert pos <= inst.optional and neg <= inst.optional


# -- completions ----------------------------------------------------------------

@pytest.mark.parametrize("bits", list(product((False, True), repeat=3)))
def test_completion_even_hole_free_iff_satisfying(bits):
    inst, gmap = build(MIXED)
    assignment = dict(zip((1, 2, 3), bits))
    chosen = chosen_edges_for_assignment(MIXED, assignment, gmap)
    assert chosen <= inst.optional
    g = completion_from_assignment(MIXED, assignment, gmap)
    assert is_sandwich_graph(inst, g)
    assert check(g, "even-hole-free")[0] == MIXED.satisfied_by(assignment)


@pytest.mark.parametrize("clause", [(1, 2, 3), (1, -2, 3), (-1, -2, -3)])
def test_completion_minus_w_chordal_iff_satisfying(clause):
    """Away from the W path the completion is chordal exactly when the
    assignment satisfies; the knee four-hole survives the W deletion."""
    f = CnfFormula(3, (clause,))
    inst, gmap = build_even_instance(f)
    keep = [v for v in range(inst.n) if v not in (gmap.w1, gmap.w2)]
    for assignment in all_assignments(3):
        g = completion_from_assignment(f, assignment, gmap)
        assert is_chordal(g.induced(keep))[0] == f.satisfied_by(assignment)


def test_completion_orientations_read_back():
    inst, gmap = build(MIXED)
    assignment = {1: True, 2: True, 3: False}
    g = completion_from_assignment(MIXED, assignment, gmap)
    assert read_orientation(gmap, g, 1, 1) == "positive"
    assert read_orientation(gmap, g, 2, 1) == "positive"
    assert read_orientation(gmap, g, 3, 1) == "negative"
    assert extract_assignment(gmap, g) == assignment


def test_extraction_covers_unused_variables():
    f = CnfFormula(4, ((1, 2, 3),))
    inst, gmap = build_even_instance(f)
    for flag in (False, True):
        assignment = {1: True, 2: False, 3: False, 4: flag}
        g = completion_from_assignment(f, assignment, gmap)
        assert extract_assignment(gmap, g) == assignment
    for assignment in all_assignments(f.num_vars):
        if f.satisfied_by(assignment):
            g = completion_from_assignment(f, assignment, gmap)
            assert check(g, "even-hole-free")[0], assignment
    result = solve_with_orientations(f, inst, gmap, budget=None)
    assert result.verdict == "SAT"
    assert result.nodes <= 1 + 2 * f.num_vars


def test_extraction_rejects_mixed_and_missing_orientations():
    inst, gmap = build()
    assignment = {1: True, 2: False, 3: True}
    chosen = chosen_edges_for_assignment(XYZ, assignment, gmap)
    both = chosen | set(gmap.orientation_edges(1, 1, False))
    with pytest.raises(MixedOrientationError) as info:
        extract_assignment(gmap, inst.realize(both))
    assert len(info.value.witness) == 4
    short = chosen - {normalized_edge(gmap.head, gmap.knee[(1, 1)])}
    with pytest.raises(IncompleteOrientationError):
        extract_assignment(gmap, inst.realize(short))


# -- propagation ----------------------------------------------------------------

def test_propagation_with_no_decisions_is_open():
    inst, gmap = build()
    result = propagate_orientations(inst, gmap, {})
    assert result.status == "ok"
    assert result.forced == {}
    assert len(result.pending) == 6  # one OR per forced knee-shoulder edge


def test_head_knee_decision_forces_the_positive_bundle():
    inst, gmap = build()
    decided = {normalized_edge(gmap.head, gmap.knee[(1, 1)]): True}
    result = propagate_orientations(inst, gmap, decided)
    assert result.status == "ok"
    s, f = gmap.shoulder[1], gmap.foot
    assert result.forced.get(normalized_edge(s, f)) is True
    assert result.forced.get(normalized_edge(s, gmap.knee[(1, 1)])) is True


def test_propagation_rejects_decisions_on_non_optional_pairs():
    inst, gmap = build()
    with pytest.raises(ValueError):
        propagate_orientations(
            inst, gmap, {normalized_edge(gmap.head, gmap.foot): True})


def test_all_negative_orientations_contradict():
    inst, gmap = build()
    decided = {}
    for var in (1, 2, 3):
        for e in gmap.orientation_edges(var, 1, False):
            decided[e] = True
    result = propagate_orientations(inst, gmap, decided)
    assert result.status == "contradiction"
    expected = {gmap.knee[(1, 1)], gmap.knee[(2, 1)],
                gmap.knee[(-1, 1)], gmap.knee[(-2, 1)]}
    assert set(result.certificate.vertices) == expected
    derived = {
        normalized_edge(gmap.knee[(-3, 1)], gmap.knee[(-1, 1)]),
        normalized_edge(gmap.knee[(-1, 1)], gmap.knee[(-2, 1)]),
        normalized_edge(gmap.knee[(2, 1)], gmap.knee[(-1, 1)]),
    }
    assert all(result.forced.get(e) is True for e in derived)
    # The certificate is a four-hole of the graph forced + decided + derived.
    present = set(inst.forced)
    present.update(e for e, val in decided.items() if val)
    present.update(e for e, val in result.forced.items() if val)
    host = inst.realize(frozenset(present) - inst.forced)
    assert result.certificate.is_chordless_in(host)


# -- solving --------------------------------------------------------------------

def test_orientation_solver_sat_and_extracts():
    for formula in (XYZ, MIXED, CnfFormula(4, ((1, -2, 3), (2, 3, -4)))):
        inst, gmap = build_even_instance(formula)
        result = solve_with_orientations(formula, inst, gmap)
        assert result.verdict == "SAT"
        g = inst.realize(result.completion.chosen)
        assert check(g, "even-hole-free")[0]
        assert formula.satisfied_by(extract_assignment(gmap, g))


def test_broken_construction_raises_at_a_satisfying_leaf(monkeypatch):
    # The forced graph keeps every incidence six-cycle, an even hole.
    inst, gmap = build()
    monkeypatch.setattr(reduction_even, "completion_from_assignment",
                        lambda formula, assignment, gmap: gmap.instance.g1())
    with pytest.raises(AssertionError, match="satisfying assignment"):
        solve_with_orientations(XYZ, inst, gmap)


def test_orientation_solver_reports_budget_exhaustion():
    inst, gmap = build()
    result = solve_with_orientations(XYZ, inst, gmap, budget=1)
    assert result.verdict == "BUDGET"
    assert result.completion is None


def test_forced_falsifying_orientations_are_unsat():
    # Committing every variable to its negative orientation up front makes
    # the clause's knee four-cycle unavoidable, so UNSAT must be exact.
    inst, gmap = build()
    negative = set()
    for var in (1, 2, 3):
        for j in gmap.variable_incidences(var):
            negative.update(gmap.orientation_edges(var, j, positive=False))
    assert len(negative) == 9
    committed = SandwichInstance.build(
        inst.n, frozenset(inst.forced) | negative,
        frozenset(inst.optional) - negative, inst.names)

    root = propagate_orientations(committed, gmap, {})
    assert root.status == "contradiction"
    assert sorted(root.certificate.vertices) == [10, 11, 12, 13]

    result = solve_with_orientations(XYZ, committed, gmap, budget=500)
    assert result.verdict == "UNSAT"
    assert result.completion is None

    generic = solve(committed, "even-hole-free")
    assert generic.verdict == "UNSAT"


def test_generic_style_solve_example():
    inst, gmap = build()
    result = solve(inst, "even-hole-free")
    assert result.verdict == "SAT"
    assert check(inst.realize(result.completion.chosen),
                 "even-hole-free")[0]
