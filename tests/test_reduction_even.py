"""The even-hole construction: census, completions, propagation, solving."""

import random
from itertools import product

import pytest

from holesandwich.cnf import CnfFormula, all_assignments
from holesandwich import reduction_even
from holesandwich.graph import Cycle
from holesandwich.recognition import check, is_chordal
from holesandwich.reduction_even import (IncompleteOrientationError,
                                         MixedOrientationError,
                                         build_even_instance,
                                         completion_from_assignment,
                                         extract_assignment,
                                         propagate_orientations,
                                         read_orientation,
                                         solve_with_orientations)
from holesandwich.sandwich import (SandwichInstance, normalized_edge, solve,
                                   validate)
from holesandwich.verify import is_sandwich_graph

from oracles import propagation_oracle

XYZ = CnfFormula(3, ((1, 2, 3),))
MIXED = CnfFormula(3, ((1, -2, 3),))
TWO_CLAUSES = CnfFormula(4, ((4, -1, 3), (1, -3, -2)))


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
    chosen = completion_from_assignment(gmap, assignment)
    assert isinstance(chosen, frozenset) and chosen <= inst.optional
    g = inst.realize(chosen)
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
        g = inst.realize(completion_from_assignment(gmap, assignment))
        assert is_chordal(g.induced(keep))[0] == f.satisfied_by(assignment)


def test_completion_orientations_read_back():
    inst, gmap = build(MIXED)
    assignment = {1: True, 2: True, 3: False}
    g = inst.realize(completion_from_assignment(gmap, assignment))
    assert read_orientation(gmap, g, 1, 1) == "positive"
    assert read_orientation(gmap, g, 2, 1) == "positive"
    assert read_orientation(gmap, g, 3, 1) == "negative"
    assert extract_assignment(gmap, g) == assignment


def test_extraction_covers_unused_variables():
    f = CnfFormula(4, ((1, 2, 3),))
    inst, gmap = build_even_instance(f)
    for flag in (False, True):
        assignment = {1: True, 2: False, 3: False, 4: flag}
        g = inst.realize(completion_from_assignment(gmap, assignment))
        assert extract_assignment(gmap, g) == assignment
    for assignment in all_assignments(f.num_vars):
        if f.satisfied_by(assignment):
            g = inst.realize(completion_from_assignment(gmap, assignment))
            assert check(g, "even-hole-free")[0], assignment
    result = solve_with_orientations(f, inst, gmap, budget=None)
    assert result.verdict == "SAT"
    assert result.nodes <= 1 + 2 * f.num_vars


def test_extraction_rejects_mixed_and_missing_orientations():
    inst, gmap = build()
    assignment = {1: True, 2: False, 3: True}
    chosen = completion_from_assignment(gmap, assignment)
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


@pytest.mark.parametrize("formula, trials", [(XYZ, 12), (TWO_CLAUSES, 4)])
def test_propagation_matches_reference(formula, trials):
    inst, gmap = build_even_instance(formula)
    optional = sorted(inst.optional)
    rng = random.Random(len(formula.clauses))
    statuses = set()
    for _ in range(trials):
        decided = {e: rng.random() < 0.5
                   for e in rng.sample(optional, rng.randint(0, 6))}
        for i, j in gmap.incidences:
            if rng.random() < 0.4:
                for e in gmap.orientation_edges(i, j, rng.random() < 0.5):
                    decided[e] = True
        result = propagate_orientations(inst, gmap, decided)
        status, derived, pending, certificate = propagation_oracle(
            inst.n, inst.forced, inst.optional, decided, gmap.head,
            gmap.foot, gmap.w1, gmap.w2, gmap.knees(), gmap.shoulders())
        assert result.status == status
        assert list(result.forced.items()) == derived
        assert result.pending == pending
        assert (result.certificate and result.certificate.vertices) == \
            certificate
        statuses.add((status, bool(derived)))
    assert {("ok", True), ("contradiction", True)} <= statuses


# -- solving --------------------------------------------------------------------

def test_orientation_solver_sat_and_extracts():
    for formula in (XYZ, MIXED, CnfFormula(4, ((1, -2, 3), (2, 3, -4)))):
        inst, gmap = build_even_instance(formula)
        result = solve_with_orientations(formula, inst, gmap)
        assert result.verdict == "SAT"
        g = inst.realize(result.completion.chosen)
        assert check(g, "even-hole-free")[0]
        assert formula.satisfied_by(extract_assignment(gmap, g))


def random_formula(rng, num_vars, num_clauses):
    return CnfFormula(num_vars, tuple(
        tuple(v if rng.random() < 0.5 else -v
              for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(num_clauses)))


def test_orientation_solver_finds_the_first_satisfying_assignment():
    # Positive orientation first, variable 1 first: the reverse of the
    # counter order of all_assignments.
    rng = random.Random(5)
    formulas = [random_formula(rng, 4, 2) for _ in range(4)]
    formulas += [CnfFormula(4, ((4, -3, 1),)), CnfFormula(5, ((4, -5, 2),)),
                 CnfFormula(4, ((-1, -2, -3),))]
    for formula in formulas:
        inst, gmap = build_even_instance(formula)
        first = next(a for a in reversed(list(all_assignments(
            formula.num_vars))) if formula.satisfied_by(a))
        result = solve_with_orientations(formula, inst, gmap)
        assert result.verdict == "SAT"
        assert result.completion.chosen == \
            completion_from_assignment(gmap, first), formula


def test_orientation_leaves_skip_propagation(monkeypatch):
    calls = []

    def counting(inst, gmap, decided):
        calls.append(dict(decided))
        return propagate_orientations(inst, gmap, decided)

    monkeypatch.setattr(reduction_even, "propagate_orientations", counting)
    inst, gmap = build()
    result = solve_with_orientations(XYZ, inst, gmap)
    assert (result.verdict, result.nodes, len(calls)) == ("SAT", 4, 3)


def test_broken_construction_raises_at_a_satisfying_leaf(monkeypatch):
    # The forced graph keeps every incidence six-cycle, an even hole.
    inst, gmap = build()
    monkeypatch.setattr(reduction_even, "completion_from_assignment",
                        lambda gmap, assignment: frozenset())
    with pytest.raises(AssertionError, match="satisfying assignment"):
        solve_with_orientations(XYZ, inst, gmap)


def test_unrefuted_failing_leaf_raises(monkeypatch):
    # Every leaf fails its check and no assignment counts as satisfying, but
    # the all-positive leaf propagates without contradiction: the split is
    # exhaustive, so such a leaf means the construction is broken.
    inst, gmap = build()
    monkeypatch.setattr(reduction_even, "completion_from_assignment",
                        lambda gmap, assignment: frozenset())
    monkeypatch.setattr(CnfFormula, "satisfied_by",
                        lambda self, assignment: False)
    with pytest.raises(AssertionError, match="does not refute"):
        solve_with_orientations(XYZ, inst, gmap, budget=None)


def test_orientation_solver_reports_budget_exhaustion():
    inst, gmap = build()
    result = solve_with_orientations(XYZ, inst, gmap, budget=1)
    assert result.verdict == "BUDGET"
    assert result.completion is None


def test_forced_falsifying_orientations_are_unsat(monkeypatch):
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

    # The root contradiction refutes the whole descent: one propagation.
    calls = []

    def counting(inst, gmap, decided):
        calls.append(dict(decided))
        return propagate_orientations(inst, gmap, decided)

    monkeypatch.setattr(reduction_even, "propagate_orientations", counting)
    result = solve_with_orientations(XYZ, committed, gmap, budget=500)
    assert result.verdict == "UNSAT"
    assert result.completion is None
    assert calls.count({}) == 1

    generic = solve(committed, "even-hole-free")
    assert generic.verdict == "UNSAT"


def commit_bundles(inst, gmap, commit):
    """The instance with each committed variable's orientation bundles forced."""
    bundles = {e for var, positive in commit.items()
               for j in gmap.variable_incidences(var)
               for e in gmap.orientation_edges(var, j, positive)}
    return SandwichInstance.build(inst.n, inst.forced | bundles,
                                  inst.optional - bundles, inst.names)


def test_descent_refutes_below_the_root(monkeypatch):
    # x1 committed false leaves (2 or 3) and its three sign variants, which
    # no assignment of x2, x3 satisfies; every leaf is refuted by propagation.
    formula = CnfFormula(3, ((1, 2, 3), (1, -2, 3), (1, 2, -3), (1, -2, -3)))
    inst, gmap = build_even_instance(formula)
    committed = commit_bundles(inst, gmap, {1: False})
    assert committed.n == 34
    calls = []

    def counting(inst, gmap, decided):
        calls.append(dict(decided))
        return propagate_orientations(inst, gmap, decided)

    monkeypatch.setattr(reduction_even, "propagate_orientations", counting)
    result = solve_with_orientations(formula, committed, gmap, budget=None)
    assert (result.verdict, result.nodes, len(calls)) == ("UNSAT", 4, 4)


def test_budget_frontier_counts_open_out_branches():
    # Budget b stops the descent at its (b+1)-th call, below b splits that
    # each took their in-branch.  Plain, every one of their out-branches is
    # still open.  With x3 committed false, x3's split has only its out-branch,
    # and then (x4 | !x1 | x3) makes propagation exclude x4's out-branch.
    inst, gmap = build(TWO_CLAUSES)
    committed = commit_bundles(inst, gmap, {3: False})
    for target, expected in ((inst, [0, 1, 2, 3, 4]),
                             (committed, [0, 1, 2, 2, 2])):
        results = [solve_with_orientations(TWO_CLAUSES, target, gmap, budget=b)
                   for b in range(5)]
        assert {r.verdict for r in results} == {"BUDGET"}
        assert [r.frontier for r in results] == expected


def test_orientation_verdicts_match_brute_force():
    rng = random.Random(3)
    verdicts = []
    for _ in range(24):
        num_vars = rng.randint(3, 5)
        formula = random_formula(rng, num_vars, rng.randint(1, 2))
        used = sorted({abs(lit) for c in formula.clauses for lit in c})
        commit = {v: rng.random() < 0.5 for v in used if rng.random() < 0.75}
        inst, gmap = build_even_instance(formula)
        committed = commit_bundles(inst, gmap, commit)
        satisfiable = any(
            formula.satisfied_by(a) and all(a[v] == p for v, p in commit.items())
            for a in all_assignments(num_vars))
        result = solve_with_orientations(formula, committed, gmap, budget=None)
        assert result.verdict == ("SAT" if satisfiable else "UNSAT"), \
            (formula, commit)
        if satisfiable:
            g = committed.realize(result.completion.chosen)
            assert check(g, "even-hole-free")[0]
            assignment = extract_assignment(gmap, g)
            assert formula.satisfied_by(assignment)
            assert all(assignment[v] == p for v, p in commit.items())
        verdicts.append(result.verdict)
    assert verdicts.count("UNSAT") >= 2 and verdicts.count("SAT") >= 2


def test_generic_style_solve_example():
    inst, gmap = build()
    result = solve(inst, "even-hole-free")
    assert result.verdict == "SAT"
    assert check(inst.realize(result.completion.chosen),
                 "even-hole-free")[0]
