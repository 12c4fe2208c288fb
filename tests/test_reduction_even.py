"""The even-hole construction: census, completions, propagation, solving."""

import hashlib
import random
import re
from itertools import product

import pytest

from holesandwich.cnf import CnfFormula, all_assignments
from holesandwich import reduction_even
from holesandwich.graph import canonical_rotation, is_hole
from holesandwich.io import format_instance
from holesandwich.recognition import check
from holesandwich.reduction_even import (FOOT, HEAD, W1, W2,
                                         GadgetError,
                                         build_even_instance,
                                         completion_from_assignment,
                                         extract_assignment,
                                         propagate_orientations,
                                         solve_with_orientations)
from holesandwich.sandwich import SandwichInstance, normalized_edge, solve
from holesandwich.verify import is_sandwich_graph

from oracles import propagation_oracle

XYZ = CnfFormula(3, ((1, 2, 3),))
MIXED = CnfFormula(3, ((1, -2, 3),))
TWO_CLAUSES = CnfFormula(4, ((4, -1, 3), (1, -3, -2)))
UNUSED_X4 = CnfFormula(4, ((1, 2, 3),))


def build(formula=XYZ):
    return build_even_instance(formula)


# -- construction shape --------------------------------------------------------

def test_single_clause_counts_frozen():
    inst, gmap = build()
    assert (inst.n, len(inst.forced), len(inst.forbidden()),
            len(inst.optional)) == (16, 27, 33, 60)
    assert [inst.name(v) for v in range(10)] == [
        "H", "F", "W1", "W2", "S_x1", "S_!x1", "S_x2", "S_!x2", "S_x3",
        "S_!x3"]
    assert inst.name(gmap.knee[(1, 1)]) == "K_x1.c1"
    assert inst.name(gmap.knee[(-3, 1)]) == "K_!x3.c1"


# sha256 of format_instance for each one-clause sign pattern, then
# TWO_CLAUSES: the construction's exact bytes, vertex numbering included.
FROZEN_SHA256 = {
    (1, 2, 3): "bd5b4e2bf0a7548a18a62945c859f369ac02ae99727d7802bc29b6773d4bfdb6",
    (1, 2, -3): "f7c3f5446096d1dea1f7f6b0bfb5a09d6161c414e4e6a1e4569f0e294df7f49f",
    (1, -2, 3): "8fc02e96d37d43a926dfab28f56e40aa6639f07963fd6aae0a85d26bcdb4e362",
    (1, -2, -3): "3d01be1a6376ea014448db525f08f7b9c0b946ed66bf79c0146195f73eb368a2",
    (-1, 2, 3): "8741f7fe476f9ee54769feae972916d8afb4bbc9f02933396781217de72269a3",
    (-1, 2, -3): "a5080856e00d22775b57391ca79bc7676fae8ca4d75d007fd166609381bdeaa0",
    (-1, -2, 3): "31bd44eb78010872b020997f3ff2b20e4af2c987ea906dece1a8c362c5b55e81",
    (-1, -2, -3): "88bd1bcb063807d2edb96950da07c2d73e2b12429a58e7589a39c56c42e88490",
    None: "aa10eae23edd259fa160af86bb56d0ed1db73c71c43f8c9c826ba1373cc13e04",
}


@pytest.mark.parametrize("clause", list(FROZEN_SHA256))
def test_instance_bytes_frozen(clause):
    formula = TWO_CLAUSES if clause is None else CnfFormula(3, (clause,))
    text = format_instance(build_even_instance(formula)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_SHA256[clause]


def test_w_path_is_isolated_except_its_ends():
    inst, gmap = build()
    g2 = inst.g2()
    assert g2.degree(W1) == 2 and g2.degree(W2) == 2
    assert g2.has_edge(HEAD, W1)
    assert g2.has_edge(W1, W2)
    assert g2.has_edge(W2, FOOT)


def test_forbidden_pairs_off_w_form_a_perfect_matching():
    inst, gmap = build()
    off_w = [e for e in inst.forbidden()
             if W1 not in e and W2 not in e]
    assert len(off_w) == 7  # HF + 3 shoulder pairs + 3 knee pairs
    touched = [v for e in off_w for v in e]
    assert sorted(touched) == sorted(set(range(16)) - {W1, W2})
    assert normalized_edge(HEAD, FOOT) in off_w
    for i in (1, 2, 3):
        assert normalized_edge(gmap.shoulder[i], gmap.shoulder[-i]) in off_w
        assert normalized_edge(gmap.knee[(i, 1)], gmap.knee[(-i, 1)]) in off_w


def test_incidence_six_cycles_are_forced_holes():
    inst, gmap = build(MIXED)
    g1 = inst.g1()
    for lit in (1, -2, 3):
        i = abs(lit)
        ring = (HEAD, gmap.shoulder[i], gmap.knee[(-i, 1)], FOOT,
                gmap.knee[(i, 1)], gmap.shoulder[-i])
        assert is_hole(g1, ring)


def test_orientation_edges_disjoint_and_optional():
    inst, gmap = build()
    neg, pos = map(set, gmap.bundles[(1, 1)])
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
    keep = [v for v in range(inst.n) if v not in (W1, W2)]
    for assignment in all_assignments(3):
        g = inst.realize(completion_from_assignment(gmap, assignment))
        assert check(g.induced(keep), "chordal")[0] == \
            f.satisfied_by(assignment)


def test_completion_orientations_read_back():
    inst, gmap = build(MIXED)
    assignment = {1: True, 2: True, 3: False}
    g = inst.realize(completion_from_assignment(gmap, assignment))
    for var, value in assignment.items():
        matching, other = (gmap.bundles[(var, 1)][p] for p in (value, not value))
        assert all(g.has_edge(*e) for e in matching)
        assert not all(g.has_edge(*e) for e in other)
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
    with pytest.raises(ValueError, match=r"cover variables 1\.\.4"):
        completion_from_assignment(gmap, {1: True, 2: False, 3: False})
    # With no clauses there is no orientation to read: every variable is
    # read false.
    inst, gmap = build_even_instance(CnfFormula(2, ()))
    assert extract_assignment(gmap, inst.realize(inst.optional)) \
        == {1: False, 2: False}


def test_extraction_rejects_mixed_and_missing_orientations():
    inst, gmap = build()
    assignment = {1: True, 2: False, 3: True}
    chosen = completion_from_assignment(gmap, assignment)
    both = chosen | set(gmap.bundles[(1, 1)][False])
    with pytest.raises(GadgetError,
                       match="^variable 1 carries both orientations$"):
        extract_assignment(gmap, inst.realize(both))
    short = chosen - {normalized_edge(HEAD, gmap.knee[(1, 1)])}
    with pytest.raises(GadgetError,
                       match=r"^incidence \(1, clause 1\) has no orientation$"):
        extract_assignment(gmap, inst.realize(short))


def test_extraction_precedence_across_incidences():
    # Variables 1 and 3 occur in both clauses of TWO_CLAUSES.  The
    # completion of an assignment holds no head-knee edge outside its
    # bundles, so adding a bundle or dropping a bundle's head-knee edge
    # changes one incidence's reading only.
    inst, gmap = build(TWO_CLAUSES)
    assignment = {1: True, 2: False, 3: True, 4: False}
    chosen = completion_from_assignment(gmap, assignment)

    def extract(add=(), drop=()):
        edges = set(chosen)
        edges.update(e for incidence, positive in add
                     for e in gmap.bundles[incidence][positive])
        edges.difference_update(gmap.bundles[incidence][positive][0]
                                for incidence, positive in drop)
        return extract_assignment(gmap, inst.realize(frozenset(edges)))

    assert extract() == assignment
    cases = [
        # Variable 1 reads positive in clause 1 and negative in clause 2.
        ({((1, 2), False)}, {((1, 2), True)},
         "variable 1 carries both orientations"),
        # Within variable 1, clause 2 reading both beats clause 1 reading none.
        ({((1, 2), False)}, {((1, 1), True)},
         "variable 1 carries both orientations"),
        # Variable 1 has no orientation in clause 2, variable 3 has both in
        # clause 1: the lowest variable at fault is named.
        ({((3, 1), False)}, {((1, 2), True)},
         r"incidence \(1, clause 2\) has no orientation"),
        ({((4, 1), True)}, {((3, 1), True), ((3, 2), True)},
         r"incidence \(3, clause 1\) has no orientation"),
    ]
    for add, drop, message in cases:
        with pytest.raises(GadgetError, match="^%s$" % message):
            extract(add, drop)


# -- propagation ----------------------------------------------------------------

def test_propagation_with_no_decisions_is_open():
    inst, gmap = build()
    result = propagate_orientations(inst, gmap, {})
    assert result.certificate is None
    assert result.forced == {}


def test_head_knee_decision_forces_the_positive_bundle():
    inst, gmap = build()
    decided = {normalized_edge(HEAD, gmap.knee[(1, 1)]): True}
    result = propagate_orientations(inst, gmap, decided)
    assert result.certificate is None
    s, f = gmap.shoulder[1], FOOT
    assert result.forced.get(normalized_edge(s, f)) is True
    assert result.forced.get(normalized_edge(s, gmap.knee[(1, 1)])) is True


def test_propagation_rejects_decisions_on_non_optional_pairs():
    inst, gmap = build()
    head_foot = normalized_edge(HEAD, FOOT)
    with pytest.raises(ValueError, match="includes forbidden edge"):
        propagate_orientations(inst, gmap, {head_foot: True})
    with pytest.raises(ValueError, match="excludes forced edge"):
        propagate_orientations(inst, gmap, {min(inst.forced): False})
    # Excluding a forbidden pair agrees with the instance and is accepted.
    assert propagate_orientations(inst, gmap, {head_foot: False}) \
        == propagate_orientations(inst, gmap, {})
    # A key must be two distinct int (not bool) vertices of the instance.
    assert inst.n == 16
    for key in ((True, 5), (1, 16), (-1, 2), (2.0, 5), (0, 99), 5, (0, 1, 2),
                (3, 3)):
        with pytest.raises(ValueError, match="^decision key %s "
                           % re.escape(repr(key))):
            propagate_orientations(inst, gmap, {key: False})


def test_six_hole_rule_needs_the_head_shoulder_edge():
    # x4 occurs in no clause, so H-S_x4 is optional: with it undecided or
    # out, the knee-shoulder edge S_x4-K_x1.c1 closes no six-hole.
    inst, gmap = build_even_instance(UNUSED_X4)
    s, k = gmap.shoulder[4], gmap.knee[(1, 1)]
    decided = {normalized_edge(s, k): True, normalized_edge(HEAD, k): False,
               normalized_edge(FOOT, s): False}
    assert propagate_orientations(inst, gmap, decided).certificate is None
    decided[normalized_edge(HEAD, s)] = False
    assert propagate_orientations(inst, gmap, decided).certificate is None
    # With H-S_x4 in, the six-hole closes: it is the certificate, and
    # without the F-S_x4 decision it forces F-S_x4 in instead.
    decided[normalized_edge(HEAD, s)] = True
    assert propagate_orientations(inst, gmap, decided).certificate \
        == (HEAD, W1, W2, FOOT, k, s) == (0, 2, 3, 1, 12, 10)
    del decided[normalized_edge(FOOT, s)]
    result = propagate_orientations(inst, gmap, decided)
    assert result.certificate is None
    assert result.forced[normalized_edge(FOOT, s)] is True


def test_all_negative_orientations_contradict():
    inst, gmap = build()
    decided = {}
    for var in (1, 2, 3):
        for e in gmap.bundles[(var, 1)][False]:
            decided[e] = True
    result = propagate_orientations(inst, gmap, decided)
    assert result.certificate is not None
    expected = {gmap.knee[(1, 1)], gmap.knee[(2, 1)],
                gmap.knee[(-1, 1)], gmap.knee[(-2, 1)]}
    assert set(result.certificate) == expected
    assert result.certificate == canonical_rotation(result.certificate)
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
    assert is_hole(host, result.certificate)


@pytest.mark.parametrize("formula, trials",
                         [(XYZ, 12), (TWO_CLAUSES, 4), (UNUSED_X4, 12)])
def test_propagation_matches_reference(formula, trials):
    inst, gmap = build_even_instance(formula)
    optional = sorted(inst.optional)
    rng = random.Random(len(formula.clauses))
    statuses = set()
    for _ in range(trials):
        decided = {e: rng.random() < 0.5
                   for e in rng.sample(optional, rng.randint(0, 6))}
        for bundles in gmap.bundles.values():
            if rng.random() < 0.4:
                for e in bundles[rng.random() < 0.5]:
                    decided[e] = True
        result = propagate_orientations(inst, gmap, decided)
        status, derived, certificate = propagation_oracle(
            inst.n, inst.forced, inst.optional, decided, HEAD, FOOT, W1, W2,
            gmap.knee.values(), gmap.shoulder.values())
        assert (result.certificate is None) == (status == "ok")
        assert list(result.forced.items()) == derived
        assert result.certificate == certificate
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


def test_orientation_solver_refuses_another_formula():
    # The 8-pattern formula is unsatisfiable, and x4 has no shoulder in
    # XYZ's map: neither may be solved on it.
    eight = CnfFormula(3, tuple(tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                                for signs in product((1, -1), repeat=3)))
    inst, gmap = build()
    for formula in (eight, CnfFormula(4, ((1, 2, 3),))):
        with pytest.raises(ValueError, match="is not gmap's"):
            solve_with_orientations(formula, inst, gmap)


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


def test_leaf_checks_the_instance_being_solved():
    # Forcing the optional pair K_x2.c1-K_!x3.c1 closes the four-hole
    # (K_!x1.c1, K_x2.c1, K_!x3.c1, K_!x2.c1) in the canonical completions
    # the search reaches.  Its leaves check on this instance, not on
    # gmap.instance, so it cannot answer SAT with a graph that has the hole;
    # it raises, since the split is exact only for whole bundles.
    formula = CnfFormula(3, ((-1, -2, 3),))
    inst, gmap = build_even_instance(formula)
    e = normalized_edge(gmap.knee[(2, 1)], gmap.knee[(-3, 1)])
    moved = SandwichInstance(inst.n, inst.forced | {e}, inst.optional - {e},
                             inst.names)
    with pytest.raises(AssertionError, match="satisfying assignment"):
        solve_with_orientations(formula, moved, gmap)


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
    for bundles in gmap.bundles.values():
        negative.update(bundles[False])
    assert len(negative) == 9
    committed = SandwichInstance(
        inst.n, frozenset(inst.forced) | negative,
        frozenset(inst.optional) - negative, inst.names)

    root = propagate_orientations(committed, gmap, {})
    assert root.certificate is not None
    assert sorted(root.certificate) == [10, 11, 12, 13]

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
    bundles = {e for (var, _), pair in gmap.bundles.items() if var in commit
               for e in pair[commit[var]]}
    return SandwichInstance(inst.n, inst.forced | bundles,
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


def test_split_skips_the_side_the_instance_excludes():
    # x1's positive bundle holds foot-S_x1, so committing x1 true forces the
    # split pair and only its in-branch is taken.  With x1 true the clauses
    # reduce to the four sign patterns of (x2 | x3), which nothing
    # satisfies; with x1 false every clause holds.
    formula = CnfFormula(3, ((-1, 2, 3), (-1, -2, 3), (-1, 2, -3),
                             (-1, -2, -3)))
    inst, gmap = build_even_instance(formula)
    split = normalized_edge(FOOT, gmap.shoulder[1])
    for positive, verdict in ((True, "UNSAT"), (False, "SAT")):
        committed = commit_bundles(inst, gmap, {1: positive})
        assert (split in committed.forced) == positive
        result = solve_with_orientations(formula, committed, gmap,
                                         budget=None)
        assert (result.verdict, result.nodes) == (verdict, 4)


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
