"""Sandwich instance model, complement transform, and solver exactness."""

import inspect
import random
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesandwich import reduction_even, sandwich
from holesandwich.cnf import CnfFormula
from holesandwich.graph import Graph
from holesandwich.recognition import PROPERTY_IDS, check
from holesandwich.reduction_even import (build_even_instance,
                                         solve_with_orientations)
from holesandwich.sandwich import (Completion, SandwichInstance,
                                   complement_instance, depth_first, solve)
from holesandwich.verify import (brute_force_solve, cycle_graph,
                                 is_sandwich_graph)

from oracles import sandwich_oracle

SQUARE = {(0, 1), (1, 2), (2, 3), (0, 3)}


def instances(max_n=7, max_optional=10):
    """Hypothesis strategy: a valid instance with bounded optional set."""
    def build(n, seed):
        rng = random.Random(seed)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        cut = rng.randint(0, min(max_optional, len(pairs)))
        optional = set(pairs[:cut])
        forced = {p for p in pairs[cut:] if rng.random() < 0.4}
        return SandwichInstance(n, forced, optional)
    return st.builds(build, st.integers(2, max_n), st.integers(0, 10 ** 9))


# -- model and validation -----------------------------------------------------

def test_build_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        SandwichInstance(3, {(0, 1)}, {(0, 1)})
    with pytest.raises(ValueError):
        SandwichInstance(3, {(0, 3)}, set())
    with pytest.raises(ValueError):
        SandwichInstance(3, {(1, 1)}, set())
    # A vertex count or an endpoint is an int and no bool, a count is not
    # negative, and an edge is a pair; anything else is the same one
    # ValueError, not a TypeError now or a failed index in a later solve.
    for n, forced, optional in ((3, [(0.0, 1.0)], [(1, 2)]),
                                (3, [(0, 1, 2)], []),
                                (3, [5], []),
                                (3, [], [(0,)]),
                                (-1, [], []),
                                (3.0, [(0, 1)], []),
                                (3, [("a", 1)], []),
                                (3, [], [(False, True)]),
                                ("3", [(0, 1)], [])):
        with pytest.raises(ValueError, match="^invalid instance: "):
            SandwichInstance(n, forced, optional)


def test_validate_lists_violations():
    # One error names every violation: out-of-range, overlap, loop.
    with pytest.raises(ValueError, match=r"^invalid instance: forced edge "
                       r"\(2, 5\) out of range; optional edge \(1, 1\) is a "
                       r"loop; forced and optional overlap on \[\(0, 1\)\]$"):
        SandwichInstance(3, {(0, 1), (5, 2)}, {(0, 1), (1, 1)})
    with pytest.raises(ValueError, match="names table has 2 entries for 3 "
                       "vertices$"):
        SandwichInstance(3, [], [], ["a", "b"])


def test_names_must_be_single_words():
    # format_instance writes `v <id> <name>` lines, which parse_instance
    # splits on whitespace.
    with pytest.raises(ValueError, match="'a b' of vertex 0 is not one "
                       "non-empty word; name '' of vertex 1 is not one"):
        SandwichInstance(2, [(0, 1)], [], ["a b", ""])
    for name in ("a\tb", "a\n", " a", 7):
        with pytest.raises(ValueError):
            SandwichInstance(2, [(0, 1)], [], ["x", name])
    assert SandwichInstance(2, [(0, 1)], [], ['a"b', "c\\"]).names \
        == ('a"b', "c\\")


def test_forbidden_is_the_remainder():
    inst = SandwichInstance(4, SQUARE, {(0, 2)})
    assert inst.forbidden() == {(1, 3)}


def test_realize_rejects_non_optional_edges():
    inst = SandwichInstance(4, SQUARE, {(0, 2)})
    assert inst.realize({(0, 2)}).has_edge(0, 2)
    with pytest.raises(ValueError):
        inst.realize({(1, 3)})


def test_realize_reads_a_chosen_pair_in_either_order():
    inst = SandwichInstance(3, [(0, 1)], [(2, 0)])
    assert inst.realize({(2, 0)}) == inst.realize({(0, 2)})
    assert inst.realize({(2, 0)}).edges() == [(0, 1), (0, 2)]
    for chosen, message in (({(1, 2)}, r"edges \[\(1, 2\)\] are not optional"),
                            ({(2, 2)}, r"chosen edge \(2, 2\) is a loop"),
                            ({(0, 3)}, r"chosen edge \(0, 3\) out of range"),
                            ({(0, True)}, "is not a pair of ints")):
        with pytest.raises(ValueError, match=message):
            inst.realize(chosen)


def test_g1_g2_bounds():
    inst = SandwichInstance(4, SQUARE, {(0, 2)})
    assert len(inst.g1().edges()) == 4
    assert len(inst.g2().edges()) == 5
    assert is_sandwich_graph(inst, inst.g1())
    assert is_sandwich_graph(inst, inst.g2())
    assert not is_sandwich_graph(inst, Graph(4, [(0, 1)]))   # missing forced
    assert not is_sandwich_graph(inst, Graph(4, list(SQUARE) + [(1, 3)]))
    with pytest.raises(ValueError):
        is_sandwich_graph(inst, Graph(5))


# -- complement transform -----------------------------------------------------

def test_complement_of_forced_triangle_is_edgeless():
    inst = SandwichInstance(3, {(0, 1), (0, 2), (1, 2)}, set())
    comp = complement_instance(inst)
    assert comp.forced == frozenset() and comp.optional == frozenset()


def test_complement_keeps_optional_and_swaps_the_rest():
    inst = SandwichInstance(3, {(0, 1)}, {(1, 2)})
    comp = complement_instance(inst)
    assert comp.forced == {(0, 2)}
    assert comp.optional == {(1, 2)}
    assert comp.forbidden() == {(0, 1)}


@given(instances())
def test_complement_is_involution(inst):
    assert complement_instance(complement_instance(inst)) == inst


@given(instances())
def test_complement_equals_the_checked_construction(inst):
    # complement_instance skips the constructor's checks; its result must
    # equal the checked instance, which equals the plain tuple of its fields.
    fields = (inst.n, inst.forbidden(), inst.optional, inst.names)
    comp = complement_instance(inst)
    assert comp == SandwichInstance(*fields) == fields
    assert type(comp) is SandwichInstance


@given(instances(max_n=6, max_optional=8))
@settings(max_examples=40, deadline=None)
def test_complement_duality_on_odd_properties(inst):
    comp = complement_instance(inst)
    assert brute_force_solve(inst, "odd-hole-free").verdict == \
        brute_force_solve(comp, "odd-antihole-free").verdict
    assert brute_force_solve(inst, "odd-antihole-free").verdict == \
        brute_force_solve(comp, "odd-hole-free").verdict


# -- solvers ------------------------------------------------------------------

def test_square_with_chord_is_chordal_sat():
    inst = SandwichInstance(4, SQUARE, {(0, 2)})
    result = solve(inst, "chordal")
    assert result.verdict == "SAT"
    assert result.completion.chosen == {(0, 2)}


def test_bare_square_unsat_for_chordal_and_even_hole_free():
    inst = SandwichInstance(4, SQUARE, set())
    assert solve(inst, "chordal").verdict == "UNSAT"
    assert solve(inst, "even-hole-free").verdict == "UNSAT"
    assert brute_force_solve(inst, "chordal").verdict == "UNSAT"
    assert brute_force_solve(inst, "even-hole-free").verdict == "UNSAT"


def test_forced_only_satisfaction_is_sat():
    # Forced graph already chordal: the solver must notice, whatever it adds.
    inst = SandwichInstance(5, {(0, 1), (1, 2)}, {(3, 4), (2, 3)})
    result = solve(inst, "chordal")
    assert result.verdict == "SAT"
    g = inst.realize(result.completion.chosen)
    assert check(g, "chordal")[0]


def test_solvers_reject_unknown_properties():
    inst = SandwichInstance(4, SQUARE, set())
    with pytest.raises(ValueError, match="unknown property id 'planar'"):
        solve(inst, "planar", budget=0)
    with pytest.raises(ValueError, match="unknown property id 'planar'"):
        brute_force_solve(inst, "planar")


def test_brute_force_caps_optional_at_twenty():
    pairs = list(combinations(range(7), 2))[:21]
    inst = SandwichInstance(7, set(), set(pairs))
    with pytest.raises(ValueError):
        brute_force_solve(inst, "chordal")
    assert brute_force_solve(
        SandwichInstance(7, set(), set(pairs[:20])), "chordal"
    ).verdict == "SAT"


def test_budget_verdict():
    ring = {tuple(sorted((i, (i + 1) % 9))) for i in range(9)}
    chords = set(combinations(range(9), 2)) - ring - {(0, 2)}
    inst = SandwichInstance(9, ring, chords)
    assert solve(inst, "chordal", budget=1).verdict == "BUDGET"
    unlimited = solve(inst, "chordal", budget=None)
    assert unlimited.verdict == "SAT"
    assert check(inst.realize(unlimited.completion.chosen), "chordal")[0]


def test_budget_must_be_a_non_negative_int():
    # True would be a one-step budget: a bool is no step count.
    inst = SandwichInstance(4, SQUARE, {(0, 2)})
    for budget in (True, 2.5, "3", -1):
        with pytest.raises(ValueError, match="is not a non-negative int"):
            check(inst.g1(), "chordal", budget=budget)
        with pytest.raises(ValueError, match="is not a non-negative int"):
            solve(inst, "chordal", budget=budget)


def test_finite_budgets_cap_each_violation_search(monkeypatch):
    # A finite node budget caps each violation search at the solvers'
    # DEFAULT_CHECK_BUDGET binding; None leaves both unlimited.
    ring = {tuple(sorted((i, (i + 1) % 9))) for i in range(9)}
    chords = set(combinations(range(9), 2)) - ring - {(0, 2)}
    inst = SandwichInstance(9, ring, chords)
    formula = CnfFormula(3, ((1, -2, 3),))
    even, gmap = build_even_instance(formula)
    monkeypatch.setattr(sandwich, "DEFAULT_CHECK_BUDGET", 1)
    monkeypatch.setattr(reduction_even, "DEFAULT_CHECK_BUDGET", 1)
    assert solve(inst, "chordal").verdict == "BUDGET"
    assert solve(inst, "chordal", budget=None).verdict == "SAT"
    assert solve_with_orientations(formula, even, gmap).verdict == "BUDGET"
    assert solve_with_orientations(formula, even, gmap,
                                   budget=None).verdict == "SAT"


def test_berge_is_solved_exactly():
    # A forced five-cycle is an odd hole: any one chord breaks it, and with
    # no chord optional nothing can.  The complement of a seven-cycle is an
    # odd antihole, broken by adding one pair of the cycle.
    ring = [(i, (i + 1) % 5) for i in range(5)]
    hole = SandwichInstance(5, ring, [(i, (i + 2) % 5) for i in range(5)])
    result = solve(hole, "berge")
    assert result.verdict == "SAT"
    assert check(hole.realize(result.completion.chosen), "berge")[0]
    assert solve(SandwichInstance(5, ring, []), "berge").verdict == "UNSAT"
    antihole = SandwichInstance(7, cycle_graph(7).complement().edges(),
                                [(0, 1)])
    result = solve(antihole, "berge")
    assert (result.verdict, result.completion.chosen) == ("SAT", {(0, 1)})
    assert solve(antihole._replace(optional=[]), "berge").verdict == "UNSAT"


def test_depth_first_order_nodes_and_frontier():
    # A binary tree of depth 3 whose leaf 0b110 is the one solution: states
    # are the branch bits taken so far, 0 before 1.
    expanded = []

    def expand(path):
        expanded.append(path)
        if len(path) == 3:
            return Completion(path) if path == (1, 1, 0) else []
        return [path + (0,), path + (1,)]

    result = depth_first((), expand, None)
    assert result == ("SAT", Completion((1, 1, 0)), len(expanded), 0)
    assert expanded[:4] == [(), (0,), (0, 0), (0, 0, 0)]
    # At the fourth node, (0, 0, 0), the siblings (1,), (0, 1) and
    # (0, 0, 1) wait.
    assert depth_first((), expand, 3) == ("BUDGET", None, 4, 3)
    assert depth_first((), lambda path: [], None) == ("UNSAT", None, 1, 0)


def forced_four_holes(k):
    """k disjoint forced four-holes, each with its two chords optional: an
    even-hole-free search path decides one chord of each, k decisions deep."""
    forced = [(4 * i + j, 4 * i + (j + 1) % 4)
              for i in range(k) for j in range(4)]
    chords = [(4 * i + j, 4 * i + j + 2) for i in range(k) for j in (0, 1)]
    return SandwichInstance(4 * k, forced, chords)


def test_deep_search_needs_no_recursion():
    k = 300
    inst = forced_four_holes(k)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = solve(inst, "even-hole-free")
    finally:
        sys.setrecursionlimit(limit)
    assert (result.verdict, result.nodes) == ("SAT", k + 1)
    assert check(inst.realize(result.completion.chosen), "even-hole-free")[0]


def test_waiting_states_share_their_decisions():
    # k out-branches wait along a search path k decisions deep.  States
    # that share their ancestors' decisions hold O(k) of them; a copy of
    # the path per state holds O(k^2).  The adjacency masks grow with n
    # too, so doubling k from 60 to 120 raises the traced peak 2.65x with
    # shared states (20 -> 53 KiB, CPython 3.10-3.13) and 3.76x with
    # copies (90 -> 338 KiB).  An untraced solve first fills the tuple
    # free lists, which tracemalloc counts as allocated.
    solve(forced_four_holes(120), "even-hole-free")
    peaks = []
    for k in (60, 120):
        inst = forced_four_holes(k)
        tracemalloc.start()
        try:
            result = solve(inst, "even-hole-free")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (result.verdict, result.nodes) == ("SAT", k + 1)
    assert peaks[1] < 3.2 * peaks[0], peaks


@given(instances(max_n=6, max_optional=8), st.sampled_from(PROPERTY_IDS))
@settings(max_examples=60, deadline=None)
def test_solve_matches_subset_oracle(inst, prop):
    want = sandwich_oracle(inst.n, inst.forced, inst.optional, prop)
    result = solve(inst, prop)
    assert result.verdict == ("SAT" if want else "UNSAT")
    if result.verdict == "SAT":
        g = inst.realize(result.completion.chosen)
        assert is_sandwich_graph(inst, g)
        assert check(g, prop)[0]


@given(instances(max_n=6, max_optional=8), st.sampled_from(PROPERTY_IDS))
@settings(max_examples=40, deadline=None)
def test_brute_force_matches_subset_oracle(inst, prop):
    want = sandwich_oracle(inst.n, inst.forced, inst.optional, prop)
    assert brute_force_solve(inst, prop).verdict == \
        ("SAT" if want else "UNSAT")
