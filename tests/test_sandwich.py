"""Sandwich instance model, complement transform, and solver exactness."""

import inspect
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesandwich.graph import Graph
from holesandwich.recognition import check
from holesandwich.sandwich import (SOLVABLE_PROPERTY_IDS, Completion,
                                   SandwichInstance, complement_instance,
                                   depth_first, solve, validate)
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
        return SandwichInstance.build(n, forced, optional)
    return st.builds(build, st.integers(2, max_n), st.integers(0, 10 ** 9))


# -- model and validation -----------------------------------------------------

def test_build_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        SandwichInstance.build(3, {(0, 1)}, {(0, 1)})
    with pytest.raises(ValueError):
        SandwichInstance.build(3, {(0, 3)}, set())
    with pytest.raises(ValueError):
        SandwichInstance.build(3, {(1, 1)}, set())


def test_validate_lists_violations():
    inst = SandwichInstance.build(4, SQUARE, {(0, 2)})
    assert validate(inst) == []
    broken = object.__new__(SandwichInstance)
    object.__setattr__(broken, "n", 3)
    object.__setattr__(broken, "forced", frozenset({(0, 1), (2, 5)}))
    object.__setattr__(broken, "optional", frozenset({(0, 1), (1, 1)}))
    object.__setattr__(broken, "names", None)
    problems = validate(broken)
    assert len(problems) == 3  # out-of-range, overlap, loop


def test_names_must_be_single_words():
    # format_instance writes `v <id> <name>` lines, which parse_instance
    # splits on whitespace.
    with pytest.raises(ValueError, match="not one non-empty word"):
        SandwichInstance.build(2, [(0, 1)], [], ["a b", ""])
    broken = SandwichInstance(2, frozenset({(0, 1)}), frozenset(),
                              ("a b", ""))
    assert len(validate(broken)) == 2
    for name in ("a\tb", "a\n", " a", 7):
        with pytest.raises(ValueError):
            SandwichInstance.build(2, [(0, 1)], [], ["x", name])
    assert SandwichInstance.build(2, [(0, 1)], [], ['a"b', "c\\"]).names \
        == ('a"b', "c\\")


def test_forbidden_is_the_remainder():
    inst = SandwichInstance.build(4, SQUARE, {(0, 2)})
    assert inst.forbidden() == {(1, 3)}


def test_realize_rejects_non_optional_edges():
    inst = SandwichInstance.build(4, SQUARE, {(0, 2)})
    assert inst.realize({(0, 2)}).has_edge(0, 2)
    with pytest.raises(ValueError):
        inst.realize({(1, 3)})


def test_g1_g2_bounds():
    inst = SandwichInstance.build(4, SQUARE, {(0, 2)})
    assert inst.g1().edge_count == 4
    assert inst.g2().edge_count == 5
    assert is_sandwich_graph(inst, inst.g1())
    assert is_sandwich_graph(inst, inst.g2())
    assert not is_sandwich_graph(inst, Graph(4, [(0, 1)]))   # missing forced
    assert not is_sandwich_graph(inst, Graph(4, list(SQUARE) + [(1, 3)]))
    with pytest.raises(ValueError):
        is_sandwich_graph(inst, Graph(5))


# -- complement transform -----------------------------------------------------

def test_complement_of_forced_triangle_is_edgeless():
    inst = SandwichInstance.build(3, {(0, 1), (0, 2), (1, 2)}, set())
    comp = complement_instance(inst)
    assert comp.forced == frozenset() and comp.optional == frozenset()


def test_complement_keeps_optional_and_swaps_the_rest():
    inst = SandwichInstance.build(3, {(0, 1)}, {(1, 2)})
    comp = complement_instance(inst)
    assert comp.forced == {(0, 2)}
    assert comp.optional == {(1, 2)}
    assert comp.forbidden() == {(0, 1)}


@given(instances())
def test_complement_is_involution(inst):
    assert complement_instance(complement_instance(inst)) == inst


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
    inst = SandwichInstance.build(4, SQUARE, {(0, 2)})
    result = solve(inst, "chordal")
    assert result.verdict == "SAT"
    assert result.completion.chosen == {(0, 2)}


def test_bare_square_unsat_for_chordal_and_even_hole_free():
    inst = SandwichInstance.build(4, SQUARE, set())
    assert solve(inst, "chordal").verdict == "UNSAT"
    assert solve(inst, "even-hole-free").verdict == "UNSAT"
    assert brute_force_solve(inst, "chordal").verdict == "UNSAT"
    assert brute_force_solve(inst, "even-hole-free").verdict == "UNSAT"


def test_forced_only_satisfaction_is_sat():
    # Forced graph already chordal: the solver must notice, whatever it adds.
    inst = SandwichInstance.build(5, {(0, 1), (1, 2)}, {(3, 4), (2, 3)})
    result = solve(inst, "chordal")
    assert result.verdict == "SAT"
    g = inst.realize(result.completion.chosen)
    assert check(g, "chordal")[0]


def test_solve_rejects_berge_and_bad_instances():
    inst = SandwichInstance.build(4, SQUARE, set())
    with pytest.raises(ValueError):
        solve(inst, "berge")
    with pytest.raises(ValueError):
        brute_force_solve(inst, "berge")


def test_brute_force_caps_optional_at_twenty():
    pairs = list(combinations(range(7), 2))[:21]
    inst = SandwichInstance.build(7, set(), set(pairs))
    with pytest.raises(ValueError):
        brute_force_solve(inst, "chordal")
    assert brute_force_solve(
        SandwichInstance.build(7, set(), set(pairs[:20])), "chordal"
    ).verdict == "SAT"


def test_budget_verdict():
    ring = {tuple(sorted((i, (i + 1) % 9))) for i in range(9)}
    chords = set(combinations(range(9), 2)) - ring - {(0, 2)}
    inst = SandwichInstance.build(9, ring, chords)
    assert solve(inst, "chordal", budget=1).verdict == "BUDGET"
    unlimited = solve(inst, "chordal", budget=None, check_budget=None)
    assert unlimited.verdict == "SAT"
    assert check(inst.realize(unlimited.completion.chosen), "chordal")[0]


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


def test_deep_search_needs_no_recursion():
    # 300 disjoint forced four-holes, each with its two chords optional:
    # the search path decides one chord of each, 300 decisions deep.
    k = 300
    forced = [(4 * i + j, 4 * i + (j + 1) % 4)
              for i in range(k) for j in range(4)]
    chords = [(4 * i + j, 4 * i + j + 2) for i in range(k) for j in (0, 1)]
    inst = SandwichInstance.build(4 * k, forced, chords)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = solve(inst, "even-hole-free")
    finally:
        sys.setrecursionlimit(limit)
    assert (result.verdict, result.nodes) == ("SAT", k + 1)
    assert check(inst.realize(result.completion.chosen), "even-hole-free")[0]


@given(instances(max_n=6, max_optional=8),
       st.sampled_from(SOLVABLE_PROPERTY_IDS))
@settings(max_examples=60, deadline=None)
def test_solve_matches_subset_oracle(inst, prop):
    want = sandwich_oracle(inst.n, inst.forced, inst.optional, prop)
    result = solve(inst, prop)
    assert result.verdict == ("SAT" if want else "UNSAT")
    if result.verdict == "SAT":
        g = inst.realize(result.completion.chosen)
        assert is_sandwich_graph(inst, g)
        assert check(g, prop)[0]


@given(instances(max_n=6, max_optional=8),
       st.sampled_from(SOLVABLE_PROPERTY_IDS))
@settings(max_examples=40, deadline=None)
def test_brute_force_matches_subset_oracle(inst, prop):
    want = sandwich_oracle(inst.n, inst.forced, inst.optional, prop)
    assert brute_force_solve(inst, prop).verdict == \
        ("SAT" if want else "UNSAT")
