"""Sandwich instance model, complement transform, and solver exactness."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holesandwich.graph import Graph, cycle_graph
from holesandwich.recognition import check
from holesandwich.sandwich import (SOLVABLE_PROPERTY_IDS, SandwichInstance,
                                   brute_force_solve, complement_instance,
                                   is_sandwich_graph, solve, validate)

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
    g = result.completion.realize(inst)
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
    assert check(unlimited.completion.realize(inst), "chordal")[0]


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
