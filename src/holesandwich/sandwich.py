"""Sandwich instances and exact sandwich search.

An instance fixes a vertex set, a set of forced edges (must appear), and a
set of optional edges (may appear).  Every remaining pair is forbidden.  A
graph G "is a sandwich" when forced ⊆ E(G) ⊆ forced ∪ optional; the solver
asks whether some sandwich graph satisfies a recognition property.

The complement transform swaps forced and forbidden roles while keeping the
optional set: G is a sandwich for an instance iff the complement of G is a
sandwich for the transformed instance, so solvability for a property maps to
solvability for the complementary property.  The transform is an involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .budget import Budget, BudgetExhausted
from .graph import Graph
from .recognition import (DEFAULT_CHECK_BUDGET, PROPERTY_IDS, check,
                          first_violation)

DEFAULT_SOLVE_BUDGET = 10 ** 6
BRUTE_FORCE_MAX_OPTIONAL = 20

SOLVABLE_PROPERTY_IDS = tuple(p for p in PROPERTY_IDS if p != "berge")


def normalized_edge(u, v):
    if u == v:
        raise ValueError("loop edge at vertex %r" % u)
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SandwichInstance:
    """Vertex count, forced edges, optional edges; forbidden pairs implicit."""

    n: int
    forced: frozenset
    optional: frozenset
    names: tuple = None

    @staticmethod
    def build(n, forced, optional, names=None):
        inst = SandwichInstance(
            n,
            frozenset(normalized_edge(u, v) for u, v in forced),
            frozenset(normalized_edge(u, v) for u, v in optional),
            tuple(names) if names is not None else None,
        )
        errors = validate(inst)
        if errors:
            raise ValueError("invalid instance: " + "; ".join(errors))
        return inst

    def all_pairs(self):
        return combinations(range(self.n), 2)

    def name(self, v):
        """Role name of vertex v, falling back to its index."""
        if self.names is None:
            return str(v)
        return self.names[v]

    def forbidden(self):
        allowed = self.forced | self.optional
        return frozenset(p for p in self.all_pairs() if p not in allowed)

    def g1(self):
        """Graph of forced edges."""
        return Graph(self.n, self.forced, self.names)

    def g2(self):
        """Graph of forced plus optional edges."""
        return Graph(self.n, self.forced | self.optional, self.names)

    def realize(self, chosen):
        """Sandwich graph with exactly `chosen` optional edges added."""
        chosen = frozenset(chosen)
        extra = chosen - self.optional
        if extra:
            raise ValueError("edges %r are not optional" % sorted(extra))
        return Graph(self.n, self.forced | chosen, self.names)


def validate(inst):
    """Structural error list for an instance; empty means well-formed."""
    errors = []
    for label, edges in (("forced", inst.forced), ("optional", inst.optional)):
        for e in edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                errors.append("%s entry %r is not a pair" % (label, e))
                continue
            u, v = e
            if not (0 <= u < inst.n and 0 <= v < inst.n):
                errors.append("%s edge %r out of range" % (label, e))
            elif u == v:
                errors.append("%s edge %r is a loop" % (label, e))
            elif u > v:
                errors.append("%s edge %r is not normalized" % (label, e))
    overlap = inst.forced & inst.optional
    if overlap:
        errors.append("forced and optional overlap on %r" % sorted(overlap))
    if inst.names is not None and len(inst.names) != inst.n:
        errors.append("names table has %d entries for %d vertices"
                      % (len(inst.names), inst.n))
    return errors


def complement_instance(inst):
    """Swap forced and forbidden; optional edges stay optional."""
    return SandwichInstance(inst.n, inst.forbidden(), inst.optional, inst.names)


def is_sandwich_graph(inst, g):
    """True when forced ⊆ E(g) ⊆ forced ∪ optional (same vertex set)."""
    if g.n != inst.n:
        raise ValueError("graph has %d vertices, instance has %d" % (g.n, inst.n))
    edges = set(g.edges())
    return inst.forced <= edges and edges <= (inst.forced | inst.optional)


@dataclass(frozen=True)
class Completion:
    """The optional edges chosen by a successful solve."""

    chosen: frozenset

    def realize(self, inst):
        return inst.realize(self.chosen)


@dataclass(frozen=True)
class SolveResult:
    verdict: str            # "SAT" | "UNSAT" | "BUDGET"
    completion: Completion | None
    nodes: int              # search nodes explored
    frontier: int = 0       # unexplored alternative branches at a BUDGET stop


def solve(inst, prop, budget=DEFAULT_SOLVE_BUDGET, check_budget=DEFAULT_CHECK_BUDGET):
    """Exact sandwich search by three-state backtracking.

    Optional edges are in, out, or undecided.  Each node locates the first
    violating structure of the forced-plus-in graph (a hole, C5, or antihole,
    in canonical enumeration order).  The structure can only be repaired by
    adding one of its undecided optional non-edges, so the node branches on
    the first such repair pair, in-branch first; with no repair pair left the
    branch is dead.  When nothing violates the property, remaining undecided
    edges are decided out and the node's graph is the completion.

    `budget` caps search nodes and `check_budget` each violation search's
    expansions; None means unlimited.  On exhaustion of either the verdict is
    "BUDGET" with the count of unexplored alternative branches.  See
    docs/solver.md for the completeness argument.
    """
    if prop not in SOLVABLE_PROPERTY_IDS:
        raise ValueError("solve does not support property %r" % (prop,))
    errors = validate(inst)
    if errors:
        raise ValueError("invalid instance: " + "; ".join(errors))

    optional = sorted(inst.optional)
    decided = {}
    nodes = Budget(budget)
    frontier = 0

    def current_graph():
        chosen = [e for e in optional if decided.get(e)]
        return Graph(inst.n, list(inst.forced) + chosen, inst.names)

    def repair_pairs(g, structure):
        pairs = []
        for u, v in combinations(sorted(structure), 2):
            if g.has_edge(u, v):
                continue
            e = (u, v)
            if e in inst.optional and e not in decided:
                pairs.append(e)
        return pairs

    def search():
        nonlocal frontier
        nodes.spend()
        g = current_graph()
        violation = first_violation(g, prop, check_budget)
        if violation is None:
            chosen = frozenset(e for e in optional if decided.get(e))
            return SolveResult("SAT", Completion(chosen), nodes.spent)
        pairs = repair_pairs(g, violation.vertices)
        if not pairs:
            return None
        e = pairs[0]
        # The out-branch of e stays pending, and counted in the frontier,
        # until the in-branch fails; a BUDGET stop inside it leaves it counted.
        frontier += 1
        decided[e] = True
        result = search()
        if result is not None:
            del decided[e]
            return result
        frontier -= 1
        decided[e] = False
        result = search()
        del decided[e]
        return result

    try:
        result = search()
    except BudgetExhausted:
        return SolveResult("BUDGET", None, nodes.spent, frontier)
    if result is None:
        return SolveResult("UNSAT", None, nodes.spent)
    return result


def brute_force_solve(inst, prop, check_budget=DEFAULT_CHECK_BUDGET):
    """Reference solver: try every optional subset in counter order.

    Only meant for desk-scale cross-checks; refuses more than
    BRUTE_FORCE_MAX_OPTIONAL optional edges.
    """
    if prop not in SOLVABLE_PROPERTY_IDS:
        raise ValueError("solve does not support property %r" % (prop,))
    optional = sorted(inst.optional)
    if len(optional) > BRUTE_FORCE_MAX_OPTIONAL:
        raise ValueError("instance has %d optional edges; brute force is "
                         "capped at %d" % (len(optional), BRUTE_FORCE_MAX_OPTIONAL))
    base = [0] * inst.n
    for u, v in inst.forced:
        base[u] |= 1 << v
        base[v] |= 1 << u
    for mask in range(1 << len(optional)):
        adj = list(base)
        chosen = []
        rest = mask
        while rest:
            low = rest & -rest
            u, v = optional[low.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            chosen.append((u, v))
            rest ^= low
        g = Graph._from_masks(inst.n, adj, inst.names)
        ok, _ = check(g, prop, check_budget)
        if ok:
            return SolveResult("SAT", Completion(frozenset(chosen)), mask + 1)
    return SolveResult("UNSAT", None, 1 << len(optional))

