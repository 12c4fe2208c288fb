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

from collections import namedtuple
from itertools import combinations

from .budget import Budget, BudgetExhausted
from .graph import Graph, _immutable
# No code here calls `check`; the benchmark's tracing test reads
# sandwich.check to see that instrumentation restores every binding.
from .recognition import (DEFAULT_CHECK_BUDGET, PROPERTY_IDS, check,
                          first_violation)

DEFAULT_SOLVE_BUDGET = 10 ** 6

SOLVABLE_PROPERTY_IDS = tuple(p for p in PROPERTY_IDS if p != "berge")


def normalized_edge(u, v):
    if u == v:
        raise ValueError("loop edge at vertex %r" % u)
    return (u, v) if u < v else (v, u)


class SandwichInstance:
    """Vertex count, forced edges, optional edges; forbidden pairs implicit."""

    __slots__ = ("n", "forced", "optional", "names")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, n, forced, optional, names=None):
        for field, value in zip(self.__slots__, (n, forced, optional, names)):
            object.__setattr__(self, field, value)

    def __reduce__(self):
        return SandwichInstance, (self.n, self.forced, self.optional, self.names)

    def __eq__(self, other):
        return (other.__class__ is SandwichInstance
                and self.__reduce__() == other.__reduce__())

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        return "SandwichInstance%r" % (self.__reduce__()[1],)

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

    def name(self, v):
        """Role name of vertex v, falling back to its index."""
        return str(v) if self.names is None else self.names[v]

    def forbidden(self):
        allowed = self.forced | self.optional
        return frozenset(p for p in combinations(range(self.n), 2)
                         if p not in allowed)

    def g1(self):
        """Graph of forced edges."""
        return Graph(self.n, self.forced)

    def g2(self):
        """Graph of forced plus optional edges."""
        return Graph(self.n, self.forced | self.optional)

    def realize(self, chosen):
        """Sandwich graph with exactly `chosen` optional edges added."""
        chosen = frozenset(chosen)
        extra = chosen - self.optional
        if extra:
            raise ValueError("edges %r are not optional" % sorted(extra))
        return Graph(self.n, self.forced | chosen)


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
    if inst.names is not None:
        if len(inst.names) != inst.n:
            errors.append("names table has %d entries for %d vertices"
                          % (len(inst.names), inst.n))
        # A name is one token of the `v <id> <role>` line io writes.
        for v, name in enumerate(inst.names):
            if not isinstance(name, str) or name.split() != [name]:
                errors.append("name %r of vertex %d is not one non-empty "
                              "word" % (name, v))
    return errors


def complement_instance(inst):
    """Swap forced and forbidden; optional edges stay optional."""
    return SandwichInstance(inst.n, inst.forbidden(), inst.optional, inst.names)


class Completion(namedtuple("Completion", "chosen")):
    """The optional edges chosen by a successful solve, for inst.realize."""

    __slots__ = ()


class SolveResult(namedtuple("SolveResult", "verdict completion nodes frontier",
                             defaults=(0,))):
    """verdict: "SAT", "UNSAT" or "BUDGET"; nodes: search nodes explored;
    frontier: states still waiting to be explored at a BUDGET stop."""

    __slots__ = ()


def depth_first(root, expand, budget):
    """Iterative depth-first search, the driver of both exact solvers.

    `expand(state)` returns a Completion when the state is a solution, else
    the child states in the order to try them; an empty list is a dead
    branch.  Each expanded state is one node, counted against `budget`
    (None: unlimited).  Returns SAT with the first completion found, UNSAT
    when every branch is dead, or BUDGET when the node budget, or a
    BudgetExhausted raised by `expand`, stops the search; `frontier` is
    then the number of states still waiting.
    """
    nodes = Budget(budget)
    waiting = [root]
    try:
        while waiting:
            state = waiting.pop()
            nodes.spend()
            children = expand(state)
            if isinstance(children, Completion):
                return SolveResult("SAT", children, nodes.spent)
            waiting.extend(reversed(children))
    except BudgetExhausted:
        return SolveResult("BUDGET", None, nodes.spent, len(waiting))
    return SolveResult("UNSAT", None, nodes.spent)


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
    "BUDGET" with the count of unexplored out-branches.  See docs/solver.md
    for the completeness argument.
    """
    if prop not in SOLVABLE_PROPERTY_IDS:
        raise ValueError("solve does not support property %r" % (prop,))
    errors = validate(inst)
    if errors:
        raise ValueError("invalid instance: " + "; ".join(errors))

    optional = sorted(inst.optional)

    def expand(decided):
        chosen = [e for e in optional if decided.get(e)]
        g = Graph(inst.n, list(inst.forced) + chosen)
        violation = first_violation(g, prop, check_budget)
        if violation is None:
            return Completion(frozenset(chosen))
        for e in combinations(sorted(violation.vertices), 2):
            if (not g.has_edge(*e) and e in inst.optional
                    and e not in decided):
                return [{**decided, e: True}, {**decided, e: False}]
        return []

    return depth_first({}, expand, budget)
