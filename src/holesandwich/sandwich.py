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
from math import inf

from .budget import Budget, BudgetExhausted
from .cnf import _is_int
from .graph import Graph, _masks, _vertex_pair
from .recognition import DEFAULT_CHECK_BUDGET, PROPERTY_IDS, check

DEFAULT_SOLVE_BUDGET = 10 ** 6


def normalized_edge(u, v):
    if u == v:
        raise ValueError("loop edge at vertex %r" % u)
    return (u, v) if u < v else (v, u)


class SandwichInstance(namedtuple("SandwichInstance",
                                  "n forced optional names")):
    """Vertex count, forced edges, optional edges; forbidden pairs implicit.

    Pairs are stored as frozensets of (u, v) with u < v, names as a tuple
    or None.  Construction checks the input once: one ValueError lists a
    count that is a bool or no int, a negative count, every edge that is
    not a pair of such ints, loop, out-of-range pair, forced-optional
    overlap and bad name.
    """

    __slots__ = ()

    def __new__(cls, n, forced, optional, names=None):
        names = None if names is None else tuple(names)
        errors = []
        if not _is_int(n) or n < 0:
            errors.append("vertex count %r is not an int >= 0" % (n,))
        # Against a bad count a range check would only repeat its error.
        top = inf if errors else n
        stored = []
        for label, edges in (("forced", forced), ("optional", optional)):
            pairs = set()
            for e in edges:
                try:
                    pairs.add(_vertex_pair(e, top, label + " edge"))
                except ValueError as exc:
                    errors.append(str(exc))
            stored.append(frozenset(pairs))
        forced, optional = stored
        overlap = forced & optional
        if overlap:
            errors.append("forced and optional overlap on %r" % sorted(overlap))
        if names is not None and len(names) != n:
            errors.append("names table has %d entries for %r vertices"
                          % (len(names), n))
        # A name is one token of the `v <id> <role>` line io writes.
        for v, name in enumerate(names or ()):
            if not isinstance(name, str) or name.split() != [name]:
                errors.append("name %r of vertex %d is not one non-empty "
                              "word" % (name, v))
        if errors:
            raise ValueError("invalid instance: "
                             + "; ".join(dict.fromkeys(errors)))
        return super().__new__(cls, n, forced, optional, names)

    def _replace(self, **fields):
        """A copy with `fields` changed, checked like a new instance."""
        return type(self)(**{**self._asdict(), **fields})

    def name(self, v):
        """Role name of vertex v, falling back to its index."""
        return str(v) if self.names is None else self.names[v]

    def forbidden(self):
        return frozenset(self.g2().complement().edges())

    def g1(self):
        """Graph of forced edges."""
        return Graph._make((self.n, _masks(self.n, self.forced)))

    def g2(self):
        """Graph of forced plus optional edges."""
        return Graph._make((self.n, _masks(self.n, self.optional,
                                           self.g1().adj)))

    def realize(self, chosen):
        """Sandwich graph plus the optional pairs `chosen`, either order."""
        chosen = {_vertex_pair(e, self.n, "chosen edge") for e in chosen}
        extra = chosen - self.optional
        if extra:
            raise ValueError("edges %r are not optional" % sorted(extra))
        return Graph._make((self.n, _masks(self.n, chosen, self.g1().adj)))


def complement_instance(inst):
    """Swap forced and forbidden; optional edges stay optional.  The
    complement of a checked instance is well-formed: no second check."""
    return SandwichInstance._make(
        (inst.n, inst.forbidden(), inst.optional, inst.names))


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


def solve(inst, prop, budget=DEFAULT_SOLVE_BUDGET):
    """Exact sandwich search by three-state backtracking.

    Optional edges are in, out, or undecided.  Each node calls `check` once
    on the forced-plus-in graph.  A true verdict ends the search: remaining
    undecided edges are decided out and the node's graph is the completion.
    Otherwise the certificate is the first violating structure (a hole, C5,
    or antihole, in canonical enumeration order), which can only be repaired
    by adding one of its undecided optional non-edges, so the node branches
    on the first such repair pair, in-branch first; with no repair pair left
    the branch is dead.

    `budget` caps search nodes, and a finite one caps each violation search
    at DEFAULT_CHECK_BUDGET steps; None leaves both unlimited.  On exhaustion
    of either the verdict is "BUDGET" with the count of unexplored
    out-branches.  See docs/solver.md for the completeness argument.
    """
    if prop not in PROPERTY_IDS:
        raise ValueError("unknown property id %r" % (prop,))
    check_budget = None if budget is None else DEFAULT_CHECK_BUDGET
    forced_adj = inst.g1().adj

    # A state is its last decision and its parent state, (edge, value,
    # parent), with None the root: siblings share their ancestors' decisions.
    def expand(state):
        decided = {}
        link = state
        while link is not None:
            e, value, link = link
            decided[e] = value
        chosen = [e for e, value in decided.items() if value]
        # Chosen pairs are optional, so read by SandwichInstance already.
        g = Graph._make((inst.n, _masks(inst.n, chosen, forced_adj)))
        verdict, cert = check(g, prop, check_budget)
        if verdict:
            return Completion(frozenset(chosen))
        for e in combinations(sorted(cert.vertices), 2):
            if (not g.has_edge(*e) and e in inst.optional
                    and e not in decided):
                return [(e, True, state), (e, False, state)]
        return []

    return depth_first(None, expand, budget)
