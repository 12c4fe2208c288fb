"""3-SAT to even-hole-free sandwich instances.

Per variable there are two shoulder vertices (one per polarity); per
occurrence of a variable in a clause there are two knee vertices.  Each
incidence contributes a forced six-cycle head, positive shoulder, negative
knee, foot, positive knee, negative shoulder; each clause adds a forced
3-sun: a triangle on its active knees (the knees of the literals as written)
with pendant forced edges to the inactive knees.  A four-vertex forced path
head-W1-W2-foot, with every other pair touching W1 or W2 forbidden, turns
each incidence six-cycle into an even-hole obligation: the six-hole (head,
W1, W2, foot, knee, shoulder) closes through any forced or present
knee-shoulder edge and can only be broken by one of the two optional chords
head-knee or foot-shoulder.  Those chords come in exactly two bundles per
incidence (the positive and negative orientation), uniform per variable, and
a clause whose three literals all get the wrong orientation forces a chain of
completions ending in an induced four-hole on two active and two inactive
knees.  Satisfying assignments instead extend to an even-hole-free sandwich
graph by cliquing the true shoulders and true knees and joining every true
shoulder to every knee.
"""

import itertools
from collections import namedtuple

from .graph import Cycle
from .recognition import DEFAULT_CHECK_BUDGET, check
from .sandwich import (DEFAULT_SOLVE_BUDGET, Completion, SandwichInstance,
                       depth_first, normalized_edge)

IN, OUT, UND = 1, 0, 2

POSITIVE, NEGATIVE = "positive", "negative"


class OrientationError(Exception):
    """A sandwich graph whose orientations do not define an assignment."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MixedOrientationError(OrientationError):
    """Some variable carries both orientations; witness is the four-hole
    (head, positive shoulder, foot, negative shoulder) in cycle order."""


class IncompleteOrientationError(OrientationError):
    """Some incidence carries neither orientation; witness is the
    (variable, clause) pair."""


class EvenGadgetMap:
    """Vertex roles of a built instance.

    shoulder is keyed by signed variable (+i positive, -i negative), knee by
    (signed variable, clause index).  incidences lists (variable, clause)
    pairs in construction order; clause indices are 1-based.  instance is a
    back-reference to the built SandwichInstance.  build_even_instance fills
    all four in.
    """

    def __init__(self, num_vars, clauses, head, foot, w1, w2):
        self.num_vars, self.clauses = num_vars, clauses
        self.head, self.foot, self.w1, self.w2 = head, foot, w1, w2
        self.shoulder, self.knee = {}, {}
        self.incidences, self.instance = (), None

    def orientation_edges(self, var, clause, positive):
        """The three optional edges of one orientation of one incidence."""
        lit = var if positive else -var
        k = self.knee[(lit, clause)]
        s = self.shoulder[lit]
        return (normalized_edge(self.head, k),
                normalized_edge(k, s),
                normalized_edge(s, self.foot))

    def clause_knees(self, clause):
        """(active, inactive) knee tuples of a clause, in literal order."""
        lits = self.clauses[clause - 1]
        active = tuple(self.knee[(lit, clause)] for lit in lits)
        inactive = tuple(self.knee[(-lit, clause)] for lit in lits)
        return active, inactive

    def variable_incidences(self, var):
        return tuple(j for v, j in self.incidences if v == var)

    def knees(self):
        return tuple(sorted(self.knee.values()))

    def shoulders(self):
        return tuple(sorted(self.shoulder.values()))


def build_even_instance(formula):
    """Build the even-hole-free sandwich instance for a 3-CNF formula.

    Returns (instance, gadget_map).  The instance has an even-hole-free
    sandwich graph exactly when the formula is satisfiable.
    """
    names = ["H", "F", "W1", "W2"]
    gmap = EvenGadgetMap(formula.num_vars, formula.clauses,
                         head=0, foot=1, w1=2, w2=3)

    def lit_name(lit):
        return ("x%d" if lit > 0 else "!x%d") % abs(lit)

    for i in range(1, formula.num_vars + 1):
        for lit in (i, -i):
            gmap.shoulder[lit] = len(names)
            names.append("S_" + lit_name(lit))

    incidences = []
    for j, clause in enumerate(formula.clauses, start=1):
        for lit in clause:
            i = abs(lit)
            for signed in (i, -i):
                gmap.knee[(signed, j)] = len(names)
                names.append("K_%s.c%d" % (lit_name(signed), j))
            incidences.append((i, j))
    gmap.incidences = tuple(incidences)

    forced = set()
    for i, j in incidences:
        six = (gmap.head, gmap.shoulder[i], gmap.knee[(-i, j)],
               gmap.foot, gmap.knee[(i, j)], gmap.shoulder[-i])
        for idx in range(6):
            forced.add(normalized_edge(six[idx], six[(idx + 1) % 6]))
    for j, clause in enumerate(formula.clauses, start=1):
        active, inactive = gmap.clause_knees(j)
        for q in range(3):
            forced.add(normalized_edge(active[q], active[(q + 1) % 3]))
            # Pendants: inactive knee of slot q+1 hangs off active knee q.
            forced.add(normalized_edge(inactive[(q + 1) % 3], active[q]))
    forced.add(normalized_edge(gmap.head, gmap.w1))
    forced.add(normalized_edge(gmap.w1, gmap.w2))
    forced.add(normalized_edge(gmap.w2, gmap.foot))

    n = len(names)
    forbidden = {normalized_edge(gmap.head, gmap.foot)}
    for i in range(1, formula.num_vars + 1):
        forbidden.add(normalized_edge(gmap.shoulder[i], gmap.shoulder[-i]))
    for i, j in incidences:
        forbidden.add(normalized_edge(gmap.knee[(i, j)], gmap.knee[(-i, j)]))
    for w in (gmap.w1, gmap.w2):
        for v in range(n):
            if v != w:
                e = normalized_edge(w, v)
                if e not in forced:
                    forbidden.add(e)

    optional = set(itertools.combinations(range(n), 2)) - forced - forbidden

    inst = SandwichInstance.build(n, forced, optional, names)
    gmap.instance = inst
    return inst, gmap


def completion_from_assignment(gmap, assignment):
    """The optional edges of the canonical completion of an assignment.

    Per incidence the orientation bundle matching the assignment, then a
    clique on true shoulders, a clique on true knees, and every
    true-shoulder-knee pair (pairs that are already forced are dropped).  A
    variable with no incidence also gets its foot-true-shoulder edge, which
    breaks the four-holes (foot, knee, true shoulder, knee') its
    shoulder-knee edges would otherwise close.  The realized graph is
    even-hole-free exactly when the assignment satisfies the formula; a
    falsified clause leaves a four-hole on two of its active and two of its
    inactive knees.
    """
    if set(assignment) != set(range(1, gmap.num_vars + 1)):
        raise ValueError("assignment must cover variables 1..%d"
                         % gmap.num_vars)
    edges = set()
    for i, j in gmap.incidences:
        edges.update(gmap.orientation_edges(i, j, assignment[i]))
    true_shoulders = [gmap.shoulder[i if assignment[i] else -i]
                      for i in range(1, gmap.num_vars + 1)]
    true_knees = [gmap.knee[(i if assignment[i] else -i, j)]
                  for i, j in gmap.incidences]
    for clique in (true_shoulders, true_knees):
        edges.update(itertools.combinations(sorted(clique), 2))
    for s in true_shoulders:
        for k in gmap.knees():
            edges.add(normalized_edge(s, k))
    for i in range(1, gmap.num_vars + 1):
        if not gmap.variable_incidences(i):
            edges.add(normalized_edge(gmap.foot, true_shoulders[i - 1]))
    return frozenset(edges & gmap.instance.optional)


def read_orientation(gmap, g, var, clause):
    """Orientation of one incidence in a realized graph.

    positive/negative when exactly that bundle of three edges is fully
    present, both/none otherwise.
    """
    pos = all(g.has_edge(*e) for e in gmap.orientation_edges(var, clause, True))
    neg = all(g.has_edge(*e) for e in gmap.orientation_edges(var, clause, False))
    if pos and neg:
        return "both"
    if pos:
        return POSITIVE
    if neg:
        return NEGATIVE
    return "none"


def extract_assignment(gmap, g):
    """Read the assignment off a realized sandwich graph's orientations.

    All incidences of a variable must carry the same orientation.  Raises
    MixedOrientationError (witness: the four-hole head, S_X, foot, S_X-bar)
    when both polarities occur, IncompleteOrientationError (witness: the
    (variable, clause) pair) when an incidence has neither.  Variables with
    no occurrences are read off the true-shoulder clique against the first
    oriented variable's shoulder, defaulting to false when the instance has
    no clauses.
    """
    assignment = {}
    anchor = None
    for i in range(1, gmap.num_vars + 1):
        incidences = gmap.variable_incidences(i)
        if not incidences:
            continue
        status = {j: read_orientation(gmap, g, i, j) for j in incidences}
        statuses = set(status.values())
        if "both" in statuses or (POSITIVE in statuses and NEGATIVE in statuses):
            witness = (gmap.head, gmap.shoulder[i], gmap.foot,
                       gmap.shoulder[-i])
            raise MixedOrientationError(
                "variable %d carries both orientations" % i, witness=witness)
        if "none" in statuses:
            j = next(j for j in incidences if status[j] == "none")
            raise IncompleteOrientationError(
                "incidence (%d, clause %d) has no orientation" % (i, j),
                witness=(i, j))
        assignment[i] = statuses == {POSITIVE}
        if anchor is None:
            anchor = i
    for i in range(1, gmap.num_vars + 1):
        if i in assignment:
            continue
        if anchor is None:
            assignment[i] = False
        else:
            t = gmap.shoulder[anchor if assignment[anchor] else -anchor]
            assignment[i] = g.has_edge(gmap.shoulder[i], t)
    return assignment


class PropagationResult(namedtuple("PropagationResult",
                                   "status forced pending certificate",
                                   defaults=(None,))):
    """Outcome of orientation propagation.

    status is "ok" or "contradiction"; forced maps optional edges to the
    decisions derived beyond the input ones; pending lists the unresolved
    at-least-one constraints (head-knee edge, foot-shoulder edge); on
    contradiction, certificate is an even hole (in cycle order) induced in
    the graph of forced plus decided-in edges.
    """

    __slots__ = ()


def propagate_orientations(inst, gmap, decided):
    """Close a partial decision under the construction's implication rules.

    Two rule families, applied in synchronous rounds to a fixpoint:

    * four-cycle completion, over every 4-subset avoiding W1/W2 and each of
      its three pairings: a present 4-cycle with both diagonals excluded is a
      contradiction; with one diagonal excluded the other is forced in; a
      present 3-path whose closing edge is undecided and whose diagonals are
      both excluded forces the closing edge out.  Each 4-subset's six pair
      states are read once and shared by its three pairings;
    * six-hole rule: a present knee-shoulder edge (kappa, sigma) closes the
      six-cycle through W1/W2, so head-kappa or foot-sigma must be in; with
      one out the other is forced, with both out the six-hole itself is the
      contradiction certificate.

    Contradictions found in the same round are ranked by (length, sorted
    vertex tuple) and the smallest is reported.  Decisions derived in rounds
    before the contradiction are reported in forced either way.
    """
    n = inst.n
    # Pair states in a flat n*n table, both orders of each pair kept equal.
    state = [OUT] * (n * n)

    def put(u, v, val):
        state[u * n + v] = state[v * n + u] = val

    for u, v in inst.forced:
        put(u, v, IN)
    for u, v in inst.optional:
        put(u, v, UND)
    for e, val in decided.items():
        e = normalized_edge(*e)
        if e in inst.forced:
            if not val:
                raise ValueError("decision excludes forced edge %r" % (e,))
            continue
        if e not in inst.optional:
            if val:
                raise ValueError("decision includes forbidden edge %r" % (e,))
            continue
        put(*e, IN if val else OUT)

    core = [v for v in range(n) if v not in (gmap.w1, gmap.w2)]
    knees = gmap.knees()
    shoulders = gmap.shoulders()
    head, foot = gmap.head, gmap.foot
    forced_log = {}

    while True:
        batch = {}
        contradictions = []
        pending = []

        def force(u, v, val):
            if state[u * n + v] != UND:
                return
            e = normalized_edge(u, v)
            if e in batch and batch[e] != val:
                # Conflicting derivations: keep the in-decision; the
                # out-derivation's structure then completes to a four-cycle
                # caught as a contradiction next round.
                batch[e] = True
                return
            batch[e] = val

        def four_cycle(a, b, c, d, ab, bc, cd, da, ac, bd):
            sides = (ab, bc, cd, da)
            present = sides.count(IN)
            if present == 4:
                if ac == OUT and bd == OUT:
                    contradictions.append(Cycle((a, b, c, d)))
                elif ac == OUT and bd == UND:
                    force(b, d, True)
                elif bd == OUT and ac == UND:
                    force(a, c, True)
            elif (present == 3 and UND in sides
                  and ac == OUT and bd == OUT):
                u, v = ((a, b), (b, c), (c, d), (d, a))[sides.index(UND)]
                force(u, v, False)

        # force only writes batch, so the six states read here are the
        # round's states for all three pairings.
        for a, b, c, d in itertools.combinations(core, 4):
            row_a, row_b = a * n, b * n
            ab, ac, ad = state[row_a + b], state[row_a + c], state[row_a + d]
            bc, bd, cd = state[row_b + c], state[row_b + d], state[c * n + d]
            four_cycle(a, b, c, d, ab, bc, cd, ad, ac, bd)
            four_cycle(a, b, d, c, ab, bd, cd, ac, ad, bc)
            four_cycle(a, c, b, d, ac, bc, bd, ad, ab, cd)

        for k in knees:
            for s in shoulders:
                if state[k * n + s] != IN:
                    continue
                hk = state[head * n + k]
                fs = state[foot * n + s]
                if hk == IN or fs == IN:
                    continue
                if hk == OUT and fs == OUT:
                    contradictions.append(Cycle(
                        (head, gmap.w1, gmap.w2, foot, k, s)))
                elif hk == OUT:
                    force(foot, s, True)
                elif fs == OUT:
                    force(head, k, True)
                else:
                    pending.append((normalized_edge(head, k),
                                    normalized_edge(foot, s)))

        if contradictions:
            cert = min(contradictions,
                       key=lambda c: (len(c.vertices), tuple(sorted(c.vertices))))
            return PropagationResult("contradiction", forced_log,
                                     tuple(sorted(set(pending))), cert)
        if not batch:
            return PropagationResult("ok", forced_log,
                                     tuple(sorted(set(pending))))
        for e, val in batch.items():
            put(*e, IN if val else OUT)
            forced_log[e] = val


def solve_with_orientations(formula, inst, gmap,
                            budget=DEFAULT_SOLVE_BUDGET,
                            check_budget=DEFAULT_CHECK_BUDGET):
    """Exact even-hole-free sandwich search by orientation branching.

    Depth-first over variables; a state is a pair (decisions, assignment)
    and each expanded state is one node.  A node propagates its decisions
    and splits on the optional edge foot-S_x of the next variable x, in
    (x true) before out, skipping a side propagation has decided the other
    way; a leaf checks the canonical completion of its assignment.  A
    failing leaf must propagate to a contradiction, and raises
    AssertionError when it does not or when its assignment satisfies the
    formula.  The split is exhaustive, so no SAT leaf means an exact UNSAT
    (docs/solver.md).  `budget` caps nodes and `check_budget` each
    recognition search; None means unlimited.
    """
    def expand(state):
        decided, assignment = state
        var = len(assignment) + 1
        leaf = var > formula.num_vars
        if leaf:
            chosen = completion_from_assignment(gmap, assignment)
            g = gmap.instance.realize(chosen)
            if check(g, "even-hole-free", budget=check_budget)[0]:
                return Completion(frozenset(e for e in inst.optional
                                            if g.has_edge(*e)))
            if formula.satisfied_by(assignment):
                raise AssertionError(
                    "canonical completion of satisfying assignment %r of %r "
                    "is not even-hole-free" % (assignment, formula))
        result = propagate_orientations(inst, gmap, decided)
        if result.status == "contradiction":
            return []
        if leaf:
            raise AssertionError(
                "propagation does not refute falsifying assignment %r of %r"
                % (assignment, formula))
        merged = {**decided, **result.forced}
        e = normalized_edge(gmap.foot, gmap.shoulder[var])
        return [({**merged, e: side}, {**assignment, var: side})
                for side in (True, False) if merged.get(e, side) == side]

    return depth_first(({}, {}), expand, budget)
