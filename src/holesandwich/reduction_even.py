"""3-SAT to even-hole-free sandwich instances.

Per variable there is a polarity pair of shoulder vertices, and per
incidence (occurrence of a variable in a clause) a polarity pair of knee
vertices; the two vertices of a pair are never adjacent.  Each incidence
contributes a forced six-cycle head, positive shoulder, negative knee, foot,
positive knee, negative shoulder; each clause adds a forced 3-sun: a
triangle on its active knees (the knees of the literals as written) with
pendant forced edges to the inactive knees.  A four-vertex forced path
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

from .graph import _vertex_pair, canonical_rotation
from .recognition import DEFAULT_CHECK_BUDGET, check
from .reduction_odd import GadgetError
from .sandwich import (DEFAULT_SOLVE_BUDGET, Completion, SandwichInstance,
                       depth_first, normalized_edge)

IN, OUT, UND = 1, 0, 2

# The fixed role vertices; every other vertex belongs to a polarity pair.
HEAD, FOOT, W1, W2 = 0, 1, 2, 3


class EvenGadgetMap(namedtuple("EvenGadgetMap",
                               "formula shoulder knee bundles instance")):
    """Vertex roles of a built instance and the formula they translate.

    The fixed roles are the module constants HEAD, FOOT, W1 and W2, the
    vertices 0-3.  shoulder is keyed by signed variable (+i positive, -i
    negative), knee by (signed variable, clause index), with 1-based clause
    indices.  bundles maps each incidence (variable, clause), in
    construction order, to its (negative, positive) orientation bundles of
    three optional edges each, so a truth value indexes it.  instance is
    the built SandwichInstance.
    """

    __slots__ = ()

    def clause_knees(self, clause):
        """(active, inactive) knee tuples of a clause, in literal order."""
        lits = self.formula.clauses[clause - 1]
        active = tuple(self.knee[(lit, clause)] for lit in lits)
        inactive = tuple(self.knee[(-lit, clause)] for lit in lits)
        return active, inactive


def build_even_instance(formula):
    """Build the even-hole-free sandwich instance for a 3-CNF formula.

    Returns (instance, gadget_map).  The instance has an even-hole-free
    sandwich graph exactly when the formula is satisfiable.
    """
    gmap = EvenGadgetMap(formula, {}, {}, {}, None)
    names = ["H", "F", "W1", "W2"]
    forced = {(HEAD, W1), (W1, W2), (W2, FOOT)}
    forbidden = {(HEAD, FOOT)}

    def polarity_pair(label, i):
        # The x_i and !x_i vertices of one role, named label.format(literal)
        # and joined by a forbidden pair.
        pos, neg = len(names), len(names) + 1
        names.extend(label.format(lit) for lit in ("x%d" % i, "!x%d" % i))
        forbidden.add((pos, neg))
        return pos, neg

    def incidence(i, j):
        # Variable i's knee pair in clause j, its forced six-cycle and its
        # two orientation bundles, the chords that can break that cycle.
        k_pos, k_neg = polarity_pair("K_{}.c%d" % j, i)
        gmap.knee[(i, j)], gmap.knee[(-i, j)] = k_pos, k_neg
        s_pos, s_neg = gmap.shoulder[i], gmap.shoulder[-i]
        six = (HEAD, s_pos, k_neg, FOOT, k_pos, s_neg)
        forced.update(normalized_edge(six[k - 1], six[k]) for k in range(6))
        gmap.bundles[(i, j)] = tuple(
            (normalized_edge(HEAD, k), normalized_edge(k, s),
             normalized_edge(s, FOOT))
            for k, s in ((k_neg, s_neg), (k_pos, s_pos)))

    for i in range(1, formula.num_vars + 1):
        gmap.shoulder[i], gmap.shoulder[-i] = polarity_pair("S_{}", i)

    for j, clause in enumerate(formula.clauses, start=1):
        for lit in clause:
            incidence(abs(lit), j)
        active, inactive = gmap.clause_knees(j)
        for q in range(3):
            forced.add(normalized_edge(active[q], active[(q + 1) % 3]))
            # Pendants: inactive knee of slot q+1 hangs off active knee q.
            forced.add(normalized_edge(inactive[(q + 1) % 3], active[q]))

    n = len(names)
    # W1 and W2 are adjacent to nothing but their path neighbours.
    core = [v for v in range(n) if v not in (W1, W2)]
    optional = set(itertools.combinations(core, 2)) - forced - forbidden

    inst = SandwichInstance(n, forced, optional, names)
    return inst, gmap._replace(instance=inst)


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
    variables = range(1, gmap.formula.num_vars + 1)
    if set(assignment) != set(variables):
        raise ValueError("assignment must cover variables 1..%d"
                         % len(variables))
    edges = set()
    for (i, _), bundles in gmap.bundles.items():
        edges.update(bundles[assignment[i]])
    true_shoulders = [gmap.shoulder[i if assignment[i] else -i]
                      for i in variables]
    true_knees = [gmap.knee[(i if assignment[i] else -i, j)]
                  for i, j in gmap.bundles]
    for clique in (true_shoulders, true_knees):
        edges.update(itertools.combinations(sorted(clique), 2))
    for s in true_shoulders:
        edges.update(normalized_edge(s, k) for k in gmap.knee.values())
    unused = set(variables) - {i for i, _ in gmap.bundles}
    edges.update(normalized_edge(FOOT, true_shoulders[i - 1]) for i in unused)
    return frozenset(edges & gmap.instance.optional)


def extract_assignment(gmap, g):
    """Read the assignment off a realized sandwich graph's orientations.

    Each incidence reads as the pair (negative, positive) of whether that
    bundle of `gmap.bundles` is fully present.  All incidences of a
    variable must carry the same one orientation.  Raises GadgetError
    for the lowest variable at fault: naming the variable when both
    orientations occur among its incidences, else naming its first
    incidence that carries neither.  Variables with no occurrences are read
    off the true-shoulder clique against the first oriented variable's
    shoulder, defaulting to false when the instance has no clauses.
    """
    read = {}
    for (i, j), bundles in gmap.bundles.items():
        read.setdefault(i, {})[j] = tuple(
            all(g.has_edge(*e) for e in bundle) for bundle in bundles)
    assignment = {}
    for i in sorted(read):
        neg, pos = (any(pair[k] for pair in read[i].values()) for k in (0, 1))
        if neg and pos:
            raise GadgetError("variable %d carries both orientations" % i)
        for j, pair in read[i].items():
            if pair == (False, False):
                raise GadgetError(
                    "incidence (%d, clause %d) has no orientation" % (i, j))
        assignment[i] = pos
    if not assignment:
        return dict.fromkeys(range(1, gmap.formula.num_vars + 1), False)
    anchor = min(assignment)
    true_shoulder = gmap.shoulder[anchor if assignment[anchor] else -anchor]
    for i in range(1, gmap.formula.num_vars + 1):
        if i not in assignment:
            assignment[i] = g.has_edge(gmap.shoulder[i], true_shoulder)
    return assignment


class PropagationResult(namedtuple("PropagationResult", "forced certificate",
                                   defaults=(None,))):
    """Outcome of orientation propagation.

    forced maps optional edges to the decisions derived beyond the input
    ones.  certificate is None at a fixpoint; a contradiction is its
    certificate, an even hole induced in the graph of forced plus
    decided-in edges, as a vertex tuple in canonical order
    (`graph.canonical_rotation`).
    """

    __slots__ = ()


def propagate_orientations(inst, gmap, decided):
    """Close a partial decision under the construction's one implication rule.

    The rule is unit propagation on a four-cycle's repair clause, "some side
    out or some diagonal in", applied in synchronous rounds to a fixpoint:
    with all four sides present, both diagonals out is a contradiction and
    one diagonal out forces the other in; with three sides present, the
    fourth undecided and both diagonals out, the fourth is forced out.  It
    runs on the three pairings of every 4-subset avoiding W1/W2, whose six
    pair states are read once per round, and on each six-hole (head, W1,
    W2, foot, k, s) whose k-s and head-s are both in, as the four-cycle
    head-foot-k-s through the W path: W1 and W2 have no chords and foot-k
    is forced, so head-k or foot-s must be in.  A six-hole's certificate is
    the six-hole itself.

    Contradictions found in the same round are ranked by (length, sorted
    vertex tuple) and the smallest is reported.  Decisions derived in rounds
    before the contradiction are reported in forced either way.  Raises
    ValueError for a decision key that is not a pair of distinct vertices
    of `inst`, and for a decision against a forced or forbidden pair.
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
    for key, val in decided.items():
        e = _vertex_pair(key, n, "decision key")
        if e in inst.optional:
            put(*e, IN if val else OUT)
        elif (e in inst.forced) != bool(val):
            raise ValueError("decision %s edge %r" % (
                "includes forbidden" if val else "excludes forced", e))

    core = [v for v in range(n) if v not in (W1, W2)]
    knees = sorted(gmap.knee.values())
    shoulders = sorted(gmap.shoulder.values())
    forced_log = {}

    while True:
        batch = {}
        contradictions = []

        def force(u, v, val):
            # Every caller has seen the pair undecided this round.
            e = normalized_edge(u, v)
            if e in batch and batch[e] != val:
                # Conflicting derivations: keep the in-decision; the
                # out-derivation's structure then completes to a four-cycle
                # caught as a contradiction next round.
                batch[e] = True
                return
            batch[e] = val

        def four_cycle(a, b, c, d, ab, bc, cd, da, ac, bd, hole=None):
            # hole: the hole the cycle a-b-c-d stands for, if not itself.
            sides = (ab, bc, cd, da)
            present = sides.count(IN)
            if present == 4:
                if ac == OUT and bd == OUT:
                    contradictions.append(hole or (a, b, c, d))
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

        # The six-hole through W1/W2 is the four-cycle head-foot-k-s with
        # head-foot present; foot-k is always forced.
        for k in knees:
            for s in shoulders:
                if state[k * n + s] == IN and state[HEAD * n + s] == IN:
                    four_cycle(HEAD, FOOT, k, s, IN, IN, IN, IN,
                               state[HEAD * n + k], state[FOOT * n + s],
                               (HEAD, W1, W2, FOOT, k, s))

        if contradictions:
            cert = min(contradictions, key=lambda c: (len(c), sorted(c)))
            return PropagationResult(forced_log, canonical_rotation(cert))
        if not batch:
            return PropagationResult(forced_log)
        for e, val in batch.items():
            put(*e, IN if val else OUT)
            forced_log[e] = val


def solve_with_orientations(formula, inst, gmap, budget=DEFAULT_SOLVE_BUDGET):
    """Exact even-hole-free sandwich search by orientation branching.

    Depth-first over variables; a state is a pair (decisions, assignment)
    and each expanded state is one node.  A node propagates its decisions
    and splits on the pair foot-S_x of the next variable x, in (x true)
    before out, skipping a side that propagation or the instance has decided
    the other way; a leaf realizes and checks on `inst` the canonical
    completion of its assignment, cut to the pairs optional in `inst`.  A
    failing leaf must propagate to a contradiction, and raises
    AssertionError when it does not or when its assignment satisfies the
    formula.  The split is exhaustive, so no SAT leaf means an exact UNSAT
    on `gmap.instance` and on instances that force whole orientation
    bundles; on any other instance the search may raise (docs/solver.md).
    `budget` caps nodes, and a finite one caps each leaf's recognition
    search at DEFAULT_CHECK_BUDGET steps; None leaves both unlimited.
    Raises ValueError unless `formula == gmap.formula`.
    """
    if formula != gmap.formula:
        raise ValueError("formula %r is not gmap's" % (formula,))
    check_budget = None if budget is None else DEFAULT_CHECK_BUDGET

    def expand(state):
        decided, assignment = state
        var = len(assignment) + 1
        leaf = var > formula.num_vars
        if leaf:
            chosen = (completion_from_assignment(gmap, assignment)
                      & inst.optional)
            if check(inst.realize(chosen), "even-hole-free",
                     budget=check_budget)[0]:
                return Completion(chosen)
            if formula.satisfied_by(assignment):
                raise AssertionError(
                    "canonical completion of satisfying assignment %r of %r "
                    "is not even-hole-free" % (assignment, formula))
        result = propagate_orientations(inst, gmap, decided)
        if result.certificate is not None:
            return []
        if leaf:
            raise AssertionError(
                "propagation does not refute falsifying assignment %r of %r"
                % (assignment, formula))
        merged = {**decided, **result.forced}
        e = normalized_edge(FOOT, gmap.shoulder[var])
        if e not in inst.optional:
            merged[e] = e in inst.forced
        return [({**merged, e: side}, {**assignment, var: side})
                for side in (True, False) if merged.get(e, side) == side]

    return depth_first(({}, {}), expand, budget)
