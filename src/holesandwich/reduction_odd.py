"""3-SAT to C5-free (and odd-hole-free) sandwich instances.

The construction makes a sandwich graph C5-free exactly when the formula is
satisfiable, then hands the odd-hole-free case to the complement transform.
Everything is built out of one primitive: a five-cycle of forced edges whose
only non-forbidden chords are optional, so any C5-free sandwich graph must
contain at least one of them.

Gadgets (all five-cycles below are forced, with optional chords (g0,g2) and
(g1,g3), the one placement where the two resulting triangles of the allowed
graph share a single forced edge):

* variable gadget: five-cycle per variable; chord (x0,x2) is the true-chord,
  (x1,x3) the false-chord.  At least one chord appears in every C5-free
  sandwich graph; extraction reads "true iff true-chord present".
* clause cycle p1..p5: optional edges p1p2, p2p3, p3p4 (one per literal,
  together a three-edge optional path) and forced p4p5, p5p1.  All chords are
  forbidden, so some optional edge must be missing from a C5-free sandwich
  graph.
* guard gadget per literal slot q: forced five-cycle (p_q, z_q, t_q, p_{q+1},
  l_q) whose optional chords are the release edge (t_q, l_q) and the clause
  edge (p_q, p_{q+1}): dropping clause edge q requires the release edge.
* two repeater five-cycles per literal occurrence, chained to the variable
  gadget through not-both links.  A link is a five-cycle with two optional
  non-adjacent cycle edges, three forced edges, and one unlabeled connector
  vertex sitting on a forced two-edge path; it forbids both optional edges
  being present together.  The chain

      release ⊗ sA,  sB ⊗ rA,  rB ⊗ (opposite-polarity variable chord)

  (⊗ = not both; each repeater forces sA∨sB, rA∨rB) propagates: release
  present ⇒ the chord of the literal's opposite polarity is absent ⇒ the
  literal is true under true-chord-wins extraction.  A clause whose three
  literals are all false therefore keeps all three clause edges, and the
  clause cycle survives as an induced C5.
"""

from .sandwich import SandwichInstance, complement_instance, normalized_edge

REPEATER_SIDES = ("var", "clause")


class GadgetError(Exception):
    """An assignment or a realized graph the gadgets cannot translate."""


class OddGadgetMap:
    """Vertex roles of a built instance, keyed the way the builder thinks.

    Vertex tuples are in cycle order.  repeater_chords values are
    (outward_chord, inward_chord): outward faces the clause, inward faces the
    variable.  link_cycles holds the three not-both five-cycles per literal
    occurrence, in release-to-variable order.
    """

    def __init__(self, num_vars, clauses):
        self.num_vars, self.clauses = num_vars, clauses
        self.variable_cycle = {}   # var -> 5 vertices
        self.true_chord = {}       # var -> edge
        self.false_chord = {}      # var -> edge
        self.clause_cycle = {}     # clause -> (p1..p5)
        self.clause_edges = {}     # clause -> 3 optional edges
        self.guard_cycle = {}      # (clause, q) -> 5 vertices
        self.release_edge = {}     # (clause, q) -> edge
        self.repeater_cycle = {}   # (clause, q, side) -> 5 vertices
        self.repeater_chords = {}  # (clause, q, side) -> (out, in)
        self.link_cycles = {}      # (clause, q) -> 3 cycles

    def gadget_five_cycles(self):
        """Every five-cycle that can become an induced C5, with the optional
        pairs that can break it.  This is the instance's entire constraint
        system; a census test checks nothing else can form a C5."""
        for i, cyc in self.variable_cycle.items():
            yield cyc, (self.true_chord[i], self.false_chord[i])
        for j, cyc in self.clause_cycle.items():
            yield cyc, self.clause_edges[j]
        for key, cyc in self.guard_cycle.items():
            j, q = key
            yield cyc, (self.release_edge[key], self.clause_edges[j][q - 1])
        for key, cyc in self.repeater_cycle.items():
            yield cyc, self.repeater_chords[key]
        for key, cycles in self.link_cycles.items():
            j, q = key
            lit = self.clauses[j - 1][q - 1]
            var_chord = (self.false_chord[abs(lit)] if lit > 0
                         else self.true_chord[abs(lit)])
            pairs = (
                (self.release_edge[key], self.repeater_chords[(j, q, "clause")][0]),
                (self.repeater_chords[(j, q, "clause")][1],
                 self.repeater_chords[(j, q, "var")][0]),
                (self.repeater_chords[(j, q, "var")][1], var_chord),
            )
            for cyc, pair in zip(cycles, pairs):
                yield cyc, pair


def build_c5_instance(formula):
    """Build the C5-free sandwich instance for a 3-CNF formula.

    Returns (instance, gadget_map).  The instance is satisfiable for
    "c5-free" exactly when the formula is satisfiable, and a satisfying
    sandwich graph's variable chords encode a satisfying assignment.
    """
    names = []
    forced = set()
    optional = set()

    def add_vertex(name):
        names.append(name)
        return len(names) - 1

    def five_cycle(vertices):
        for idx in range(5):
            forced.add(normalized_edge(vertices[idx], vertices[(idx + 1) % 5]))

    gmap = OddGadgetMap(formula.num_vars, formula.clauses)

    for i in range(1, formula.num_vars + 1):
        cyc = tuple(add_vertex("x%d.%d" % (i, k)) for k in range(5))
        five_cycle(cyc)
        gmap.variable_cycle[i] = cyc
        gmap.true_chord[i] = normalized_edge(cyc[0], cyc[2])
        gmap.false_chord[i] = normalized_edge(cyc[1], cyc[3])
        optional.update((gmap.true_chord[i], gmap.false_chord[i]))

    for j, clause in enumerate(formula.clauses, start=1):
        p = tuple(add_vertex("c%d.p%d" % (j, k)) for k in range(1, 6))
        gmap.clause_cycle[j] = p
        # Clause cycle: p1p2/p2p3/p3p4 optional (edge q belongs to literal q),
        # p4p5/p5p1 forced; chords all forbidden.
        clause_edges = tuple(normalized_edge(p[q - 1], p[q]) for q in (1, 2, 3))
        optional.update(clause_edges)
        forced.add(normalized_edge(p[3], p[4]))
        forced.add(normalized_edge(p[4], p[0]))
        gmap.clause_edges[j] = clause_edges

        for q, lit in enumerate(clause, start=1):
            i = abs(lit)
            lv = add_vertex("c%d.l%d" % (j, q))
            tv = add_vertex("c%d.t%d" % (j, q))
            zv = add_vertex("c%d.z%d" % (j, q))
            guard = (p[q - 1], zv, tv, p[q], lv)
            five_cycle(guard)
            release = normalized_edge(tv, lv)
            optional.add(release)
            gmap.guard_cycle[(j, q)] = guard
            gmap.release_edge[(j, q)] = release

            reps = {}
            for side in REPEATER_SIDES:
                cyc = tuple(add_vertex("c%d.q%d.%s%d" % (j, q, side[0], k))
                            for k in range(5))
                five_cycle(cyc)
                outward = normalized_edge(cyc[0], cyc[2])
                inward = normalized_edge(cyc[1], cyc[3])
                optional.update((outward, inward))
                gmap.repeater_cycle[(j, q, side)] = cyc
                gmap.repeater_chords[(j, q, side)] = (outward, inward)
                reps[side] = cyc

            a1, a2, a3 = (add_vertex("c%d.q%d.a%d" % (j, q, k))
                          for k in (1, 2, 3))

            crep, vrep = reps["clause"], reps["var"]
            xcyc = gmap.variable_cycle[i]
            # Chord endpoints the variable-side link attaches to: the
            # false-chord (x1,x3) for a positive literal, the true-chord
            # (x0,x2) for a negative one.
            xa, xb = (xcyc[1], xcyc[3]) if lit > 0 else (xcyc[0], xcyc[2])

            link1 = (tv, lv, a1, crep[2], crep[0])
            link2 = (crep[1], crep[3], a2, vrep[2], vrep[0])
            link3 = (vrep[1], vrep[3], a3, xb, xa)
            for cyc in (link1, link2, link3):
                # Cycle edges 1 and 4 are the optional pair; 2, 3, 5 forced.
                forced.add(normalized_edge(cyc[1], cyc[2]))
                forced.add(normalized_edge(cyc[2], cyc[3]))
                forced.add(normalized_edge(cyc[4], cyc[0]))
            gmap.link_cycles[(j, q)] = (link1, link2, link3)

    inst = SandwichInstance(len(names), forced, optional, names)
    return inst, gmap


def build_odd_hole_free_instance(formula):
    """Odd-hole-free variant: the complement transform of the C5 instance.

    The allowed graph of the C5 instance keeps every triangle-sharing
    invariant of verify.structural_report, which rules out complements of
    long paths and hence all
    antiholes of length 7 or more; the only odd antihole a sandwich graph can
    contain is a C5 (its own complement).  So C5-freeness coincides with
    odd-antihole-freeness there, and the complement transform turns the
    question into odd-hole-freeness of the complemented instance.
    """
    inst, gmap = build_c5_instance(formula)
    return complement_instance(inst), gmap


def completion_from_assignment(gmap, assignment):
    """The optional edges of a C5-free completion of a satisfying assignment.

    Per variable exactly the matching chord goes in.  Per clause the first
    true literal gives up its clause edge and fires its release chain
    (inward repeater chords in, outward out); the other two slots keep their
    clause edges and park their repeaters the opposite way.  Every gadget
    five-cycle ends up broken.  Raises GadgetError if the assignment does
    not satisfy the formula.
    """
    chosen = set()
    for i in range(1, gmap.num_vars + 1):
        chosen.add(gmap.true_chord[i] if assignment[i] else gmap.false_chord[i])
    for j, clause in enumerate(gmap.clauses, start=1):
        satisfied = [q for q, lit in enumerate(clause, start=1)
                     if assignment[abs(lit)] == (lit > 0)]
        if not satisfied:
            raise GadgetError("clause %d is not satisfied" % j)
        q_star = satisfied[0]
        for q in (1, 2, 3):
            c_out, c_in = gmap.repeater_chords[(j, q, "clause")]
            v_out, v_in = gmap.repeater_chords[(j, q, "var")]
            if q == q_star:
                chosen.update((gmap.release_edge[(j, q)], c_in, v_in))
            else:
                chosen.update((gmap.clause_edges[j][q - 1], c_out, v_out))
    return frozenset(chosen)


def extract_assignment(gmap, g):
    """Read the assignment off a realized sandwich graph's variable chords.

    A variable is true iff its true-chord is present (true-chord wins when
    both chords are).  Raises GadgetError naming the variable if some gadget
    has neither chord.
    """
    assignment = {}
    for i in range(1, gmap.num_vars + 1):
        t = gmap.true_chord[i]
        f = gmap.false_chord[i]
        t_in = g.has_edge(*t)
        f_in = g.has_edge(*f)
        if not (t_in or f_in):
            raise GadgetError("variable %d five-cycle has no chord" % i)
        assignment[i] = t_in
    return assignment
