"""3-SAT to C5-free (and odd-hole-free) sandwich instances.

The construction makes a sandwich graph C5-free exactly when the formula is
satisfiable, then hands the odd-hole-free case to the complement transform.
Everything is built out of one primitive, `gadget`: a five-cycle whose edges
are forced except its breakers, the optional pairs that can break it.  The
breakers are chords (variable, guard, repeater), which a C5-free sandwich
graph must add one of, or cycle edges (clause, links), which it must omit
one of; every other chord is forbidden.  Two chords are placed as (g0,g2)
and (g1,g3), the one placement where the two resulting triangles of the
allowed graph share a single forced edge.

Gadgets:

* variable gadget: five-cycle per variable; chord (x0,x2) is the true-chord,
  (x1,x3) the false-chord.  At least one chord appears in every C5-free
  sandwich graph; extraction reads "true iff true-chord present".
* clause cycle p1..p5: optional edges p1p2, p2p3, p3p4 (one per literal,
  together a three-edge optional path) and forced p4p5, p5p1.  Some optional
  edge must be missing from a C5-free sandwich graph.
* guard gadget per literal slot q: five-cycle (p_q, z_q, t_q, p_{q+1}, l_q)
  whose breakers are the release edge (t_q, l_q) and the clause edge
  (p_q, p_{q+1}): dropping clause edge q requires the release edge.
* two repeater five-cycles per literal occurrence, chained to the variable
  gadget through not-both links.  A link is a five-cycle whose breakers are
  two non-adjacent cycle edges, with one unlabeled connector vertex sitting
  on a forced two-edge path; it forbids both optional edges being present
  together.  The chain

      release ⊗ sA,  sB ⊗ rA,  rB ⊗ (opposite-polarity variable chord)

  (⊗ = not both; each repeater forces sA∨sB, rA∨rB) propagates: release
  present ⇒ the chord of the literal's opposite polarity is absent ⇒ the
  literal is true under true-chord-wins extraction.  A clause whose three
  literals are all false therefore keeps all three clause edges, and the
  clause cycle survives as an induced C5.
"""

from collections import namedtuple

from .sandwich import SandwichInstance, complement_instance, normalized_edge


class GadgetError(Exception):
    """An assignment or a realized graph the gadgets cannot translate."""


class OddGadgetMap(namedtuple("OddGadgetMap",
                              "formula complemented true_chord false_chord "
                              "clause_edges release_edge repeater_chords "
                              "five_cycles")):
    """Vertex roles of a built instance, keyed the way the builder thinks,
    and the formula they translate.

    true_chord and false_chord map a variable to an edge, clause_edges a
    clause to its 3 optional edges, release_edge (clause, q) to an edge and
    repeater_chords (clause, q, side) to (outward_chord, inward_chord):
    outward faces the clause, inward faces the variable.  five_cycles lists
    every gadget five-cycle once, in build order, as (vertices in cycle
    order, breakers): with its breakers it is the instance's entire
    constraint system, and verify.five_cycle_census checks that no other
    five-cycle can become induced.  complemented is true only on the map of
    build_odd_hole_free_instance, whose instance is the complement of the
    C5 instance the roles were built in.
    """

    __slots__ = ()


def build_c5_instance(formula):
    """Build the C5-free sandwich instance for a 3-CNF formula.

    Returns (instance, gadget_map).  The instance is satisfiable for
    "c5-free" exactly when the formula is satisfiable, and a satisfying
    sandwich graph's variable chords encode a satisfying assignment.
    """
    names = []
    forced = set()
    optional = set()
    gmap = OddGadgetMap(formula, False, {}, {}, {}, {}, {}, [])

    def add_vertex(name):
        names.append(name)
        return len(names) - 1

    def gadget(cycle, *breakers):
        # The primitive: `cycle`'s edges are forced except its breakers,
        # given as position pairs, which are optional.
        pairs = tuple(normalized_edge(cycle[a], cycle[b]) for a, b in breakers)
        optional.update(pairs)
        forced.update(e for e in (normalized_edge(cycle[k - 1], cycle[k])
                                  for k in range(5)) if e not in pairs)
        gmap.five_cycles.append((cycle, pairs))
        return pairs

    for i in range(1, formula.num_vars + 1):
        cyc = tuple(add_vertex("x%d.%d" % (i, k)) for k in range(5))
        gmap.true_chord[i], gmap.false_chord[i] = gadget(cyc, (0, 2), (1, 3))

    for j, clause in enumerate(formula.clauses, start=1):
        p = tuple(add_vertex("c%d.p%d" % (j, k)) for k in range(1, 6))
        # Edge p_q p_{q+1} belongs to literal q.
        gmap.clause_edges[j] = gadget(p, (0, 1), (1, 2), (2, 3))

        for q, lit in enumerate(clause, start=1):
            lv = add_vertex("c%d.l%d" % (j, q))
            tv = add_vertex("c%d.t%d" % (j, q))
            zv = add_vertex("c%d.z%d" % (j, q))
            gmap.release_edge[(j, q)], _ = gadget(
                (p[q - 1], zv, tv, p[q], lv), (2, 4), (0, 3))

            reps = {}
            for side in ("var", "clause"):
                cyc = tuple(add_vertex("c%d.q%d.%s%d" % (j, q, side[0], k))
                            for k in range(5))
                gmap.repeater_chords[(j, q, side)] = gadget(cyc, (0, 2), (1, 3))
                reps[side] = cyc

            a1, a2, a3 = (add_vertex("c%d.q%d.a%d" % (j, q, k))
                          for k in (1, 2, 3))
            crep, vrep = reps["clause"], reps["var"]
            # The variable-side link attaches to the chord of the opposite
            # polarity: the false-chord for a positive literal, the
            # true-chord for a negative one.
            xa, xb = (gmap.false_chord if lit > 0 else gmap.true_chord)[abs(lit)]
            # Not-both links: cycle edges 0-1 and 3-4 are the breakers.
            for link in ((tv, lv, a1, crep[2], crep[0]),
                         (crep[1], crep[3], a2, vrep[2], vrep[0]),
                         (vrep[1], vrep[3], a3, xb, xa)):
                gadget(link, (0, 1), (3, 4))

    inst = SandwichInstance(len(names), forced, optional, names)
    return inst, gmap


def build_odd_hole_free_instance(formula):
    """Odd-hole-free variant: the complement transform of the C5 instance.

    The complement of C_k is (k-3)-regular, so no subgraph of a graph of
    degeneracy d holds an antihole longer than d + 3.  The C5 instance's
    allowed graph has degeneracy 2 (`verify.degeneracy_order` certifies
    it), so a sandwich graph's only possible odd antihole is a C5.  There
    C5-freeness is odd-antihole-freeness, and the complement transform
    turns it into odd-hole-freeness of the complemented instance, which
    the returned map, marked complemented, translates.
    """
    inst, gmap = build_c5_instance(formula)
    return complement_instance(inst), gmap._replace(complemented=True)


def completion_from_assignment(gmap, assignment):
    """The optional edges of a C5-free completion of a satisfying assignment.

    Per variable exactly the matching chord goes in.  Per clause the first
    true literal gives up its clause edge and fires its release chain
    (inward repeater chords in, outward out); the other two slots keep their
    clause edges and park their repeaters the opposite way.  Every gadget
    five-cycle ends up broken.  On a complemented map the completion is the
    other optional pairs, whose sandwich graph is the complement of that
    C5-free one.  Raises ValueError unless the assignment covers exactly
    variables 1..n, and GadgetError if it does not satisfy the formula.
    """
    num_vars, clauses = gmap.formula
    if set(assignment) != set(range(1, num_vars + 1)):
        raise ValueError("assignment must cover variables 1..%d" % num_vars)
    chosen = set()
    for i in range(1, num_vars + 1):
        chosen.add(gmap.true_chord[i] if assignment[i] else gmap.false_chord[i])
    for j, clause in enumerate(clauses, start=1):
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
    if gmap.complemented:
        # The breakers are exactly the instance's optional pairs.
        return frozenset(e for _, breakers in gmap.five_cycles
                         for e in breakers if e not in chosen)
    return frozenset(chosen)


def extract_assignment(gmap, g):
    """Read the assignment off a realized sandwich graph's variable chords.

    A variable is true iff its true-chord is present (true-chord wins when
    both chords are); on a complemented map the chords are read in the
    complement of `g`.  Raises GadgetError naming the variable if some
    gadget has neither chord.
    """
    if gmap.complemented:
        g = g.complement()
    assignment = {}
    for i in range(1, gmap.formula.num_vars + 1):
        t_in = g.has_edge(*gmap.true_chord[i])
        if not (t_in or g.has_edge(*gmap.false_chord[i])):
            raise GadgetError("variable %d five-cycle has no chord" % i)
        assignment[i] = t_in
    return assignment
