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

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Cycle, _bits, find_subgraph, gem_graph, triangles
from .sandwich import SandwichInstance, complement_instance, normalized_edge

REPEATER_SIDES = ("var", "clause")


class GadgetError(Exception):
    """A realized graph that cannot be decoded; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class OddGadgetMap:
    """Vertex roles of a built instance, keyed the way the builder thinks.

    Vertex tuples are in cycle order.  repeater_chords values are
    (outward_chord, inward_chord): outward faces the clause, inward faces the
    variable.  link_cycles holds the three not-both five-cycles per literal
    occurrence, in release-to-variable order.
    """

    num_vars: int
    clauses: tuple
    variable_cycle: dict = field(default_factory=dict)   # var -> 5 vertices
    true_chord: dict = field(default_factory=dict)       # var -> edge
    false_chord: dict = field(default_factory=dict)      # var -> edge
    clause_cycle: dict = field(default_factory=dict)     # clause -> (p1..p5)
    clause_edges: dict = field(default_factory=dict)     # clause -> 3 optional edges
    guard_vertices: dict = field(default_factory=dict)   # (clause, q) -> (l, t, z)
    guard_cycle: dict = field(default_factory=dict)      # (clause, q) -> 5 vertices
    release_edge: dict = field(default_factory=dict)     # (clause, q) -> edge
    repeater_cycle: dict = field(default_factory=dict)   # (clause, q, side) -> 5 vertices
    repeater_chords: dict = field(default_factory=dict)  # (clause, q, side) -> (out, in)
    connectors: dict = field(default_factory=dict)       # (clause, q) -> 3 aux vertices
    link_cycles: dict = field(default_factory=dict)      # (clause, q) -> 3 cycles

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
            gmap.guard_vertices[(j, q)] = (lv, tv, zv)
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

            a1 = add_vertex("c%d.q%d.a1" % (j, q))
            a2 = add_vertex("c%d.q%d.a2" % (j, q))
            a3 = add_vertex("c%d.q%d.a3" % (j, q))
            gmap.connectors[(j, q)] = (a1, a2, a3)

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

    inst = SandwichInstance.build(len(names), forced, optional, names)
    return inst, gmap


def build_odd_hole_free_instance(formula):
    """Odd-hole-free variant: the complement transform of the C5 instance.

    The allowed graph of the C5 instance keeps every triangle-sharing
    invariant below, which rules out complements of long paths and hence all
    antiholes of length 7 or more; the only odd antihole a sandwich graph can
    contain is a C5 (its own complement).  So C5-freeness coincides with
    odd-antihole-freeness there, and the complement transform turns the
    question into odd-hole-freeness of the complemented instance.
    """
    inst, gmap = build_c5_instance(formula)
    return complement_instance(inst), gmap


def completion_from_assignment(gmap, formula, assignment):
    """Chosen optional edges realizing a satisfying assignment, C5-free.

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
            raise GadgetError("clause %d is not satisfied" % j,
                              witness=clause)
        q_star = satisfied[0]
        for q in (1, 2, 3):
            c_out, c_in = gmap.repeater_chords[(j, q, "clause")]
            v_out, v_in = gmap.repeater_chords[(j, q, "var")]
            if q == q_star:
                chosen.update((gmap.release_edge[(j, q)], c_in, v_in))
            else:
                chosen.update((gmap.clause_edges[j][q - 1], c_out, v_out))
    return chosen


def five_cycle_census(inst, gmap):
    """Classify every five-cycle of the allowed graph.

    Walks all cyclic 5-vertex sequences that are cycles in the allowed graph
    (induced or not) and returns (safe, intended, rogue): cycles with a
    forced chord can never be induced in a sandwich graph; the rest must be
    the gadget cycles listed by the map, else the reduction's forward
    direction would have unplanned C5 obligations.  Tests assert rogue is
    empty.
    """
    g2 = inst.g2()
    catalog = {}
    for cyc, pair in gmap.gadget_five_cycles():
        catalog[Cycle(cyc)] = pair
    safe = []
    intended = []
    rogue = []
    for cyc in _all_five_cycles(g2):
        verts = cyc.vertices
        chords = tuple(normalized_edge(verts[idx], verts[(idx + 2) % 5])
                       for idx in range(5))
        if any(e in inst.forced for e in chords):
            safe.append(cyc)
        elif cyc in catalog:
            intended.append(cyc)
        else:
            rogue.append(cyc)
    return safe, intended, rogue


def _all_five_cycles(g):
    """All 5-cycles of g as Cycle values, chords allowed, each once."""
    adj = g.adj
    for a in range(g.n):
        above = ~((1 << (a + 1)) - 1)
        for b in _bits(adj[a] & above):
            for c in _bits(adj[b] & above):
                for d in _bits(adj[c] & above):
                    if d in (b, c):
                        continue
                    closing = adj[d] & adj[a] & above
                    for e in _bits(closing):
                        if e > b and e not in (b, c, d):
                            yield Cycle((a, b, c, d, e))


def extract_assignment(gmap, g):
    """Read the assignment off a realized sandwich graph's variable chords.

    A variable is true iff its true-chord is present (true-chord wins when
    both chords are).  Raises GadgetError with the chordless variable cycle
    as witness if some gadget has neither chord.
    """
    assignment = {}
    for i in range(1, gmap.num_vars + 1):
        t = gmap.true_chord[i]
        f = gmap.false_chord[i]
        t_in = g.has_edge(*t)
        f_in = g.has_edge(*f)
        if not (t_in or f_in):
            raise GadgetError(
                "variable %d five-cycle has no chord" % i,
                witness=Cycle(gmap.variable_cycle[i]))
        assignment[i] = t_in
    return assignment


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class StructuralReport:
    """The four structural guarantees the construction's proof leans on."""

    forced_triangle_free: CheckResult
    optional_component_shapes: CheckResult
    triangle_sharing: CheckResult
    no_gem_subgraph: CheckResult

    def all_ok(self):
        return (self.forced_triangle_free.ok
                and self.optional_component_shapes.ok
                and self.triangle_sharing.ok
                and self.no_gem_subgraph.ok)


def structural_report(inst):
    """Check the four structural invariants of a built instance.

    1. the forced graph is triangle-free;
    2. optional edges form a forest whose components are single vertices,
       single edges, or three-edge paths;
    3. every triangle of the allowed graph has exactly one optional edge, and
       shares exactly one edge with exactly one other triangle: a forced edge
       lying in exactly two triangles;
    4. the allowed graph has no gem subgraph (P4 plus a dominating vertex),
       not even a non-induced one.

    Check 4 is what bounds antiholes: a gem-free graph contains no complement
    of P6, hence no antihole of length 7 or more, and neither does any of its
    subgraphs -- in particular any sandwich graph.
    """
    g1 = inst.g1()
    g2 = inst.g2()

    tri_forced = triangles(g1)
    check1 = CheckResult(not tri_forced, tri_forced[0] if tri_forced else None,
                         "forced graph triangle" if tri_forced else "")

    check2 = _optional_shapes(inst)

    check3 = _triangle_sharing(inst, g2)

    image = find_subgraph(g2, gem_graph())
    check4 = CheckResult(image is None, image,
                         "gem subgraph in allowed graph" if image else "")

    return StructuralReport(check1, check2, check3, check4)


def _optional_shapes(inst):
    adjacency = {}
    for u, v in inst.optional:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen = set()
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        idx = 0
        while idx < len(component):
            for nxt in adjacency[component[idx]]:
                if nxt not in seen:
                    seen.add(nxt)
                    component.append(nxt)
            idx += 1
        degrees = sorted(len(adjacency[v]) for v in component)
        edge_total = sum(degrees) // 2
        shape_ok = (
            (len(component) == 2 and edge_total == 1)
            or (len(component) == 4 and edge_total == 3 and degrees == [1, 1, 2, 2])
        )
        if not shape_ok:
            return CheckResult(False, tuple(sorted(component)),
                               "optional component is neither an edge nor a "
                               "three-edge path")
    return CheckResult(True)


def _triangle_sharing(inst, g2):
    tris = triangles(g2)
    by_edge = {}
    for tri in tris:
        u, v, w = tri
        for e in ((u, v), (u, w), (v, w)):
            by_edge.setdefault(e, []).append(tri)
    for tri in tris:
        u, v, w = tri
        tri_edges = ((u, v), (u, w), (v, w))
        optional_count = sum(1 for e in tri_edges if e in inst.optional)
        if optional_count != 1:
            return CheckResult(False, tri,
                               "triangle has %d optional edges" % optional_count)
        shared = [e for e in tri_edges if len(by_edge[e]) > 1]
        if len(shared) != 1:
            return CheckResult(False, tri,
                               "triangle shares %d of its edges" % len(shared))
        e = shared[0]
        if e not in inst.forced or len(by_edge[e]) != 2:
            return CheckResult(False, tri,
                               "shared edge is not a forced edge in exactly "
                               "two triangles")
    return CheckResult(True)
