"""Acceptance suites: desk-scale empirical verification of the library.

Nine numbered checks cover recognition (exhaustive against a local
brute-force oracle), the complement duality of sandwich solvability, solver
exactness against brute force, the structural invariants and end-to-end
behaviour of the five-cycle reduction, and the census, forward direction,
propagation chain, and end-to-end behaviour of the even-hole reduction.

The oracle here is deliberately self-contained (subset scanning over bitmask
adjacency) so the CLI `verify` command shares no logic with the code under
test.  All randomness is seeded and the seed is reported in each result.

This module is also the home of everything only these checks and the tests
call: reference searches over graphs (`chordless_cycles`, `triangles`,
`find_subgraph`, `find_induced_path`), the small graphs they are tried on
(`path_graph`, `cycle_graph`, `complete_graph`), the reference solver
`brute_force_solve`, and the five-cycle reduction's invariant checks
(`structural_report`, `five_cycle_census`).  No CLI command but `verify`
imports this module, so the others never compile that code at start-up.
"""

import random
from collections import namedtuple
from itertools import combinations, product

from .budget import Budget, BudgetExhausted
from .cnf import CnfFormula
from .graph import Cycle, Graph, _bits, iter_chordless_cycles
from .recognition import DEFAULT_CHECK_BUDGET, check
from .reduction_even import (build_even_instance, completion_from_assignment,
                             extract_assignment as extract_even,
                             propagate_orientations, solve_with_orientations)
from .reduction_odd import build_c5_instance, extract_assignment as extract_odd
from .sandwich import (SOLVABLE_PROPERTY_IDS, Completion, SandwichInstance,
                       SolveResult, complement_instance, normalized_edge,
                       solve)

DEFAULT_SEED = 20240901
MAX_PATTERN_VERTICES = 8
BRUTE_FORCE_MAX_OPTIONAL = 20


class CriterionResult(namedtuple("CriterionResult",
                                 "number name passed detail")):
    __slots__ = ()


# -- graph reference searches -----------------------------------------------

def chordless_cycles(g, min_len=4, budget=None):
    """All chordless cycles of length >= min_len, canonical and deduplicated.

    `budget` is a step count (int) or None for unlimited.  On exhaustion a
    BudgetExhausted carrying the cycles found so far is raised.
    """
    tracker = Budget(budget)
    found = []
    try:
        for cyc in iter_chordless_cycles(g, min_len, tracker):
            found.append(cyc)
    except BudgetExhausted as exc:
        raise BudgetExhausted(str(exc), partial=found) from None
    return sorted(found, key=lambda c: (c.length, c.vertices))


def triangles(g):
    """All 3-cliques as sorted (u, v, w) tuples, lexicographic order."""
    out = []
    adj = g.adj
    for u in range(g.n):
        above_u = adj[u] >> (u + 1) << (u + 1)
        for v in _bits(above_u):
            common = adj[u] & adj[v]
            for w in _bits(common >> (v + 1) << (v + 1)):
                out.append((u, v, w))
    return out


def find_subgraph(g, pattern):
    """An injective map sending pattern edges onto g edges, or None.

    Subgraph containment is *not* induced: pattern non-edges may map onto
    edges of g.  Returns a tuple `m` with m[i] = image of pattern vertex i.
    Patterns are capped at MAX_PATTERN_VERTICES vertices.
    """
    k = pattern.n
    if k > MAX_PATTERN_VERTICES:
        raise ValueError("pattern has %d vertices; at most %d supported"
                         % (k, MAX_PATTERN_VERTICES))
    if k == 0:
        return ()
    if k > g.n:
        return None

    # Order pattern vertices so each one (after the first) touches a placed
    # vertex when possible; candidates then shrink to neighbourhood
    # intersections.
    order = []
    placed = set()
    degs = [pattern.degree(v) for v in range(k)]
    while len(order) < k:
        best = None
        for v in range(k):
            if v in placed:
                continue
            back = sum(1 for u in pattern.neighbors(v) if u in placed)
            key = (back, degs[v], -v)
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
        placed.add(best[1])

    g_degs = [g.degree(v) for v in range(g.n)]
    full = (1 << g.n) - 1
    image = {}

    def place(idx, used_mask):
        if idx == k:
            return True
        pv = order[idx]
        cand = full & ~used_mask
        for pu in pattern.neighbors(pv):
            if pu in image:
                cand &= g.adj[image[pu]]
        for gv in _bits(cand):
            if g_degs[gv] < degs[pv]:
                continue
            image[pv] = gv
            if place(idx + 1, used_mask | (1 << gv)):
                return True
            del image[pv]
        return False

    if place(0, 0):
        return tuple(image[v] for v in range(k))
    return None


def contains_subgraph(g, pattern):
    """True when g contains pattern as a (not necessarily induced) subgraph."""
    return find_subgraph(g, pattern) is not None


def find_induced_path(g, k):
    """Vertices of an induced path on k vertices, or None.

    Depth-first over paths whose extensions must avoid every earlier path
    vertex's neighbourhood, so candidate sets are neighbourhood
    intersections and stay small even in dense graphs.
    """
    if k <= 0:
        return None
    if k == 1:
        return (0,) if g.n else None
    adj = g.adj

    def extend(path, tail_mask, forbid):
        if len(path) == k:
            return path
        tail = path[-1]
        cand = adj[tail] & ~forbid & ~tail_mask
        for v in _bits(cand):
            found = extend(path + (v,), tail_mask | (1 << v),
                           forbid | adj[tail])
            if found:
                return found
        return None

    # Both traversal directions of a path start at an endpoint, so every
    # ordered first edge must be tried; no orientation symmetry to break.
    for a in range(g.n):
        for b in _bits(adj[a]):
            found = extend((a, b), (1 << a) | (1 << b), adj[a])
            if found:
                return found
    return None


def path_graph(k):
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k):
    return Graph(k, list(combinations(range(k), 2)))


def gem_graph():
    """A four-vertex path plus one vertex adjacent to all of it.

    Equivalently the complement of (P4 + isolated vertex).  This is the
    five-vertex pattern whose absence as a subgraph certifies that no
    complement-of-long-path (and hence no long antihole) can occur.
    """
    return Graph(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])


# -- reference sandwich solver ----------------------------------------------

def is_sandwich_graph(inst, g):
    """True when forced ⊆ E(g) ⊆ forced ∪ optional (same vertex set)."""
    if g.n != inst.n:
        raise ValueError("graph has %d vertices, instance has %d" % (g.n, inst.n))
    edges = set(g.edges())
    return inst.forced <= edges and edges <= (inst.forced | inst.optional)


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
        g = Graph._from_masks(inst.n, adj)
        ok, _ = check(g, prop, check_budget)
        if ok:
            return SolveResult("SAT", Completion(frozenset(chosen)), mask + 1)
    return SolveResult("UNSAT", None, 1 << len(optional))


# -- five-cycle reduction invariants ----------------------------------------

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


class CheckResult(namedtuple("CheckResult", "ok witness detail",
                             defaults=(None, ""))):
    __slots__ = ()


class StructuralReport(namedtuple(
        "StructuralReport", "forced_triangle_free optional_component_shapes"
        " triangle_sharing no_gem_subgraph")):
    """The four structural guarantees the construction's proof leans on."""

    __slots__ = ()

    def all_ok(self):
        return all(result.ok for result in self)


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


# -- local oracle -----------------------------------------------------------

def _adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _subset_is_hole(adj, subset):
    mask = 0
    for v in subset:
        mask |= 1 << v
    for v in subset:
        if (adj[v] & mask).bit_count() != 2:
            return False
    start = subset[0]
    seen = 1 << start
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for y in subset:
            if seen >> y & 1 == 0 and adj[x] >> y & 1:
                seen |= 1 << y
                frontier.append(y)
    return seen == mask


def _full_hole_lengths(n, edges):
    """Lengths of all chordless cycles of length >= 4, by subset scan."""
    adj = _adjacency(n, edges)
    lengths = set()
    for k in range(4, n + 1):
        for subset in combinations(range(n), k):
            if _subset_is_hole(adj, subset):
                lengths.add(k)
                break
    return lengths


# -- random instance generators ---------------------------------------------

def _random_instance(rng, max_n, max_optional):
    n = rng.randint(4, max_n)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    optional_count = min(rng.randint(0, max_optional),
                         rng.randint(0, max_optional), len(pairs))
    optional = set(pairs[:optional_count])
    forced_prob = rng.uniform(0.1, 0.8)
    forced = {p for p in pairs[optional_count:] if rng.random() < forced_prob}
    if rng.random() < 0.3 and n >= 5:
        # plant an unbreakable ring: forced cycle, every chord forbidden
        k = rng.randint(4, min(7, n))
        ring = rng.sample(range(n), k)
        ring_pairs = {tuple(sorted((ring[i], ring[(i + 1) % k])))
                      for i in range(k)}
        chord_pairs = {tuple(sorted(p))
                       for p in combinations(ring, 2)} - ring_pairs
        forced = (forced - chord_pairs) | ring_pairs
        optional = optional - ring_pairs - chord_pairs
    inst = SandwichInstance.build(n, forced, optional)
    if rng.random() < 0.5:
        inst = complement_instance(inst)
    return inst


def _random_formula(rng, max_vars, max_clauses):
    n = rng.randint(3, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in variables))
    return CnfFormula(n, tuple(clauses))


# -- criteria ---------------------------------------------------------------

def recognition_matches_oracle(seed=DEFAULT_SEED):
    """1: check agrees with the subset-scan oracle on all 6-vertex graphs."""
    pairs = list(combinations(range(6), 2))
    mismatches = 0
    first = ""
    for mask in range(1 << 15):
        edges = [pairs[i] for i in range(15) if mask >> i & 1]
        lengths = _full_hole_lengths(6, edges)
        expected = {
            "chordal": not lengths,
            "c5-free": 5 not in lengths,
            "odd-hole-free": not any(k % 2 for k in lengths),
            "even-hole-free": not any(k % 2 == 0 for k in lengths),
        }
        g = Graph(6, edges)
        for prop, want in expected.items():
            got, _ = check(g, prop)
            if got != want:
                mismatches += 1
                if not first:
                    first = "mask=%d prop=%s" % (mask, prop)
    detail = "32768 graphs x 4 properties, %d mismatches" % mismatches
    if first:
        detail += " (first: %s)" % first
    return CriterionResult(1, "recognition-oracle", mismatches == 0, detail)


def duality_agreement(seed=DEFAULT_SEED):
    """2: brute-force solvability respects the complement transform."""
    rng = random.Random(seed)
    disagreements = 0
    for _ in range(200):
        inst = _random_instance(rng, 10, 12)
        comp = complement_instance(inst)
        for prop, co_prop in (("odd-hole-free", "odd-antihole-free"),
                              ("odd-antihole-free", "odd-hole-free")):
            a = brute_force_solve(inst, prop).verdict
            b = brute_force_solve(comp, co_prop).verdict
            if a != b:
                disagreements += 1
    detail = "200 instances x 2 directions, %d disagreements, seed=%d" % (
        disagreements, seed)
    return CriterionResult(2, "complement-duality", disagreements == 0, detail)


def solver_matches_brute_force(seed=DEFAULT_SEED):
    """3: solve agrees with brute_force_solve; SAT completions re-verify."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    for prop in SOLVABLE_PROPERTY_IDS:
        for _ in range(100):
            inst = _random_instance(rng, 9, 16)
            cases += 1
            fast = solve(inst, prop)
            slow = brute_force_solve(inst, prop)
            if fast.verdict != slow.verdict:
                failures.append("%s verdict %s vs %s" %
                                (prop, fast.verdict, slow.verdict))
                continue
            if fast.verdict == "SAT":
                g = inst.realize(fast.completion.chosen)
                ok, _ = check(g, prop)
                if not (ok and is_sandwich_graph(inst, g)):
                    failures.append("%s SAT completion failed re-check" % prop)
    detail = "%d cases, %d failures, seed=%d" % (cases, len(failures), seed)
    if failures:
        detail += " (first: %s)" % failures[0]
    return CriterionResult(3, "solver-exactness", not failures, detail)


def odd_instance_invariants(seed=DEFAULT_SEED):
    """4: structural_report passes on random formulas' five-cycle instances."""
    rng = random.Random(seed)
    bad = 0
    first = ""
    for _ in range(100):
        formula = _random_formula(rng, 6, 6)
        inst, _ = build_c5_instance(formula)
        report = structural_report(inst)
        if not report.all_ok():
            bad += 1
            if not first:
                first = repr(formula.clauses)
    detail = "100 formulas, %d with failing reports, seed=%d" % (bad, seed)
    if first:
        detail += " (first: %s)" % first
    return CriterionResult(4, "odd-structural-invariants", bad == 0, detail)


def odd_single_clause_end_to_end(seed=DEFAULT_SEED):
    """5: every single-clause formula solves SAT via the five-cycle instance,
    extraction satisfies the clause, and the realized graph is
    odd-antihole-free with no induced complement-of-P6."""
    failures = []
    for signs in product((1, -1), repeat=3):
        clause = tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        formula = CnfFormula(3, (clause,))
        inst, gmap = build_c5_instance(formula)
        result = solve(inst, "c5-free")
        if result.verdict != "SAT":
            failures.append("%s: verdict %s" % (clause, result.verdict))
            continue
        g = inst.realize(result.completion.chosen)
        assignment = extract_odd(gmap, g)
        if not formula.satisfied_by(assignment):
            failures.append("%s: extracted assignment falsifies" % (clause,))
        ok_anti, _ = check(g, "odd-antihole-free")
        if not ok_anti:
            failures.append("%s: realized graph has an odd antihole" % (clause,))
        if find_induced_path(g.complement(), 6) is not None:
            failures.append("%s: complement has an induced P6" % (clause,))
    detail = "8 polarity patterns, %d failures" % len(failures)
    if failures:
        detail += " (first: %s)" % failures[0]
    return CriterionResult(5, "odd-end-to-end", not failures, detail)


def even_forward_direction(seed=DEFAULT_SEED):
    """6: single-clause completions are even-hole-free exactly for satisfying
    assignments; falsifying ones leave a knee four-hole."""
    failures = []
    cases = 0
    for signs in product((1, -1), repeat=3):
        clause = tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        formula = CnfFormula(3, (clause,))
        inst, gmap = build_even_instance(formula)
        active, inactive = gmap.clause_knees(1)
        knees = sorted(active) + sorted(inactive)
        for bits in product((False, True), repeat=3):
            cases += 1
            assignment = {1: bits[0], 2: bits[1], 3: bits[2]}
            g = inst.realize(completion_from_assignment(gmap, assignment))
            ok, cert = check(g, "even-hole-free")
            satisfied = formula.satisfied_by(assignment)
            if ok != satisfied:
                failures.append("%s %s: even-hole-free=%s satisfied=%s"
                                % (clause, bits, ok, satisfied))
                continue
            if satisfied:
                continue
            hole = next((subset for subset in combinations(knees, 4)
                         if _subset_is_hole(g.adj, subset)), None)
            if hole is None:
                failures.append("%s %s: no knee four-hole" % (clause, bits))
            elif not (len(set(hole) & set(active)) == 2
                      and len(set(hole) & set(inactive)) == 2):
                failures.append("%s %s: four-hole not split 2/2" % (clause, bits))
    detail = "64 cases, %d failures" % len(failures)
    if failures:
        detail += " (first: %s)" % failures[0]
    return CriterionResult(6, "even-forward-direction", not failures, detail)


def even_propagation_chain(seed=DEFAULT_SEED):
    """7: all-negative orientations on one clause force the knee edges and
    end in the contradiction four-hole on the first two variables' knees."""
    formula = CnfFormula(3, ((1, 2, 3),))
    inst, gmap = build_even_instance(formula)
    decided = {}
    for var in (1, 2, 3):
        for e in gmap.orientation_edges(var, 1, False):
            decided[e] = True
    result = propagate_orientations(inst, gmap, decided)
    problems = []
    if result.status != "contradiction":
        problems.append("status=%s" % result.status)
    else:
        need = [
            (gmap.knee[(-3, 1)], gmap.knee[(-1, 1)]),
            (gmap.knee[(-1, 1)], gmap.knee[(-2, 1)]),
            (gmap.knee[(2, 1)], gmap.knee[(-1, 1)]),
        ]
        for u, v in need:
            e = (u, v) if u < v else (v, u)
            if result.forced.get(e) is not True:
                problems.append("edge %s-%s not derived"
                                % (inst.name(u), inst.name(v)))
        expected = {gmap.knee[(1, 1)], gmap.knee[(2, 1)],
                    gmap.knee[(-1, 1)], gmap.knee[(-2, 1)]}
        got = set(result.certificate.vertices)
        if got != expected:
            problems.append("certificate %s" %
                            sorted(inst.name(v) for v in got))
        else:
            present = set(inst.forced)
            present.update(e for e, val in decided.items() if val)
            present.update(e for e, val in result.forced.items() if val)
            adj = _adjacency(inst.n, present)
            if not _subset_is_hole(adj, tuple(sorted(got))):
                problems.append("certificate does not re-verify as a hole")
    detail = "derived edges and contradiction certificate checked"
    if problems:
        detail = "; ".join(problems)
    return CriterionResult(7, "even-propagation-chain", not problems, detail)


def even_instance_census(seed=DEFAULT_SEED):
    """8: the single-clause instance has the exact derived counts and shape."""
    formula = CnfFormula(3, ((1, 2, 3),))
    inst, gmap = build_even_instance(formula)
    problems = []
    counts = (inst.n, len(inst.forced), len(inst.forbidden()),
              len(inst.optional))
    if counts != (16, 27, 33, 60):
        problems.append("counts %r != (16, 27, 33, 60)" % (counts,))
    g2 = inst.g2()
    if (g2.degree(gmap.w1), g2.degree(gmap.w2)) != (2, 2):
        problems.append("W vertices do not have degree 2 in the allowed graph")
    core_forbidden = [e for e in inst.forbidden()
                      if gmap.w1 not in e and gmap.w2 not in e]
    touched = [v for e in core_forbidden for v in e]
    if len(touched) != len(set(touched)):
        problems.append("forbidden pairs off the W path are not a matching")
    detail = ("|V|=%d forced=%d forbidden=%d optional=%d, W degrees 2, "
              "matching of %d" % (counts + (len(core_forbidden),)))
    if problems:
        detail = "; ".join(problems)
    return CriterionResult(8, "even-instance-census", not problems, detail)


def even_end_to_end(seed=DEFAULT_SEED):
    """9: small satisfiable formulas solve SAT through orientation branching
    and the extracted assignment satisfies them."""
    formulas = [CnfFormula(3, (tuple(s * v for s, v in zip(signs, (1, 2, 3))),))
                for signs in product((1, -1), repeat=3)]
    formulas += [
        CnfFormula(3, ((1, 2, 3), (-1, -2, -3))),
        CnfFormula(4, ((1, -2, 3), (2, 3, -4))),
        CnfFormula(5, ((-1, 2, -3), (3, -4, 5))),
        CnfFormula(6, ((1, 2, 3), (4, 5, 6))),
        CnfFormula(6, ((-1, -2, -3), (-4, -5, -6))),
    ]
    failures = []
    for formula in formulas:
        inst, gmap = build_even_instance(formula)
        result = solve_with_orientations(formula, inst, gmap)
        if result.verdict != "SAT":
            failures.append("%s: verdict %s" % (formula.clauses, result.verdict))
            continue
        g = inst.realize(result.completion.chosen)
        ok, _ = check(g, "even-hole-free")
        if not ok:
            failures.append("%s: completion not even-hole-free"
                            % (formula.clauses,))
            continue
        assignment = extract_even(gmap, g)
        if not formula.satisfied_by(assignment):
            failures.append("%s: extracted assignment falsifies"
                            % (formula.clauses,))
    detail = "%d formulas, %d failures" % (len(formulas), len(failures))
    if failures:
        detail += " (first: %s)" % failures[0]
    return CriterionResult(9, "even-end-to-end", not failures, detail)


SUITES = {
    "recognition-oracle": recognition_matches_oracle,
    "complement-duality": duality_agreement,
    "solver-exactness": solver_matches_brute_force,
    "odd-structural-invariants": odd_instance_invariants,
    "odd-end-to-end": odd_single_clause_end_to_end,
    "even-forward-direction": even_forward_direction,
    "even-propagation-chain": even_propagation_chain,
    "even-instance-census": even_instance_census,
    "even-end-to-end": even_end_to_end,
}


def run_suite(name, seed=DEFAULT_SEED):
    """Run one named suite (or 'all'); returns a list of CriterionResult."""
    if name == "all":
        return [fn(seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError("unknown suite %r; choose from %s or 'all'"
                         % (name, ", ".join(sorted(SUITES))))
    return [SUITES[name](seed)]
