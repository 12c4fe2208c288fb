"""Acceptance suites: desk-scale empirical verification of the library.

Nine numbered checks cover recognition (exhaustive against a local
brute-force oracle), the complement duality of sandwich solvability, solver
exactness against brute force, the degeneracy certificate and end-to-end
behaviour of the five-cycle reduction, and the census, forward direction,
propagation chain, and end-to-end behaviour of the even-hole reduction.

The oracle here is deliberately self-contained (subset scanning over bitmask
adjacency) so the CLI `verify` command shares no logic with the code under
test.  All randomness is seeded and the seed is reported in each result.

This module is also the home of everything only these checks and the tests
call: reference searches over graphs (`chordless_cycles`), the degeneracy
certificate (`degeneracy_order`, checked by `later_degree`), the small
graphs they are tried on (`path_graph`, `cycle_graph`, `complete_graph`),
the reference solver `brute_force_solve`, and the five-cycle reduction's
census (`five_cycle_census`).  No CLI command but `verify` imports this
module, so the others never compile that code at start-up.
"""

import random
from collections import namedtuple
from itertools import combinations, product

from .budget import Budget
from .cnf import CnfFormula
from .graph import Graph, _bits, canonical_rotation, iter_chordless_cycles
from .recognition import PROPERTY_IDS, check
from .reduction_even import (W1, W2, build_even_instance,
                             completion_from_assignment,
                             extract_assignment as extract_even,
                             propagate_orientations, solve_with_orientations)
from .reduction_odd import build_c5_instance, extract_assignment as extract_odd
from .sandwich import (Completion, SandwichInstance, SolveResult,
                       complement_instance, normalized_edge, solve)

DEFAULT_SEED = 20240901
BRUTE_FORCE_MAX_OPTIONAL = 20


class CriterionResult(namedtuple("CriterionResult",
                                 "number name passed detail")):
    __slots__ = ()


# -- graph reference searches -----------------------------------------------

def chordless_cycles(g, budget=None):
    """All chordless cycles of length >= 4 as canonical tuples, sorted.

    `budget` is a step count (int) or None for unlimited; exhaustion raises
    BudgetExhausted.
    """
    return sorted(iter_chordless_cycles(g, Budget(budget)),
                  key=lambda c: (len(c), c))


def degeneracy_order(g):
    """A smallest-last vertex order (Matula & Beck 1983): each vertex has
    the fewest neighbours among the vertices not yet placed, so
    `later_degree(g, order)` is the degeneracy of `g`.

    The unplaced vertices wait in bucket masks by their degree among the
    unplaced; placing a vertex moves each unplaced neighbour down one
    bucket, so the order takes O(n + m) bucket moves.
    """
    adj = g.adj
    degree = [mask.bit_count() for mask in adj]
    buckets = [0] * (max(degree, default=0) + 1)
    for v, d in enumerate(degree):
        buckets[d] |= 1 << v
    unplaced = (1 << g.n) - 1
    low = 0
    order = []
    for _ in range(g.n):
        while not buckets[low]:
            low += 1
        bit = buckets[low] & -buckets[low]
        buckets[low] ^= bit
        unplaced ^= bit
        v = bit.bit_length() - 1
        order.append(v)
        for u in _bits(adj[v] & unplaced):
            buckets[degree[u]] ^= 1 << u
            degree[u] -= 1
            buckets[degree[u]] |= 1 << u
        low = max(low - 1, 0)
    return order


def later_degree(g, order):
    """The most neighbours any vertex of `g` has after it in `order`.

    Whatever produced `order`, every subgraph of `g` then has a vertex of
    at most that degree: its first vertex in the order.  Raises ValueError
    unless `order` is a permutation of the vertices.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the %d vertices"
                         % g.n)
    most = later = 0
    for v in reversed(order):
        most = max(most, (g.adj[v] & later).bit_count())
        later |= 1 << v
    return most


def path_graph(k):
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k):
    return Graph(k, list(combinations(range(k), 2)))


# -- reference sandwich solver ----------------------------------------------

def is_sandwich_graph(inst, g):
    """True when forced ⊆ E(g) ⊆ forced ∪ optional (same vertex set)."""
    if g.n != inst.n:
        raise ValueError("graph has %d vertices, instance has %d" % (g.n, inst.n))
    edges = set(g.edges())
    return inst.forced <= edges and edges <= (inst.forced | inst.optional)


def brute_force_solve(inst, prop):
    """Reference solver: try every optional subset in counter order.

    Only meant for desk-scale cross-checks; refuses more than
    BRUTE_FORCE_MAX_OPTIONAL optional edges.
    """
    optional = sorted(inst.optional)
    if len(optional) > BRUTE_FORCE_MAX_OPTIONAL:
        raise ValueError("instance has %d optional edges; brute force is "
                         "capped at %d" % (len(optional), BRUTE_FORCE_MAX_OPTIONAL))
    for mask in range(1 << len(optional)):
        chosen = [optional[i] for i in _bits(mask)]
        ok, _ = check(inst.realize(chosen), prop)
        if ok:
            return SolveResult("SAT", Completion(frozenset(chosen)), mask + 1)
    return SolveResult("UNSAT", None, 1 << len(optional))


# -- five-cycle reduction invariants ----------------------------------------

def five_cycle_census(inst, gmap):
    """Classify every five-cycle of the allowed graph.

    Walks all cyclic 5-vertex sequences that are cycles in the allowed graph
    (induced or not) and returns (safe, intended, rogue): cycles with a
    forced chord can never be induced in a sandwich graph; the rest must be
    the gadget cycles the map records, else the reduction's forward
    direction would have unplanned C5 obligations.  Tests assert rogue is
    empty.
    """
    g2 = inst.g2()
    catalog = {canonical_rotation(cyc) for cyc, _ in gmap.five_cycles}
    safe = []
    intended = []
    rogue = []
    for cyc in _all_five_cycles(g2):
        chords = tuple(normalized_edge(cyc[idx], cyc[(idx + 2) % 5])
                       for idx in range(5))
        if any(e in inst.forced for e in chords):
            safe.append(cyc)
        elif cyc in catalog:
            intended.append(cyc)
        else:
            rogue.append(cyc)
    return safe, intended, rogue


def _all_five_cycles(g):
    """All 5-cycles of g as canonical tuples, chords allowed, each once."""
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
                            yield a, b, c, d, e


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
    inst = SandwichInstance(n, forced, optional)
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
    """check agrees with the subset-scan oracle on all 6-vertex graphs."""
    pairs = list(combinations(range(6), 2))
    failures = []
    for mask in range(1 << 15):
        edges = [pairs[i] for i in range(15) if mask >> i & 1]
        non_edges = [pairs[i] for i in range(15) if not mask >> i & 1]
        lengths = _full_hole_lengths(6, edges)
        odd_hole = any(k % 2 for k in lengths)
        odd_antihole = any(k % 2 for k in _full_hole_lengths(6, non_edges))
        expected = {
            "chordal": not lengths,
            "c5-free": 5 not in lengths,
            "odd-hole-free": not odd_hole,
            "even-hole-free": not any(k % 2 == 0 for k in lengths),
            "odd-antihole-free": not odd_antihole,
            "berge": not (odd_hole or odd_antihole),
        }
        g = Graph(6, edges)
        for prop, want in expected.items():
            got, _ = check(g, prop)
            if got != want:
                failures.append("mask=%d prop=%s" % (mask, prop))
    return ("32768 graphs x 6 properties, %d mismatches" % len(failures),
            failures)


def duality_agreement(seed=DEFAULT_SEED):
    """Brute-force solvability respects the complement transform."""
    rng = random.Random(seed)
    failures = []
    for _ in range(200):
        inst = _random_instance(rng, 10, 12)
        comp = complement_instance(inst)
        for prop, co_prop in (("odd-hole-free", "odd-antihole-free"),
                              ("odd-antihole-free", "odd-hole-free")):
            a = brute_force_solve(inst, prop).verdict
            b = brute_force_solve(comp, co_prop).verdict
            if a != b:
                failures.append("%s %s vs %s %s" % (prop, a, co_prop, b))
    return ("200 instances x 2 directions, %d disagreements, seed=%d"
            % (len(failures), seed), failures)


def solver_matches_brute_force(seed=DEFAULT_SEED):
    """solve agrees with brute_force_solve; SAT completions re-verify."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    for prop in PROPERTY_IDS:
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
    return ("%d cases, %d failures, seed=%d" % (cases, len(failures), seed),
            failures)


def odd_instance_invariants(seed=DEFAULT_SEED):
    """The allowed graph of random formulas' five-cycle instances has
    degeneracy at most 2, so no sandwich graph of them holds an antihole
    longer than five."""
    rng = random.Random(seed)
    failures = []
    for _ in range(100):
        formula = _random_formula(rng, 6, 6)
        inst, _ = build_c5_instance(formula)
        g2 = inst.g2()
        if later_degree(g2, degeneracy_order(g2)) > 2:
            failures.append(repr(formula.clauses))
    return ("100 formulas, %d with allowed-graph degeneracy above 2, seed=%d"
            % (len(failures), seed), failures)


def odd_single_clause_end_to_end(seed=DEFAULT_SEED):
    """Every single-clause formula solves SAT via the five-cycle instance,
    extraction satisfies the clause, and the realized graph is
    odd-antihole-free."""
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
    return "8 polarity patterns, %d failures" % len(failures), failures


def even_forward_direction(seed=DEFAULT_SEED):
    """Single-clause completions are even-hole-free exactly for satisfying
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
    return "64 cases, %d failures" % len(failures), failures


def even_propagation_chain(seed=DEFAULT_SEED):
    """All-negative orientations on one clause force the knee edges and
    end in the contradiction four-hole on the first two variables' knees."""
    formula = CnfFormula(3, ((1, 2, 3),))
    inst, gmap = build_even_instance(formula)
    decided = {}
    for var in (1, 2, 3):
        for e in gmap.bundles[(var, 1)][False]:
            decided[e] = True
    result = propagate_orientations(inst, gmap, decided)
    problems = []
    if result.certificate is None:
        problems.append("no contradiction")
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
        got = set(result.certificate)
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
    return "derived edges and contradiction certificate checked", problems


def even_instance_census(seed=DEFAULT_SEED):
    """The single-clause instance has the exact derived counts and shape."""
    formula = CnfFormula(3, ((1, 2, 3),))
    inst, gmap = build_even_instance(formula)
    problems = []
    counts = (inst.n, len(inst.forced), len(inst.forbidden()),
              len(inst.optional))
    if counts != (16, 27, 33, 60):
        problems.append("counts %r != (16, 27, 33, 60)" % (counts,))
    g2 = inst.g2()
    if (g2.degree(W1), g2.degree(W2)) != (2, 2):
        problems.append("W vertices do not have degree 2 in the allowed graph")
    core_forbidden = [e for e in inst.forbidden()
                      if W1 not in e and W2 not in e]
    touched = [v for e in core_forbidden for v in e]
    if len(touched) != len(set(touched)):
        problems.append("forbidden pairs off the W path are not a matching")
    return ("|V|=%d forced=%d forbidden=%d optional=%d, W degrees 2, "
            "matching of %d" % (counts + (len(core_forbidden),)), problems)


def even_end_to_end(seed=DEFAULT_SEED):
    """Small satisfiable formulas solve SAT through orientation branching
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
    return ("%d formulas, %d failures" % (len(formulas), len(failures)),
            failures)


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


def check_suite_name(name):
    """Raise ValueError unless `name` is a SUITES key or 'all'."""
    if name != "all" and name not in SUITES:
        raise ValueError("unknown suite %r; choose from %s or 'all'"
                         % (name, ", ".join(sorted(SUITES))))


def run_suite(name, seed=DEFAULT_SEED):
    """Run one named suite (or 'all'); returns a list of CriterionResult.

    A suite returns (summary, failures); its result is numbered by its place
    in SUITES, named by its key, and passes when no failure is listed.
    """
    check_suite_name(name)
    results = []
    for number, (key, suite) in enumerate(SUITES.items(), start=1):
        if name in ("all", key):
            summary, failures = suite(seed)
            if failures:
                summary += " (first: %s)" % failures[0]
            results.append(CriterionResult(number, key, not failures, summary))
    return results
