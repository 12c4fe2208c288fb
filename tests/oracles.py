"""Brute-force reference implementations used to cross-check the library.

Everything here favours obvious correctness over speed.  Graph properties are
decided by scanning vertex subsets and testing induced cycles directly, so an
oracle call costs O(2^n) but cannot share a bug with the production search
code: nothing in this module imports the recognition or solver internals.

Graphs are passed as plain (n, edges) pairs where edges is an iterable of
(u, v) tuples with 0 <= u < v < n.
"""

from __future__ import annotations

from itertools import combinations, permutations


def edge_set(edges):
    """Normalize an edge iterable to a set of (min, max) tuples."""
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError("loop edge (%r, %r)" % (u, v))
        out.add((u, v) if u < v else (v, u))
    return out


def complement_edges(n, edges):
    present = edge_set(edges)
    return {(u, v) for u, v in combinations(range(n), 2) if (u, v) not in present}


def is_induced_cycle(edges, subset):
    """True when `subset` induces a (chordless) cycle: connected and 2-regular."""
    subset = tuple(subset)
    if len(subset) < 3:
        return False
    present = edge_set(edges)
    inside = {v: [] for v in subset}
    for u, v in combinations(sorted(subset), 2):
        if (u, v) in present:
            inside[u].append(v)
            inside[v].append(u)
    if any(len(nbrs) != 2 for nbrs in inside.values()):
        return False
    # Connectivity: walk from an arbitrary start.
    start = subset[0]
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for y in inside[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == len(subset)


def is_two_colourable(n, edges):
    """True when some split of the n vertices into two sides puts the ends
    of every edge on different sides."""
    return any(all((side >> u & 1) != (side >> v & 1) for u, v in edges)
               for side in range(1 << n))


def cycle_order(edges, subset):
    """Vertex order of the cycle induced by `subset`, canonical direction.

    Starts at the smallest vertex and walks toward its smaller neighbour, which
    yields the lexicographically least rotation/reflection.
    """
    present = edge_set(edges)
    inside = {v: sorted(u for u in subset if u != v and
                        ((min(u, v), max(u, v)) in present)) for v in subset}
    start = min(subset)
    order = [start, inside[start][0]]
    while len(order) < len(subset):
        prev, cur = order[-2], order[-1]
        nxt = [u for u in inside[cur] if u != prev]
        order.append(nxt[0])
    return tuple(order)


def hole_subsets(n, edges, min_len=4):
    """All vertex subsets inducing a chordless cycle of length >= min_len."""
    found = []
    for k in range(max(3, min_len), n + 1):
        for subset in combinations(range(n), k):
            if is_induced_cycle(edges, subset):
                found.append(subset)
    return found


def chordless_cycles_oracle(n, edges, min_len=4):
    """Canonical vertex orders of all chordless cycles, length >= min_len."""
    return sorted(cycle_order(edges, s) for s in hole_subsets(n, edges, min_len))


def property_oracle(n, edges, prop):
    """Decide a hole-type property by exhaustive subset scanning."""
    if prop == "chordal":
        return not hole_subsets(n, edges, 4)
    if prop == "c5-free":
        return not any(is_induced_cycle(edges, s)
                       for s in combinations(range(n), 5))
    if prop == "odd-hole-free":
        return not any(len(s) % 2 == 1 for s in hole_subsets(n, edges, 4))
    if prop == "even-hole-free":
        return not any(len(s) % 2 == 0 for s in hole_subsets(n, edges, 4))
    if prop == "odd-antihole-free":
        return property_oracle(n, complement_edges(n, edges), "odd-hole-free")
    if prop == "berge":
        return (property_oracle(n, edges, "odd-hole-free")
                and property_oracle(n, edges, "odd-antihole-free"))
    raise ValueError("unknown property %r" % (prop,))


def sandwich_oracle(n, forced, optional, prop):
    """Exhaustive sandwich solvability: try every subset of optional edges."""
    forced = sorted(edge_set(forced))
    optional = sorted(edge_set(optional))
    for mask in range(1 << len(optional)):
        chosen = [e for i, e in enumerate(optional) if mask >> i & 1]
        if property_oracle(n, forced + chosen, prop):
            return True
    return False


def canonical_cycle(cycle):
    """Least rotation or reflection of a cyclic vertex sequence."""
    k = len(cycle)
    return min(tuple(seq[(i + j) % k] for j in range(k))
               for seq in (tuple(cycle), tuple(reversed(cycle)))
               for i in range(k))


def propagation_oracle(n, forced, optional, decided, head, foot, w1, w2,
                       knees, shoulders):
    """Reference closure of even-construction decisions under its two rules.

    Pair states are two sets, present and absent; every other pair is
    undecided.  Each synchronous round scans, against the states at its
    start:

    * every 4-subset a < b < c < d of the vertices other than w1/w2, with
      its cycles (a,b,c,d), (a,b,d,c), (a,c,b,d) in that order: four present
      sides and both diagonals absent is a contradiction; four present sides,
      one diagonal absent and the other undecided derives the other in;
      three present sides, one undecided side and both diagonals absent
      derives that side out;
    * every present knee-shoulder pair (k, s) with head-s present, knees
      and shoulders in ascending order: with head-k and foot-s both absent
      the six-hole (head, w1, w2, foot, k, s) is a contradiction; with one
      absent and the other undecided the other is derived in.

    A pair derived both ways in one round is derived in.  A round with a
    contradiction ends the closure, reporting the smallest contradiction by
    (length, sorted vertices); a round deriving nothing ends it as "ok".
    Returns (status, derived (edge, value) pairs in derivation order,
    canonical certificate or None).
    """
    def key(u, v):
        return (u, v) if u < v else (v, u)

    allowed = edge_set(forced) | edge_set(optional)
    present = edge_set(forced) | {key(*e) for e, val in decided.items() if val}
    absent = {e for e in combinations(range(n), 2) if e not in allowed}
    absent |= {key(*e) for e, val in decided.items() if not val}
    core = [v for v in range(n) if v not in (w1, w2)]
    derived = {}
    while True:
        batch = {}
        found = []

        def derive(e, val):
            batch[e] = val or batch.get(e, False)

        for quad in combinations(core, 4):
            if sum(e in present for e in combinations(quad, 2)) < 3:
                continue  # every rule needs three present sides
            a, b, c, d = quad
            for cycle in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
                sides = [key(cycle[i], cycle[(i + 1) % 4]) for i in range(4)]
                diagonals = [key(cycle[0], cycle[2]), key(cycle[1], cycle[3])]
                ins = [e for e in sides if e in present]
                open_sides = [e for e in sides
                              if e not in present and e not in absent]
                outs = [e for e in diagonals if e in absent]
                if len(ins) == 4 and len(outs) == 2:
                    found.append(cycle)
                elif len(ins) == 4 and len(outs) == 1:
                    other = diagonals[1 - diagonals.index(outs[0])]
                    if other not in present:
                        derive(other, True)
                elif len(ins) == 3 and len(open_sides) == 1 and len(outs) == 2:
                    derive(open_sides[0], False)

        for k in sorted(knees):
            for s in sorted(shoulders):
                hk, fs = key(head, k), key(foot, s)
                if (key(k, s) not in present or key(head, s) not in present
                        or hk in present or fs in present):
                    continue
                if hk in absent and fs in absent:
                    found.append((head, w1, w2, foot, k, s))
                elif hk in absent:
                    derive(fs, True)
                elif fs in absent:
                    derive(hk, True)

        if found:
            cert = min(found, key=lambda c: (len(c), sorted(c)))
            return ("contradiction", list(derived.items()),
                    canonical_cycle(cert))
        if not batch:
            return "ok", list(derived.items()), None
        for e, val in batch.items():
            (present if val else absent).add(e)
            derived[e] = val


def peo_oracle(n, edges, order):
    """True when `order` lists 0..n-1 once each and the neighbours each
    vertex has later in it are pairwise adjacent (a perfect elimination
    order)."""
    order = list(order)
    if sorted(order) != list(range(n)):
        return False
    present = edge_set(edges)
    for i, v in enumerate(order):
        later = [u for u in order[i + 1:] if (min(u, v), max(u, v)) in present]
        if any(pair not in present for pair in combinations(sorted(later), 2)):
            return False
    return True


def degeneracy_oracle(n, edges):
    """The largest minimum degree of an induced subgraph on a non-empty
    vertex subset, by scanning every subset (0 when n is 0)."""
    present = edge_set(edges)
    best = 0
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            least = min(sum((min(u, v), max(u, v)) in present for u in subset)
                        for v in subset)
            best = max(best, least)
    return best


def are_isomorphic(n, edges_a, edges_b):
    """Permutation-scan isomorphism test for tiny graphs (n <= 8)."""
    if n > 8:
        raise ValueError("oracle isomorphism test is capped at 8 vertices")
    ea, eb = edge_set(edges_a), edge_set(edges_b)
    if len(ea) != len(eb):
        return False
    for perm in permutations(range(n)):
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in ea}
        if mapped == eb:
            return True
    return False


def petersen_edges():
    """Petersen graph: outer C5, inner 5-star polygon, spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return edge_set(outer + inner + spokes)
