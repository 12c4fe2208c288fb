"""Exact recognition of hole-defined graph classes, with certificates.

Supported property ids:

    chordal            no chordless cycle of length >= 4
    c5-free            no induced five-cycle
    odd-hole-free      no chordless cycle of odd length >= 5
    even-hole-free     no chordless cycle of even length >= 4
    odd-antihole-free  complement has no odd hole
    berge              odd-hole-free and odd-antihole-free

Every negative answer comes with a violating certificate (the hole, in cycle
order; for antiholes, the hole of the complement).  A positive chordality
answer carries a perfect elimination order.  All procedures are exact; the
exponential ones honour a step budget and raise BudgetExhausted rather than
guess.
"""

from collections import namedtuple
from itertools import combinations

from .budget import Budget
from .graph import Cycle, _bits, is_bipartite, iter_chordless_cycles

PROPERTY_IDS = (
    "chordal",
    "c5-free",
    "odd-hole-free",
    "even-hole-free",
    "odd-antihole-free",
    "berge",
)

DEFAULT_CHECK_BUDGET = 10 ** 7
C5_SCAN_MAX_VERTICES = 40


class Certificate(namedtuple("Certificate", "kind vertices")):
    """Evidence for a recognition verdict.

    kind "peo":      vertices is a perfect elimination order (each vertex's
                     later neighbours form a clique).
    kind "hole":     vertices is a chordless cycle of the host graph.
    kind "antihole": vertices is a chordless cycle of the complement.
    """

    __slots__ = ()


def is_chordal(g, budget=DEFAULT_CHECK_BUDGET):
    """Maximum-cardinality-search chordality test.

    Returns (True, peo certificate) or (False, hole certificate).  MCS builds
    a candidate elimination order; one verification pass either confirms it
    (the order is then a valid witness for any consumer) or pinpoints a
    failure, in which case a chordless cycle >= 4 exists and is located by
    enumeration.
    """
    n = g.n
    weights = [0] * n
    visited = [False] * n
    visit_order = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not visited[v] and (best < 0 or weights[v] > weights[best]):
                best = v
        visited[best] = True
        visit_order.append(best)
        for u in _bits(g.adj[best]):
            if not visited[u]:
                weights[u] += 1
    order = tuple(reversed(visit_order))

    if _verify_peo(g, order):
        return True, Certificate("peo", order)
    hole = _first_cycle(g, Budget(budget))
    return False, Certificate("hole", hole.vertices)


def first_violation(g, prop, budget=DEFAULT_CHECK_BUDGET):
    """Certificate of the first structure in `g` violating `prop`, or None.

    chordal: the first chordless cycle of length >= 4, searched only after the
    MCS order fails its perfect-elimination check; c5-free: an induced C5;
    odd- and even-hole-free: the first chordless cycle of that parity, none
    odd in a 2-colourable `g`; odd-antihole-free: the first odd hole of the
    complement; berge: an odd hole, else an odd antihole.  Cycles come in
    canonical enumeration order.  The certificate's vertex set lives in `g`
    either way, and every way to destroy the structure adds a non-edge in it.

    `budget` caps cycle-search expansions, shared by all searches of one
    call; None means unlimited.  Exhaustion raises BudgetExhausted.
    """
    if prop not in PROPERTY_IDS:
        raise ValueError("unknown property id %r" % (prop,))
    if prop == "chordal":
        chordal, cert = is_chordal(g, budget)
        return None if chordal else cert
    tracker = Budget(budget)
    if prop == "c5-free":
        c5 = _find_c5(g, tracker)
        return None if c5 is None else Certificate("hole", c5)
    if prop in ("odd-hole-free", "even-hole-free", "berge"):
        parity = 0 if prop == "even-hole-free" else 1
        hole = None if parity and is_bipartite(g) else _first_cycle(g, tracker, parity)
        if hole is not None:
            return Certificate("hole", hole.vertices)
    if prop in ("odd-antihole-free", "berge"):
        anti = _first_cycle(g.complement(), tracker, parity=1)
        if anti is not None:
            return Certificate("antihole", anti.vertices)
    return None


def check(g, prop, budget=DEFAULT_CHECK_BUDGET):
    """Decide `prop` for `g`; returns (verdict, certificate_or_None).

    A negative verdict carries `first_violation`'s certificate; a positive
    chordality verdict carries a perfect elimination order.  `budget` caps
    cycle-search expansions (None: unlimited); exhaustion raises
    BudgetExhausted and the verdict stays unknown.
    """
    if prop == "chordal":
        return is_chordal(g, budget)
    cert = first_violation(g, prop, budget)
    return cert is None, cert


def verify_certificate(g, prop, verdict, cert):
    """Re-check a (verdict, certificate) pair against the graph it came from."""
    if verdict:
        if prop == "chordal":
            return cert is not None and cert.kind == "peo" and _verify_peo(g, cert.vertices)
        return cert is None
    if cert is None:
        return False
    if cert.kind == "hole":
        cyc = Cycle(tuple(cert.vertices))
        if not cyc.is_chordless_in(g):
            return False
        if prop == "chordal":
            return cyc.length >= 4
        if prop == "c5-free":
            return cyc.length == 5
        if prop == "odd-hole-free" or prop == "berge":
            return cyc.length >= 5 and cyc.is_odd
        if prop == "even-hole-free":
            return cyc.length >= 4 and not cyc.is_odd
        return False
    if cert.kind == "antihole":
        if prop not in ("odd-antihole-free", "berge"):
            return False
        cyc = Cycle(tuple(cert.vertices))
        return cyc.length >= 5 and cyc.is_odd and cyc.is_chordless_in(g.complement())
    return False


# -- internals ---------------------------------------------------------------

def _verify_peo(g, order):
    """One-pass perfect-elimination check.

    For each vertex, its later neighbours minus the earliest of them must all
    be adjacent to that earliest one; chasing the requirement forward verifies
    the clique condition in O(V + E) mask operations.
    """
    n = g.n
    if sorted(order) != list(range(n)):
        return False
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    later = [0] * n
    for v in range(n):
        mask = 0
        for u in _bits(g.adj[v]):
            if pos[u] > pos[v]:
                mask |= 1 << u
        later[v] = mask
    for v in range(n):
        mask = later[v]
        if not mask:
            continue
        parent = min(_bits(mask), key=lambda u: pos[u])
        rest = mask & ~(1 << parent)
        if rest & ~g.adj[parent]:
            return False
    return True


def _first_cycle(g, budget, parity=None):
    """First chordless cycle of length >= 4 (optionally of fixed parity), or
    None; `budget` is the Budget the search spends expansions from."""
    for cyc in iter_chordless_cycles(g, 4, budget):
        if parity is None or cyc.length % 2 == parity:
            return cyc
    return None


def _find_c5(g, budget):
    """Vertex order of some induced five-cycle, or None.

    Small graphs use the direct subset scan: five vertices induce a C5 exactly
    when each has two neighbours inside the subset (a 2-regular graph on five
    vertices is connected).  Larger graphs fall back to bounded-length
    chordless path search.
    """
    if g.n <= C5_SCAN_MAX_VERTICES:
        adj = g.adj
        for subset in combinations(range(g.n), 5):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if all((adj[v] & mask).bit_count() == 2 for v in subset):
                return _walk_cycle(g, subset)
        return None
    for cyc in iter_chordless_cycles(g, min_len=5, budget=budget, max_len=5):
        return cyc.vertices
    return None


def _walk_cycle(g, subset):
    """Cycle order of a subset known to induce a cycle, canonical direction."""
    start = min(subset)
    inside = {v: sorted(u for u in subset if u != v and g.has_edge(u, v))
              for v in subset}
    order = [start, inside[start][0]]
    while len(order) < len(subset):
        prev, cur = order[-2], order[-1]
        order.append(next(u for u in inside[cur] if u != prev))
    return tuple(order)

