"""Exact recognition of hole-defined graph classes, with certificates.

`FORBIDDEN` lists, for each supported property id, the holes and antiholes
it forbids; the violation search, the certificate check and the sandwich
solver all read it.  Every negative answer comes with a violating
certificate (the hole, in cycle order; for antiholes, the hole of the
complement).  A positive chordality answer carries a perfect elimination
order.  All procedures are exact; the exponential ones honour a step budget
and raise BudgetExhausted rather than guess.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

from .budget import Budget
from .cnf import _is_int
from .graph import _bits, is_bipartite, is_hole, iter_chordless_cycles

# What each property forbids, in search order: a chordless cycle of length
# >= 4 of the graph ("hole") or of its complement ("antihole"), of a shape
# `iter_chordless_cycles` takes: any length (None), one parity ("odd",
# "even") or length exactly 5.
FORBIDDEN = {
    "chordal": (("hole", None),),
    "c5-free": (("hole", 5),),
    "odd-hole-free": (("hole", "odd"),),
    "even-hole-free": (("hole", "even"),),
    "odd-antihole-free": (("antihole", "odd"),),
    "berge": (("hole", "odd"), ("antihole", "odd")),
}

PROPERTY_IDS = tuple(FORBIDDEN)

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


def check(g, prop, budget=DEFAULT_CHECK_BUDGET):
    """Decide `prop` for `g`; returns (verdict, certificate_or_None).

    A negative verdict carries the first structure found: the property's
    `FORBIDDEN` entries are searched in order, each by a path search that
    closes only cycles of the entry's shape, and the first of them in
    canonical enumeration order is the certificate.  Before an entry's
    five-subset scan or path search, a 2-colourable host, which has no odd
    cycle, rules out an odd shape (odd, or length 5), and a chordal host,
    which has no hole, rules out every entry; neither spends budget.
    An odd antihole entry is ruled out from `g` itself, before the
    complement is built: an antihole of length k >= 5 is the complement of
    C_k; for k = 5 that is a C5 of `g`, an odd cycle and a hole, and for
    k >= 6 vertices 0, 2, 4 of C_k are a triangle of `g` and vertices
    0, 3, 1, 4 an induced C4, so a 2-colourable or chordal `g` has none.
    Chordality is one pass of maximum cardinality search, whose perfect
    elimination order certifies a chordal graph; a graph's 2-colouring and
    order are computed once per graph value, by `_facts`, and shared.
    The certificate's vertex set lives in `g`, and every way to destroy the
    structure adds a non-edge in it.

    `budget` caps the steps of all searches of one call together; None
    means unlimited.  Exhaustion raises BudgetExhausted and the verdict
    stays unknown.
    """
    if prop not in PROPERTY_IDS:
        raise ValueError("unknown property id %r" % (prop,))
    tracker = Budget(budget)
    for kind, shape in FORBIDDEN[prop]:
        if kind == "antihole" and shape in ("odd", 5):
            bipartite, order = _facts(g)
            if bipartite or order is not None:
                continue
        host = g if kind == "hole" else g.complement()
        bipartite, order = _facts(host)
        if shape in ("odd", 5) and bipartite:
            continue
        if order is not None:
            if prop == "chordal":
                return True, Certificate("peo", order)
            continue
        if (shape == 5 and g.n <= C5_SCAN_MAX_VERTICES
                and not _scan_c5(host, tracker)):
            continue
        found = next(iter_chordless_cycles(host, tracker, shape), None)
        if found is not None:
            return False, Certificate(kind, found)
    return True, None


def verify_certificate(g, prop, verdict, cert):
    """Re-check a (verdict, certificate) pair against the graph it came from."""
    if prop not in PROPERTY_IDS:
        raise ValueError("unknown property id %r" % (prop,))
    # Anything but a Certificate whose vertices are a tuple or list of ints
    # would fail the checks below with TypeError or AttributeError instead
    # of being rejected.
    if cert is not None and not (isinstance(cert, Certificate)
                                 and isinstance(cert.vertices, (tuple, list))
                                 and all(map(_is_int, cert.vertices))):
        return False
    if verdict:
        if prop == "chordal":
            return cert is not None and cert.kind == "peo" and _verify_peo(g, cert.vertices)
        return cert is None
    if cert is None:
        return False
    for kind, shape in FORBIDDEN[prop]:
        if cert.kind == kind:
            host = g if kind == "hole" else g.complement()
            return (_fits(len(cert.vertices), shape)
                    and is_hole(host, cert.vertices))
    return False


# -- internals ---------------------------------------------------------------

def _fits(length, shape):
    """True when a chordless cycle of `length` has a FORBIDDEN entry's shape."""
    if shape == 5:
        return length == 5
    return length >= 4 and shape in (None, ("even", "odd")[length % 2])


@lru_cache(maxsize=2)  # a graph and its complement: the hosts of its checks
def _facts(host):
    """(is_bipartite(host), _peo(host)), memoised per graph value (n, adj)."""
    return is_bipartite(host), _peo(host)


def _peo(g):
    """A perfect elimination order of `g`, or None when `g` is not chordal.

    Maximum cardinality search (Tarjan & Yannakakis 1984), reversed, with
    the unvisited vertices of w visited neighbours in the mask `levels[w]`.
    Each vertex's visited neighbours must form a clique; the earlier
    vertices having passed, that holds when all are adjacent to the latest
    visited of them, and the search stops at the first that fails.
    """
    n, adj = g.n, g.adj
    levels = [(1 << n) - 1] + [0] * n
    top = visited = 0
    order = []
    for _ in range(n):
        while not levels[top]:
            top -= 1
        low = levels[top] & -levels[top]
        levels[top] ^= low
        v = low.bit_length() - 1
        earlier = adj[v] & visited
        if earlier:
            for latest in reversed(order):
                if earlier >> latest & 1:
                    break
            if earlier & ~adj[latest] & ~(1 << latest):
                return None
        visited |= low
        order.append(v)
        rising = adj[v] & ~visited
        w = top
        while rising:
            moved = levels[w] & rising
            levels[w] ^= moved
            levels[w + 1] |= moved
            rising ^= moved
            w -= 1
        top += 1
    return tuple(reversed(order))


def _verify_peo(g, order):
    """True when `order` is a perfect elimination order of `g`: a
    permutation of its vertices in which each vertex's later neighbours
    are pairwise adjacent."""
    if sorted(order) != list(range(g.n)):
        return False
    later = 0
    for v in reversed(order):
        around = g.adj[v] & later
        for u in _bits(around):
            if around & ~g.adj[u] & ~(1 << u):
                return False
        later |= 1 << v
    return True


def _scan_c5(g, budget):
    """True when some five vertices induce a cycle, by five-subset scan.

    Five vertices induce a C5 exactly when each has two neighbours inside
    the subset (a 2-regular graph on five vertices is connected).  The
    C(n-a-1, 4) subsets whose smallest vertex is a are paid for from
    `budget` once scanned, and not at all when a C5 is among them: a
    budget below one such batch is overrun by at most the batch, 82,251
    subsets (about 0.1 s) at n = 40.  `check` scans no 2-colourable or
    chordal host, which has no C5.  The scan only tests existence; the
    certificate comes from the path search, in enumeration order.
    """
    n, adj = g.n, g.adj
    for a in range(n):
        low = 1 << a
        for rest in combinations(range(a + 1, n), 4):
            mask = low
            for v in rest:
                mask |= 1 << v
            if (all((adj[v] & mask).bit_count() == 2 for v in rest)
                    and (adj[a] & mask).bit_count() == 2):
                return True
        budget.spend(comb(n - a - 1, 4))
    return False
