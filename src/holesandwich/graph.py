"""Small immutable graphs with bitset adjacency.

Vertices are dense integers 0..n-1; role names live on the sandwich
instance, not here.  Adjacency is one Python int per vertex, so
neighbourhood intersections and subset-degree tests reduce to mask
arithmetic.  This keeps the exhaustive checks elsewhere in the package honest
at desk scale without leaving pure Python.

A graph is a named tuple `(n, adj)`, checked when `Graph(n, edges)` makes
it: immutable, equal to the plain tuple, and shareable across threads.
"""

from collections import namedtuple
from itertools import combinations

from .budget import Budget
from .cnf import _is_int


def _bits(mask):
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _vertex_pair(e, n, label):
    """`e` as (u, v) with u < v, both ints in 0..n-1 (a bool is no vertex);
    else a ValueError naming `label`, the pair and its fault."""
    try:
        u, v = e
    except (TypeError, ValueError):
        u = v = None
    if not (_is_int(u) and _is_int(v)):
        raise ValueError("%s %r is not a pair of ints" % (label, e))
    if v < u:
        u, v = v, u
    if 0 <= u < v < n:
        return u, v
    raise ValueError("%s %r %s" % (
        label, (u, v), "is a loop" if u == v else "out of range"))


def _masks(n, pairs, base=None):
    """Adjacency masks on 0..n-1: those of `base` (default: no edge) plus
    each pair of `pairs`, which holds read pairs only."""
    adj = list(base or [0] * n)
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


class Graph(namedtuple("Graph", "n adj")):
    """Undirected simple graph on vertices 0..n-1: `adj[v]` masks v's
    neighbours.  `Graph(n, edges)` checks its input; `Graph._make((n,
    masks))` adopts prebuilt masks unchecked.  A copy or a pickle rebuilds
    through the checks."""

    __slots__ = ()

    def __new__(cls, n, edges=()):
        if not _is_int(n) or n < 0:
            raise ValueError("vertex count %r is not a non-negative int" % (n,))
        pairs = (_vertex_pair(e, n, "edge") for e in edges)
        return super().__new__(cls, n, _masks(n, pairs))

    def __getnewargs__(self):
        return self.n, self.edges()

    def _replace(self, **fields):
        """Refused: new masks would skip the checks of `Graph(n, edges)`."""
        raise TypeError("a Graph is built from edges: use Graph(n, edges)")

    # -- queries ----------------------------------------------------------

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def degree(self, v):
        return self.adj[v].bit_count()

    def edges(self):
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            high = self.adj[u] >> (u + 1) << (u + 1)
            for v in _bits(high):
                out.append((u, v))
        return out

    # -- derived graphs ----------------------------------------------------

    def complement(self):
        full = (1 << self.n) - 1
        masks = [full & ~self.adj[v] & ~(1 << v) for v in range(self.n)]
        return Graph._make((self.n, tuple(masks)))

    def induced(self, subset):
        """Induced subgraph, reindexed to 0..k-1 in sorted(subset) order."""
        subset = list(subset)
        if not all(_is_int(v) and 0 <= v < self.n for v in subset):
            raise ValueError("subset out of range or not of ints")
        subset = sorted(set(subset))
        return Graph(len(subset), [
            (i, j) for (i, u), (j, v) in combinations(enumerate(subset), 2)
            if self.has_edge(u, v)])


def is_hole(g, vertices):
    """True when `vertices`, in the order given, is a chordless cycle of
    `g`: its vertices are g's (ints, no bool), consecutive pairs (the last
    and the first too) adjacent, all other pairs not.  A triangle passes."""
    vs = vertices
    k = len(vs)
    if (k < 3 or not all(_is_int(v) and 0 <= v < g.n for v in vs)
            or len(set(vs)) != k):
        return False
    for i, u in enumerate(vs):
        if not g.has_edge(u, vs[(i + 1) % k]):
            return False
    for i, j in combinations(range(k), 2):
        if j - i not in (1, k - 1) and g.has_edge(vs[i], vs[j]):
            return False
    return True


def canonical_rotation(vertices):
    """Lexicographically least rotation/reflection of a cyclic sequence."""
    vs = tuple(vertices)
    return min((seq[i:] + seq[:i] for seq in (vs, vs[::-1])
                for i in range(len(vs))), default=vs)


def iter_chordless_cycles(g, budget=None, shape=None):
    """Yield every chordless cycle of length >= 4 of a `shape`, exactly
    once, as its `canonical_rotation` tuple.

    `shape` is a `recognition.FORBIDDEN` shape: None (any length), "odd",
    "even", or an int k >= 4 (exactly k); anything else raises ValueError.

    Search strategy: grow chordless paths anchored at their smallest vertex.
    A path [a, b, ..., t] keeps every vertex above the anchor a, allows no
    chord (a candidate must be adjacent only to the tail among path vertices),
    and vertices adjacent to the anchor may only close the cycle, never extend
    the path.  Requiring the closing vertex to exceed the second vertex fixes
    the traversal direction, so each cycle appears once, in canonical order.
    A path of j vertices closes into cycles of length j + 1, so it skips its
    closing scan when j + 1 has the wrong parity; the paths grown, and so
    the order of the cycles, do not depend on the shape, except that an int
    shape prunes paths that could only close into longer cycles.

    `budget` is a Budget counting path expansions; exhaustion raises
    BudgetExhausted.
    """
    if shape in (None, "odd", "even"):
        longest, parity = None, {"odd": 1, "even": 0}.get(shape)
    elif _is_int(shape) and shape >= 4:
        longest, parity = shape, shape % 2
    else:
        raise ValueError("cycle shape %r is not None, 'odd', 'even' or an "
                         "int >= 4" % (shape,))
    if budget is None:
        budget = Budget(None)
    shortest = longest or 4
    adj = g.adj
    for a in range(g.n):
        low = (1 << (a + 1)) - 1
        for b in _bits(adj[a] & ~low):
            # stack entries: (path, block) where block masks vertices unusable
            # for extension: anchor-and-below, path members, and neighbours of
            # internal (non-tail) path vertices.
            stack = [((a, b), low | (1 << b))]
            while stack:
                path, block = stack.pop()
                budget.spend()
                tail = path[-1]
                if parity is None or (len(path) + 1) % 2 == parity:
                    closing = adj[tail] & adj[a] & ~block
                    for y in _bits(closing):
                        if y > path[1] and len(path) + 1 >= shortest:
                            yield path + (y,)
                if longest is not None and len(path) + 1 >= longest:
                    continue
                extending = adj[tail] & ~block & ~adj[a]
                # Reversed push order so the smallest candidate pops first.
                for y in reversed(tuple(_bits(extending))):
                    stack.append((path + (y,), block | (1 << y) | adj[tail]))


def is_bipartite(g):
    """True when `g` is 2-colourable, i.e. has no odd cycle: breadth-first by
    level masks, an odd cycle shows as an edge inside one level."""
    unseen = (1 << g.n) - 1
    while unseen:
        level = unseen & -unseen
        while level:
            unseen &= ~level
            reach = 0
            for v in _bits(level):
                reach |= g.adj[v]
            if reach & level:
                return False
            level = reach & unseen
    return True
