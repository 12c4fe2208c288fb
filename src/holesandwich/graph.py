"""Small immutable graphs with bitset adjacency.

Vertices are dense integers 0..n-1; role names live on the sandwich
instance, not here.  Adjacency is one Python int per vertex, so
neighbourhood intersections and subset-degree tests reduce to mask
arithmetic.  This keeps the exhaustive checks elsewhere in the package honest
at desk scale without leaving pure Python.

Graph values are immutable after construction (adjacency is a tuple of ints);
they can be shared freely across threads.
"""

from itertools import combinations

from .budget import Budget


def _bits(mask):
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%r, %r) out of range" % (u, v))
            if u == v:
                raise ValueError("loop edge at vertex %r" % u)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _from_masks(cls, n, masks):
        """Internal fast path: adopt prebuilt adjacency masks (not validated)."""
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(masks)
        return g

    # -- queries ----------------------------------------------------------

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v):
        return tuple(_bits(self.adj[v]))

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

    @property
    def edge_count(self):
        return sum(m.bit_count() for m in self.adj) // 2

    # -- derived graphs ----------------------------------------------------

    def complement(self):
        full = (1 << self.n) - 1
        masks = [full & ~self.adj[v] & ~(1 << v) for v in range(self.n)]
        return Graph._from_masks(self.n, masks)

    def induced(self, subset):
        """Induced subgraph, reindexed to 0..k-1 in sorted(subset) order."""
        subset = sorted(set(subset))
        if subset and not (0 <= subset[0] and subset[-1] < self.n):
            raise ValueError("subset out of range")
        index = {v: i for i, v in enumerate(subset)}
        edges = [(index[u], index[v]) for u, v in combinations(subset, 2)
                 if self.has_edge(u, v)]
        return Graph(len(subset), edges)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        """Structural equality: same vertex count and adjacency."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return "Graph(n=%d, edges=%r)" % (self.n, self.edges())


def _immutable(self, name, *value):
    """__setattr__ and __delattr__ of the immutable value classes."""
    raise AttributeError("%s is immutable" % type(self).__name__)


class Cycle:
    """A cycle stored in canonical vertex order.

    Canonical form is the lexicographically least among all rotations and
    reflections of the vertex sequence, so equal cycles compare equal no
    matter how they were traversed.  Cycles are immutable values.
    """

    __slots__ = ("vertices",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, vertices):
        object.__setattr__(self, "vertices", canonical_rotation(vertices))

    def __eq__(self, other):
        return other.__class__ is Cycle and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __reduce__(self):
        return Cycle, (self.vertices,)

    def __repr__(self):
        return "Cycle(%r)" % (self.vertices,)

    @property
    def length(self):
        return len(self.vertices)

    @property
    def is_odd(self):
        return len(self.vertices) % 2 == 1

    def is_chordless_in(self, g):
        """True when this cycle is induced (consecutive pairs adjacent, all
        other pairs non-adjacent) in `g`."""
        vs = self.vertices
        k = len(vs)
        if k < 3 or len(set(vs)) != k:
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
    if len(vs) <= 1:
        return vs
    best = None
    for seq in (vs, tuple(reversed(vs))):
        for i in range(len(seq)):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return best


def iter_chordless_cycles(g, min_len=4, budget=None, max_len=None):
    """Yield every chordless cycle of length >= min_len exactly once.

    Search strategy: grow chordless paths anchored at their smallest vertex.
    A path [a, b, ..., t] keeps every vertex above the anchor a, allows no
    chord (a candidate must be adjacent only to the tail among path vertices),
    and vertices adjacent to the anchor may only close the cycle, never extend
    the path.  Requiring the closing vertex to exceed the second vertex fixes
    the traversal direction, so each cycle appears once, in canonical order.

    `budget` is a Budget counting path expansions; exhaustion raises
    BudgetExhausted.  `max_len` prunes paths that could only close into longer
    cycles (used for targeted C5 searches).
    """
    if budget is None:
        budget = Budget(None)
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
                closing = adj[tail] & adj[a] & ~block
                for y in _bits(closing):
                    if y > path[1] and len(path) + 1 >= min_len:
                        yield Cycle(path + (y,))
                if max_len is not None and len(path) + 1 >= max_len:
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
