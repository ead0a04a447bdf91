"""Immutable simple graphs with bitset adjacency, plus the standard constructions.

Vertices are dense 0-indexed integers. Adjacency rows are Python ints used as
bitsets, which keeps graphs hashable, cheap to copy, and fast to intersect.
Everything here is a pure function: operations return new graphs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "Partition",
    "empty_graph",
    "complete",
    "path",
    "cycle",
    "star",
    "matching",
    "complete_multipartite",
    "turan",
    "disjoint_union",
    "join",
    "kelmans",
    "induced_subgraph",
    "relabel",
    "adjacency_matrix",
]


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Partition:
    """Ordered list of disjoint, nonempty vertex classes covering 0..n-1."""

    __slots__ = ("classes", "n", "_class_of")

    def __init__(self, classes: Iterable[Iterable[int]]):
        cls = tuple(tuple(sorted(c)) for c in classes)
        if any(len(c) == 0 for c in cls):
            raise ValueError("partition has an empty class")
        flat = [v for c in cls for v in c]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ValueError("partition classes must be disjoint and cover 0..n-1")
        self.classes = cls
        self.n = n
        class_of = {}
        for i, c in enumerate(cls):
            for v in c:
                class_of[v] = i
        self._class_of = class_of

    def class_of(self, v: int) -> int:
        return self._class_of[v]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.classes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.classes == other.classes

    def __hash__(self) -> int:
        return hash(self.classes)

    def __repr__(self) -> str:
        return f"Partition({list(map(list, self.classes))})"


class Graph:
    """Simple undirected graph: vertex count plus one adjacency bitset per vertex.

    Immutable; no self-loops. ``partition`` is optional metadata (a Partition
    riding along with multipartite constructions) and is ignored by equality.
    The edge count and degree sequence are computed on first use and kept
    in slots that stay unset until then.
    """

    __slots__ = ("n", "adj", "partition", "_edge_count", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 partition: Partition | None = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "partition", partition)

    @classmethod
    def _from_adj(cls, n: int, adj: Sequence[int],
                  partition: Partition | None = None) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(adj))
        object.__setattr__(g, "partition", partition)
        return g

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    # -- queries ---------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return _iter_bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        try:
            return self._edge_count
        except AttributeError:
            object.__setattr__(self, "_edge_count",
                               sum(row.bit_count() for row in self.adj) // 2)
            return self._edge_count

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for d in _iter_bits(row):
                out.append((u, u + 1 + d))
        return out

    def degree_sequence(self) -> tuple[int, ...]:
        try:
            return self._degrees
        except AttributeError:
            object.__setattr__(self, "_degrees", tuple(
                sorted((row.bit_count() for row in self.adj), reverse=True)))
            return self._degrees

    # -- derived graphs --------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("self-loop")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._from_adj(self.n, adj, self.partition)

    def without_edge(self, u: int, v: int) -> "Graph":
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph._from_adj(self.n, adj, self.partition)

    def with_partition(self, partition: Partition | None) -> "Graph":
        return Graph._from_adj(self.n, self.adj, partition)

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks."""
        seen = 0
        out = []
        full = (1 << self.n) - 1
        while seen != full:
            start = (~seen & full) & -(~seen & full)
            comp = start
            frontier = start
            while frontier:
                nxt = 0
                for v in _iter_bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
                comp |= frontier
            out.append(comp)
            seen |= comp
        return out

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- basic constructors ---------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._from_adj(n, [full ^ (1 << v) for v in range(n)])


def path(length: int) -> Graph:
    """Path on ``length`` vertices (so ``length - 1`` edges)."""
    if length < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(length, [(i, i + 1) for i in range(length - 1)])


def cycle(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle needs at least three vertices")
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Graph(length, edges)


def star(k: int) -> Graph:
    """Star on k vertices: one center joined to k-1 leaves."""
    if k < 1:
        raise ValueError("star needs at least one vertex")
    return Graph(k, [(0, i) for i in range(1, k)])


def matching(n: int) -> Graph:
    """Matching on n vertices; odd n leaves one isolated vertex."""
    return Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts in the given order, with Partition."""
    if len(sizes) == 0:
        raise ValueError("need at least one part")
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    full = (1 << n) - 1
    adj = []
    classes = []
    offset = 0
    for s in sizes:
        part_mask = ((1 << s) - 1) << offset
        classes.append(range(offset, offset + s))
        adj.extend([full ^ part_mask] * s)
        offset += s
    return Graph._from_adj(n, adj, Partition(classes))


def turan(n: int, r: int) -> Graph:
    """Turan graph T_{n,r}: complete r-partite, parts as equal as possible.

    Larger parts come first, so part 0 is always a largest part and part r-1
    a smallest one.
    """
    return complete_multipartite(_turan_sizes(n, r))


def _turan_sizes(n: int, r: int) -> tuple[int, ...]:
    """The part sizes of T_{n,r}, larger parts first."""
    if r < 1 or r > n:
        raise ValueError(f"turan requires 1 <= r <= n, got r={r}, n={n}")
    q, rem = divmod(n, r)
    return (q + 1,) * rem + (q,) * (r - rem)


# -- combining operations --------------------------------------------------

def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph._from_adj(g.n + h.n, adj)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    adj = [row | h_mask for row in g.adj]
    adj += [(row << g.n) | g_mask for row in h.adj]
    return Graph._from_adj(g.n + h.n, adj)


def kelmans(g: Graph, u: int, v: int) -> Graph:
    """Kelmans transformation: re-attach v's private neighbors to u.

    Every neighbor x of v with x not in N(u) and x != u loses the edge vx and
    gains the edge ux. Edge count is preserved; for trees the spectral radius
    does not decrease.
    """
    if u == v:
        raise ValueError("kelmans needs two distinct vertices")
    bit_u, bit_v = 1 << u, 1 << v
    moved = g.adj[v] & ~g.adj[u] & ~bit_u
    if not moved:
        return g
    adj = list(g.adj)
    adj[v] &= ~moved
    adj[u] |= moved
    for x in _iter_bits(moved):
        adj[x] = (adj[x] & ~bit_v) | bit_u
    return Graph._from_adj(g.n, adj)


# -- misc ------------------------------------------------------------------

def induced_subgraph(g: Graph, vertices: Iterable[int] | int) -> Graph:
    """Subgraph induced on the given vertices (iterable or bitmask), relabeled 0..k-1."""
    verts = sorted(_iter_bits(vertices)) if isinstance(vertices, int) else sorted(vertices)
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        raise ValueError("duplicate vertices")
    adj = []
    mask = 0
    for v in verts:
        mask |= 1 << v
    for v in verts:
        row = 0
        for w in _iter_bits(g.adj[v] & mask):
            row |= 1 << index[w]
        adj.append(row)
    return Graph._from_adj(len(verts), adj)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the vertex permutation old -> perm[old].

    Twins share a row, so each distinct row is relabeled once.
    """
    adj = [0] * g.n
    images: dict[int, int] = {}
    for v, row in enumerate(g.adj):
        image = images.get(row)
        if image is None:
            image = 0
            for w in _iter_bits(row):
                image |= 1 << perm[w]
            images[row] = image
        adj[perm[v]] = image
    return Graph._from_adj(g.n, adj)


def _unpack_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """uint8 matrix whose row i holds bits 0..n-1 of rows[i]."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                        dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(rows), nbytes), axis=1,
                         bitorder="little")[:, :n]


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense float64 adjacency matrix of g, in C order."""
    return _unpack_rows(g.adj, g.n).astype(np.float64, order="C")
