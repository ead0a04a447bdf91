"""Named graphs, forbidden families, and matched experiment pairs.

Everything here is a pure constructor: Turán graphs with tree packings
embedded in one part, the two counterexample packages built around them, and
the nine-vertex pattern graph f1. Graphs that come with a distinguished
equitable partition carry it in their ``partition`` attribute. A
``TuranPacking`` record describes a Turán-plus-packing graph in O(1) space
and yields both the graph and an equitable partition read off the
description.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .canon import canonical_form
from .graphs import (
    Graph,
    Partition,
    _turan_sizes,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    embed_in_part,
    empty_graph,
    join,
    path,
    star,
    turan,
    u_packing,
)
from .patterns import ForbiddenFamily
from .spectral import Fold

__all__ = [
    "f1",
    "free_trees",
    "cx1_family",
    "cx1_pair",
    "cx1_records",
    "Cx2Package",
    "cx2_package",
    "star_path_pair",
    "star_path_records",
    "TuranPacking",
    "NamedConstruction",
    "CONSTRUCTIONS",
    "check_params",
    "build_named",
]


def f1() -> Graph:
    """Nine-vertex pattern graph: a dominating vertex over a 14-edge core.

    Chromatic number 4; deleting the dominating vertex drops it to 3. The
    eight core vertices are labeled 1..8 below (b..i), the dominating vertex
    is 0.
    """
    letters = "abcdefghi"
    core = "bc bf bg cf fg cd ch gd gh de di eh ei hi".split()
    edges = [(0, i) for i in range(1, 9)]
    edges += [(letters.index(x), letters.index(y)) for x, y in core]
    return Graph(9, edges)


_TREE_CACHE: dict[int, tuple[Graph, ...]] = {1: (empty_graph(1),)}


def free_trees(order: int) -> tuple[Graph, ...]:
    """All trees on ``order`` vertices, one per isomorphism class.

    Grown by leaf attachment with canonical-form dedup. Counts for orders
    1..8: 1, 1, 1, 2, 3, 6, 11, 23. Intended for small orders; the census
    itself grows like 2.96^n.
    """
    if order < 1:
        raise ValueError("tree order must be at least 1")
    top = max(_TREE_CACHE)
    while top < order:
        seen = {}
        for t in _TREE_CACHE[top]:
            for v in range(t.n):
                bigger = Graph(t.n + 1, list(t.edges()) + [(v, t.n)])
                seen.setdefault(canonical_form(bigger), bigger)
        top += 1
        _TREE_CACHE[top] = tuple(seen[k] for k in sorted(seen))
    return _TREE_CACHE[order]


def cx1_family(r: int, k: int, m: int) -> ForbiddenFamily:
    """Forbidden family parameterized by (r, k, m).

    Members: every k-vertex tree except the star and the path, and every
    (k+1)-vertex tree except the path, each joined to a balanced complete
    (r-1)-partite graph on m(r-1) vertices; the two-path and star-plus-path
    forests joined to the same; short cycles joined to the same; and the
    complete graph on r+2 vertices.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    if k < 2:
        raise ValueError("k must be at least 2")
    if m < max(2, k - 1):
        raise ValueError(f"m must be at least max(2, k-1) = {max(2, k - 1)}")
    base = turan(m * (r - 1), r - 1)
    skip_k = {canonical_form(star(k)), canonical_form(path(k))}
    skip_k1 = {canonical_form(path(k + 1))}
    members = []
    members += [join(t, base) for t in free_trees(k)
                if canonical_form(t) not in skip_k]
    members += [join(t, base) for t in free_trees(k + 1)
                if canonical_form(t) not in skip_k1]
    members.append(join(disjoint_union(path(k + 1), path(k + 1)), base))
    members.append(join(disjoint_union(star(k), path(k + 1)), base))
    members += [join(cycle(l), base) for l in range(3, k + 2)]
    members.append(complete(r + 2))
    return ForbiddenFamily(members, name=f"cx1(r={r},k={k},m={m})")


class TuranPacking(NamedTuple):
    """The complete multipartite graph with parts of ``sizes``, with copies
    of small graphs packed into parts and some cross edges removed.

    ``packs`` holds (part, component type, copies) entries. Vertices are laid
    out part by part and, inside a part, copy by copy in the order of its
    entries; a part's leftover vertices are isolated in it. ``removed`` holds
    cross edges (u, v) taken out; their endpoints must be leftover vertices.
    """
    sizes: tuple
    packs: tuple
    removed: tuple = ()

    def _layout(self) -> tuple[list, list, list]:
        """Each pack entry's first vertex, each part's first vertex (and n
        last), and each part's first leftover vertex."""
        starts = [0]
        for size in self.sizes:
            starts.append(starts[-1] + size)
        free = starts[:-1]
        firsts = []
        for part, kind, copies in self.packs:
            firsts.append(free[part])
            free[part] += copies * kind.n
            if free[part] > starts[part + 1]:
                raise ValueError(f"packing overflows part {part} of "
                                 f"{self.sizes[part]} vertices")
        return firsts, starts, free

    def graph(self) -> Graph:
        """The graph itself, carrying its parts as its partition."""
        firsts, starts, _ = self._layout()
        base = complete_multipartite(self.sizes)
        adj = list(base.adj)
        for start, (_, kind, copies) in zip(firsts, self.packs):
            for first in range(start, start + copies * kind.n, kind.n):
                for a, b in kind.edges():
                    adj[first + a] |= 1 << (first + b)
                    adj[first + b] |= 1 << (first + a)
        for u, v in self.removed:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return Graph._from_adj(starts[-1], adj, base.partition)

    def fold(self) -> Fold:
        """An equitable partition of ``graph()`` with its count matrix, read
        off the description with no n-vertex data.

        One cell per (pack entry, vertex position in the type): same-position
        vertices of identical disjoint copies see the same counts in every
        such cell. Each part's leftover vertices form runs between the
        endpoints of removed edges, and each endpoint is a cell of its own.
        Across parts a vertex sees all of a cell but its removed edges;
        inside a part it sees its type's own adjacency.
        """
        firsts, starts, free = self._layout()
        cells, tags = [], []  # tags: (part, pack entry or None, position)
        for j, (start, (part, kind, copies)) in enumerate(zip(firsts, self.packs)):
            for pos in range(kind.n):
                cells.append(range(start + pos, start + copies * kind.n, kind.n))
                tags.append((part, j, pos))
        ends = sorted({u for edge in self.removed for u in edge})
        for part in range(len(self.sizes)):
            lo, hi = free[part], starts[part + 1]
            for u in (u for u in ends if starts[part] <= u < hi):
                if u < lo:
                    raise ValueError(f"removed edge endpoint {u} is not a "
                                     f"leftover vertex of part {part}")
                cells += [range(lo, u), range(u, u + 1)]
                tags += [(part, None, 0)] * 2
                lo = u + 1
            cells.append(range(lo, hi))
            tags.append((part, None, 0))
        kept = [(c, tag) for c, tag in zip(cells, tags) if c]
        counts = []
        for cp, (ip, jp, xp) in kept:
            u = cp[0]
            row = []
            for cq, (iq, jq, xq) in kept:
                if ip != iq:
                    row.append(len(cq) - sum(1 for a, b in self.removed
                                             if a == u and b in cq
                                             or b == u and a in cq))
                elif jp is not None and jp == jq:
                    row.append(self.packs[jp][1].adj[xp] >> xq & 1)
                else:
                    row.append(0)
            counts.append(tuple(row))
        return Fold(tuple(c for c, _ in kept), tuple(counts))


def cx1_records(r: int, k: int, n: int) -> tuple[TuranPacking, TuranPacking]:
    """``cx1_pair`` as records. H's path extended by the leftover vertex
    is laid out as its own component type, so H's labels differ from
    ``cx1_pair``'s; the graphs are isomorphic."""
    if n % r == 0:
        raise ValueError(f"need n not divisible by r, got n = {n}, r = {r}")
    q, rem = divmod(n, r)
    if q % k:
        raise ValueError(f"need floor(n/r) divisible by k, got floor({n}/{r}) = {q}")
    sizes = _turan_sizes(n, r)
    g = TuranPacking(sizes, ((rem, star(k), q // k),))
    h = TuranPacking(sizes, ((0, path(k + 1), 1), (0, path(k), q // k - 1)))
    return g, h


def cx1_pair(r: int, k: int, n: int) -> tuple[Graph, Graph]:
    """Star-packed G and path-packed H on the same Turán base, e(H) = e(G)+1.

    G packs stars on k vertices into the first small part of T(n,r); H packs
    paths on k vertices into the first large part and extends the first path
    by the one leftover vertex.
    """
    g, _ = cx1_records(r, k, n)
    q = n // r
    inner = u_packing(path(k), q + 1)
    inner = inner.with_edge(k - 1, k * (q // k))  # leftover vertex extends path 0
    return g.graph(), embed_in_part(turan(n, r), 0, inner)


class Cx2Package(NamedTuple):
    family: ForbiddenFamily
    g: Graph
    h: Graph
    h_prime: Graph
    partitions: dict


def _packed_path3_partition(n_part: int, opposite: tuple[int, ...],
                            tail: str) -> Partition:
    """Classes (centers, endpoints, [tail vertices], opposite side).

    ``tail`` names what follows the packed 3-vertex paths in the part:
    "none", "isolated" (one leftover vertex), or "p2" (two 2-vertex paths).
    """
    body = n_part if tail == "none" else (n_part - 1 if tail == "isolated" else n_part - 4)
    centers = tuple(range(1, body, 3))
    endpoints = tuple(v for v in range(body) if v % 3 != 1)
    classes = [centers, endpoints]
    if tail != "none":
        classes.append(tuple(range(body, n_part)))
    classes.append(opposite)
    return Partition(classes)


def cx2_package(p: int, m: int) -> Cx2Package:
    """Three-member family and the bipartite graphs G, H, H' built for it.

    G is K_{p-1,p+1} with 3-vertex paths packed into the smaller part; H and
    H' live on K_{p,p}, packing p vertices worth of 3-vertex paths either
    with one leftover vertex or trading one path plus the leftover for two
    2-vertex paths. Each graph carries its equitable partition with classes
    (path centers, path endpoints, [leftover vertices], opposite side).
    """
    if p % 3 != 1:
        raise ValueError(f"need p congruent to 1 mod 3, got p = {p}")
    if p < 7:
        raise ValueError(f"need p at least 7, got p = {p}")
    if m < 2:
        raise ValueError(f"need m at least 2, got m = {m}")
    family = ForbiddenFamily(
        [complete(4), join(path(4), empty_graph(m)), join(star(4), empty_graph(m))],
        name=f"cx2(m={m})")

    base_g = complete_multipartite([p - 1, p + 1])
    g = embed_in_part(base_g, 0, u_packing(path(3), p - 1))
    opp_g = tuple(range(p - 1, 2 * p))
    g = g.with_partition(_packed_path3_partition(p - 1, opp_g, "none"))

    base = complete_multipartite([p, p])
    opp = tuple(range(p, 2 * p))
    h = embed_in_part(base, 0, u_packing(path(3), p))
    h = h.with_partition(_packed_path3_partition(p, opp, "isolated"))

    inner = disjoint_union(u_packing(path(3), p - 4), disjoint_union(path(2), path(2)))
    h_prime = embed_in_part(base, 0, inner)
    h_prime = h_prime.with_partition(_packed_path3_partition(p, opp, "p2"))

    partitions = {"G": g.partition, "H": h.partition, "H_prime": h_prime.partition}
    return Cx2Package(family, g, h, h_prime, partitions)


def star_path_records(n: int, r: int, k: int) -> tuple[TuranPacking, TuranPacking]:
    """``star_path_pair`` as records."""
    if r < 1 or n % r:
        raise ValueError(f"need r dividing n, got n = {n}, r = {r}")
    w = n // r
    if k < 4:
        raise ValueError(f"need k at least 4, got k = {k}")
    if w % k:
        raise ValueError(f"need k dividing n/r, got n/r = {w}, k = {k}")
    sizes = _turan_sizes(n, r)
    return (TuranPacking(sizes, ((0, star(k), w // k),)),
            TuranPacking(sizes, ((0, path(k), w // k),)))


def star_path_pair(n: int, r: int, k: int) -> tuple[Graph, Graph]:
    """Equal-size, equal-edge pair: stars versus paths packed into one part.

    Both graphs cover the first part of T(n,r) with n/(rk) trees on k
    vertices each, so the edge counts agree and only the tree shape differs.
    """
    g_star, g_path = star_path_records(n, r, k)
    return g_star.graph(), g_path.graph()


class NamedConstruction(NamedTuple):
    """A built construction bundled with its id, parameters, and family."""
    id: str
    parameters: dict
    graphs: tuple[Graph, ...]
    family: ForbiddenFamily | None


def check_params(kind: str, name: str, params: dict, takes: tuple,
                 optional: tuple = ()) -> None:
    """Refuse a key missing from ``takes``, a key outside ``takes`` and
    ``optional``, or a non-integer value, naming ``kind``, ``name``, each
    offending key and every key taken."""
    taken = tuple(takes) + tuple(optional)
    listed = ", ".join(taken) or "none"
    missing = [key for key in takes if key not in params]
    if missing:
        raise ValueError(f"{kind} {name} needs parameter {', '.join(missing)}; "
                         f"it takes {listed}")
    unknown = [key for key in params if key not in taken]
    if unknown:
        raise ValueError(f"{kind} {name} takes no parameter "
                         f"{', '.join(unknown)}; it takes {listed}")
    bad = [f"{key}={val!r}" for key, val in params.items()
           if not isinstance(val, int)]
    if bad:
        raise ValueError(f"{kind} {name} cannot take {', '.join(bad)}; "
                         f"it takes integer {listed}")


def _build_cx1(r, k, n, m=None):
    return cx1_pair(r, k, n), None if m is None else cx1_family(r, k, m)


def _build_cx2(p, m):
    pkg = cx2_package(p, m)
    return (pkg.g, pkg.h, pkg.h_prime), pkg.family


class _Construction(NamedTuple):
    takes: tuple
    optional: tuple
    labels: tuple
    build: Callable  # keyword parameters -> (graphs, family or None)


CONSTRUCTIONS = {
    "f1": _Construction((), (), ("F1",), lambda: ((f1(),), None)),
    "cx1": _Construction(("r", "k", "n"), ("m",), ("G", "H"), _build_cx1),
    "cx2": _Construction(("p", "m"), (), ("G", "H", "H_prime"), _build_cx2),
    "star-path": _Construction(("n", "r", "k"), (), ("G_star", "G_path"),
                               lambda n, r, k: (star_path_pair(n, r, k), None)),
}


def build_named(name: str, params: dict) -> NamedConstruction:
    """Build one of the ``CONSTRUCTIONS`` from its integer parameters.

    f1 takes none, cx1 takes r, k, n (an optional m adds its family), cx2
    takes p, m and star-path takes n, r, k.
    """
    if name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}")
    spec = CONSTRUCTIONS[name]
    check_params("construction", name, params, spec.takes, spec.optional)
    graphs, family = spec.build(**params)
    return NamedConstruction(name, dict(params), tuple(graphs), family)
