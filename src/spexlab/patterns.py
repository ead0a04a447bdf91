"""Non-induced subgraph containment, forbidden families, exact chromatic numbers.

Containment is decided exactly by decomposing the host graph: a host that is a
join splits into co-components (the pattern is partitioned among them), a
disconnected host packs pattern components into host components, and every
other host runs a backtracking matcher over twin-collapsed vertex classes
with forward checking.

In a join, each edgeless co-component first takes a whole set of pattern
vertices: a maximal independent set of those still left, or a subset of one
as large as the part. What is left is one containment test in the join of
the parts with edges, and a join with no edgeless part goes straight to the
matcher, which needs no connectivity. So a Turán graph with a forest in one
part costs a search over a few sets and one containment test in the forest
part. Every search breaks the pattern's own symmetry: pattern twins take
host classes in order, and a whole set holds the earlier twins of its
members, so no search re-tries a placement that only swaps interchangeable
pattern vertices.

Verdicts are cached under the exact adjacency of host and pattern. That key
is finer than isomorphism, so a hit is never wrong, and the subgraphs a
search asks about are built deterministically, so they recur with the same
labels. A host known to be free but for one new edge uv (is_free's
new_edge) holds a connected member only through uv, so the member is
looked for only among the vertices within its diameter of both u and v,
a complete member by a clique search on bitsets that builds no subhost;
the exhaustive walk passes every child in that way, so its hosts are these
ball subhosts and rarely recur. Maximal independent sets, from one
Bron–Kerbosch run per pattern, and degree profiles are cached per pattern
and vertex subset, and every host reads them. Each host's decomposition
(join, packing or matcher, and the parts each needs) is worked out once
and kept in one LRU cache, _plan. Containment canonizes only to break ties
among a disconnected host's components, which a cheap invariant leaves,
and to group pattern components in _pack_components. Edgeless join parts
are interchangeable exactly when their sizes are equal.

A join split that finds the pattern hands back the residue it left to the
parts with edges, and the restricted search prunes with it
(``oracle.restricted_ex``).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable

from .canon import canonical_form
from .graphs import Graph, _iter_bits, disjoint_union, induced_subgraph, relabel

__all__ = [
    "ForbiddenFamily",
    "contains_subgraph",
    "is_free",
    "chromatic_number",
]

_cform = lru_cache(maxsize=4096)(canonical_form)

# (host adjacency, pattern adjacency) -> verdict; n is len(adj)
_cache: dict[tuple, bool] = {}
# (pattern adjacency, vertex mask) -> [each vertex's previous twin in the
# induced subgraph, its maximal independent sets, _allowed_sets' answers by
# part size, its degrees as bytes, largest first], each None until first
# asked for; n is len(adj)
_mis_cache: dict[tuple, list] = {}
_CACHE_CAP = 200_000


def _remember(cache: dict, key, value):
    """Store value under key, emptying the cache first when it is full."""
    if len(cache) >= _CACHE_CAP:
        cache.clear()
    cache[key] = value
    return value


# -- containment -----------------------------------------------------------

def contains_subgraph(host: Graph, pattern: Graph) -> bool:
    """Whether host has a (not necessarily induced) subgraph isomorphic to pattern."""
    return _contains(host, pattern) is not False


def is_free(g: Graph, family: "ForbiddenFamily | Iterable[Graph]", *,
            new_edge: tuple[int, int] | None = None) -> bool:
    """Whether g contains no member of the family.

    With new_edge=(u, v), uv must be an edge of g (else ValueError) and the
    caller vouches that g - uv is free. Then a copy of a member in g uses
    uv, or it would be a copy in g - uv. A copy of a connected member of
    diameter D is connected, contains u and v, and every vertex of it lies
    within D of both in the copy, so within D of both in g. So g holds the
    member exactly when g[ball_D(u) & ball_D(v)] does, since that induced
    subgraph holds the copy's vertices and edges, and is itself a subgraph
    of g. A disconnected member is tested in the whole of g.

    A complete member K_r is looked for as a bitset clique search instead:
    a copy through uv is u, v and r - 2 pairwise adjacent common
    neighbours of u and v, all of them near.
    """
    return _first_hit(g, family, new_edge) is False


def _first_hit(g: Graph, family: "ForbiddenFamily | Iterable[Graph]",
               new_edge: tuple[int, int] | None = None) -> bool | Graph:
    """False when g holds no member of the family (``is_free``), else the
    ``_contains`` verdict of the first member g holds, members taken
    smallest first (order, then size). A member that the clique search of
    new_edge finds gives True."""
    if isinstance(family, ForbiddenFamily):
        members = family.by_order
    else:
        members = _smallest_first(family)
    if new_edge is not None:
        u, v = new_edge
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            raise ValueError(f"new_edge {new_edge} is not an edge of g")
    for m in members:
        host = g
        d = None if new_edge is None else _diameter(m)
        if d is not None:
            near = _ball(g, u, d) & _ball(g, v, d)
            if near.bit_count() < m.n:
                continue
            if 2 * m.edge_count == m.n * (m.n - 1):
                if _has_clique(g.adj, near & g.adj[u] & g.adj[v], m.n - 2):
                    return True
                continue
            host = induced_subgraph(g, near)
        hit = _contains(host, m)
        if hit is not False:
            return hit
    return False


def _smallest_first(members: Iterable[Graph]) -> tuple[Graph, ...]:
    """members sorted by (order, size), ties in the given order."""
    return tuple(sorted(members, key=lambda m: (m.n, m.edge_count)))


def _has_clique(adj: tuple[int, ...], cand: int, k: int) -> bool:
    """Whether k vertices of the bitmask cand are pairwise adjacent."""
    if k <= 0:
        return True
    while cand.bit_count() >= k:
        low = cand & -cand
        cand ^= low
        if _has_clique(adj, cand & adj[low.bit_length() - 1], k - 1):
            return True
    return False


def _ball(g: Graph, v: int, radius: int) -> int:
    """The vertices within distance radius of v in g, as a bitmask."""
    ball = frontier = 1 << v
    for _ in range(radius):
        reach = 0
        for w in _iter_bits(frontier):
            reach |= g.adj[w]
        frontier = reach & ~ball
        if not frontier:
            break
        ball |= frontier
    return ball


@lru_cache(maxsize=4096)
def _diameter(g: Graph) -> int | None:
    """The largest distance between two vertices of g, or None if g is disconnected."""
    if len(g.components()) > 1:
        return None
    full = (1 << g.n) - 1
    return next(d for d in range(g.n + 1)
                if all(_ball(g, v, d) == full for v in range(g.n)))


def _contains(host: Graph, pattern: Graph) -> bool | Graph:
    """Whether host holds pattern: False, or a truthy verdict.

    When a join host's split is searched, not read from the cache, a
    truthy verdict is the residue ``_join_split`` placed in the join of the
    parts with edges; every other truthy verdict is True. The cache keeps
    the bool.
    """
    if pattern.n == 0:
        return True
    if pattern.n > host.n or pattern.edge_count > host.edge_count:
        return False
    if pattern.edge_count == 0:
        return True
    hd = host.degree_sequence()
    pd = pattern.degree_sequence()
    if any(hd[i] < pd[i] for i in range(pattern.n)):
        return False

    key = (host.adj, pattern.adj)
    hit = _cache.get(key)
    if hit is not None:
        return hit

    kind = _plan(host)[0]
    if kind == "join":
        residue = _join_split(host, pattern)
        _remember(_cache, key, residue is not None)
        return False if residue is None else residue
    if kind == "pack":
        res = _pack_components(host, pattern)
    else:
        res = _core_match(host, pattern)
    return _remember(_cache, key, res)


@lru_cache(maxsize=256)
def _plan(host: Graph) -> tuple:
    """How _contains decomposes the host, worked out once per host.

    ("join", caps, edged): a join with an edgeless co-component; caps are
    the edgeless parts' sizes, largest first, and edged is the join of the
    parts with edges. ("pack", types, counts): a disconnected host, with
    one component per isomorphism type, largest first, and the number of
    components of each type; only components that tie on (order, size,
    degree sequence) are canonized. ("core",): any other host, a join of
    parts with edges included. No host is both a join and disconnected,
    since the complement of a disconnected graph is connected.
    """
    full = (1 << host.n) - 1
    co = Graph._from_adj(host.n, tuple(full ^ row ^ (1 << v)
                                       for v, row in enumerate(host.adj)))
    cocomps = co.components()
    edgeless = [mask for mask in cocomps
                if not any(host.adj[v] & mask for v in _iter_bits(mask))]
    if len(cocomps) > 1 and edgeless:
        caps = tuple(sorted((mask.bit_count() for mask in edgeless), reverse=True))
        return "join", caps, induced_subgraph(host, full ^ sum(edgeless))
    comps = host.components()
    if len(comps) == 1:
        return ("core",)
    subs = [induced_subgraph(host, mask) for mask in comps]
    invs = [(g.n, g.edge_count, g.degree_sequence()) for g in subs]
    tally = Counter(invs)
    types: dict = {}
    for sub, inv in zip(subs, invs):
        types.setdefault(inv if tally[inv] == 1 else _cform(sub), [sub, 0])[1] += 1
    ordered = sorted(types.values(), key=lambda e: (-e[0].n, -e[0].edge_count))
    return "pack", tuple(e[0] for e in ordered), tuple(e[1] for e in ordered)


def _twin_prev(g: Graph, order: list[int], within: int = -1) -> list[int]:
    """For each position of order, the position of the previous twin, or -1.

    Twins have equal open neighbourhoods or equal closed neighbourhoods in
    g[within], and swapping two twins is an automorphism of g[within]. A
    vertex with a twin has only one kind, and an open neighbourhood never
    equals a closed one (N(u) = N[w] puts w in N(u), so u in N(w), a subset
    of N(u)), so one dict keyed by both kinds finds the previous twin.
    """
    seen: dict[int, int] = {}
    prev = []
    for i, v in enumerate(order):
        nbhd = g.adj[v] & within
        closed = nbhd | 1 << v
        prev.append(seen.get(nbhd, seen.get(closed, -1)))
        seen[nbhd] = seen[closed] = i
    return prev


# -- host is a join: partition the pattern among the co-components ----------

def _join_split(host: Graph, pattern: Graph) -> Graph | None:
    """The residue of the pattern left to the join of the host's parts with
    edges when the pattern splits among the host's co-components, else None.

    The pattern fits exactly when its vertices split into sets S_i with
    pattern[S_i] a subgraph of part P_i. For an edgeless part the allowed
    S_i are the independent sets of at most |P_i| vertices, a family closed
    under subsets, and moving a vertex into such an S_i only shrinks what
    the other parts must hold. So the edgeless parts, taken in a fixed
    order, each take a whole set first: a maximal allowed set of the
    vertices still left, which is a maximal independent set of them or a
    |P_i|-subset of a larger one (_allowed_sets). What is left must fit
    the join of the parts with edges, which one _contains call decides.

    Vertices are relabeled by falling degree, and two more rules cut the
    set search: a set holds the earlier twins, in what is left, of its
    members; and of two consecutive edgeless parts of equal size, the
    first takes the set with the lower least vertex (a lex-leader break of
    the host's symmetry, after Crawford, Ginsberg, Luks & Roy, KR 1996).
    No rule loses an embedding. Rank a set by its least vertex, then by
    size (larger first), then by its sorted vertex tuple, and compare
    embeddings by their sets' ranks in part order, lexicographically. Each
    of three rewrites keeps an embedding, keeps the sets before some part
    and lowers that part's rank: extending its set to a maximal allowed
    one (later parts, or the rest, give the vertices up); swapping a
    member for an earlier twin outside the set (an automorphism of what is
    left); swapping the sets of two consecutive equal parts when the
    second has the lower least vertex (an automorphism of the host). There
    are finitely many embeddings, so a host that holds the pattern has one
    that no rewrite lowers, and that embedding meets every rule.

    The residue is pattern[R], R the vertices the edgeless parts left, on
    the degree-ordered labels; the host holds the pattern through the sets
    the edgeless parts took and any copy of the residue in the parts with
    edges.
    """
    _, caps, edged = _plan(host)
    k = len(caps)
    # reach[j]: how many vertices parts j.. can hold; beyond[j]: how many
    # the parts after part j's run of equal sizes can
    room, qedges, qdeg = edged.n, edged.edge_count, edged.degree_sequence()
    reach = [room + sum(caps[j:]) for j in range(k + 1)]
    beyond = [reach[next((i for i in range(j, k) if caps[i] != caps[j]), k)]
              for j in range(k)]
    pattern = _by_degree(pattern)
    padj = pattern.adj

    def residue(left: int) -> Graph | None:
        """pattern[left], if it fits the join of the parts with edges."""
        if left:
            row = _row(pattern, left)
            if row[3] is None:
                # a degree above 255 is kept as 255: the checks only weaken
                row[3] = bytes(sorted((min((padj[v] & left).bit_count(), 255)
                                       for v in _iter_bits(left)), reverse=True))
            degs = row[3]
            if (len(degs) > room or sum(degs) > 2 * qedges
                    or any(d > h for d, h in zip(degs, qdeg))):
                return None
        sub = induced_subgraph(pattern, left)
        return sub if not left or _contains(edged, sub) else None

    failed: set[tuple[int, int, int]] = set()  # (part, left, low) states

    def fill(j: int, left: int, low: int) -> Graph | None:
        """The residue when parts j.. take left, with part j's least vertex
        above low; None when they cannot."""
        if (j, left, low) in failed:
            return None
        if j == k or not left:
            found = residue(left)
            if found is not None:
                return found
        elif left.bit_count() <= reach[j]:
            tied = j + 1 < k and caps[j + 1] == caps[j]
            above = -1 << (low + 1)
            for t in _allowed_sets(pattern, left, caps[j]):
                if t & above != t:
                    continue
                rest = left ^ t
                least = (t & -t).bit_length() - 1 if tied else -1
                # the rest of the run takes nothing below least
                if tied and (rest & ((1 << least) - 1)).bit_count() > beyond[j]:
                    continue
                found = fill(j + 1, rest, least)
                if found is not None:
                    return found
        failed.add((j, left, low))
        return None

    return fill(0, (1 << pattern.n) - 1, -1)


@lru_cache(maxsize=4096)
def _by_degree(g: Graph) -> Graph:
    """g relabeled so that vertex degrees fall with the label."""
    rank = sorted(range(g.n), key=lambda v: -g.degree(v))
    pos = [0] * g.n
    for i, v in enumerate(rank):
        pos[v] = i
    return relabel(g, pos)


def _row(g: Graph, left: int) -> list:
    """The _mis_cache entry of g[left], added empty when missing."""
    key = (g.adj, left)
    return _mis_cache.get(key) or _remember(_mis_cache, key, [None] * 4)


def _set_key(t: int) -> tuple[int, int, int]:
    """Larger sets first, then by least vertex."""
    return -t.bit_count(), t & -t, t


def _allowed_sets(g: Graph, left: int, cap: int) -> list[int]:
    """The sets an edgeless part of cap vertices may take from g[left].

    These are the maximal independent sets of g[left] and the cap-subsets
    of larger ones, kept only when they hold the earlier twins of their
    members, in _set_key order.
    """
    row = _row(g, left)
    if row[0] is None:
        row[0], row[2] = _twin_pred(g, left), {}
    pred, sets, by_cap, _ = row
    if cap > 1:
        if sets is None:
            sets = row[1] = _maximal_independent_sets(g, left)
        cap = min(cap, sets[0].bit_count())
    out = by_cap.get(cap)
    if out is not None:
        return out
    if cap == 1:
        # every vertex lies in a maximal independent set, so a part of one
        # vertex may take any vertex without an earlier twin
        out = by_cap[cap] = [1 << v for v in _iter_bits(left) if not pred[v]]
        return out
    found: dict[int, None] = {}

    def grow(verts: list[int], i: int, chosen: int, need: int) -> None:
        """Record chosen plus each twin-closed need-subset of verts[i:]."""
        if need == 0:
            found[chosen] = None
        elif len(verts) - i >= need:
            v = verts[i]
            if not pred[v] & ~chosen:
                grow(verts, i + 1, chosen | 1 << v, need - 1)
            grow(verts, i + 1, chosen, need)

    for s in sets:
        if s.bit_count() > cap:
            grow(list(_iter_bits(s)), 0, 0, cap)
        elif all(not pred[v] & ~s for v in _iter_bits(s)):
            found[s] = None
    out = by_cap[cap] = sorted(found, key=_set_key)
    return out


def _maximal_independent_sets(g: Graph, within: int) -> list[int]:
    """Maximal independent sets of g[within], in _set_key order.

    Bron–Kerbosch with pivoting (Commun. ACM 16, 1973) on the complement,
    whose maximal cliques they are, runs only on the whole vertex set, and
    the entry of that set keeps its answer. An independent set of
    g[within] lies in a maximal one I of g, and I & within is independent,
    so the sets of a smaller within are the maximal sets I & within. A
    strict superset comes first in _set_key order, so one pass keeps each
    set that no set kept before it contains.
    """
    full = (1 << g.n) - 1
    if within != full:
        whole = _row(g, full)
        if whole[1] is None:
            whole[1] = _maximal_independent_sets(g, full)
        out: list[int] = []
        for s in sorted({i & within for i in whole[1]}, key=_set_key):
            for t in out:
                if t & s == s:
                    break
            else:
                out.append(s)
        return out
    non = [within & ~(row | 1 << v) for v, row in enumerate(g.adj)]
    out = []

    def expand(chosen: int, cand: int, done: int) -> None:
        if not cand | done:
            out.append(chosen)
            return
        pivot = max(_iter_bits(cand | done), key=lambda u: (cand & non[u]).bit_count())
        for v in _iter_bits(cand & ~non[pivot]):
            bit = 1 << v
            expand(chosen | bit, cand & non[v], done & non[v])
            cand ^= bit
            done |= bit

    expand(0, within, 0)
    return sorted(out, key=_set_key)


def _twin_pred(g: Graph, within: int) -> list[int]:
    """For each vertex of within, the bit of its previous twin in g[within], or 0."""
    order = list(_iter_bits(within))
    pred = [0] * g.n
    for v, p in zip(order, _twin_prev(g, order, within)):
        if p >= 0:
            pred[v] = 1 << order[p]
    return pred


# -- host disconnected: pack pattern components into host components --------

def _pack_components(host: Graph, pattern: Graph) -> bool:
    _, hgraphs, hcounts = _plan(host)

    mlist = [induced_subgraph(pattern, mask) for mask in pattern.components()]
    mkeys = [_cform(c) for c in mlist]
    idx_order = sorted(range(len(mlist)),
                       key=lambda i: (-mlist[i].n, -mlist[i].edge_count, mkeys[i]))
    mlist = [mlist[i] for i in idx_order]
    mkeys = [mkeys[i] for i in idx_order]
    k = len(mlist)
    full = (1 << k) - 1

    memo: dict[tuple, bool] = {}

    def solve(mask: int, counts: tuple[int, ...]) -> bool:
        if mask == 0:
            return True
        key = (tuple(sorted(mkeys[i] for i in _iter_bits(mask))), counts)
        hit = memo.get(key)
        if hit is not None:
            return hit
        first = (mask & -mask).bit_length() - 1  # largest remaining component
        rest = mask ^ (1 << first)
        res = False
        for t, hg in enumerate(hgraphs):
            if counts[t] == 0 or hg.n < mlist[first].n:
                continue
            budget = hg.n - mlist[first].n
            sub = rest
            while True:  # all submasks of rest, including empty
                chosen = rest ^ sub
                if sum(mlist[i].n for i in _iter_bits(chosen)) <= budget:
                    group = mlist[first]
                    for i in _iter_bits(chosen):
                        group = disjoint_union(group, mlist[i])
                    if _contains(hg, group):
                        nxt = counts[:t] + (counts[t] - 1,) + counts[t + 1:]
                        if solve(rest ^ chosen, nxt):
                            res = True
                            break
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            if res:
                break
        memo[key] = res
        return res

    return solve(full, hcounts)


# -- any other host: folded backtracking -----------------------------------

def _fold(host: Graph) -> tuple[list[int], list[bool], list[int], list[int]]:
    """Collapse twin classes of the host.

    Returns (sizes, clique flags, class adjacency bitmask rows, per-vertex
    degree of a class member). Vertices with identical open neighborhoods
    form independent classes; remaining vertices with identical closed
    neighborhoods form clique classes. Between two classes the host is then
    complete or empty, so a member is as good as any other.
    """
    by_open: dict[int, list[int]] = {}
    for v in range(host.n):
        by_open.setdefault(host.adj[v], []).append(v)
    classes = []
    leftovers = []
    for verts in by_open.values():
        if len(verts) > 1:
            classes.append((verts, False))
        else:
            leftovers.append(verts[0])
    by_closed: dict[int, list[int]] = {}
    for v in leftovers:
        by_closed.setdefault(host.adj[v] | (1 << v), []).append(v)
    for verts in by_closed.values():
        classes.append((verts, len(verts) > 1))

    reps = [verts[0] for verts, _ in classes]
    sizes = [len(verts) for verts, _ in classes]
    cliques = [flag for _, flag in classes]
    class_of = {}
    for c, (verts, _) in enumerate(classes):
        for v in verts:
            class_of[v] = c
    rows = [0] * len(classes)
    for c, rep in enumerate(reps):
        row = 0
        for w in _iter_bits(host.adj[rep]):
            d = class_of[w]
            if d != c:
                row |= 1 << d
        rows[c] = row
    vdeg = [host.degree(rep) for rep in reps]
    return sizes, cliques, rows, vdeg


def _pattern_order(pattern: Graph) -> list[int]:
    """Static order: big components first, each explored most-connected-first."""
    order: list[int] = []
    placed = 0
    comps = sorted(pattern.components(),
                   key=lambda c: (-c.bit_count(),
                                  -sum(pattern.degree(v) for v in _iter_bits(c))))
    for comp in comps:
        remaining = set(_iter_bits(comp))
        while remaining:
            best = max(remaining,
                       key=lambda v: ((pattern.adj[v] & placed).bit_count(),
                                      pattern.degree(v)))
            order.append(best)
            placed |= 1 << best
            remaining.remove(best)
    return order


def _core_match(host: Graph, pattern: Graph) -> bool:
    """Whether the host holds the pattern.

    Pattern vertices are mapped along _pattern_order to host twin classes
    (_fold), whose members are interchangeable. A pattern vertex takes a
    class index no lower than its previous twin's: swapping two twins is an
    automorphism of the pattern, so the lexicographically least class vector
    in an embedding's orbit has twins non-decreasing, or a twin swap would
    lower it, and forward checking only drops classes no embedding extending
    the current prefix uses.

    _contains sends here connected, co-connected hosts and joins with no
    edgeless part, but the search is sound on any host: twin
    classes are complete or empty to each other in every graph, and the
    degree domains, forward checking and twin order assume nothing about
    connectivity. A join of parts with edges keeps each part's twins as
    twins, so folding it loses nothing.
    """
    sizes, cliques, rows, vdeg = _fold(host)
    nclasses = len(sizes)
    # classes usable by two pattern-adjacent vertices at once
    self_ok = [rows[c] | (1 << c if cliques[c] else 0) for c in range(nclasses)]

    order = _pattern_order(pattern)
    m = pattern.n
    pos = [0] * m
    for i, v in enumerate(order):
        pos[v] = i

    init = []
    for v in range(m):
        dom = 0
        dv = pattern.degree(v)
        for c in range(nclasses):
            if vdeg[c] >= dv:
                dom |= 1 << c
        if dom == 0:
            return False
        init.append(dom)

    rem = list(sizes)
    domains = [init[v] for v in order]  # indexed by position in the order
    prev_twin = _twin_prev(pattern, order)
    cls = [0] * m
    padj_pos = []
    for i, v in enumerate(order):
        later = [pos[w] for w in _iter_bits(pattern.adj[v]) if pos[w] > i]
        padj_pos.append(later)

    def walk(i: int) -> bool:
        if i == m:
            return True
        dom = domains[i]
        prev = prev_twin[i]
        if prev >= 0:
            dom &= -1 << cls[prev]
        while dom:
            low = dom & -dom
            dom ^= low
            c = low.bit_length() - 1
            if rem[c] == 0:
                continue
            rem[c] -= 1
            cls[i] = c
            saved = []
            ok = True
            for j in padj_pos[i]:
                nd = domains[j] & self_ok[c]
                if nd != domains[j]:
                    saved.append((j, domains[j]))
                    if nd == 0:
                        ok = False
                        domains[j] = nd
                        break
                    domains[j] = nd
            if ok and walk(i + 1):
                return True
            for j, old in saved:
                domains[j] = old
            rem[c] += 1
        return False

    return walk(0)


# -- forbidden families ------------------------------------------------------

class ForbiddenFamily:
    """Nonempty collection of forbidden subgraphs, each with at least one edge."""

    __slots__ = ("members", "by_order", "name")

    def __init__(self, members: Iterable[Graph], name: str | None = None):
        members = tuple(members)
        if not members:
            raise ValueError("family needs at least one member")
        for i, g in enumerate(members):
            if g.n == 0 or g.edge_count == 0:
                raise ValueError(f"family member {i} has no edge")
        object.__setattr__(self, "members", members)
        # the members smallest first, the order is_free tests them in
        object.__setattr__(self, "by_order", _smallest_first(members))
        object.__setattr__(self, "name", name)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("ForbiddenFamily is immutable")

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"ForbiddenFamily({len(self.members)} members{tag})"


# -- chromatic number --------------------------------------------------------

def chromatic_number(g: Graph) -> int:
    """Exact chromatic number, by branch and bound per component.

    Intended for graphs up to a few dozen vertices; beyond that the
    backtracking search can become impractical.
    """
    if g.n == 0:
        return 0
    return max(_chromatic_component(induced_subgraph(g, c)) for c in g.components())


def _chromatic_component(g: Graph) -> int:
    """The least k from the greedy clique bound up that ``_k_colorable``
    accepts; at k = 2 it never branches on a connected graph, and its first
    descent is the DSATUR greedy coloring."""
    if g.edge_count == 0:
        return 1
    k = max(2, _greedy_clique(g))
    while not _k_colorable(g, k):
        k += 1
    return k


def _greedy_clique(g: Graph) -> int:
    best = 0
    starts = sorted(range(g.n), key=lambda v: -g.degree(v))[:4]
    for s in starts:
        clique = [s]
        cand = g.adj[s]
        while cand:
            v = max(_iter_bits(cand), key=lambda v: (g.adj[v] & cand).bit_count())
            clique.append(v)
            cand &= g.adj[v]
        best = max(best, len(clique))
    return best


def _k_colorable(g: Graph, k: int) -> bool:
    """Backtracking over DSATUR order, on an explicit stack: one frame per
    colored vertex, so the depth is not bounded by the recursion limit."""
    n = g.n
    color = [-1] * n
    nbr_colors = [0] * n  # bitmask of colors seen among colored neighbors

    def frame(used: int) -> list:
        # [vertex, colors left to try, colors used before it, neighbors touched]
        v = max((u for u in range(n) if color[u] == -1),
                key=lambda u: (nbr_colors[u].bit_count(), g.degree(u)))
        return [v, ~nbr_colors[v] & ((1 << min(k, used + 1)) - 1), used, []]

    stack = [frame(0)]
    while stack:
        top = stack[-1]
        v, avail, used, touched = top
        if color[v] != -1:  # back from a failed subtree: undo v's color
            for w in touched:
                nbr_colors[w] &= ~(1 << color[v])
            touched.clear()
            color[v] = -1
        if not avail:
            stack.pop()
            continue
        low = avail & -avail
        top[1] = avail ^ low
        c = low.bit_length() - 1
        color[v] = c
        for w in _iter_bits(g.adj[v]):
            if color[w] == -1 and not nbr_colors[w] >> c & 1:
                nbr_colors[w] |= 1 << c
                touched.append(w)
        if len(stack) == n:
            return True
        stack.append(frame(max(used, c + 1)))
    return False
