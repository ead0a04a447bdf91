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
labels; hosts rarely recur except as the canonical representatives that the
exhaustive walk already passes in. Maximal independent sets are cached per
pattern and vertex subset. Containment canonizes only to break ties in
_pack_components: interchangeable host components are found by a cheap
invariant and canonical forms settle the ties it leaves, and pattern
components are grouped by canonical form. Edgeless join parts are
interchangeable exactly when their sizes are equal.
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
    "family_chi",
]

_cform = lru_cache(maxsize=4096)(canonical_form)

# (host adjacency, pattern adjacency) -> verdict; n is len(adj)
_cache: dict[tuple, bool] = {}
# (pattern order, pattern adjacency, vertex mask) -> [each vertex's previous
# twin in the induced subgraph, its maximal independent sets (None until a
# part of two or more vertices asks), _allowed_sets' answers by part size]
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
    return _contains(host, pattern)


def is_free(g: Graph, family: "ForbiddenFamily | Iterable[Graph]") -> bool:
    """Whether g contains no member of the family."""
    members = family.members if isinstance(family, ForbiddenFamily) else tuple(family)
    for m in sorted(members, key=lambda m: (m.n, m.edge_count)):
        if _contains(g, m):
            return False
    return True


def _contains(host: Graph, pattern: Graph) -> bool:
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

    cocomps = _complement_components(host)
    if len(cocomps) > 1:
        res = _join_split(host, cocomps, pattern)
    else:
        comps = host.components()
        if len(comps) > 1:
            res = _pack_components(host, comps, pattern)
        else:
            res = _core_match(host, pattern)
    return _remember(_cache, key, res)


def _iso_groups(graphs: list[Graph]) -> list[int]:
    """For each graph, the index of the first graph isomorphic to it.

    Graphs whose (order, size, degree sequence) no other graph shares are
    their own group; only graphs that tie on it are canonized.
    """
    invs = [(g.n, g.edge_count, g.degree_sequence()) for g in graphs]
    tally = Counter(invs)
    first: dict = {}
    return [first.setdefault(inv if tally[inv] == 1 else _cform(g), i)
            for i, (g, inv) in enumerate(zip(graphs, invs))]


@lru_cache(maxsize=256)
def _complement_components(g: Graph) -> tuple[int, ...]:
    full = (1 << g.n) - 1
    comp_adj = tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.adj))
    return tuple(Graph._from_adj(g.n, comp_adj).components())


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

def _join_split(host: Graph, cocomps: tuple[int, ...], pattern: Graph) -> bool:
    """Whether the pattern splits among the host's co-components.

    The pattern fits exactly when its vertices split into sets S_i with
    pattern[S_i] a subgraph of part P_i. For an edgeless part the allowed
    S_i are the independent sets of at most |P_i| vertices, a family closed
    under subsets, and moving a vertex into such an S_i only shrinks what
    the other parts must hold. So the edgeless parts, taken in a fixed
    order, each take a whole set first: a maximal allowed set of the
    vertices still left, which is a maximal independent set of them or a
    |P_i|-subset of a larger one (_allowed_sets). What is left must fit
    the join of the parts with edges, which one _contains call decides. A
    join with no edgeless part goes straight to _core_match.

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
    """
    caps, edged = _join_host(host, cocomps)
    if not caps:
        return _core_match(host, pattern)
    k = len(caps)
    # reach[j]: how many vertices parts j.. can hold; beyond[j]: how many
    # the parts after part j's run of equal sizes can
    room, qedges, qdeg = edged.n, edged.edge_count, edged.degree_sequence()
    reach = [room + sum(caps[j:]) for j in range(k + 1)]
    beyond = [reach[next((i for i in range(j, k) if caps[i] != caps[j]), k)]
              for j in range(k)]
    pattern = _by_degree(pattern)
    padj = pattern.adj

    def residue_fits(left: int) -> bool:
        if not left:
            return True
        degs = sorted(((padj[v] & left).bit_count() for v in _iter_bits(left)),
                      reverse=True)
        if (len(degs) > room or sum(degs) > 2 * qedges
                or any(d > h for d, h in zip(degs, qdeg))):
            return False
        return _contains(edged, induced_subgraph(pattern, left))

    failed: set[tuple[int, int, int]] = set()  # (part, left, low) states

    def fill(j: int, left: int, low: int) -> bool:
        """Whether parts j.. take left, with part j's least vertex above low."""
        if (j, left, low) in failed:
            return False
        if j == k or not left:
            if residue_fits(left):
                return True
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
                if fill(j + 1, rest, least):
                    return True
        failed.add((j, left, low))
        return False

    return fill(0, (1 << pattern.n) - 1, -1)


@lru_cache(maxsize=64)
def _join_host(host: Graph, cocomps: tuple[int, ...]) -> tuple:
    """A join host's edgeless part sizes (largest first) and the join of its
    parts with edges, as one induced subgraph."""
    caps, edged = [], 0
    for mask in cocomps:
        if any(host.adj[v] & mask for v in _iter_bits(mask)):
            edged |= mask
        else:
            caps.append(mask.bit_count())
    caps.sort(reverse=True)
    return tuple(caps), induced_subgraph(host, edged)


@lru_cache(maxsize=4096)
def _by_degree(g: Graph) -> Graph:
    """g relabeled so that vertex degrees fall with the label."""
    rank = sorted(range(g.n), key=lambda v: -g.degree(v))
    pos = [0] * g.n
    for i, v in enumerate(rank):
        pos[v] = i
    return relabel(g, pos)


def _allowed_sets(g: Graph, left: int, cap: int) -> list[int]:
    """The sets an edgeless part of cap vertices may take from g[left].

    These are the maximal independent sets of g[left] and the cap-subsets
    of larger ones, kept only when they hold the earlier twins of their
    members; larger sets come first.
    """
    key = (g.n, g.adj, left)
    entry = _mis_cache.get(key)
    if entry is None:
        entry = _remember(_mis_cache, key, [_twin_pred(g, left), None, {}])
    pred, sets, by_cap = entry
    if cap > 1:
        if sets is None:
            sets = entry[1] = _maximal_independent_sets(g, left)
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
    out = by_cap[cap] = sorted(found, key=lambda t: (-t.bit_count(), t & -t))
    return out


def _maximal_independent_sets(g: Graph, within: int) -> list[int]:
    """Maximal independent sets of g[within], largest first.

    Bron–Kerbosch with pivoting (Commun. ACM 16, 1973) on the complement,
    whose maximal cliques they are.
    """
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
    return sorted(out, key=lambda s: (-s.bit_count(), s & -s))


def _twin_pred(g: Graph, within: int) -> list[int]:
    """For each vertex of within, the bit of its previous twin in g[within], or 0."""
    order = list(_iter_bits(within))
    pred = [0] * g.n
    for v, p in zip(order, _twin_prev(g, order, within)):
        if p >= 0:
            pred[v] = 1 << order[p]
    return pred


# -- host disconnected: pack pattern components into host components --------

def _pack_components(host: Graph, comps: list[int], pattern: Graph) -> bool:
    subs = [induced_subgraph(host, mask) for mask in comps]
    types: dict[int, list] = {}
    for sub, group in zip(subs, _iso_groups(subs)):
        types.setdefault(group, [sub, 0])[1] += 1
    htypes = sorted(types.values(), key=lambda e: (-e[0].n, -e[0].edge_count))
    hgraphs = [e[0] for e in htypes]
    hcounts = tuple(e[1] for e in htypes)

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

    _contains sends here connected, co-connected hosts, and _join_split
    joins with no edgeless part, but the search is sound on any host: twin
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

    __slots__ = ("members", "name", "_chi")

    def __init__(self, members: Iterable[Graph], name: str | None = None):
        members = tuple(members)
        if not members:
            raise ValueError("family needs at least one member")
        for i, g in enumerate(members):
            if g.n == 0 or g.edge_count == 0:
                raise ValueError(f"family member {i} has no edge")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_chi", None)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("ForbiddenFamily is immutable")

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def chi_min(self) -> int:
        """Smallest chromatic number over the members."""
        if self._chi is None:
            object.__setattr__(self, "_chi",
                               min(chromatic_number(g) for g in self.members))
        return self._chi

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"ForbiddenFamily({len(self.members)} members{tag})"


def family_chi(family: ForbiddenFamily | Iterable[Graph]) -> int:
    """Minimum chromatic number over the family's members."""
    if isinstance(family, ForbiddenFamily):
        return family.chi_min
    return ForbiddenFamily(tuple(family)).chi_min


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
    n = g.n
    if g.edge_count == 0:
        return 1
    two = _two_colorable(g)
    if two:
        return 2
    lb = max(3, _greedy_clique(g))
    ub, _ = _dsatur_greedy(g)
    for k in range(lb, ub):
        if _k_colorable(g, k):
            return k
    return ub


def _two_colorable(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in _iter_bits(g.adj[v]):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


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


def _dsatur_greedy(g: Graph) -> tuple[int, list[int]]:
    n = g.n
    color = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max((u for u in range(n) if color[u] == -1),
                key=lambda u: (len(neighbor_colors[u]), g.degree(u)))
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        color[v] = c
        for w in _iter_bits(g.adj[v]):
            neighbor_colors[w].add(c)
    return max(color) + 1, color


def _k_colorable(g: Graph, k: int) -> bool:
    n = g.n
    color = [-1] * n
    nbr_colors = [0] * n  # bitmask of colors seen among colored neighbors

    def pick() -> int:
        return max((u for u in range(n) if color[u] == -1),
                   key=lambda u: (nbr_colors[u].bit_count(), g.degree(u)))

    def walk(depth: int, used: int) -> bool:
        if depth == n:
            return True
        v = pick()
        avail = ~nbr_colors[v] & ((1 << min(k, used + 1)) - 1)
        while avail:
            low = avail & -avail
            avail ^= low
            c = low.bit_length() - 1
            color[v] = c
            touched = []
            for w in _iter_bits(g.adj[v]):
                if color[w] == -1 and not nbr_colors[w] >> c & 1:
                    nbr_colors[w] |= 1 << c
                    touched.append(w)
            if walk(depth + 1, max(used, c + 1)):
                return True
            color[v] = -1
            for w in touched:
                nbr_colors[w] &= ~(1 << c)
        return False

    return walk(0, 0)
