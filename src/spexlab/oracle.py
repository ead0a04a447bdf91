"""Exhaustive and structure-restricted extremal oracles.

Exhaustive enumeration is canonical augmentation by edge addition: a child is
kept only when deleting its canonically-last edge reproduces the parent, which
yields each isomorphism class exactly once (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998). A parent tries one non-edge per orbit of
the automorphisms its own canonization found, and each child is canonized
once. Freeness pruning is sound because adding edges never removes a
forbidden subgraph. Every graph the walk expands is free, so a child
g + uv can hold a member only through its new edge uv, and it is tested
with ``is_free(..., new_edge=(u, v))``, which looks for a connected member
only within its diameter of both u and v, before the child is canonized.

Most children fail the parent test, so two exact filters that need no
canonization reject them first (McKay's cheap invariants):

* The last-edge filter, before the child is canonized. ``canon`` lays out
  components by size, and inside a component label order refines degree
  order, so the canonically last edge lies in a component of maximum size
  and its end degrees form one of the pairs ``_last_edge_admits`` derives
  from degrees alone. An added edge whose end degrees form none of them
  cannot be that edge, nor share its end degrees, so the child fails.
* The profile filter, before the deletion of the canonically last edge is
  canonized. Unequal degree profiles (``_profile``) mean the deletion is
  not isomorphic to the parent.

The restricted search scans complete multipartite graphs with the balanced
part profile plus a bounded-order forest embedded in one part. It
maximizes edges over that space only; its reports are flagged as
restricted so they are never mistaken for true extremal numbers.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations_with_replacement, groupby, product
from typing import Iterator

from .canon import _canonical, _generators, canonical_form
from .graph6 import decode_graph6, encode_graph6
from .graphs import (Graph, _iter_bits, disjoint_union, embed_in_part,
                     empty_graph, turan)
from .patterns import ForbiddenFamily, is_free
from .spectral import compare_lambda_exact, perron_root_interval, spectral_radius
from .constructions import free_trees

__all__ = [
    "ExtremalReport",
    "RestrictedSpace",
    "enumerate_graphs",
    "ex_oracle",
    "spex_oracle",
    "restricted_ex",
]

_GUARDRAIL = 9
# spex_oracle keeps every graph within this of the largest float radius
_PREFILTER_TOL = 1e-6


class ExtremalReport:
    """Result of an extremal search: the optimum and every attaining graph.

    ``extremal_set`` holds canonical graph6 strings, deduplicated and sorted.
    ``certificate`` is None for edge counts; spectral reports carry a rational
    Perron-root bracket of the attaining value. ``space`` is the
    RestrictedSpace a restricted value was maximized over, and None for
    values over all graphs.
    """

    __slots__ = ("kind", "n", "family", "value", "extremal_set", "elapsed",
                 "certificate", "space")

    def __init__(self, kind, n, family, value, extremal_set, elapsed,
                 certificate=None, space=None):
        self.kind = kind
        self.n = n
        self.family = family
        self.value = value
        self.extremal_set = tuple(sorted(set(extremal_set)))
        self.elapsed = elapsed
        self.certificate = certificate
        self.space = space

    @property
    def restricted(self) -> bool:
        return self.space is not None

    def graphs(self) -> list[Graph]:
        return [decode_graph6(s) for s in self.extremal_set]

    def as_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "n": self.n,
            "family": self.family,
            "value": self.value,
            "extremal_set": list(self.extremal_set),
            "elapsed": self.elapsed,
        }
        if self.certificate is not None:
            d["certificate"] = self.certificate
        if self.restricted:
            d["restricted"] = True
            d["space"] = self.space.as_dict()
        return d

    def __repr__(self) -> str:
        tag = " RESTRICTED" if self.restricted else ""
        return (f"ExtremalReport({self.kind}{tag}, n={self.n}, value={self.value}, "
                f"|extremal_set|={len(self.extremal_set)})")


def _canon_string(g: Graph) -> str:
    return canonical_form(g).decode("ascii")


def _coerce_family(family) -> ForbiddenFamily:
    if isinstance(family, ForbiddenFamily):
        return family
    return ForbiddenFamily(family)


def _edge_orbit(u: int, v: int, gens: list[list[int]], covered: set) -> None:
    """Add the orbit of the pair {u, v} under gens to covered."""
    frontier = [(u, v)]
    while frontier:
        a, b = frontier.pop()
        for p in gens:
            x, y = p[a], p[b]
            e = (x, y) if x < y else (y, x)
            if e not in covered:
                covered.add(e)
                frontier.append(e)


def _last_edge_admits(adj: tuple[int, ...], deg: list[int],
                      comps: list[int], a: int, b: int) -> bool:
    """Whether (a, b), a <= b, can be the end degrees of the last edge.

    ``comps`` are the components of maximum size. In canonical labels the
    last edge (i, j), i < j, has i the last vertex with a later neighbour
    and j that neighbour's last one. ``canon`` orders components by size,
    so a graph with an edge has its last edge in a maximum-size component
    C. Inside C label order refines degree order: the first refinement
    pass splits the unit cell by degree, ascending, and every later split,
    individualization and twin split keeps cell order. So over the edges
    of C, deg i is the largest smaller end degree d, and deg j is the
    largest neighbour degree of i. The pair is therefore (d, e) with e the
    largest neighbour degree of some x in C of degree d. That holds for
    a = d exactly when (A) no edge of C joins two vertices of degree
    above a, and (B) some x in C of degree a has a neighbour of degree b
    and none above b. Which maximum-size component comes last is not
    known before canonizing, so any of them may supply the pair.
    """
    hi = eq_a = eq_b = gt_b = 0
    for x, d in enumerate(deg):
        bit = 1 << x
        if d > a:
            hi |= bit
            if d > b:
                gt_b |= bit
        elif d == a:
            eq_a |= bit
        if d == b:
            eq_b |= bit
    for comp in comps:
        h = hi & comp
        if any(adj[x] & h for x in _iter_bits(h)):
            continue
        for x in _iter_bits(eq_a & comp):
            row = adj[x]
            if row & eq_b and not row & gt_b:
                return True
    return False


def _profile(adj: tuple[int, ...]) -> list:
    """Sorted (degree, sorted neighbour degrees) over the vertices.

    An isomorphism invariant: graphs with unequal profiles are not
    isomorphic.
    """
    deg = [row.bit_count() for row in adj]
    return sorted((deg[x], sorted(deg[y] for y in _iter_bits(row)))
                  for x, row in enumerate(adj))


def _accepted_children(g: Graph, gform: bytes, gsym: list,
                       family: ForbiddenFamily | None) -> list[tuple]:
    """Canonical-augmentation children of g, one per isomorphism class.

    Each entry is (child, canonical form, symmetry record), the child being
    g plus its first non-edge in lexicographic order within its class.

    A child is accepted when it is free and deleting its canonically last
    edge e* gives g's class; both are properties of the child's class.
    Three filters reject children before the canonization that would decide
    it: ``_last_edge_admits`` (an added edge whose end degrees no last edge
    can have) and freeness before the child is canonized, and ``_profile``
    before child - e* is. All are exact, so a rejected child would have
    been rejected anyway; and since isomorphic children are accepted or
    rejected together, leaving rejected ones out of the sibling dedup
    keeps both the output and its order.
    """
    n = g.n
    gens = _generators(gsym)
    gdeg = [row.bit_count() for row in g.adj]
    gcomps = g.components()
    comp_of = [0] * n
    for comp in gcomps:
        for x in _iter_bits(comp):
            comp_of[x] = comp
    gprofile = None
    covered: set[tuple[int, int]] = set()
    out = []
    seen = set()
    for u in range(n):
        for v in range(u + 1, n):
            if g.has_edge(u, v) or (u, v) in covered:
                continue
            # non-edges in the orbit of uv give isomorphic children
            _edge_orbit(u, v, gens, covered)
            child = g.with_edge(u, v)
            deg = gdeg[:]
            deg[u] += 1
            deg[v] += 1
            a, b = sorted((deg[u], deg[v]))
            # the child's components of maximum size
            cu, cv = comp_of[u], comp_of[v]
            comps = [c for c in gcomps if c != cu and c != cv] + [cu | cv]
            if len(comps) > 1:
                top = max(c.bit_count() for c in comps)
                comps = [c for c in comps if c.bit_count() == top]
            if not _last_edge_admits(child.adj, deg, comps, a, b):
                continue
            if family is not None and not is_free(child, family, new_edge=(u, v)):
                continue
            perm, rows, sym = _canonical(child)
            form = encode_graph6(Graph._from_adj(n, rows)).encode("ascii")
            if form in seen:
                continue
            seen.add(form)
            # deleting the canonically last edge must give g's class
            i = max(i for i in range(n) if rows[i] >> (i + 1))
            ea, eb = perm.index(i), perm.index(rows[i].bit_length() - 1)
            if (min(ea, eb), max(ea, eb)) != (u, v):
                parent = child.without_edge(ea, eb)
                if gprofile is None:
                    gprofile = _profile(g.adj)
                if _profile(parent.adj) != gprofile:
                    continue
                if canonical_form(parent) != gform:
                    continue
            out.append((child, form, sym))
    return out


def _walk(root: Graph, family: ForbiddenFamily | None, cut: int | None = None,
          frontier: list | None = None) -> Iterator[Graph]:
    """Depth-first canonical augmentation from root, root included.

    Graphs with ``cut`` edges are appended to ``frontier`` instead of being
    yielded or expanded; each is the root of an independent subtree because
    the parent-acceptance test is local.
    """
    _, rows, sym = _canonical(root)
    form = encode_graph6(Graph._from_adj(root.n, rows)).encode("ascii")
    stack = [(root, form, sym)]
    while stack:
        g, form, sym = stack.pop()
        if g.edge_count == cut:
            frontier.append(g)
            continue
        yield g
        stack.extend(_accepted_children(g, form, sym, family))


def enumerate_graphs(n: int, family: ForbiddenFamily | None = None,
                     allow_large: bool = False) -> Iterator[Graph]:
    """All graphs on n vertices up to isomorphism, optionally family-free.

    Guardrailed at n <= 9 (the census there is 274668 classes); pass
    allow_large=True to go beyond at your own risk. When a family is given,
    every yielded graph is family-free and the search tree is pruned at the
    first forbidden subgraph.
    """
    yield from _free_graphs(n, family, allow_large, jobs=1)


def _shard_worker(args: tuple[str, tuple[str, ...] | None]) -> list[str]:
    seed_g6, family_g6 = args
    family = None
    if family_g6 is not None:
        family = ForbiddenFamily([decode_graph6(s) for s in family_g6])
    return [encode_graph6(g) for g in _walk(decode_graph6(seed_g6), family)]


def _free_graphs(n: int, family: ForbiddenFamily | None, allow_large: bool,
                 jobs: int) -> Iterator[Graph]:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > _GUARDRAIL and not allow_large:
        raise ValueError(
            f"refusing to enumerate n = {n} > {_GUARDRAIL} isomorphism classes; "
            "pass allow_large=True (--allow-large on the command line) "
            "to override")
    # with jobs > 1 the tree is cut at a fixed edge level and the subtrees
    # below it are walked as shards in worker processes
    cut = (n + 1) // 2 if jobs > 1 and n >= 3 else None
    seeds: list[Graph] = []
    yield from _walk(empty_graph(n), family, cut, seeds)
    if not seeds:
        return
    fam_tokens = None
    if family is not None:
        fam_tokens = tuple(encode_graph6(m) for m in family.members)
    tasks = [(encode_graph6(s), fam_tokens) for s in seeds]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for forms in pool.map(_shard_worker, tasks):
            for f in forms:
                yield decode_graph6(f)


def _family_id(family: ForbiddenFamily) -> str:
    if family.name:
        return family.name
    return f"unnamed({len(family.members)} members)"


def ex_oracle(n: int, family, allow_large: bool = False,
              jobs: int = 1) -> ExtremalReport:
    """Exact maximum edge count and all extremal graphs, by enumeration.

    Each extremal graph is verified edge-maximal: every added edge creates a
    forbidden subgraph, and a graph that fails this raises RuntimeError.
    """
    family = _coerce_family(family)
    t0 = time.perf_counter()
    best = -1
    attain: list[Graph] = []
    for g in _free_graphs(n, family, allow_large, jobs):
        e = g.edge_count
        if e > best:
            best = e
            attain = [g]
        elif e == best:
            attain.append(g)
    for g in attain:
        for u in range(n):
            for v in range(u + 1, n):
                if not g.has_edge(u, v) and is_free(g.with_edge(u, v), family,
                                                    new_edge=(u, v)):
                    raise RuntimeError(
                        f"extremal graph {encode_graph6(g)} is not "
                        f"edge-maximal: adding ({u}, {v}) keeps it free")
    return ExtremalReport(
        "ex", n, _family_id(family), best,
        [_canon_string(g) for g in attain], time.perf_counter() - t0)


def spex_oracle(n: int, family, allow_large: bool = False,
                jobs: int = 1) -> ExtremalReport:
    """Exact maximum spectral radius and its attaining set.

    A float pre-filter keeps every graph within _PREFILTER_TOL of the largest
    observed radius; exact comparison then decides the champion and its ties,
    so the reported set carries no floating-point equality anywhere.
    """
    family = _coerce_family(family)
    t0 = time.perf_counter()
    scored: list[tuple[float, Graph]] = []
    top = float("-inf")
    for g in _free_graphs(n, family, allow_large, jobs):
        lam = spectral_radius(g).value
        if lam > top:
            top = lam
            scored = [(l, h) for l, h in scored if l >= top - _PREFILTER_TOL]
        if lam >= top - _PREFILTER_TOL:
            scored.append((lam, g))
    champion = None
    ties: list[Graph] = []
    for lam, g in scored:
        if champion is None:
            value, champion, ties = lam, g, [g]
            continue
        c = compare_lambda_exact(g, champion)
        if c > 0:
            value, champion, ties = lam, g, [g]
        elif c == 0:
            ties.append(g)
    lo, hi = perron_root_interval(champion, Fraction(1, 10 ** 12))
    certificate = {
        "perron_bracket": [f"{lo.numerator}/{lo.denominator}",
                           f"{hi.numerator}/{hi.denominator}"],
        "prefilter_tol": _PREFILTER_TOL,
        "ties": "compare_lambda_exact",
    }
    return ExtremalReport(
        "spex", n, _family_id(family), value,
        [_canon_string(g) for g in ties], time.perf_counter() - t0,
        certificate=certificate)


class RestrictedSpace:
    """Search space: balanced complete r-partite base plus one forest packed
    into one part, over every distinct part size, each forest component on
    at most ``max_tree_order`` vertices."""

    __slots__ = ("r", "max_tree_order")

    def __init__(self, r: int, max_tree_order: int):
        if r < 1:
            raise ValueError("r must be at least 1")
        if max_tree_order < 1:
            raise ValueError("max_tree_order must be at least 1")
        self.r = r
        self.max_tree_order = max_tree_order

    def as_dict(self) -> dict:
        return {"r": self.r, "max_tree_order": self.max_tree_order}

    def __repr__(self) -> str:
        return f"RestrictedSpace(r={self.r}, max_tree_order={self.max_tree_order})"


def _partitions_into(w: int, kparts: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of w into exactly kparts parts, each between 1 and cap."""
    def rec(rem, parts_left, maxpart):
        if parts_left == 0:
            if rem == 0:
                yield ()
            return
        lo = max(1, rem - (parts_left - 1) * maxpart)
        for first in range(min(maxpart, rem - parts_left + 1), lo - 1, -1):
            for rest in rec(rem - first, parts_left - 1, first):
                yield (first,) + rest
    yield from rec(w, kparts, cap)


def _forests(w: int, max_order: int) -> Iterator[Graph]:
    """Forests on w vertices with components of order <= max_order.

    Yielded in non-increasing edge-count order (edges = w - #components),
    one per isomorphism class.
    """
    for kparts in range((w + max_order - 1) // max_order, w + 1):
        for shape in _partitions_into(w, kparts, max_order):
            pools = [combinations_with_replacement(free_trees(s), len(list(run)))
                     for s, run in groupby(shape)]
            for combo in product(*pools):
                yield reduce(disjoint_union, chain.from_iterable(combo), empty_graph(0))


def restricted_ex(n: int, family, space: RestrictedSpace) -> ExtremalReport:
    """Maximum edges over the restricted space; flagged RESTRICTED.

    Every distinct part size of T(n, r) takes every forest of the space in
    turn, so the space holds one graph per (part size, forest). The value
    can undercut the true extremal number when the family rewards graphs
    outside the space; reports carry the space definition so the
    restriction is always visible. When no graph in the space is free, the
    value is None and the extremal set is empty.
    """
    family = _coerce_family(family)
    t0 = time.perf_counter()
    if space.r > n:
        raise ValueError(f"r = {space.r} exceeds n = {n}")
    base = turan(n, space.r)
    sizes = base.partition.sizes()
    best = -1
    attain: dict[str, Graph] = {}
    for w in dict.fromkeys(sizes):
        for forest in _forests(w, space.max_tree_order):
            e = base.edge_count + forest.edge_count
            if e < best:
                break  # forests only get sparser from here
            g = embed_in_part(base, sizes.index(w), forest)
            if not is_free(g, family):
                continue
            if e > best:
                best = e
                attain.clear()
            attain.setdefault(_canon_string(g), g)

    return ExtremalReport(
        "restricted-ex", n, _family_id(family), best if attain else None,
        list(attain), time.perf_counter() - t0, space=space)
