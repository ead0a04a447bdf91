"""Exhaustive and structure-restricted extremal oracles.

Exhaustive enumeration is canonical augmentation by edge addition (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998). A parent
tries one non-edge uv per orbit of the automorphisms its own canonization
found. The child g + uv is kept when it is free, uv joins the two cells of
its component's equitable partition that the canonically last edge e*
joins, and deleting e* gives the parent's class; each class is kept
exactly once (proof in ``_accepted_children``). Every graph the walk
expands is free, so a child can hold a member only through uv, and it is
tested with ``is_free(..., new_edge=(u, v))``. Freeness pruning is sound
because adding edges never removes a forbidden subgraph.

A child differs from its parent in two rows, and it pays only for what is
new in it. Each child takes, in order, the steps below; the first three
reject most children before any canonization:

* The degree filter (``_degree_filter``). uv's component must be a
  largest one, and uv's end degrees one of the pairs the last edge of
  that component can have. It reads the parent's degree masks
  (``_degree_masks``), in which only u and v move.
* Freeness.
* The cell filter (``_last_cells``). uv's component is refined once from
  its degree cells, and uv must join the cells of e*. Every child that
  McKay's orbit rule keeps passes it.
* One canonization of uv's component, seeded with that refinement; every
  other component takes the parent's record. Then the sibling dedup by
  canonical rows.
* The parent test, unless uv is e*. It passes at once when the child's
  automorphisms take uv to e*. Otherwise unequal degree profiles
  (``_profile``) reject the deletion of e* before it is canonized.

``ex_oracle`` and ``spex_oracle`` do not walk n vertices. They read one
candidate stream (``_candidates``): free classes on n - 1 vertices, each
plus a new vertex joined to each maximal set N that keeps it free, with
|N| <= delta + 1 and no degree below |N| (``_extensions``; Brandt,
Brinkmann & Harmuth, Graphs Combin. 16, 2000). A parent's children have
at most its reach, e + delta + 1, edges. Two lemmas and a floor make
that enough:

* Lemma 1 (``_candidates``): every saturated graph, free and
  edge-maximal, is a candidate, so EX is the set of densest candidates.
* Lemma 2 (``_spex_set``): a SPEX graph's component of largest radius is
  a whole component of a saturated SPEX graph, so SPEX is completed from
  the candidates of largest radius.
* The Turán floor (``_turan_floor``): with r + 1 the least chromatic
  number of a member that fits in n vertices, T(n, r) is free, so ex is
  at least e(T(n, r)) and spex at least lambda(T(n, r)). Only parents
  whose reach meets that floor (in edges, or through Stanley's bound in
  radius) are built. They go in decreasing reach, and the stream stops
  at the first one that cannot reach the best edge count (ex) or the
  best radius (spex).

The parents with reach at least R are built top down (``_band``), not
walked. Monotone reach: reach only falls as edges go. Deletion closure:
so every free class with reach at least R is reached from a saturated
one by deleting edges without falling below R. Edge bound: a saturated
graph on m vertices with reach at least R has e >= (R - 1) m / (m + 2),
as delta <= 2e/m, and its Lemma 1 parent has reach at least e, so the
saturated classes are extensions of the band on m - 1 vertices at that
floor. Where the bound is 0 or less the level is the walk, filtered.

The restricted search scans complete multipartite graphs with the balanced
part profile plus a bounded-order forest packed into one part. It
maximizes edges over that space only; its reports are flagged as
restricted so they are never mistaken for true extremal numbers. Each
forest is tested by the join split of the other parts with it, and a host
that is not free hands back the part of the member the split placed in
the forest; every later forest holding that residue is skipped untested
(proof in ``restricted_ex``).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement, count, groupby, product
from typing import Iterator

from .canon import _canonical, _generators, _mask, _refine, canonical_form
from .graph6 import decode_graph6, encode_graph6
from .graphs import (Graph, _iter_bits, _turan_sizes, disjoint_union, empty_graph,
                     induced_subgraph, turan)
from .patterns import (ForbiddenFamily, _join_split, chromatic_number,
                       contains_subgraph, is_free)
from .spectral import compare_lambda_exact, perron_root_interval, spectral_radius
from .constructions import TuranPacking, free_trees

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


def _degree_masks(deg: list[int]) -> tuple[list[int], list[int]]:
    """(by_deg, gt): by_deg[d] holds the vertices of degree d and gt[d]
    those of degree above d, for every d up to max(deg) + 1, the largest
    degree a child can have."""
    size = max(deg, default=0) + 2
    by_deg = [0] * size
    for x, d in enumerate(deg):
        by_deg[d] |= 1 << x
    gt = [0] * size
    for d in range(size - 2, -1, -1):
        gt[d] = gt[d + 1] | by_deg[d + 1]
    return by_deg, gt


def _degree_filter(adj: tuple[int, ...], deg: list[int], masks: tuple,
                   comp: int, u: int, v: int) -> bool:
    """Whether the end degrees of uv can be those of the last edge of
    comp in g + uv, given g's rows, degrees and ``_degree_masks``.

    comp is uv's component in g + uv, a largest one. In canonical labels
    the last edge (i, j), i < j, has i the last vertex with a later
    neighbour and j that neighbour's last one. ``canon`` orders components
    by size, so a graph with an edge has its last edge in a maximum-size
    component. Inside a component label order refines degree order: the
    first refinement pass splits the unit cell by degree, ascending, and
    every later split, individualization and twin split keeps cell order.
    So over the edges of the component, deg i is the largest smaller end
    degree d, and deg j is the largest neighbour degree of i. uv's end
    degrees (a, b), a <= b, are therefore a possible pair exactly when
    (A) no edge of comp joins two vertices of degree above a, and (B) some
    x in comp of degree a has a neighbour of degree b and none above b.
    Which maximum-size component comes last is not known before
    canonizing; comp must hold an automorphic image of the last edge for
    the child to be kept (``_accepted_children``), so it alone is tested.

    Only u and v change degree in g + uv, each by one, so each mask of the
    child is g's mask with u and v taken out and put back at their new
    degrees. (A) reads g's rows: the child's rows are g's with v added to
    u's row and u to v's, and the end of uv of degree a is not above a, so
    on the vertices above a the two agree. (B) reads the child's rows.
    """
    by_deg, gt = masks
    ends = 1 << u | 1 << v
    du, dv = deg[u] + 1, deg[v] + 1
    a, b = (du, dv) if du <= dv else (dv, du)
    lo, top = (u, v) if du <= dv else (v, u)
    hi = gt[a] & ~ends
    gt_b = gt[b] & ~ends
    eq_a = by_deg[a] & ~ends | 1 << lo
    eq_b = by_deg[b] & ~ends | 1 << top
    if a == b:
        eq_a |= 1 << top
        eq_b |= 1 << lo
    else:
        hi |= 1 << top
    h = m = hi & comp
    while m:
        low = m & -m
        if adj[low.bit_length() - 1] & h:
            return False
        m ^= low
    m = eq_a & comp
    while m:
        low = m & -m
        row = adj[low.bit_length() - 1]
        if low & ends:
            row |= ends ^ low
        if row & eq_b and not row & gt_b:
            return True
        m ^= low
    return False


def _degree_cells(deg: list[int], masks: tuple, comp: int, u: int,
                  v: int) -> list[list[int]]:
    """comp's vertices split by their degree in g + uv, degrees ascending,
    each cell in ascending order, given g's degrees and ``_degree_masks``,
    in which only u and v move up."""
    by_deg = masks[0]
    ends = 1 << u | 1 << v
    du, dv = deg[u] + 1, deg[v] + 1
    cells = []
    for d in range(1, len(by_deg)):
        cell = by_deg[d] & comp & ~ends | (d == du) << u | (d == dv) << v
        if cell:
            cells.append(list(_iter_bits(cell)))
    return cells


def _profile(adj: tuple[int, ...]) -> list:
    """Sorted (degree, sorted neighbour degrees) over the vertices.

    An isomorphism invariant: graphs with unequal profiles are not
    isomorphic.
    """
    deg = [row.bit_count() for row in adj]
    return sorted((deg[x], sorted(deg[y] for y in _iter_bits(row)))
                  for x, row in enumerate(adj))


def _last_cells(adj: tuple[int, ...], cells: list[list[int]], u: int,
                v: int) -> list | None:
    """The refinement of cells when uv joins the cells of its last edge,
    else None.

    cells partition one component, comp, and refine to
    ``_refine(adj, [comp's vertices in ascending order])``: the walk
    passes comp's degree cells, which are exactly that refinement's first
    pass (the one cell splits by neighbour counts in comp, the degrees,
    ascending, each piece in ascending order), so the refinement is the
    same. comp's canonically last edge joins P, the last cell with a
    neighbour in a cell at or after P, to Q, the last cell P sees (proof
    in ``_accepted_children``).
    """
    cells = _refine(adj, cells)
    later = 0
    for cell in reversed(cells):
        pmask = _mask(cell)
        later |= pmask
        row = adj[cell[0]] & later
        if row:
            break
    qmask = next(m for m in map(_mask, reversed(cells)) if row & m)
    ends = 1 << u | 1 << v
    if ends & pmask and ends & qmask and not ends & ~(pmask | qmask):
        return cells
    return None


def _accepted_children(g: Graph, grows: tuple[int, ...], gsym: list,
                       family: ForbiddenFamily | None) -> list[tuple]:
    """Canonical-augmentation children of g, one per isomorphism class.

    grows and gsym are g's canonical rows and symmetry record
    (``_canonical``). Each child is (child, canonical rows, symmetry
    record), the child being g plus its first non-edge uv, in
    lexicographic order, that passes every step below.

    g tries one non-edge uv per orbit of the automorphisms its
    canonization found. Let X = g + uv, C its uv-component and e* its
    canonically last edge. X goes through, in order: the degree filter (C
    is a largest component, and ``_degree_filter``), freeness (the
    new-edge form, as g is free), the cell filter (``_last_cells``: uv
    joins the cells P and Q of C's refinement), one canonization, the
    sibling dedup by canonical rows, and the parent test (X - e* is
    isomorphic to g).

    The filters reject only children whose uv is outside Aut(X)·e*, the
    children McKay's orbit rule rejects (J. Algorithms 26, 1998):
      * ``canon`` orders components by size, so e* lies in a largest
        component D, and an automorphism taking e* to uv maps D onto C.
        The refinement order rule reads counts only, so it maps D's cells
        onto C's, index by index, and C is a largest component too.
      * Refinement, individualization and twin splits each replace a cell
        by its pieces in place, so D's canonical labels keep its root
        cell order: each cell is a range of labels, in cell order.
      * e* = (i, j) has i the last vertex with a later neighbour and j
        i's last neighbour. No vertex after P has a later neighbour, and
        P's first vertex has one, so i is in P. The partition is
        equitable, so i sees Q and nothing after it, and j is in Q. So
        uv joins P and Q too.
      * Every vertex of P or Q has the degree of an end of e*, so the
        end degrees pass ``_degree_filter`` whenever uv joins P and Q.

    Each step reuses what g or the child already holds:
      * The degree filter reads g's degree masks, built once per parent;
        the child's ``Graph`` is built only after it passes.
      * C is refined from its degree cells, which are the first pass of
        the refinement from one cell (``_last_cells``).
      * The canonization is seeded with C's refinement, and every other
        component of X is a component of g with g's rows, so it takes
        g's record from gsym (``_canonical``'s known records).
      * Canonical rows identify a class as its graph6 string does, so
        they key the dedup and the parent test.
      * If an automorphism of X takes uv to e*, then X - e* is isomorphic
        to X - uv = g, and the parent test passes with no canonization.
        The generators of ``_generators`` are automorphisms of X, so the
        orbit of uv under them lies in Aut(X)·uv. A missed generator only
        sends the child on to the profile and canonization test.

    Each free class with an edge is kept exactly once. Let X be one, and
    g' = X - e*. At most once: X is kept only as a child of g''s class
    (the parent test), which the walk expands once, and there once (the
    dedup). At least once: g' is free, so by induction on edges the walk
    expands its class, as some g. An isomorphism from g' onto g takes e*
    to a non-edge f of g, and g tries f' = t(f) for some automorphism t
    of g. An isomorphism from g + f' onto X then takes f' to e*, so f'
    lies in the orbit of the last edge of g + f', and that child passes
    both filters; it is free and passes the parent test, as X does. The
    dedup skips a child only after a child of its class passed the cell
    filter, and freeness and the parent test are properties of the class,
    so the first child of X's class to pass the cell filter is kept.

    The cell filter reads a labeled child, not its class: it decides
    which labeled child of a class is kept, and the parent test decides
    which classes are.
    """
    n = g.n
    adj = g.adj
    gens = _generators(gsym)
    gdeg = [row.bit_count() for row in adj]
    masks = _degree_masks(gdeg)
    gcomps = g.components()
    comp_of = [0] * n
    for comp in gcomps:
        for x in _iter_bits(comp):
            comp_of[x] = comp
    # g's component records, keyed by vertex mask (rec[2] lists the vertices)
    known = {comp_of[rec[2][0]]: rec for rec in gsym}
    gtop = max((c.bit_count() for c in gcomps), default=0)
    gprofile = None
    covered: set[tuple[int, int]] = set()
    out = []
    seen = set()
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1 or (u, v) in covered:
                continue
            # non-edges in the orbit of uv give isomorphic children
            _edge_orbit(u, v, gens, covered)
            comp = comp_of[u] | comp_of[v]
            if comp.bit_count() < gtop:
                continue  # C is not a largest component of the child
            if not _degree_filter(adj, gdeg, masks, comp, u, v):
                continue
            child = g.with_edge(u, v)
            if family is not None and not is_free(child, family, new_edge=(u, v)):
                continue
            cells = _last_cells(child.adj, _degree_cells(gdeg, masks, comp, u, v),
                                u, v)
            if cells is None:
                continue
            perm, rows, sym = _canonical(child, (comp, cells), known)
            if rows in seen:
                continue
            seen.add(rows)
            # deleting the canonically last edge must give g's class
            i = max(i for i in range(n) if rows[i] >> (i + 1))
            ea, eb = perm.index(i), perm.index(rows[i].bit_length() - 1)
            last = (ea, eb) if ea < eb else (eb, ea)
            if last != (u, v):
                orbit: set[tuple[int, int]] = set()
                _edge_orbit(u, v, _generators(sym), orbit)
                if last not in orbit:
                    parent = child.without_edge(ea, eb)
                    if gprofile is None:
                        gprofile = _profile(adj)
                    if _profile(parent.adj) != gprofile:
                        continue
                    if _canonical(parent)[1] != grows:
                        continue
            out.append((child, rows, sym))
    return out


def enumerate_graphs(n: int, family: ForbiddenFamily | None = None,
                     allow_large: bool = False) -> Iterator[Graph]:
    """All graphs on n vertices up to isomorphism, optionally family-free.

    Guardrailed at n <= 9 (the census there is 274668 classes); pass
    allow_large=True to go beyond at your own risk. When a family is given,
    every yielded graph is family-free and the search tree is pruned at the
    first forbidden subgraph.
    """
    yield from _free_classes(n, family, allow_large)


def _require_int(field: str, value) -> None:
    """Refuse a bool or a non-int value of field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an int, got {value!r}")


def _check_size(n, allow_large: bool) -> None:
    """Refuse n that is not a nonnegative int, or above the guardrail
    without allow_large."""
    _require_int("n", n)
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > _GUARDRAIL and not allow_large:
        raise ValueError(
            f"refusing to enumerate n = {n} > {_GUARDRAIL} isomorphism classes; "
            "pass allow_large=True (--allow-large on the command line) "
            "to override")


def _free_classes(n: int, family: ForbiddenFamily | None,
                  allow_large: bool) -> Iterator[Graph]:
    """Depth-first canonical augmentation from the empty graph on n
    vertices: every free class, once."""
    _check_size(n, allow_large)
    root = empty_graph(n)
    _, rows, sym = _canonical(root)
    stack = [(root, rows, sym)]
    while stack:
        g, rows, sym = stack.pop()
        yield g
        stack.extend(_accepted_children(g, rows, sym, family))


def _reach(g: Graph) -> int:
    """e(g) + delta(g) + 1, which no ``_extensions`` child of g exceeds
    in edges."""
    return g.edge_count + (g.degree_sequence()[-1] + 1 if g.n else 0)


def _extensions(g: Graph, family: ForbiddenFamily) -> Iterator[Graph]:
    """g + v_N, v a new vertex joined to N, for each maximal allowed N with
    every degree of g + v_N at least |N|, so |N| <= delta(g) + 1.

    N is allowed when g + v_N is free, and maximal when no N + w is. g + v
    is a subgraph of every g + v_N. g is free, so a copy of a member in
    g + v uses the isolated v, and the member has an isolated vertex; g + v
    is tested against those members, and if it holds one no N is allowed.
    Past it each edge wv is tested as new. A set grows by one vertex after
    its largest, and only when each of its subsets one smaller is allowed,
    as a subgraph of a free graph is free. The sets of size delta(g) + 2
    only decide whether those of size delta(g) + 1 are maximal.
    """
    v = g.n
    root = Graph._from_adj(v + 1, [*g.adj, 0])
    loose = [h for h in family if not all(h.adj)]
    if loose and not is_free(root, loose):
        return
    deg = [row.bit_count() for row in g.adj]
    level = {0: root}
    for size in range(min(deg, default=-1) + 2):
        larger = {}
        for mask, h in level.items():
            for w in range(mask.bit_length(), v):
                m = mask | 1 << w
                if all((m ^ 1 << x) in level for x in _iter_bits(mask)):
                    child = h.with_edge(w, v)
                    if is_free(child, family, new_edge=(w, v)):
                        larger[m] = child
        # a vertex of degree below |N| must be in N, or it is below v
        low = sum(1 << x for x, d in enumerate(deg) if d < size)
        for mask, h in level.items():
            if mask & low == low and not any((mask | 1 << w) in larger
                                             for w in range(v)):
                yield h
        level = larger


def _turan_floor(n: int, family: ForbiddenFamily, allow_large: bool) -> Graph:
    """T(n, r), r + 1 the least chromatic number of a member on at most n
    vertices (r = n if none fits), after ``_check_size`` refuses a bad n.

    T(n, r) is free: it is r-colourable, so it holds no member of
    chromatic number above r, and a member on more than n vertices fits in
    no graph on n vertices. So ex(n, F) >= e(T(n, r)) and spex(n, F) >=
    lambda(T(n, r)).
    """
    _check_size(n, allow_large)
    r = min((chromatic_number(h) for h in family if h.n <= n), default=n + 1) - 1
    return turan(n, r) if n else empty_graph(0)


def _band(m: int, floor: int, family: ForbiddenFamily) -> Iterator[Graph]:
    """The free classes on m vertices with ``_reach`` at least floor, one
    each.

    Monotone reach: adding an edge raises e by one and lowers no degree, so
    reach(G + uv) > reach(G). Deletion closure: a free G with reach at
    least floor lies in a saturated S on m vertices, reached from S by
    deleting one edge at a time; every graph on the way contains G, so it
    is free with reach at least reach(G). So the band is what deleting
    edges reaches from its saturated classes without falling below floor.
    Each class deletes one edge per orbit of the automorphisms its
    canonization found, as deleting edges of one orbit gives one class,
    and the results are deduplicated by canonical rows.

    Edge bound: let S be saturated with reach at least floor, v a vertex
    of least degree delta, and S' = S - v its Lemma 1 parent
    (``_candidates``). Every degree of S' is at least delta - 1, so
    reach(S') >= e(S) - delta + delta - 1 + 1 = e(S). As delta <= 2e(S)/m,
    floor - 1 <= e(S) + delta <= e(S) (m + 2) / m. So S is an
    ``_extensions`` child of the band on m - 1 vertices with floor
    ceil((floor - 1) m / (m + 2)). Children below floor are dropped, and
    those kept seed the deletions, saturated or not. When that bound is 0
    or less the level is the walk (``_free_classes``), filtered: it covers
    m = 0, and every floor of a family with a bipartite member.
    """
    bound = -((1 - floor) * m // (m + 2))
    if bound <= 0:
        # n was checked before its floor was drawn, and m < n
        yield from (g for g in _free_classes(m, family, True) if _reach(g) >= floor)
        return
    seen = set()
    stack = []

    def push(h: Graph) -> None:
        if _reach(h) >= floor:
            _, rows, sym = _canonical(h)
            if rows not in seen:
                seen.add(rows)
                stack.append((h, sym))

    for g in _band(m - 1, bound, family):
        for h in _extensions(g, family):
            push(h)
    while stack:
        g, sym = stack.pop()
        yield g
        gens = _generators(sym)
        covered: set[tuple[int, int]] = set()
        for u in range(m):
            for v in _iter_bits(g.adj[u] >> u + 1 << u + 1):
                if (u, v) not in covered:
                    _edge_orbit(u, v, gens, covered)
                    push(g.without_edge(u, v))


def _candidates(n: int, family: ForbiddenFamily, floor: int,
                keep) -> Iterator[Graph]:
    """Free graphs on n vertices, one per class, every saturated one with
    at least floor edges among them: the ``_extensions`` of the free
    classes on n - 1 vertices with reach at least floor (``_band``), in
    decreasing ``_reach``, until keep(reach) is false for a parent.

    Lemma 1: a saturated (free, edge-maximal) G is a candidate. Let v be a
    vertex of least degree and G' = G - v, free as a subgraph of G. Each w
    outside N(v) makes G + vw hold a member, so N(v) is maximal allowed.
    |N(v)| = delta(G) is at most every degree of G, and at most
    delta(G') + 1, since deleting v lowers a degree by at most one. So G
    is an extension of G''s class, up to isomorphism, and e(G) <=
    reach(G').
    """
    if n == 0:
        yield empty_graph(0)
        return
    seen = set()
    for g in sorted(_band(n - 1, floor, family), key=_reach, reverse=True):
        if not keep(_reach(g)):
            return
        for child in _extensions(g, family):
            rows = _canonical(child)[1]
            if rows not in seen:
                seen.add(rows)
                yield child


def _family_id(family: ForbiddenFamily) -> str:
    if family.name:
        return family.name
    return f"unnamed({len(family.members)} members)"


# ex_oracle and spex_oracle accept and ignore jobs, which selects nothing:
# the benchmark's census body still passes it (ROADMAP item 1 retires it)
def ex_oracle(n: int, family, allow_large: bool = False,
              jobs: int = 1) -> ExtremalReport:
    """Exact maximum edge count and all extremal graphs.

    An extremal graph is saturated with at least e(T(n, r)) edges
    (``_turan_floor``), so EX is the densest candidates (``_candidates``)
    from parents of reach at least that floor; the stream stops at a
    parent whose reach is below the best edge count. Each extremal graph
    is verified edge-maximal: every added edge creates a forbidden
    subgraph, and a graph that fails this raises RuntimeError.
    """
    family = _coerce_family(family)
    t0 = time.perf_counter()
    floor = _turan_floor(n, family, allow_large).edge_count
    best = -1
    attain: list[Graph] = []
    for g in _candidates(n, family, floor, lambda reach: reach >= best):
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


def _stanley_bound(m: int) -> float:
    """Stanley's upper bound on the spectral radius of a graph with m edges."""
    return (math.sqrt(1 + 8 * m) - 1) / 2


def _spex_set(ties: list[Graph], n: int, family: ForbiddenFamily,
              allow_large: bool) -> set[str]:
    """SPEX from the candidates of largest radius: C + R for each component
    C of a tie with the tie's radius and each free class R on n - |C|
    vertices with C + R free.

    Lemma 2: if G is in SPEX and C is a component of G with lambda(C) =
    lambda(G), then C is a component of a tie with the tie's radius. Add
    edges to G while it stays free, up to a saturated S. lambda(G) <=
    lambda(S) <= spex, so S is a tie (Lemma 1). C lies in a component D of
    S with lambda(D) <= lambda(S) = lambda(C), and a proper connected
    subgraph of D has smaller radius (Perron-Frobenius), so C = D. G - C is
    a free class R, so G is listed, and each C + R listed is free with
    radius lambda(C) = spex. In particular a connected SPEX graph is
    saturated (it is S), and a connected tie is its own C, with R empty.
    """
    parts = {}
    for s in ties:
        comps = s.components()
        if len(comps) < 2:  # connected, or K0: its own C
            parts[_canonical(s)[1]] = s
            continue
        for comp in comps:
            c = induced_subgraph(s, comp)
            if compare_lambda_exact(c, s) == 0:
                parts[_canonical(c)[1]] = c
    found = set()
    for c in parts.values():
        for r in _free_classes(n - c.n, family, allow_large):
            g = disjoint_union(c, r)
            if not r.n or is_free(g, family):  # with R empty, g is the tie
                found.add(_canon_string(g))
    return found


def spex_oracle(n: int, family, allow_large: bool = False,
                jobs: int = 1) -> ExtremalReport:
    """Exact maximum spectral radius and its attaining set.

    A float pre-filter keeps every candidate (``_candidates``) within
    _PREFILTER_TOL of the largest observed radius, top; exact comparison
    then decides the ties, so the reported set carries no floating-point
    equality anywhere. SPEX is completed from the ties (``_spex_set``).
    The value and the certificate's bracket are those of the first graph
    of the extremal set, whatever order the candidates came in.

    The stream stops at a parent whose reach m puts Stanley's bound
    lambda <= (sqrt(1 + 8m) - 1) / 2 (Linear Algebra Appl. 87, 1987), plus
    1e-9 for float error, below top - _PREFILTER_TOL: no later candidate
    would raise top or be kept, so the report is the same. top starts at
    the float radius of the free T(n, r) (``_turan_floor``), which no
    candidate of the largest radius falls below by more than float error,
    and the least reach that this test keeps is the floor of the parents.
    """
    family = _coerce_family(family)
    t0 = time.perf_counter()
    scored: list[tuple[float, Graph]] = []
    top = spectral_radius(_turan_floor(n, family, allow_large)).value

    def keep(reach: int) -> bool:
        return _stanley_bound(reach) + 1e-9 >= top - _PREFILTER_TOL

    floor = next(reach for reach in count() if keep(reach))
    for g in _candidates(n, family, floor, keep):
        lam = spectral_radius(g).value
        if lam >= top - _PREFILTER_TOL:
            top = max(top, lam)
            scored.append((lam, g))
    ties: list[Graph] = []
    for lam, g in scored:
        if lam < top - _PREFILTER_TOL:
            continue
        c = compare_lambda_exact(g, ties[0]) if ties else 1
        if c > 0:
            ties = [g]
        elif c == 0:
            ties.append(g)
    extremal = _spex_set(ties, n, family, allow_large)
    champion = decode_graph6(min(extremal))
    value = spectral_radius(champion).value
    lo, hi = perron_root_interval(champion, Fraction(1, 10 ** 12))
    certificate = {
        "perron_bracket": [f"{lo.numerator}/{lo.denominator}",
                           f"{hi.numerator}/{hi.denominator}"],
        "prefilter_tol": _PREFILTER_TOL,
        "ties": "compare_lambda_exact",
    }
    return ExtremalReport(
        "spex", n, _family_id(family), value, extremal,
        time.perf_counter() - t0, certificate=certificate)


class RestrictedSpace:
    """Search space: balanced complete r-partite base plus one forest packed
    into one part, over every distinct part size, each forest component on
    at most ``max_tree_order`` vertices."""

    __slots__ = ("r", "max_tree_order")

    def __init__(self, r: int, max_tree_order: int):
        _require_int("r", r)
        _require_int("max_tree_order", max_tree_order)
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


def _tree_multisets(order: int, count: int) -> list[tuple]:
    """Each multiset of ``count`` trees on ``order`` vertices as
    ((tree, copies), ...); K1s give the empty multiset."""
    if order == 1:
        return [()]
    return [tuple((t, len(list(run))) for t, run in groupby(trees))
            for trees in combinations_with_replacement(free_trees(order), count)]


def _forests(w: int, max_order: int) -> Iterator[tuple]:
    """Forests on w vertices with components of order <= max_order, each as
    its packs ((tree, copies), ...) with the K1s left out: a part's leftover
    vertices are isolated.

    Yielded in non-increasing edge-count order (edges = w - #components),
    one per isomorphism class.
    """
    for kparts in range((w + max_order - 1) // max_order, w + 1):
        for shape in _partitions_into(w, kparts, max_order):
            pools = [_tree_multisets(s, len(list(run))) for s, run in groupby(shape)]
            for combo in product(*pools):
                yield tuple(pack for packs in combo for pack in packs)


def restricted_ex(n: int, family, space: RestrictedSpace) -> ExtremalReport:
    """Maximum edges over the restricted space; flagged RESTRICTED.

    Every distinct part size of T(n, r) takes every forest of the space in
    turn, so the space holds one graph per (part size, forest); a host is
    built, as a ``TuranPacking``, only when it is tested. The value can
    undercut the true extremal number when the family rewards graphs
    outside the space; reports carry the space definition so the
    restriction is always visible. When no graph in the space is free, the
    value is None and the extremal set is empty.

    A host that is not free prunes the hosts after it. Let host(F) be
    T(n, r) with the forest F packed into its part P of w vertices. It is
    the join of the other parts, edgeless, and host(F)[P] = F, so it is
    tested by the join split on those parts (``patterns._join_split``),
    and building it is left to the free ones. A member that the split
    finds splits into an independent set in each other part and a residue
    R in F.

    Lemma: if R is a subgraph of a forest F' on w vertices, host(F') holds
    the member, so it is not free either. Proof: any permutation inside P
    is an automorphism of the base T(n, r), so R may go to any copy of it
    in F' = host(F')[P]. The independent sets stay, unchanged, in the other
    parts. Every member edge between two of these pieces joins two
    distinct parts, which the base joins completely, and the edges of R
    lie in its copy in F'. So host(F') holds the member.

    Each part size keeps the residues of its failed hosts, and a later
    forest that holds one is skipped untested. A residue has at most w
    vertices, since it fits F. With at most one edge it is edgeless or K2
    plus isolated vertices, which a forest on w vertices holds exactly
    when it has at least as many edges; that test reads the edge count
    and builds no forest. Only hosts that are not free are skipped, so the
    value, the extremal set and the stop at the first forest sparser than
    the best free host are unchanged.
    """
    family = _coerce_family(family)
    _check_size(n, True)
    t0 = time.perf_counter()
    if space.r > n:
        raise ValueError(f"r = {space.r} exceeds n = {n}")
    sizes = _turan_sizes(n, space.r)
    base_edges = (n * n - sum(w * w for w in sizes)) // 2
    best = -1
    attain: set[str] = set()
    for w in dict.fromkeys(sizes):
        part = sizes.index(w)
        caps = sizes[:part] + sizes[part + 1:]  # largest first, as _join_split needs
        residues: list[Graph] = []
        # the fewest edges of a kept residue with at most one edge; while
        # there is none, w, more than a forest on w vertices has
        few = w
        for packs in _forests(w, space.max_tree_order):
            e = base_edges + sum(t.edge_count * c for t, c in packs)
            if e < best:
                break  # forests only get sparser from here
            if e - base_edges >= few:
                continue
            forest = TuranPacking((w,), tuple((0, t, c) for t, c in packs)).graph()
            if any(contains_subgraph(forest, res) for res in residues):
                continue
            for m in family.by_order:
                res = _join_split(caps, forest, m)
                if res is not None:
                    if res.edge_count <= 1:
                        few = min(few, res.edge_count)
                    else:
                        residues.append(res)
                    break
            else:
                if e > best:
                    best = e
                    attain.clear()
                g = TuranPacking(sizes, tuple((part, t, c) for t, c in packs)).graph()
                attain.add(_canon_string(g))

    return ExtremalReport(
        "restricted-ex", n, _family_id(family), best if attain else None,
        attain, time.perf_counter() - t0, space=space)
