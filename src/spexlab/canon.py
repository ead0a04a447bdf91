"""Canonical labeling by partition refinement plus individualization.

A graph is canonicalized one connected component at a time; components are
assembled in a deterministic order, so the result is isomorphism-invariant.
Inside a component the search refines the unit partition to an equitable one,
individualizes a vertex from the first non-singleton cell, and recurses,
keeping the labeling whose relabeled adjacency rows compare smallest. Cells
whose vertices are mutually interchangeable (twin cells) are ordered by label
instead of branched on, and automorphisms recovered from colliding leaves
prune branches. Tuned for the graphs this package produces, up to a few
hundred vertices.

Besides the labeling, ``_canonical`` returns the automorphisms the search
meets on the way (leaf collisions, twin cells, duplicate components), and
``_generators`` turns them into vertex permutations. Each one is an
automorphism; on every graph up to 6 vertices they generate the whole group.
A missed generator costs a caller pruning, never correctness.
"""

from __future__ import annotations

from .graph6 import encode_graph6
from .graphs import Graph, _iter_bits

__all__ = ["canonical_form"]

_MAX_STORED_LEAVES = 2000


def _mask(cell) -> int:
    mask = 0
    for v in cell:
        mask |= 1 << v
    return mask


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Split cells by neighbor counts into every cell until equitable.

    The order rule: each step takes the first cell, in order, whose vertices
    split some cell (that cell's vertices have differing neighbor counts in
    it), replaces every cell it splits by the pieces in ascending count, and
    starts over; the result is the partition where no cell splits any. A
    vertex set that split nothing splits nothing under any finer partition,
    so it is never scanned again, which leaves the result unchanged. Every
    choice reads counts only, so the result is deterministic given the
    incoming cell order and follows the vertices under relabeling, which
    makes it usable as a canonical refinement step.
    """
    stable: set[int] = set()
    while True:
        for splitter in cells:
            smask = 0  # _mask inlined: this loop dominates small-graph canonization
            for v in splitter:
                smask |= 1 << v
            if smask in stable:
                continue
            newcells: list[list[int]] = []
            for c in cells:
                if len(c) > 1:
                    groups: dict[int, list[int]] = {}
                    for v in c:
                        groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                    if len(groups) > 1:
                        for k in sorted(groups):
                            newcells.append(groups[k])
                        continue
                newcells.append(c)
            if len(newcells) > len(cells):
                cells = newcells
                break
            stable.add(smask)
        else:
            return cells


def _split_twin_cells(adj: tuple[int, ...], cells: list[list[int]],
                      twins: list[list[int]]) -> list[list[int]]:
    """Break cells of pairwise-interchangeable vertices into singletons.

    A cell qualifies when its vertices share one adjacency row outside the
    cell and induce either no edges or all edges inside it; the symmetric
    group on such a cell acts by automorphisms fixing everything else, so any
    fixed order (here: by label) is canonical and branching would be wasted.
    Splitting them cannot trigger further refinement because outside vertices
    see all or none of the cell. Each split cell is appended to ``twins``.
    """
    out: list[list[int]] = []
    for c in cells:
        if len(c) == 1:
            out.append(c)
            continue
        cmask = _mask(c)
        outside = {adj[v] & ~cmask for v in c}
        if len(outside) == 1:
            inner = [adj[v] & cmask for v in c]
            if all(row == 0 for row in inner) or \
                    all(inner[i] == cmask ^ (1 << v) for i, v in enumerate(c)):
                out.extend([v] for v in c)
                twins.append(c)
                continue
        out.append(c)
    return out


def _leaf_perm(cells: list[list[int]], n: int) -> list[int]:
    perm = [0] * n
    for pos, c in enumerate(cells):
        perm[c[0]] = pos
    return perm


def _relabeled_rows(adj: tuple[int, ...], perm: list[int], n: int) -> tuple[int, ...]:
    rows = [0] * n
    for v in range(n):
        row = 0
        m = adj[v]
        while m:
            low = m & -m
            row |= 1 << perm[low.bit_length() - 1]
            m ^= low
        rows[perm[v]] = row
    return tuple(rows)


class _Search:
    """Best-leaf search over one graph (intended: one connected component)."""

    def __init__(self, adj: tuple[int, ...], n: int):
        self.adj = adj
        self.n = n
        self.best_key: tuple[int, ...] | None = None
        self.best_perm: list[int] | None = None
        self.gens: list[list[int]] = []
        self.twins: list[list[int]] = []
        self.leaves: dict[tuple[int, ...], list[int]] = {}

    def run(self) -> tuple[list[int], tuple[int, ...]]:
        cells = _refine(self.adj, [list(range(self.n))])
        self._node(_split_twin_cells(self.adj, cells, self.twins), [])
        assert self.best_perm is not None and self.best_key is not None
        return self.best_perm, self.best_key

    def _node(self, cells: list[list[int]], prefix: list[int]) -> None:
        target = None
        for c in cells:
            if len(c) > 1:
                target = c
                break
        if target is None:
            self._leaf(_leaf_perm(cells, self.n))
            return

        fixing = [p for p in self.gens if all(p[v] == v for v in prefix)]
        explored: list[int] = []
        for v in target:
            if explored and self._same_orbit(v, explored, fixing):
                continue
            explored.append(v)
            child = []
            for c in cells:
                if c is target:
                    child.append([v])
                    child.append([w for w in c if w != v])
                else:
                    child.append(list(c))
            prefix.append(v)
            refined = _split_twin_cells(self.adj, _refine(self.adj, child), self.twins)
            self._node(refined, prefix)
            prefix.pop()
            # newly found automorphisms may fix the prefix; refresh the list
            fixing = [p for p in self.gens if all(p[u] == u for u in prefix)]

    def _same_orbit(self, v: int, explored: list[int], fixing: list[list[int]]) -> bool:
        if not fixing:
            return False
        # orbit of v = connected component over the generators' functional graphs
        orbit = {v}
        frontier = [v]
        targets = set(explored)
        while frontier:
            x = frontier.pop()
            for p in fixing:
                y = p[x]
                if y not in orbit:
                    if y in targets:
                        return True
                    orbit.add(y)
                    frontier.append(y)
        return False

    def _leaf(self, perm: list[int]) -> None:
        key = _relabeled_rows(self.adj, perm, self.n)
        prior = self.leaves.get(key)
        if prior is not None:
            # two labelings agree on the image: their mismatch is an automorphism
            inv_prior = [0] * self.n
            for v, t in enumerate(prior):
                inv_prior[t] = v
            self.gens.append([inv_prior[t] for t in perm])
            return
        if len(self.leaves) < _MAX_STORED_LEAVES:
            self.leaves[key] = list(perm)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_perm = list(perm)


def _canon_component(g: Graph, comp: int) -> tuple:
    """Canonical data for the subgraph induced on bitmask comp.

    Returns (size, canonical local rows, vertices, their new local
    positions, leaf-collision automorphisms, twin cells), the last two in
    local indices.
    """
    verts = list(_iter_bits(comp))
    index = {v: i for i, v in enumerate(verts)}
    adj = []
    for v in verts:
        row = 0
        for w in _iter_bits(g.adj[v] & comp):
            row |= 1 << index[w]
        adj.append(row)
    search = _Search(tuple(adj), len(verts))
    perm, key = search.run()
    return len(verts), key, verts, perm, search.gens, search.twins


def _canonical(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple]]:
    """(labeling old -> new, canonical adjacency rows, symmetry record).

    The symmetry record is the sorted list of component records; pass it to
    ``_generators`` for automorphisms of g. It is kept unexpanded so that
    callers needing only the labeling pay nothing for it.
    """
    n = g.n
    if n == 0:
        return (), (), []
    comps = [_canon_component(g, comp) for comp in g.components()]
    # deterministic component order; ties are exact-duplicate keys, so order
    # between them cannot change the assembled rows
    comps.sort(key=lambda t: (t[0], t[1]))
    perm = [0] * n
    rows: list[int] = []
    offset = 0
    for size, key, verts, local_perm, _, _ in comps:
        for v, p in zip(verts, local_perm):
            perm[v] = offset + p
        rows.extend(row << offset for row in key)
        offset += size
    return tuple(perm), tuple(rows), comps


def _generators(sym: list[tuple]) -> list[list[int]]:
    """Automorphisms of a graph, as vertex permutations, from its record.

    Three kinds, each an automorphism: leaf collisions of a component's
    search, transpositions of consecutive vertices in a twin cell, and swaps
    of consecutive components with equal canonical rows (vertex for vertex
    by canonical position).
    """
    n = sum(t[0] for t in sym)
    gens = []
    prev = None
    for size, key, verts, local_perm, local_gens, twins in sym:
        for p in local_gens:
            gen = list(range(n))
            for i, v in enumerate(verts):
                gen[v] = verts[p[i]]
            gens.append(gen)
        for cell in dict.fromkeys(map(tuple, twins)):
            for a, b in zip(cell, cell[1:]):
                gen = list(range(n))
                gen[verts[a]], gen[verts[b]] = verts[b], verts[a]
                gens.append(gen)
        if prev is not None and prev[:2] == (size, key):
            at = [0] * size
            for v, p in zip(prev[2], prev[3]):
                at[p] = v
            gen = list(range(n))
            for v, p in zip(verts, local_perm):
                gen[v], gen[at[p]] = at[p], v
            gens.append(gen)
        prev = (size, key, verts, local_perm)
    return gens


def canonical_form(g: Graph) -> bytes:
    """Canonical representative of g's isomorphism class, graph6-encoded."""
    rows = _canonical(g)[1]
    return encode_graph6(Graph._from_adj(g.n, rows)).encode("ascii")
