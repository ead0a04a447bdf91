"""Independent reference implementations used only by the tests.

Deliberately dumb and slow: exhaustive injection search, exhaustive
coloring, permutation-dedup isomorphism classes, dense eigensolver.
Anything the package computes cleverly gets checked against these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from spexlab import (
    Graph,
    SpectralResult,
    adjacency_matrix,
    embed_in_part,
    induced_subgraph,
    star,
    transfer_vertex,
    turan,
    u_packing,
)
from spexlab.graphs import _iter_bits


def brute_contains(host: Graph, pattern: Graph) -> bool:
    """Subgraph containment by trying every injective vertex map."""
    if pattern.n > host.n:
        return False
    pedges = list(pattern.edges())
    if not pedges:
        return True
    hadj = host.adj
    for image in itertools.permutations(range(host.n), pattern.n):
        if all(hadj[image[a]] >> image[b] & 1 for a, b in pedges):
            return True
    return False


def brute_chromatic(g: Graph) -> int:
    """Exact chromatic number by backtracking over color assignments."""
    if g.n == 0:
        return 0
    adj = g.adj

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def place(v: int) -> bool:
            if v == g.n:
                return True
            used = {colors[u] for u in range(v) if adj[v] >> u & 1}
            # bound new colors by the highest one used so far plus one
            top = max((colors[u] for u in range(v)), default=-1)
            for c in range(min(k, top + 2)):
                if c not in used:
                    colors[v] = c
                    if place(v + 1):
                        return True
            colors[v] = -1
            return False

        return place(0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    return g.n


def _edge_bits(n: int):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def all_graphs_upto_iso(n: int) -> list[Graph]:
    """Every isomorphism class on n vertices by labeled enumeration.

    Walks all 2^C(n,2) labeled graphs; when an unseen one appears, marks
    its whole orbit under vertex permutations as seen. Fine up to n = 6.
    """
    pairs = _edge_bits(n)
    perms = list(itertools.permutations(range(n)))
    index = {pair: i for i, pair in enumerate(pairs)}
    seen = set()
    reps = []
    for bits in range(1 << len(pairs)):
        if bits in seen:
            continue
        reps.append(bits)
        for perm in perms:
            img = 0
            for i, (u, v) in enumerate(pairs):
                if bits >> i & 1:
                    a, b = perm[u], perm[v]
                    img |= 1 << index[(a, b) if a < b else (b, a)]
            seen.add(img)
    out = []
    for bits in reps:
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        out.append(Graph(n, edges))
    return out


def eig_radius(g: Graph) -> float:
    """Spectral radius from the dense symmetric eigensolver."""
    if g.n == 0:
        return 0.0
    return float(np.linalg.eigvalsh(adjacency_matrix(g))[-1])


def charpoly_reference(entries) -> list[Fraction]:
    """Ascending characteristic polynomial coefficients via sympy."""
    import sympy

    mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                         if isinstance(x, Fraction) else x for x in row]
                        for row in entries])
    poly = mat.charpoly()
    coeffs = list(reversed(poly.all_coeffs()))
    return [Fraction(int(c.p), int(c.q)) for c in coeffs]


def fraction_perron_less_than(entries, q) -> bool:
    """q > Perron root of a nonnegative matrix: Gaussian elimination on qI - A
    over Fraction, every pivot (a ratio of leading principal minors) > 0."""
    q = Fraction(q)
    n = len(entries)
    rows = [[(q if i == j else Fraction(0)) - Fraction(entries[i][j]) for j in range(n)]
            for i in range(n)]
    for k in range(n):
        piv = rows[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            f = rows[i][k] / piv
            if f:
                for j in range(k + 1, n):
                    rows[i][j] -= f * rows[k][j]
    return True


def componentwise_radius(g: Graph) -> SpectralResult:
    """spectral_radius by dense eigh on each component's adjacency_matrix.

    Components are relabelled by induced_subgraph; no quotient is formed.
    Radii within 1e-12 count as tied, and the first tied component wins.
    """
    found = []
    for comp in g.components():
        a = adjacency_matrix(induced_subgraph(g, comp))
        vals, vecs = np.linalg.eigh(a)
        x = np.abs(vecs[:, -1])
        x /= x.max()
        found.append((float(vals[-1]), comp, x,
                      float(np.abs(a @ x - vals[-1] * x).max())))
    top = max(lam for lam, *_ in found)
    lam, comp, x, res = next(f for f in found if f[0] >= top - 1e-12)
    vector = [0.0] * g.n
    for i, v in enumerate(_iter_bits(comp)):
        vector[v] = float(x[i])
    return SpectralResult(lam, tuple(vector), res)


def refine_rescan(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """canon._refine without its skip of stable splitters: after every
    split, every cell is scanned again from the first."""
    while True:
        changed = False
        for s in range(len(cells)):
            smask = 0
            for v in cells[s]:
                smask |= 1 << v
            newcells: list[list[int]] = []
            for c in cells:
                if len(c) == 1:
                    newcells.append(c)
                    continue
                groups: dict[int, list[int]] = {}
                for v in c:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) == 1:
                    newcells.append(c)
                else:
                    for k in sorted(groups):
                        newcells.append(groups[k])
                    changed = True
            if changed:
                cells = newcells
                break
        if not changed:
            return cells


def edge_add_graphs(r: int, b: int, a: int, n: int) -> tuple[Graph, Graph]:
    """T(n, r) plus b edges matched inside part 0 and minus a cross edges
    between the tails of the last two parts, against T(n, r) itself."""
    t = turan(n, r)
    cls = t.partition.classes
    g = t
    for i in range(b):
        g = g.with_edge(cls[0][2 * i], cls[0][2 * i + 1])
    for i in range(a):
        g = g.without_edge(cls[-2][-1 - i], cls[-1][-1 - i])
    return g, t


def transfer_shift_graphs(r: int, k: int, n: int) -> tuple[Graph, Graph]:
    """T(n, r), n = r*w + 1, with k-vertex stars packed into part 1, after
    and before an ordinary vertex of part 0 moves into part 1."""
    t = turan(n, r)
    g = embed_in_part(t, 1, u_packing(star(k), n // r))
    moved = transfer_vertex(g, g.partition, 0, 1, t.partition.classes[0][0])
    return moved, g
