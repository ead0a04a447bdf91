"""Independent reference implementations used only by the tests, and the
constructions only the tests build (``u_packing``, ``transfer_vertex``).

Deliberately dumb and slow: exhaustive injection search, exhaustive
coloring, permutation-dedup isomorphism classes, dense eigensolver.
Anything the package computes cleverly gets checked against these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from spexlab import (
    ExtremalReport,
    ForbiddenFamily,
    Graph,
    Partition,
    SpectralResult,
    TuranPacking,
    adjacency_matrix,
    canonical_form,
    compare_lambda_exact,
    decode_graph6,
    enumerate_graphs,
    induced_subgraph,
    is_free,
    perron_root_interval,
    spectral_radius,
    star,
    turan,
)
from spexlab.graphs import _iter_bits, _turan_sizes
from spexlab.oracle import _PREFILTER_TOL, _family_id, _forests


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


def packed_turan(n: int, r: int, part: int, kinds) -> Graph:
    """T(n, r) with the graphs in ``kinds`` laid side by side from the
    first vertex of ``part``, their edges added one at a time."""
    g = turan(n, r)
    cls = g.partition.classes[part]
    first = 0
    for kind in kinds:
        for a, b in kind.edges():
            g = g.with_edge(cls[first + a], cls[first + b])
        first += kind.n
    return g


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


def u_packing(g: Graph, n: int) -> Graph:
    """As many disjoint copies of g as fit in n vertices; remainder isolated."""
    if g.n < 1:
        raise ValueError("packed graph must be nonempty")
    if n < 0:
        raise ValueError("vertex budget must be nonnegative")
    k = n // g.n
    adj = [row << (i * g.n) for i in range(k) for row in g.adj]
    return Graph._from_adj(n, adj + [0] * (n - k * g.n))


def transfer_vertex(g: Graph, partition: Partition, i: int, j: int, u: int) -> Graph:
    """Move vertex u from class i to class j, rewiring it as an ordinary vertex.

    After the move u is adjacent to everything outside class j (and not to
    itself), i.e. it behaves like a plain multipartite vertex of class j.
    Requires u to have at most one neighbor inside its own class. The returned
    graph carries the updated partition; for an ordinary u the edge delta is
    |W_i| - |W_j| - 1.
    """
    if partition.n != g.n:
        raise ValueError("partition does not match graph")
    if not (0 <= i < len(partition) and 0 <= j < len(partition)):
        raise ValueError("class index out of range")
    if partition.class_of(u) != i:
        raise ValueError(f"vertex {u} is not in class {i}")
    mask_i = 0
    for v in partition.classes[i]:
        mask_i |= 1 << v
    if (g.adj[u] & mask_i).bit_count() > 1:
        raise ValueError(f"vertex {u} has more than one neighbor inside class {i}")
    if i != j and len(partition.classes[i]) == 1:
        raise ValueError(f"transfer would empty class {i}")

    mask_j = 0
    for v in partition.classes[j]:
        mask_j |= 1 << v
    bit_u = 1 << u
    full = (1 << g.n) - 1

    adj = list(g.adj)
    for v in _iter_bits(adj[u]):
        adj[v] &= ~bit_u
    new_row = full & ~mask_j & ~bit_u
    adj[u] = new_row
    for v in _iter_bits(new_row):
        adj[v] |= bit_u

    classes = [list(c) for c in partition.classes]
    if i != j:
        classes[i].remove(u)
        classes[j].append(u)
    return Graph._from_adj(g.n, adj, Partition(classes))


def transfer_shift_graphs(r: int, k: int, n: int) -> tuple[Graph, Graph]:
    """T(n, r), n = r*w + 1, with k-vertex stars packed into part 1, after
    and before an ordinary vertex of part 0 moves into part 1."""
    g = packed_turan(n, r, 1, [star(k)] * (n // r // k))
    moved = transfer_vertex(g, g.partition, 0, 1, g.partition.classes[0][0])
    return moved, g


def last_edge_admits(adj: tuple[int, ...], deg: list[int],
                     comps: list[int], a: int, b: int) -> bool:
    """Whether (a, b), a <= b, can be the end degrees of the last edge,
    by a scan over every vertex: the reference for ``oracle._degree_filter``.

    ``comps`` are components of maximum size. The pair passes when in one
    of them (A) no edge joins two vertices of degree above a, and (B) some
    x of degree a has a neighbour of degree b and none above b (proof in
    ``oracle._degree_filter``).
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


def restricted_unpruned(n: int, members, r: int, max_order: int):
    """restricted_ex without its witness pruning: every forest of each part
    size is tested, densest first, until one is sparser than the best free
    host; (value or None, canonical extremal set)."""
    sizes = _turan_sizes(n, r)
    base_edges = (n * n - sum(w * w for w in sizes)) // 2
    best, attain = -1, set()
    for w in dict.fromkeys(sizes):
        part = sizes.index(w)
        for packs in _forests(w, max_order):
            e = base_edges + sum(t.edge_count * c for t, c in packs)
            if e < best:
                break
            g = TuranPacking(sizes, tuple((part, t, c) for t, c in packs)).graph()
            if not is_free(g, members):
                continue
            if e > best:
                best, attain = e, set()
            attain.add(canonical_form(g).decode("ascii"))
    return (best if attain else None), attain


def census_ex(n: int, family: ForbiddenFamily) -> ExtremalReport:
    """ex_oracle over every free class on n vertices that the walk yields,
    in place of the candidates of one-vertex extensions."""
    best, attain = -1, []
    for g in enumerate_graphs(n, family, allow_large=True):
        e = g.edge_count
        if e > best:
            best, attain = e, [g]
        elif e == best:
            attain.append(g)
    return ExtremalReport("ex", n, _family_id(family), best,
                          [canonical_form(g).decode("ascii") for g in attain], 0.0)


def census_spex(n: int, family: ForbiddenFamily) -> ExtremalReport:
    """spex_oracle over every free class on n vertices that the walk
    yields, each scored: no parent bound and no completion of the ties.
    As there, the value and the bracket are those of the least canonical
    graph6 string among the ties."""
    scored, top = [], float("-inf")
    for g in enumerate_graphs(n, family, allow_large=True):
        lam = spectral_radius(g).value
        if lam > top:
            top = lam
            scored = [(l, h) for l, h in scored if l >= top - _PREFILTER_TOL]
        if lam >= top - _PREFILTER_TOL:
            scored.append((lam, g))
    ties = []
    for _, g in scored:
        c = compare_lambda_exact(g, ties[0]) if ties else 1
        if c > 0:
            ties = [g]
        elif c == 0:
            ties.append(g)
    forms = sorted(canonical_form(g).decode("ascii") for g in ties)
    champion = decode_graph6(forms[0])
    lo, hi = perron_root_interval(champion, Fraction(1, 10 ** 12))
    certificate = {"perron_bracket": [f"{lo.numerator}/{lo.denominator}",
                                      f"{hi.numerator}/{hi.denominator}"],
                   "prefilter_tol": _PREFILTER_TOL,
                   "ties": "compare_lambda_exact"}
    return ExtremalReport("spex", n, _family_id(family),
                          spectral_radius(champion).value, forms, 0.0,
                          certificate=certificate)
