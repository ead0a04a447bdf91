"""Subgraph containment, freeness, chromatic numbers, forbidden families."""

import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spexlab import (
    ForbiddenFamily,
    Graph,
    TuranPacking,
    canonical_form,
    chromatic_number,
    complete,
    complete_multipartite,
    contains_subgraph,
    cx1_family,
    cx1_pair,
    cx2_package,
    cycle,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    f1,
    induced_subgraph,
    is_free,
    join,
    matching,
    path,
    relabel,
    star,
    turan,
)
from spexlab import patterns
from spexlab.oracle import RestrictedSpace, restricted_ex
from conftest import random_graph
from oracles import all_graphs_upto_iso, brute_chromatic, brute_contains, u_packing


class TestContains:
    def test_k4_has_c4(self):
        assert contains_subgraph(complete(4), cycle(4))

    def test_two_part_edges_create_f1(self):
        t = turan(12, 3)
        cls = t.partition.classes
        host = t.with_edge(cls[0][0], cls[0][1]).with_edge(cls[1][0], cls[1][1])
        assert contains_subgraph(host, f1())

    def test_join_host_verdict_is_a_bool(self):
        # the join split hands back a residue; containment answers a bool
        host = turan(6, 2).with_edge(0, 1)
        assert contains_subgraph(host, complete(3)) is True
        assert contains_subgraph(host, complete(4)) is False

    def test_packed_edges_do_not(self):
        host = TuranPacking((4, 4, 4), ((0, path(2), 2),)).graph()
        assert not contains_subgraph(host, f1())

    def test_self_and_single_vertex(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 9))
            assert contains_subgraph(g, g)
            assert contains_subgraph(g, complete(1))

    def test_transitive(self):
        rng = random.Random(48)
        hits = 0
        for _ in range(400):
            host = random_graph(rng, rng.randrange(3, 9), 0.6)
            mid = random_graph(rng, rng.randrange(2, 6), 0.5)
            small = random_graph(rng, rng.randrange(1, 4), 0.5)
            if contains_subgraph(host, mid) and contains_subgraph(mid, small):
                assert contains_subgraph(host, small)
                hits += 1
        assert hits > 50

    def test_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(250):
            host = random_graph(rng, rng.randrange(0, 8), rng.random())
            pattern = random_graph(rng, rng.randrange(0, 6), rng.random())
            assert contains_subgraph(host, pattern) == brute_contains(host, pattern)


@st.composite
def small_graphs(draw, lo: int = 1, hi: int = 4) -> Graph:
    n = draw(st.integers(lo, hi))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@st.composite
def composite_hosts(draw) -> list[Graph]:
    """The disjoint union and the join of two small graphs, each relabeled too."""
    a, b = draw(small_graphs()), draw(small_graphs())
    hosts = []
    for host in (disjoint_union(a, b), join(a, b)):
        perm = draw(st.permutations(range(host.n)))
        hosts += [host, relabel(host, perm)]
    return hosts


def _shuffle(draw, g: Graph) -> Graph:
    return relabel(g, draw(st.permutations(range(g.n))))


def _co_components(g: Graph) -> list[int]:
    """Vertex masks of the components of g's complement."""
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not g.has_edge(u, v)]).components()


@st.composite
def join_hosts(draw) -> Graph:
    """A relabeled join of 2-3 parts on <= 8 vertices: edgeless, star
    forests, or random on 2-3 vertices."""
    parts = []
    for _ in range(draw(st.integers(2, 3))):
        kind = draw(st.sampled_from(("edgeless", "stars", "random")))
        if kind == "edgeless":
            part = empty_graph(draw(st.integers(2, 4)))
        elif kind == "stars":
            part = empty_graph(0)
            for k in draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)):
                part = disjoint_union(part, star(k))
        else:
            part = draw(small_graphs(2, 3))
        if sum(p.n for p in parts) + part.n > 8:
            break
        parts.append(part)
    assume(len(parts) > 1)
    host = parts[0]
    for part in parts[1:]:
        host = join(host, part)
    return _shuffle(draw, host)


@st.composite
def core_hosts(draw) -> Graph:
    """A relabeled connected, co-connected host on <= 8 vertices: a random
    base blown up into twin classes (independent or clique)."""
    base = draw(small_graphs(4, 5))
    # on 4-5 vertices a join always has an edgeless part, so "core" means
    # connected and co-connected
    assume(patterns._plan(base)[0] == "core")
    classes, n = [], 0
    for v in range(base.n):
        size = min(draw(st.integers(1, 3)), 8 - n - (base.n - v - 1))
        classes.append(list(range(n, n + size)))
        n += size
    cliques = [draw(st.booleans()) for _ in classes]
    edges = [(a, b) for u, v in base.edges() for a in classes[u] for b in classes[v]]
    edges += [(a, b) for verts, clique in zip(classes, cliques) if clique
              for a in verts for b in verts if a < b]
    return _shuffle(draw, Graph(n, edges))


@st.composite
def twin_patterns(draw, n: int) -> Graph:
    """A relabeled pattern on n >= 2 vertices with large twin classes: a small
    graph joined to a complete multipartite block, or repeated components."""
    # joins are mostly refused and unions mostly held; two to one keeps
    # each verdict at a third or more on both kinds of host
    if n < 4 or draw(st.sampled_from(("join", "join", "union"))) == "join":
        base = draw(small_graphs(1, min(3, n - 1)))
        sizes, left = [], n - base.n
        while left:
            sizes.append(draw(st.integers(1, min(2, left))))
            left -= sizes[-1]
        pattern = join(base, complete_multipartite(sizes))
    else:
        comp = draw(small_graphs(2, min(3, n // 2)))
        if not comp.edge_count:
            comp = comp.with_edge(0, 1)
        pattern = u_packing(comp, n // comp.n * comp.n)
        pattern = disjoint_union(pattern, draw(small_graphs(0, n - pattern.n)))
    return _shuffle(draw, pattern)


@st.composite
def split_parts(draw) -> tuple[tuple[int, ...], Graph, Graph]:
    """Edgeless part sizes (largest first), the graph joined to them (any
    graph on at most 5 vertices, or a star spanning it) and a pattern, on
    at most 8 vertices in all."""
    caps = tuple(sorted(draw(st.lists(st.integers(1, 3), max_size=3)),
                        reverse=True))
    room = max(0, min(5, 8 - sum(caps)))
    if room and draw(st.booleans()):
        edged = star(draw(st.integers(1, room)))
    else:
        edged = _shuffle(draw, draw(small_graphs(0, room)))
    total = sum(caps) + edged.n
    assume(total)
    pattern = _shuffle(draw, draw(small_graphs(1, min(6, total))))
    return caps, edged, pattern


def split_fits(host: Graph, pattern: Graph) -> bool:
    """_join_split's verdict on a join host; a residue it hands back must
    fit the host's part with edges, by brute force."""
    residue = patterns._join_split(*patterns._plan(host)[1:], pattern)
    if residue is None:
        return False
    assert brute_contains(patterns._plan(host)[2], residue)
    return True


def _independent_sets(g: Graph, within: int) -> list[int]:
    """Every independent set of g[within], by trying every vertex subset."""
    verts = list(patterns._iter_bits(within))
    return [sum(1 << v for v in c) for size in range(len(verts) + 1)
            for c in itertools.combinations(verts, size)
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(c, 2))]


def _brute_maximal_independent_sets(g: Graph, within: int) -> list[int]:
    """The maximal independent sets of g[within], larger first, then by
    least vertex, then by mask."""
    indep = _independent_sets(g, within)
    return sorted((s for s in indep if not any(s != t and s & t == s for t in indep)),
                  key=lambda s: (-s.bit_count(), s & -s, s))


def _has_matching(g: Graph, k: int, avail: int) -> bool:
    """Whether g[avail] has k disjoint edges: its least vertex is left out
    or matched to each neighbour in turn."""
    if k == 0:
        return True
    if avail.bit_count() < 2 * k:
        return False
    low = avail & -avail
    rest = avail ^ low
    return _has_matching(g, k, rest) or any(
        _has_matching(g, k - 1, rest & ~(1 << w))
        for w in patterns._iter_bits(g.adj[low.bit_length() - 1] & rest))


@st.composite
def host_and_pattern(draw, hosts) -> tuple[Graph, Graph]:
    """A host and a twin pattern on at most 2 fewer vertices, and at most 6
    so that the brute-force injection search stays fast."""
    host = draw(hosts)
    n = draw(st.integers(max(2, host.n - 2), min(host.n, 6)))
    return host, draw(twin_patterns(n))


class TestTwinOrder:
    """Pattern twins take host parts (or host classes) in non-decreasing order."""

    @staticmethod
    def chains(g: Graph, order: list[int], classes: list[set]) -> list[int]:
        want = []
        for i, v in enumerate(order):
            cls = next(c for c in classes if v in c)
            want.append(max((j for j in range(i) if order[j] in cls), default=-1))
        return want

    def test_open_twins_of_k33_join_p3(self):
        g = join(complete_multipartite((3, 3)), path(3))  # P3 is 6-7-8
        classes = [{0, 1, 2}, {3, 4, 5}, {6, 8}, {7}]
        order = [8, 0, 3, 7, 1, 6, 4, 2, 5]
        assert patterns._twin_prev(g, order) == [-1, -1, -1, -1, 1, 0, 2, 4, 6]
        rng = random.Random(33)
        for _ in range(20):
            rng.shuffle(order)
            assert patterns._twin_prev(g, order) == self.chains(g, order, classes)

    def test_closed_twins_of_k4_minus_an_edge(self):
        g = complete(4).without_edge(0, 1)  # 2, 3 closed twins; 0, 1 open
        assert patterns._twin_prev(g, [2, 0, 3, 1]) == [-1, -1, 0, 1]
        assert patterns._twin_prev(g, [3, 2, 1, 0]) == [-1, 0, -1, 2]

    @settings(max_examples=200, deadline=None)
    @given(host_and_pattern(join_hosts()))
    def test_join_split_matches_brute_force(self, case):
        # a join of parts that all have edges goes to the matcher instead
        host, pattern = case
        plan = patterns._plan(host)
        if plan[0] == "join":
            got = split_fits(host, pattern)
        else:
            assert plan == ("core",)
            patterns._cache.clear()
            got = patterns._contains(host, pattern)
        assert got == brute_contains(host, pattern)

    @settings(max_examples=150, deadline=None)
    @given(host_and_pattern(core_hosts()))
    def test_core_match_matches_brute_force(self, case):
        host, pattern = case
        assert patterns._plan(host) == ("core",)
        assert patterns._core_match(host, pattern) == brute_contains(host, pattern)

    @pytest.mark.parametrize("seed", range(5))
    def test_cx1_verdicts_survive_relabeling(self, seed):
        rng = random.Random(seed)

        def shuffled(g: Graph) -> Graph:
            perm = list(range(g.n))
            rng.shuffle(perm)
            return relabel(g, perm)

        g, h = (shuffled(x) for x in cx1_pair(3, 6, 55))
        for m in (5, 6):
            fam = [shuffled(member) for member in cx1_family(3, 6, m)]
            assert is_free(g, fam) == (m == 6), (seed, m)
            assert is_free(h, fam), (seed, m)


def _brute_alpha(g: Graph) -> int:
    return max(size for size in range(g.n + 1)
               for verts in itertools.combinations(range(g.n), size)
               if all(not g.has_edge(u, v)
                      for u, v in itertools.combinations(verts, 2)))


@st.composite
def edged_parts(draw, lo: int = 2, hi: int = 3) -> Graph:
    g = draw(small_graphs(lo, hi))
    return g if g.edge_count else g.with_edge(0, 1)


@st.composite
def edgeless_joins(draw, kind: str) -> Graph:
    """A relabeled join on <= 7 vertices whose edgeless parts include a
    "narrow" one (1-2 vertices), form a "cocktail" run of equal ones, are
    "universal" vertices (capacity 1), or sit beside "two_edged" parts
    with edges. A part drawn with edges may itself be a join, so a kind
    can end up with more, smaller parts."""
    if kind == "narrow":
        parts = [empty_graph(draw(st.integers(1, 2))), draw(edged_parts(2, 4))]
        if sum(p.n for p in parts) < 7 and draw(st.booleans()):
            parts.append(empty_graph(draw(st.integers(1, 7 - sum(p.n for p in parts)))))
    elif kind == "cocktail":
        size = draw(st.integers(1, 2))
        parts = [empty_graph(size)] * draw(st.integers(2, 7 // size))
        if sum(p.n for p in parts) <= 5 and draw(st.booleans()):
            parts.append(draw(edged_parts(2, 7 - sum(p.n for p in parts))))
    elif kind == "universal":
        parts = [complete(draw(st.integers(1, 4)))]
        parts.append(draw(edged_parts(2, 7 - parts[0].n)))
    else:
        parts = [empty_graph(draw(st.integers(1, 2))), draw(edged_parts())]
        parts.append(draw(edged_parts(2, 7 - sum(p.n for p in parts))))
    host = parts[0]
    for part in parts[1:]:
        host = join(host, part)
    return _shuffle(draw, host)


@st.composite
def dense_graphs(draw, n: int) -> Graph:
    """A graph on n vertices missing each pair with probability 1/4."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    bits |= draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@st.composite
def edgeless_cases(draw, kind: str) -> tuple[Graph, Graph]:
    """A host of the kind and a pattern of the host's order or one less: a
    twin pattern, a graph of density 1/2 or 3/4, or a near miss (an induced
    subgraph of the host with one edge moved). Narrow hosts get a pattern
    with an independent set larger than the smallest edgeless part."""
    host = draw(edgeless_joins(kind))
    n = draw(st.integers(max(2, host.n - 1), host.n))
    shape = draw(st.sampled_from(("twins", "half", "dense", "near_miss")))
    if shape == "twins":
        pattern = draw(twin_patterns(n))
    elif shape == "half":
        pattern = draw(small_graphs(n, n))
    elif shape == "dense":
        pattern = draw(dense_graphs(n))
    else:
        pattern = induced_subgraph(host, draw(st.permutations(range(host.n)))[:n])
        missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                   if not pattern.has_edge(u, v)]
        if missing and pattern.edge_count:
            pattern = pattern.without_edge(*draw(st.sampled_from(pattern.edges())))
            pattern = pattern.with_edge(*draw(st.sampled_from(missing)))
    if kind == "narrow":
        assume(_brute_alpha(pattern) > min(patterns._plan(host)[1]))
    return host, pattern


class TestEdgelessParts:
    """Edgeless co-components take whole independent sets before any vertex search."""

    @pytest.mark.parametrize("kind", ["narrow", "cocktail", "universal", "two_edged"])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_join_split_matches_brute_force(self, kind, data):
        host, pattern = data.draw(edgeless_cases(kind))
        assert patterns._plan(host)[0] == "join"
        assert split_fits(host, pattern) == brute_contains(host, pattern)

    @settings(max_examples=200, deadline=None)
    @given(split_parts())
    @example(((3,), star(3), complete(3)))  # P3 spans a part of 3
    @example(((2, 2), star(2), complete(4)))  # K2 spans a part of 2
    @example(((3, 3), star(4), Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2)])))
    @example(((1,), cycle(4), complete(4)))  # K3 passes C4's degree check
    def test_join_split_of_any_edged_graph(self, case):
        # edged may itself be a join (a star spanning its part), edgeless
        # or empty: the verdict is the join's, and a residue fits edged
        caps, edged, pattern = case
        host = edged
        for cap in reversed(caps):
            host = join(empty_graph(cap), host)
        residue = patterns._join_split(caps, edged, pattern)
        assert (residue is not None) == brute_contains(host, pattern)
        if residue is not None:
            assert brute_contains(edged, residue)

    def test_every_six_vertex_pattern_in_six_vertex_hosts(self):
        # each join of K2 (two parts of one vertex), 2K1 or 3K1 with a graph
        # with edges, against every 6-vertex pattern: a part smaller than
        # an independent set must try all its subsets, and parts of one
        # vertex every vertex up to twins
        patterns_6 = all_graphs_upto_iso(6)
        for first in (complete(2), empty_graph(2), empty_graph(3)):
            for other in all_graphs_upto_iso(6 - first.n):
                if not other.edge_count:
                    continue
                host = join(first, other)
                assert patterns._plan(host)[0] == "join"
                for pattern in patterns_6:
                    want = brute_contains(host, pattern)
                    assert split_fits(host, pattern) == want, \
                        (host.edges(), pattern.edges())

    def test_every_six_vertex_pattern_in_joins_of_parts_with_edges(self, monkeypatch):
        # each join of two co-connected graphs with edges, on 3 + 3 and
        # 3 + 4 vertices, against every 6-vertex pattern: no part is
        # edgeless, so the whole join goes to the matcher (a join on 3-4
        # vertices has an edgeless part, so "not join" is co-connected)
        patterns_6 = all_graphs_upto_iso(6)
        parts = {n: [g for g in all_graphs_upto_iso(n) if g.edge_count
                     and patterns._plan(g)[0] != "join"]
                 for n in (3, 4)}
        hosts = [join(a, b) for a in parts[3] for b in parts[3] + parts[4]]
        assert len(hosts) == 6
        monkeypatch.setattr(patterns, "_cache", {})
        for host in hosts:
            assert patterns._plan(host) == ("core",)
            for pattern in patterns_6:
                want = brute_contains(host, pattern)
                assert patterns._contains(host, pattern) == want, \
                    (host.edges(), pattern.edges())

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(1, 7), st.integers(1, (1 << 7) - 1))
    def test_maximal_independent_sets_match_brute_force(self, g, within):
        # a proper subset is derived from the whole pattern's sets, which
        # Bron–Kerbosch finds and the whole vertex set's entry keeps
        full = (1 << g.n) - 1
        within &= full
        assume(within)
        got = patterns._maximal_independent_sets(g, within)
        assert got == _brute_maximal_independent_sets(g, within)
        if within != full:
            whole = patterns._mis_cache[(g.adj, full)][1]
            assert whole == _brute_maximal_independent_sets(g, full)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(1, 8), st.integers(1, (1 << 8) - 1))
    def test_allowed_sets_match_brute_force(self, g, left):
        left &= (1 << g.n) - 1
        assume(left)
        verts = list(patterns._iter_bits(left))
        indep = _independent_sets(g, left)
        # each vertex's previous twin in g[left], by the definition
        pred = {v: max((u for u in verts if u < v and (
            g.adj[u] & left & ~(1 << v) == g.adj[v] & left & ~(1 << u))),
            default=None) for v in verts}
        for cap in range(1, len(verts) + 2):
            # the maximal independent sets of at most cap vertices
            fit = [s for s in indep if s.bit_count() <= cap]
            maximal = [s for s in fit if not any(s != t and s & t == s for t in fit)]
            want = sorted((s for s in maximal
                           if all(pred[v] is None or s >> pred[v] & 1
                                  for v in patterns._iter_bits(s))),
                          key=lambda s: (-s.bit_count(), s & -s, s))
            assert patterns._allowed_sets(g, left, cap) == want, cap

    def test_bron_kerbosch_runs_once_per_pattern(self, monkeypatch):
        # it runs when the whole vertex set's sets are asked for
        runs = []
        maximal = patterns._maximal_independent_sets

        def counted(g, within):
            if within == (1 << g.n) - 1:
                runs.append((g.n, g.adj))
            return maximal(g, within)

        monkeypatch.setattr(patterns, "_maximal_independent_sets", counted)
        calls = []
        allowed = patterns._allowed_sets

        def spied(g, left, cap):
            calls.append((g.n, g.adj, cap))
            return allowed(g, left, cap)

        monkeypatch.setattr(patterns, "_allowed_sets", spied)
        monkeypatch.setattr(patterns, "_cache", {})
        monkeypatch.setattr(patterns, "_mis_cache", {})
        restricted_ex(37, cx1_family(3, 6, 5), RestrictedSpace(3, 7))
        # one run for each pattern that a part of two or more vertices asks
        # about, however many hosts and vertex subsets ask
        assert len(calls) > len(runs) > 1
        assert sorted(runs) == sorted({(n, adj) for n, adj, cap in calls if cap > 1})

    def test_many_independent_sets_give_the_brute_force_verdict(self, monkeypatch):
        # a perfect matching on 12 vertices has 2^6 maximal independent
        # sets, and every vertex subset's sets are derived from those 64
        monkeypatch.setattr(patterns, "_cache", {})
        pattern = relabel(matching(12), [7, 2, 10, 0, 5, 11, 3, 8, 1, 6, 9, 4])
        whole = patterns._maximal_independent_sets(patterns._by_degree(pattern),
                                                   (1 << 12) - 1)
        assert len(whole) == 64
        hosts = [complete_multipartite((6, 6)), complete_multipartite((7, 5)),
                 join(empty_graph(6), path(6)), join(empty_graph(7), path(6)),
                 join(empty_graph(3), join(empty_graph(3), matching(6))),
                 TuranPacking((2, 2, 8), ((2, path(2), 1),)).graph(),
                 TuranPacking((2, 2, 8), ((2, path(2), 3),)).graph(),
                 TuranPacking((2, 2, 9), ((2, path(3), 1),)).graph()]
        verdicts = []
        for host in hosts:
            assert patterns._plan(host)[0] == "join"
            want = _has_matching(host, 6, (1 << host.n) - 1)
            assert contains_subgraph(host, pattern) == want, host.edges()
            verdicts.append(want)
        assert True in verdicts and False in verdicts

    @staticmethod
    def count_set_choices(monkeypatch) -> list:
        calls = []
        allowed = patterns._allowed_sets

        def counted(g, left, cap):
            calls.append(left)
            return allowed(g, left, cap)

        monkeypatch.setattr(patterns, "_allowed_sets", counted)
        monkeypatch.setattr(patterns, "_cache", {})
        monkeypatch.setattr(patterns, "_mis_cache", {})
        return calls

    def test_turan_forest_hosts_skip_the_vertex_search(self, monkeypatch):
        # no Turán-plus-forest join reaches the generic matcher: only
        # co-connected hosts (trees of the forest part, say) do
        hosts = []
        core_match = patterns._core_match

        def spied(host, pattern):
            hosts.append(host)
            return core_match(host, pattern)

        monkeypatch.setattr(patterns, "_core_match", spied)
        calls = self.count_set_choices(monkeypatch)
        rep = restricted_ex(37, cx1_family(3, 6, 5), RestrictedSpace(3, 7))
        g, h = cx1_pair(3, 6, 37)
        assert rep.value == h.edge_count == g.edge_count + 1
        assert calls and hosts
        joins = [host.edges() for host in hosts if len(_co_components(host)) != 1]
        assert joins == []

    def test_cocktail_party_refused_in_one_pass(self, monkeypatch):
        # 14 vertices against 7 parts of 2, no part with edges: placing
        # vertex by vertex took 87 search nodes here
        calls = self.count_set_choices(monkeypatch)
        host = complete_multipartite((2,) * 7)
        assert not contains_subgraph(host, complete_multipartite((3, 3, 2, 2, 2, 2)))
        assert len(calls) <= 7

    def test_universal_vertices_take_single_vertices(self, monkeypatch):
        # 8 parts of capacity 1 beside a C7; placing vertex by vertex took
        # 13 search nodes here
        calls = self.count_set_choices(monkeypatch)
        host = join(complete(8), cycle(7))
        assert contains_subgraph(host, join(complete(7), cycle(5).with_edge(0, 2)))
        assert len(calls) <= 8


class TestCache:
    @settings(max_examples=200, deadline=None)
    @given(composite_hosts(), st.lists(small_graphs(2, 5), min_size=1, max_size=4))
    def test_warm_cache_matches_brute_force(self, hosts, pattern_list):
        for pattern in pattern_list:
            for host in hosts + hosts:  # the repeats are answered from the cache
                assert contains_subgraph(host, pattern) == brute_contains(host, pattern)

    @settings(max_examples=100, deadline=None)
    @given(composite_hosts(), small_graphs(2, 5), st.data())
    def test_relabeled_patterns_match_brute_force(self, hosts, pattern, data):
        # each labeling of a pattern is cached under its own adjacency
        for host in hosts:
            contains_subgraph(host, pattern)
        labelings = [pattern] + [_shuffle(data.draw, pattern) for _ in range(3)]
        for host in hosts:
            expected = brute_contains(host, pattern)
            for g in labelings:
                assert contains_subgraph(host, g) == expected

    def test_cap_bounds_entries(self, monkeypatch):
        monkeypatch.setattr(patterns, "_CACHE_CAP", 4)
        monkeypatch.setattr(patterns, "_cache", {})
        rng = random.Random(4)
        sizes = []
        for _ in range(120):
            a = random_graph(rng, rng.randrange(1, 5))
            b = random_graph(rng, rng.randrange(1, 5))
            host = join(a, b) if rng.random() < 0.5 else disjoint_union(a, b)
            pattern = random_graph(rng, rng.randrange(1, 6), 0.6)
            assert contains_subgraph(host, pattern) == brute_contains(host, pattern)
            sizes.append(len(patterns._cache))
            assert sizes[-1] <= 4
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


@st.composite
def union_hosts(draw) -> Graph:
    """A relabeled disjoint union of 2-3 small graphs on <= 8 vertices, a
    part often repeated (relabeled) so that components tie."""
    parts = [draw(small_graphs(1, 4))]
    for _ in range(draw(st.integers(1, 2))):
        room = 8 - sum(p.n for p in parts)
        if room < 1:
            break
        if parts[-1].n <= room and draw(st.booleans()):
            parts.append(_shuffle(draw, parts[-1]))
        else:
            parts.append(draw(small_graphs(1, min(4, room))))
    host = parts[0]
    for part in parts[1:]:
        host = disjoint_union(host, part)
    return _shuffle(draw, host)


class TestPlan:
    @settings(max_examples=300, deadline=None)
    @given(host_and_pattern(st.one_of(join_hosts(), core_hosts(), union_hosts())))
    def test_tag_matches_structure(self, case):
        # and containment agrees with brute force whichever branch it takes
        host, pattern = case
        plan = patterns._plan(host)
        comps, cocomps = host.components(), _co_components(host)
        edgeless = [c for c in cocomps if not induced_subgraph(host, c).edge_count]
        if len(cocomps) > 1 and edgeless:
            assert plan[0] == "join"
            assert plan[1] == tuple(sorted((c.bit_count() for c in edgeless),
                                           reverse=True))
            edged = [v for v in range(host.n) if not any(c >> v & 1 for c in edgeless)]
            assert plan[2] == induced_subgraph(host, edged)
        elif len(comps) > 1:
            assert plan[0] == "pack"
            _, types, counts = plan
            want = Counter(canonical_form(induced_subgraph(host, c)) for c in comps)
            assert len(types) == len(want)
            assert dict(zip(map(canonical_form, types), counts)) == want
            shapes = [(t.n, t.edge_count) for t in types]
            assert shapes == sorted(shapes, reverse=True)
        else:
            assert plan == ("core",)
        patterns._cache.clear()
        assert contains_subgraph(host, pattern) == brute_contains(host, pattern)


class TestNoHostCanonization:
    @staticmethod
    def spy(monkeypatch) -> list:
        canonized = []
        cform = patterns._cform

        def counted(g):
            canonized.append(g)
            return cform(g)

        monkeypatch.setattr(patterns, "_cform", counted)
        monkeypatch.setattr(patterns, "_cache", {})
        patterns._plan.cache_clear()  # plans hold canonized host components
        return canonized

    def test_cx1_hosts_are_not_canonized(self, monkeypatch):
        # nor are the family members: verdicts are keyed on their exact
        # adjacency, and only packing's component ties are canonized
        canonized = self.spy(monkeypatch)
        rng = random.Random(55)
        hosts = [relabel(host, rng.sample(range(host.n), host.n))
                 for host in cx1_pair(3, 6, 55)]
        members = set()
        for m in (5, 6):
            fam = cx1_family(3, 6, m)
            members.update(canonical_form(g) for g in fam)
            assert [is_free(host, fam) for host in hosts] == [m == 6, True], m
        assert canonized
        assert [g for g in canonized if canonical_form(g) in members] == []
        assert all(g.n < 55 for g in canonized)

    def test_join_never_canonizes_edgeless_parts(self, monkeypatch):
        canonized = self.spy(monkeypatch)
        k557 = complete_multipartite((5, 5, 7))
        assert contains_subgraph(k557, complete(3))
        assert not contains_subgraph(k557, complete(4))
        assert not contains_subgraph(
            TuranPacking((4, 4, 4), ((0, path(2), 2),)).graph(), f1())
        assert canonized == []  # nor the patterns: verdicts use exact keys

    def test_parts_tied_on_the_invariant_are_told_apart(self):
        # same order, size and degree sequence, not isomorphic
        banner = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        tailed = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        c6, two_k3 = cycle(6), disjoint_union(complete(3), complete(3))
        for host in (join(c6, two_k3), join(two_k3, c6)):
            assert contains_subgraph(host, complete(5))  # K3 of 2K3, K2 of C6
        # neither 5-vertex graph contains the other, so a host of one of each
        # holds a pair of them exactly when the pair is one of each too
        for host in (disjoint_union(banner, tailed), disjoint_union(tailed, banner)):
            for a, b in ((banner, banner), (tailed, tailed), (banner, tailed)):
                assert contains_subgraph(host, disjoint_union(a, b)) == (a is not b)


class TestIsFree:
    def test_turan_avoids_next_clique(self):
        for r in range(1, 5):
            for n in range(r, 13):
                assert is_free(turan(n, r), [complete(r + 1)]), (n, r)

    def test_k4_not_k4_free(self):
        assert not is_free(complete(4), [complete(4)])

    def test_cx2_h_is_free(self):
        pkg = cx2_package(7, 3)
        assert is_free(pkg.h, pkg.family)

    def test_family_or_iterable(self):
        fam = ForbiddenFamily([complete(3)], name="triangle")
        g = turan(8, 2)
        assert is_free(g, fam)
        assert is_free(g, [complete(3)])


ANCHOR_FAMILIES = {
    "K3": [complete(3)], "K4": [complete(4)], "P4": [path(4)], "P5": [path(5)],
    "C4": [cycle(4)], "C5": [cycle(5)], "K1,3": [star(4)],
    "K3+K2": [disjoint_union(complete(3), complete(2))],
    "C4,P5": [cycle(4), path(5)],
}


@st.composite
def edge_orders(draw) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count n <= 9 and a sequence of distinct pairs of n vertices."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))


def _anchored_mismatches(n: int, order, members) -> list:
    """The children whose new_edge verdict differs from the whole-host one.

    A free graph on n vertices grows by the pairs in order, keeping an edge
    when the child stays free. Each child is a free graph plus one edge, and
    every such pair arises from some order.
    """
    g = empty_graph(n)
    out = []
    for u, v in order:
        child = g.with_edge(u, v)
        whole = is_free(child, members)
        if is_free(child, members, new_edge=(u, v)) != whole:
            out.append((child.edges(), (u, v)))
        if whole:
            g = child
    return out


class TestNewEdge:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(ANCHOR_FAMILIES)), edge_orders())
    def test_matches_whole_host(self, name, n_order):
        n, order = n_order
        assert _anchored_mismatches(n, order, ANCHOR_FAMILIES[name]) == []

    def test_radius_below_diameter_is_caught(self, monkeypatch):
        diameter = patterns._diameter
        monkeypatch.setattr(patterns, "_diameter",
                            lambda m: None if diameter(m) is None else diameter(m) - 1)
        # P5 along a 5-vertex path whose new edge is an end edge
        assert _anchored_mismatches(5, [(1, 2), (2, 3), (3, 4), (0, 1)],
                                    [path(5)]) == [([(0, 1), (1, 2), (2, 3), (3, 4)],
                                                    (0, 1))]
        rng = random.Random(19)
        caught = set()
        for name, members in ANCHOR_FAMILIES.items():
            for _ in range(10):
                n = rng.randrange(4, 9)
                order = [(u, v) for u in range(n) for v in range(u + 1, n)]
                rng.shuffle(order)
                if _anchored_mismatches(n, order, members):
                    caught.add(name)
        # only the disconnected member keeps the whole-host test
        assert caught == set(ANCHOR_FAMILIES) - {"K3+K2"}

    @pytest.mark.parametrize("edge", [(0, 2), (1, 1), (0, 3), (-1, 0)])
    def test_new_edge_must_be_an_edge(self, edge):
        with pytest.raises(ValueError, match="not an edge"):
            is_free(path(3), [complete(3)], new_edge=edge)


class TestChromatic:
    def test_c5(self):
        assert chromatic_number(cycle(5)) == 3

    def test_f1_and_apex_removal(self):
        g = f1()
        assert chromatic_number(g) == 4
        assert chromatic_number(induced_subgraph(g, range(1, 9))) == 3

    def test_cliques(self):
        for r in range(1, 6):
            assert chromatic_number(complete(r + 2)) == r + 2

    def test_empty_and_edgeless(self):
        from spexlab import empty_graph
        assert chromatic_number(empty_graph(0)) == 0
        assert chromatic_number(empty_graph(5)) == 1

    def test_agreement_exhaustive_small(self):
        for n in range(0, 7):
            for g in all_graphs_upto_iso(n):
                assert chromatic_number(g) == brute_chromatic(g)

    def test_agreement_order_seven(self):
        for g in enumerate_graphs(7):
            assert chromatic_number(g) == brute_chromatic(g)

    def test_component_longer_than_recursion_limit(self):
        n = sys.getrecursionlimit() + 10
        assert chromatic_number(path(n)) == 2
        assert chromatic_number(cycle(n | 1)) == 3

    def test_agreement_grotzsch(self):
        # Mycielski's graph of C5: triangle-free, so the clique bound is 2
        # and chi = 4 takes two failed searches
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
        edges += [(5 + i, 10) for i in range(5)]
        g = Graph(11, edges)
        assert not contains_subgraph(g, complete(3))
        assert chromatic_number(g) == brute_chromatic(g) == 4


class TestFamilyChi:
    def test_mixed_family(self):
        assert min(chromatic_number(m) for m in (complete(4), cycle(5))) == 3

    def test_cx2(self):
        fam = cx2_package(7, 3).family
        assert min(chromatic_number(m) for m in fam.members) == 3

    def test_cx1(self):
        fam = cx1_family(3, 6, 5)
        assert min(chromatic_number(m) for m in fam.members) == 4

    def test_members_need_an_edge(self):
        from spexlab import empty_graph
        with pytest.raises(ValueError):
            ForbiddenFamily([complete(3), empty_graph(2)])


class TestForbiddenFamily:
    def test_members_frozen(self):
        fam = ForbiddenFamily([complete(3), cycle(5)], name="pair")
        assert isinstance(fam.members, tuple)
        assert len(fam) == 2
        assert fam.name == "pair"
        with pytest.raises(AttributeError):
            fam.name = "other"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ForbiddenFamily([])

    def test_members_keep_their_order(self):
        k4, p3, k3 = complete(4), path(3), complete(3)
        fam = ForbiddenFamily([k4, p3, k3])
        assert fam.members == (k4, p3, k3)
        assert fam.by_order == (p3, k3, k4)

    def test_is_free_sorts_a_family_once(self, monkeypatch):
        fam = ForbiddenFamily([complete(4), cycle(4)])

        def no_sort(members):
            raise AssertionError("members sorted again")

        monkeypatch.setattr(patterns, "_smallest_first", no_sort)
        assert not is_free(turan(8, 2), fam)
        # a plain iterable is sorted on each call
        with pytest.raises(AssertionError, match="sorted again"):
            is_free(turan(8, 2), list(fam))

    def test_star_pattern_in_dense_host(self):
        # degree bound matters, not just counts
        host = turan(9, 3)
        assert contains_subgraph(host, star(7))
        assert not contains_subgraph(host, star(8))
