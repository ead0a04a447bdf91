"""Subgraph containment, freeness, chromatic numbers, forbidden families."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from spexlab import (
    ForbiddenFamily,
    Graph,
    canonical_form,
    chromatic_number,
    complete,
    complete_multipartite,
    contains_subgraph,
    copies,
    cx1_family,
    cx1_pair,
    cx2_package,
    cycle,
    disjoint_union,
    embed_in_part,
    empty_graph,
    enumerate_graphs,
    f1,
    family_chi,
    induced_subgraph,
    is_free,
    join,
    path,
    relabel,
    star,
    turan,
    u_packing,
)
from spexlab import patterns
from spexlab.oracle import RestrictedSpace, restricted_ex
from conftest import random_graph
from oracles import all_graphs_upto_iso, brute_chromatic, brute_contains


class TestContains:
    def test_k4_has_c4(self):
        assert contains_subgraph(complete(4), cycle(4))

    def test_two_part_edges_create_f1(self):
        t = turan(12, 3)
        cls = t.partition.classes
        host = t.with_edge(cls[0][0], cls[0][1]).with_edge(cls[1][0], cls[1][1])
        assert contains_subgraph(host, f1())

    def test_packed_edges_do_not(self):
        host = embed_in_part(turan(12, 3), 0, u_packing(path(2), 4))
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
    assume(len(base.components()) == 1
           and len(patterns._complement_components(base)) == 1)
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
        pattern = copies(n // comp.n, comp)
        pattern = disjoint_union(pattern, draw(small_graphs(0, n - pattern.n)))
    return _shuffle(draw, pattern)


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
        host, pattern = case
        cocomps = patterns._complement_components(host)
        assert len(cocomps) > 1
        assert patterns._join_split(host, cocomps, pattern) \
            == brute_contains(host, pattern)

    @settings(max_examples=150, deadline=None)
    @given(host_and_pattern(core_hosts()))
    def test_core_match_matches_brute_force(self, case):
        host, pattern = case
        assert len(host.components()) == 1
        assert len(patterns._complement_components(host)) == 1
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
def edgeless_join_hosts(draw, kind: str) -> Graph:
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
    host = draw(edgeless_join_hosts(kind))
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
        smallest = min(c.bit_count() for c in patterns._complement_components(host)
                       if not any(host.adj[v] & c for v in patterns._iter_bits(c)))
        assume(_brute_alpha(pattern) > smallest)
    return host, pattern


class TestEdgelessParts:
    """Edgeless co-components take whole independent sets before any vertex search."""

    @pytest.mark.parametrize("kind", ["narrow", "cocktail", "universal", "two_edged"])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_join_split_matches_brute_force(self, kind, data):
        host, pattern = data.draw(edgeless_cases(kind))
        cocomps = patterns._complement_components(host)
        assert len(cocomps) > 1
        assert patterns._join_split(host, cocomps, pattern) \
            == brute_contains(host, pattern)

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
                cocomps = patterns._complement_components(host)
                for pattern in patterns_6:
                    want = brute_contains(host, pattern)
                    assert patterns._join_split(host, cocomps, pattern) == want, \
                        (host.edges(), pattern.edges())

    def test_every_six_vertex_pattern_in_joins_of_parts_with_edges(self):
        # each join of two co-connected graphs with edges, on 3 + 3 and
        # 3 + 4 vertices, against every 6-vertex pattern: no part is
        # edgeless, so the whole join goes to the matcher
        patterns_6 = all_graphs_upto_iso(6)
        parts = {n: [g for g in all_graphs_upto_iso(n) if g.edge_count
                     and len(patterns._complement_components(g)) == 1]
                 for n in (3, 4)}
        hosts = [join(a, b) for a in parts[3] for b in parts[3] + parts[4]]
        assert len(hosts) == 6
        for host in hosts:
            cocomps = patterns._complement_components(host)
            assert len(cocomps) == 2
            for pattern in patterns_6:
                want = brute_contains(host, pattern)
                assert patterns._join_split(host, cocomps, pattern) == want, \
                    (host.edges(), pattern.edges())

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(1, 7), st.integers(1, (1 << 7) - 1))
    def test_maximal_independent_sets_match_brute_force(self, g, within):
        within &= (1 << g.n) - 1
        assume(within)
        verts = list(patterns._iter_bits(within))
        indep = [sum(1 << v for v in c) for size in range(len(verts) + 1)
                 for c in itertools.combinations(verts, size)
                 if all(not g.has_edge(u, v) for u, v in itertools.combinations(c, 2))]
        maximal = {s for s in indep if not any(s != t and s & t == s for t in indep)}
        got = patterns._maximal_independent_sets(g, within)
        assert len(got) == len(maximal) and set(got) == maximal
        assert [s.bit_count() for s in got] == sorted((s.bit_count() for s in got),
                                                      reverse=True)

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
        joins = [host.edges() for host in hosts
                 if len(patterns._complement_components(host)) != 1]
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
            embed_in_part(turan(12, 3), 0, u_packing(path(2), 4)), f1())
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


class TestFamilyChi:
    def test_mixed_family(self):
        assert family_chi([complete(4), cycle(5)]) == 3

    def test_cx2(self):
        assert family_chi(cx2_package(7, 3).family) == 3

    def test_cx1(self):
        assert family_chi(cx1_family(3, 6, 5)) == 4

    def test_matches_min_over_members(self):
        rng = random.Random(7)
        for _ in range(50):
            members = []
            while len(members) < rng.randrange(1, 5):
                g = random_graph(rng, rng.randrange(2, 7), 0.6)
                if g.edge_count:
                    members.append(g)
            assert family_chi(members) == min(chromatic_number(g) for g in members)

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

    def test_chi_min(self):
        fam = ForbiddenFamily([complete(4), cycle(5)])
        assert fam.chi_min == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ForbiddenFamily([])

    def test_star_pattern_in_dense_host(self):
        # degree bound matters, not just counts
        host = turan(9, 3)
        assert contains_subgraph(host, star(7))
        assert not contains_subgraph(host, star(8))
