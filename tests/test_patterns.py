"""Subgraph containment, freeness, chromatic numbers, forbidden families."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spexlab import (
    ForbiddenFamily,
    Graph,
    chromatic_number,
    complete,
    complete_multipartite,
    contains_subgraph,
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


class TestCache:
    @settings(max_examples=200, deadline=None)
    @given(composite_hosts(), st.lists(small_graphs(2, 5), min_size=1, max_size=4))
    def test_warm_cache_matches_brute_force(self, hosts, pattern_list):
        for pattern in pattern_list:
            for host in hosts + hosts:  # the repeats are answered from the cache
                assert contains_subgraph(host, pattern) == brute_contains(host, pattern)

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
        canonized = self.spy(monkeypatch)
        fam = cx1_family(3, 6, 5)
        rng = random.Random(55)
        for host in cx1_pair(3, 6, 55):
            perm = list(range(host.n))
            rng.shuffle(perm)
            is_free(relabel(host, perm), fam)
        assert canonized
        assert all(g.n < 55 for g in canonized)

    def test_join_canonizes_only_tied_parts(self, monkeypatch):
        canonized = self.spy(monkeypatch)
        assert contains_subgraph(complete_multipartite((5, 5, 7)), complete(3))
        assert [g for g in canonized if g.n > 3] == [empty_graph(5)] * 2

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
