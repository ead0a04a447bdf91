"""Core graph type: constructors, join/union, packing, transfer."""

import random

import pytest

import numpy as np

from spexlab import (
    Graph,
    Partition,
    TuranPacking,
    adjacency_matrix,
    canonical_form,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty_graph,
    join,
    kelmans,
    matching,
    path,
    relabel,
    spectral_radius,
    star,
    turan,
)
from conftest import random_graph, random_tree
from oracles import transfer_vertex, u_packing


def turan_edges(n: int, r: int) -> int:
    """Closed form: C(n,2) minus the edges lost inside the parts."""
    q, s = divmod(n, r)
    inside = s * (q + 1) * q // 2 + (r - s) * q * (q - 1) // 2
    return n * (n - 1) // 2 - inside


class TestTuran:
    def test_k33(self):
        g = turan(6, 2)
        assert g.n == 6
        assert g.edge_count == 9
        assert all(g.degree(v) == 3 for v in range(6))

    def test_parts_descend(self):
        g = turan(7, 3)
        assert g.partition.sizes() == (3, 2, 2)
        assert g.edge_count == 16

    def test_r_equals_n_is_complete(self):
        for n in range(1, 8):
            assert turan(n, n).edge_count == n * (n - 1) // 2

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            turan(5, 0)
        with pytest.raises(ValueError):
            turan(5, 6)

    def test_edge_formula_exhaustive(self):
        for n in range(1, 51):
            for r in range(1, n + 1):
                assert turan(n, r).edge_count == turan_edges(n, r), (n, r)

    def test_parts_are_independent_and_crossing(self):
        g = turan(9, 4)
        for cls in g.partition.classes:
            for u in cls:
                for v in cls:
                    assert u == v or not g.has_edge(u, v)
        assert g.edge_count == turan_edges(9, 4)


class TestCompleteMultipartite:
    def test_all_singletons(self):
        g = complete_multipartite([1, 1, 1])
        assert g.edge_count == 3
        assert g.n == 3

    def test_two_parts(self):
        assert complete_multipartite([2, 3]).edge_count == 6

    def test_matches_turan(self):
        assert complete_multipartite([3, 2, 2]).adj == turan(7, 3).adj

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            complete_multipartite([])


class TestSmallBuilders:
    def test_path(self):
        assert set(path(3).edges()) == {(0, 1), (1, 2)}

    def test_matching_odd(self):
        g = matching(5)
        assert g.n == 5
        assert g.edge_count == 2
        assert g.degree(4) == 0

    def test_star_order(self):
        g = star(6)
        assert g.n == 6
        assert g.edge_count == 5
        assert max(g.degree(v) for v in range(6)) == 5

    def test_cycle_too_short(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_complete_and_empty(self):
        assert complete(5).edge_count == 10
        assert empty_graph(4).edge_count == 0


class TestJoinUnionCopies:
    def test_cone_over_path(self):
        g = join(complete(1), path(3))
        assert g.n == 4
        assert g.edge_count == 5

    def test_copies(self):
        g = u_packing(path(3), 2 * 3)
        assert g.n == 6
        assert g.edge_count == 4

    def test_join_of_matchings(self):
        g = join(matching(4), matching(4))
        assert g.n == 8
        assert g.edge_count == 20

    def test_identities_random(self):
        rng = random.Random(4021)
        for _ in range(1000):
            g = random_graph(rng, rng.randrange(13))
            h = random_graph(rng, rng.randrange(13))
            u = disjoint_union(g, h)
            j = join(g, h)
            assert u.n == j.n == g.n + h.n
            assert u.edge_count == g.edge_count + h.edge_count
            assert j.edge_count == u.edge_count + g.n * h.n


class TestUPacking:
    def test_leftover_isolated(self):
        g = u_packing(path(3), 7)
        assert g.n == 7
        assert g.edge_count == 4
        assert g.degree(6) == 0

    def test_exact_fit(self):
        g = u_packing(path(3), 6)
        assert g.edge_count == 4
        assert all(g.degree(v) in (1, 2) for v in range(6))

    def test_too_small_for_one_copy(self):
        g = u_packing(star(6), 4)
        assert g.n == 4
        assert g.edge_count == 0

    def test_copy_count_random(self):
        rng = random.Random(77)
        for _ in range(200):
            k = rng.randrange(1, 6)
            inner = random_graph(rng, k, 0.6)
            n = rng.randrange(0, 20)
            g = u_packing(inner, n)
            assert g.n == n
            assert g.edge_count == (n // k) * inner.edge_count


class TestTransferVertex:
    def test_turan7(self):
        g = turan(7, 3)
        out = transfer_vertex(g, g.partition, 0, 1, g.partition.classes[0][0])
        assert out.edge_count == 16
        assert out.partition.sizes() == (2, 3, 2)
        assert canonical_form(out) == canonical_form(complete_multipartite([3, 2, 2]))

    def test_bipartite(self):
        g = turan(6, 2)
        out = transfer_vertex(g, g.partition, 0, 1, 0)
        assert out.edge_count == 8
        assert canonical_form(out) == canonical_form(complete_multipartite([4, 2]))

    def test_edge_delta_closed_form(self):
        rng = random.Random(99)
        for _ in range(200):
            n, r = rng.randrange(6, 14), rng.randrange(2, 5)
            g = turan(n, r)
            fat = [i for i in range(r) if len(g.partition.classes[i]) > 1]
            i = rng.choice(fat)
            j = rng.choice([j for j in range(r) if j != i])
            u = rng.choice(g.partition.classes[i])
            out = transfer_vertex(g, g.partition, i, j, u)
            wi = len(g.partition.classes[i])
            wj = len(g.partition.classes[j])
            # moving an ordinary vertex trades the old class for the new one
            assert out.edge_count - g.edge_count == wi - 1 - wj
            assert out.partition.n == n
            assert sorted(x for c in out.partition.classes for x in c) == list(range(n))

    def test_pendant_delta_bound(self):
        rng = random.Random(1212)
        for _ in range(100):
            r = rng.randrange(2, 5)
            w = rng.randrange(2, 6)
            g = TuranPacking((w,) * r, ((0, star(w), 1),)).graph()
            leaf = g.partition.classes[0][-1]
            j = rng.randrange(1, r)
            out = transfer_vertex(g, g.partition, 0, j, leaf)
            wi = len(g.partition.classes[0])
            wj = len(g.partition.classes[j])
            assert out.edge_count - g.edge_count >= wi - wj - 2

    def test_rejects_busy_vertex(self):
        g = TuranPacking((3, 3), ((0, path(3), 1),)).graph()
        center = g.partition.classes[0][1]
        with pytest.raises(ValueError):
            transfer_vertex(g, g.partition, 0, 1, center)

    def test_refuses_to_empty_a_class(self):
        g = turan(5, 4)
        singleton = g.partition.classes[3][0]
        with pytest.raises(ValueError):
            transfer_vertex(g, g.partition, 3, 0, singleton)


class TestKelmans:
    def test_path_to_star(self):
        g = path(4)
        out = kelmans(g, 1, 2)
        assert canonical_form(out) == canonical_form(star(4))

    def test_complete_fixed(self):
        g = complete(5)
        assert kelmans(g, 0, 1).adj == g.adj

    def test_preserves_edge_count(self):
        rng = random.Random(555)
        for _ in range(300):
            g = random_graph(rng, rng.randrange(2, 10))
            u, v = rng.sample(range(g.n), 2)
            assert kelmans(g, u, v).edge_count == g.edge_count

    def test_radius_never_drops_small(self):
        rng = random.Random(808)
        for _ in range(30):
            t = random_tree(rng, rng.randrange(3, 9))
            u, v = rng.sample(range(t.n), 2)
            before = spectral_radius(t).value
            after = spectral_radius(kelmans(t, u, v)).value
            assert after >= before - 1e-9


class TestRelabelAndViews:
    def test_relabel_roundtrip(self):
        rng = random.Random(17)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 10))
            perm = list(range(g.n))
            rng.shuffle(perm)
            inverse = [0] * g.n
            for old, new in enumerate(perm):
                inverse[new] = old
            assert relabel(relabel(g, perm), inverse).adj == g.adj

    def test_relabel_moves_every_edge(self):
        # twins share a row, and relabel works on each distinct row once
        rng = random.Random(23)
        graphs = [turan(30, 3), TuranPacking((12, 12), ((0, star(4), 3),)).graph()]
        graphs += [random_graph(rng, rng.randrange(1, 12)) for _ in range(30)]
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            want = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert relabel(g, perm).adj == want.adj

    def test_adjacency_matrix_bit_by_bit(self):
        rng = random.Random(19)
        graphs = [empty_graph(0), empty_graph(1), complete(8), complete(9)]
        graphs += [random_graph(rng, rng.randrange(1, 30), rng.random()) for _ in range(40)]
        for g in graphs:
            want = [[float(g.adj[i] >> j & 1) for j in range(g.n)] for i in range(g.n)]
            got = adjacency_matrix(g)
            assert got.shape == (g.n, g.n) and got.dtype == np.float64
            assert got.flags["C_CONTIGUOUS"]
            assert got.tolist() == want

    def test_partition_validates(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            Partition([[0, 2]])

    def test_graph_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
