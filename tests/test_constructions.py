"""Named constructions: f1, both counterexample packages, star/path pairs."""

import random

import pytest

from spexlab import (
    Graph,
    TuranPacking,
    build_named,
    canonical_form,
    chromatic_number,
    cx1_family,
    cx1_pair,
    cx2_package,
    embed_in_part,
    f1,
    free_trees,
    is_equitable,
    is_free,
    join,
    path,
    quotient_matrix,
    spectral_radius,
    star,
    star_path_pair,
    relabel,
    turan,
    u_packing,
)
from spexlab import asymptotics
from spexlab.constructions import cx1_records, star_path_records
from oracles import edge_add_graphs, transfer_shift_graphs

CHAIR = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


class TestF1:
    def test_size_and_apex(self):
        g = f1()
        assert g.n == 9
        assert g.edge_count == 22
        assert g.degree(0) == 8

    def test_exact_edge_list(self):
        # apex 0 joined to everything, then the two fused wheels
        rim = {(1, 2), (1, 5), (1, 6), (2, 5), (5, 6), (2, 3), (2, 7),
               (3, 6), (6, 7), (3, 4), (3, 8), (4, 7), (4, 8), (7, 8)}
        want = {(0, v) for v in range(1, 9)} | rim
        assert set(f1().edges()) == want

    def test_chromatic(self):
        assert chromatic_number(f1()) == 4


class TestFreeTrees:
    def test_census(self):
        assert [len(free_trees(n)) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]

    def test_members_are_trees(self):
        for n in range(1, 9):
            for t in free_trees(n):
                assert t.n == n
                assert t.edge_count == n - 1
                assert len(t.components()) == 1

    def test_distinct(self):
        forms = {canonical_form(t) for t in free_trees(7)}
        assert len(forms) == 11


class TestCx1Family:
    def test_frozen_sizes(self):
        assert len(cx1_family(3, 4, 3)) == 8
        assert len(cx1_family(3, 5, 4)) == 13
        assert len(cx1_family(3, 6, 5)) == 22

    def test_no_tree_joins_at_k4(self):
        # P_4 and K_{1,3} are the whole 4-vertex census, so the
        # star/path-excluding item contributes nothing
        fam = cx1_family(3, 4, 3)
        forms = {canonical_form(g) for g in fam.members}
        for t in free_trees(4):
            assert canonical_form(join(t, turan(6, 2))) not in forms

    def test_chair_join_at_k5(self):
        fam = cx1_family(3, 5, 4)
        forms = {canonical_form(g) for g in fam.members}
        assert canonical_form(join(CHAIR, turan(8, 2))) in forms
        assert canonical_form(join(path(5), turan(8, 2))) not in forms
        assert canonical_form(join(star(5), turan(8, 2))) not in forms

    def test_name(self):
        assert cx1_family(3, 6, 5).name == "cx1(r=3,k=6,m=5)"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cx1_family(2, 6, 5)
        with pytest.raises(ValueError):
            cx1_family(3, 6, 4)
        with pytest.raises(ValueError):
            cx1_family(3, 3, 1)


class TestCx1Pair:
    def test_reference_instance(self):
        g, h = cx1_pair(3, 6, 55)
        assert g.partition.sizes() == (19, 18, 18)
        assert g.edge_count == turan(55, 3).edge_count + 15
        assert h.edge_count == g.edge_count + 1

    def test_stars_sit_in_first_small_part(self):
        g, _ = cx1_pair(3, 6, 55)
        part = set(g.partition.classes[1])
        inner = [(u, v) for u, v in g.edges() if u in part and v in part]
        assert len(inner) == 15
        degs = sorted(sum(1 for e in inner if w in e) for w in part)
        assert degs == [1] * 15 + [5] * 3

    def test_paths_fill_first_large_part(self):
        _, h = cx1_pair(3, 6, 55)
        part = set(h.partition.classes[0])
        inner = [(u, v) for u, v in h.edges() if u in part and v in part]
        # three P_6 components, one extended by the leftover vertex
        assert len(inner) == 16

    def test_h_is_free(self):
        fam = cx1_family(3, 6, 5)
        _, h = cx1_pair(3, 6, 55)
        assert is_free(h, fam)

    def test_star_side_freeness_boundary(self):
        # the star packing absorbs a family member exactly at m = k-1;
        # one step higher it is clean (acceptance keeps the m = k-1
        # assertion and stays red)
        g, _ = cx1_pair(3, 6, 55)
        assert not is_free(g, cx1_family(3, 6, 5))
        assert is_free(g, cx1_family(3, 6, 6))

    def test_congruence_errors(self):
        with pytest.raises(ValueError, match="not divisible by r"):
            cx1_pair(3, 6, 54)
        with pytest.raises(ValueError, match="divisible by k"):
            cx1_pair(3, 6, 58)


class TestCx2Package:
    def test_quotients_at_seven(self):
        pkg = cx2_package(7, 3)
        b = quotient_matrix(pkg.g, pkg.partitions["G"])
        assert [[int(x) for x in row] for row in b.entries] == [
            [0, 2, 8], [1, 0, 8], [2, 4, 0]]
        cp = quotient_matrix(pkg.h_prime, pkg.partitions["H_prime"])
        assert [[int(x) for x in row] for row in cp.entries] == [
            [0, 2, 0, 7], [1, 0, 0, 7], [0, 0, 1, 7], [1, 2, 4, 0]]

    def test_edge_counts(self):
        for p in (7, 13, 19, 25):
            pkg = cx2_package(p, 3)
            assert pkg.g.n == pkg.h.n == pkg.h_prime.n == 2 * p
            assert pkg.h.edge_count == p * p + (2 * p) // 3
            assert pkg.h_prime.edge_count == pkg.h.edge_count
            assert pkg.g.edge_count == (p - 1) * (p + 1) + 2 * (p - 1) // 3
        pkg = cx2_package(7, 3)
        assert pkg.h.edge_count == 53
        assert pkg.g.edge_count == 52

    def test_equitable_partitions(self):
        for p in (7, 13, 19, 25):
            pkg = cx2_package(p, 3)
            for key, g in (("G", pkg.g), ("H", pkg.h), ("H_prime", pkg.h_prime)):
                assert is_equitable(g, pkg.partitions[key]), (p, key)

    def test_family_members(self):
        pkg = cx2_package(7, 3)
        members = {canonical_form(g) for g in pkg.family.members}
        from spexlab import complete, empty_graph
        want = {
            canonical_form(complete(4)),
            canonical_form(join(path(4), empty_graph(3))),
            canonical_form(join(star(4), empty_graph(3))),
        }
        assert members == want
        assert pkg.family.name == "cx2(m=3)"

    def test_preconditions(self):
        for p in (6, 9, 4):
            with pytest.raises(ValueError):
                cx2_package(p, 3)
        with pytest.raises(ValueError):
            cx2_package(7, 1)


class TestStarPathPair:
    def test_equal_edges(self):
        rng = random.Random(4)
        for _ in range(20):
            r = rng.randrange(2, 5)
            k = rng.randrange(4, 8)
            n = r * k * rng.randrange(1, 5)
            gs, gp = star_path_pair(n, r, k)
            assert gs.edge_count == gp.edge_count

    def test_sixty_vertices(self):
        gs, gp = star_path_pair(60, 3, 4)
        assert gs.edge_count == turan(60, 3).edge_count + 15
        assert gp.edge_count == gs.edge_count

    def test_star_wins_at_k5(self):
        gs, gp = star_path_pair(60, 3, 5)
        a = spectral_radius(gs).value
        b = spectral_radius(gp).value
        assert a > b + 1e-9

    def test_free_above_the_boundary(self):
        gs, gp = star_path_pair(60, 3, 5)
        fam = cx1_family(3, 5, 5)
        assert is_free(gs, fam)
        assert is_free(gp, fam)

    def test_divisibility_errors(self):
        with pytest.raises(ValueError):
            star_path_pair(61, 3, 4)
        with pytest.raises(ValueError):
            star_path_pair(63, 3, 4)
        with pytest.raises(ValueError):
            star_path_pair(54, 3, 3)


class TestTuranPacking:
    """Records give the graphs of the builders they replace."""

    def test_star_path_rows(self):
        for k in (4, 5):
            for n in (120, 240, 480, 960):
                old = [embed_in_part(turan(n, 3), 0, u_packing(kind, n // 3))
                       for kind in (star(k), path(k))]
                new = [rec.graph() for rec in star_path_records(n, 3, k)]
                assert [g.adj for g in new] == [g.adj for g in old]
                assert [g.partition for g in new] == [g.partition for g in old]

    def test_cx1_rows(self):
        for n in (55, 109, 217, 433):
            g, h = cx1_pair(3, 6, n)
            g_rec, h_rec = cx1_records(3, 6, n)
            q, rem = divmod(n, 3)
            old_g = embed_in_part(turan(n, 3), rem, u_packing(star(6), q))
            assert g.adj == g_rec.graph().adj == old_g.adj
            # the record lays out the extended path 0..k-1, q as 0..k
            perm = list(range(n))
            perm[q] = 6
            perm[6:q] = range(7, q + 1)
            assert relabel(h, perm).adj == h_rec.graph().adj
            if n == 55:
                assert canonical_form(h_rec.graph()) == canonical_form(h)

    def test_edge_add_rows(self):
        for params in ({"r": 3, "b": 2, "a": 0}, {"r": 2, "b": 2, "a": 3}):
            pairs, _ = asymptotics.experiment_pairs("edge_add", params)
            for n, a, b in pairs:
                old = edge_add_graphs(params["r"], params["b"], params["a"], n)
                assert (a.graph().adj, b.graph().adj) == tuple(g.adj for g in old)

    def test_transfer_shift_graphs(self):
        pairs, _ = asymptotics.experiment_pairs("transfer_shift", {"r": 3, "k": 6})
        for n, moved, g in pairs:
            old_moved, old_g = transfer_shift_graphs(3, 6, n)
            assert g.graph().adj == old_g.adj
            # the record's moved vertex is the last of part 1, not vertex 0
            w = n // 3
            perm = [v - 1 for v in range(n)]
            perm[0] = 2 * w
            perm[2 * w + 1:] = range(2 * w + 1, n)
            assert relabel(old_moved, perm).adj == moved.graph().adj
            if n == pairs[0][0]:
                assert canonical_form(moved.graph()) == canonical_form(old_moved)

    def test_fold_refuses_a_removed_edge_inside_a_copy(self):
        rec = TuranPacking((4, 4), ((0, path(2), 2),), ((1, 7),))
        with pytest.raises(ValueError, match="endpoint 1 is not a leftover"):
            rec.fold()

    def test_packing_must_fit_its_part(self):
        rec = TuranPacking((4, 3), ((1, star(4), 1),))
        with pytest.raises(ValueError, match="overflows part 1"):
            rec.graph()


class TestBuildNamed:
    def test_f1(self):
        nc = build_named("f1", {})
        assert nc.id == "f1"
        assert len(nc.graphs) == 1
        assert nc.graphs[0].edge_count == 22
        assert nc.family is None

    def test_cx1(self):
        nc = build_named("cx1", {"r": 3, "k": 6, "m": 5, "n": 55})
        assert len(nc.graphs) == 2
        assert nc.family is not None
        assert nc.parameters["n"] == 55

    def test_cx2(self):
        nc = build_named("cx2", {"p": 7, "m": 3})
        assert len(nc.graphs) == 3

    def test_star_path(self):
        nc = build_named("star-path", {"n": 60, "r": 3, "k": 5})
        assert len(nc.graphs) == 2

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_named("f2", {})

    def test_non_integer_param(self):
        with pytest.raises(ValueError, match="construction star-path cannot "
                                             "take n='60'"):
            build_named("star-path", {"n": "60", "r": 3, "k": 5})

    @pytest.mark.parametrize("name, params, taken", [
        ("cx2", {"p": 7, "m": 3, "q": 9}, "p, m"),
        ("cx1", {"r": 3, "k": 6, "n": 55, "q": 9}, "r, k, n, m"),
        ("f1", {"q": 9}, "none"),
    ])
    def test_param_not_taken(self, name, params, taken):
        with pytest.raises(ValueError, match=f"{name} takes no parameter q; "
                                             f"it takes {taken}$"):
            build_named(name, params)
