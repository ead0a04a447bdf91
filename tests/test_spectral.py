"""Spectral radius, equitable quotients, exact Perron certification."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spexlab import (
    Fold,
    Graph,
    Partition,
    RationalMatrix,
    compare_lambda_exact,
    complete,
    cx2_package,
    cx1_pair,
    cycle,
    disjoint_union,
    empty_graph,
    fold_radius,
    is_equitable,
    path,
    perron_less_than,
    perron_root_interval,
    quotient_matrix,
    relabel,
    spectral_radius,
    star,
    star_path_pair,
    turan,
)
from spexlab import spectral
from conftest import random_connected_graph, random_graph
from oracles import (
    charpoly_reference,
    componentwise_radius,
    eig_radius,
    fraction_perron_less_than,
)


def _cx2_h_prime(p: int) -> list[list[Fraction]]:
    """Quotient matrix of cx2's H' (the formula verify checks), (p-4)/3 entries."""
    return [[Fraction(x) for x in row] for row in (
        [0, 2, 0, p],
        [1, 0, 0, p],
        [0, 0, 1, p],
        [Fraction(p - 4, 3), Fraction(2 * (p - 4), 3), 4, 0])]


class TestSpectralRadius:
    def test_complete(self):
        for n in range(1, 9):
            assert abs(spectral_radius(complete(n)).value - (n - 1)) <= 1e-9

    def test_star(self):
        for k in range(2, 10):
            want = math.sqrt(k - 1)
            assert abs(spectral_radius(star(k)).value - want) <= 1e-9

    def test_turan_12_3(self):
        assert abs(spectral_radius(turan(12, 3)).value - 8.0) <= 1e-9

    def test_matches_dense_solver(self):
        rng = random.Random(909)
        for _ in range(120):
            g = random_graph(rng, rng.randrange(1, 12), rng.random())
            got = spectral_radius(g).value
            assert abs(got - eig_radius(g)) <= 1e-8

    def test_residual_within_tol(self):
        rng = random.Random(2718)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(1, 11))
            res = spectral_radius(g)
            assert res.residual <= 1e-10

    def test_vector_positive_on_connected(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randrange(2, 10), rng.randrange(4))
            res = spectral_radius(g)
            assert len(res.vector) == g.n
            assert max(res.vector) == pytest.approx(1.0)
            assert all(x > 0 for x in res.vector)

    def test_disconnected_matches_componentwise_reference(self):
        rng = random.Random(5150)
        cases = [disjoint_union(complete(5), empty_graph(3)),
                 disjoint_union(empty_graph(2), disjoint_union(cycle(5), star(4)))]
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 9), rng.random())
            h = random_graph(rng, rng.randrange(1, 9), rng.random())
            cases.append(disjoint_union(g, h))
        for g in cases:
            got, want = spectral_radius(g), componentwise_radius(g)
            assert abs(got.value - want.value) <= 1e-12, g
            assert max(abs(a - b) for a, b in zip(got.vector, want.vector)) \
                <= 1e-9, g
            assert got.residual <= 1e-10 and got.iterations == 0

    def test_disconnected_builds_only_component_matrices(self, monkeypatch):
        # an n x n float matrix here would be 2005^2 * 8 bytes = 32 MB
        g = disjoint_union(complete(5), empty_graph(2000))
        solved = []
        solve = spectral._quotient_eigenpair

        def spy(adj, comp):
            solved.append(comp)
            return solve(adj, comp)

        monkeypatch.setattr(spectral, "_quotient_eigenpair", spy)

        def whole_graph(h):
            raise AssertionError(f"built the {h.n}-vertex matrix")

        monkeypatch.setattr(spectral, "adjacency_matrix", whole_graph)
        tracemalloc.start()
        try:
            res = spectral_radius(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solved == [0b11111]
        assert peak < 4 * 2**20
        assert abs(res.value - 4) <= 1e-9
        assert res.vector[5:] == (0.0,) * 2000

    @pytest.mark.parametrize("g", [star_path_pair(960, 3, 5)[0],
                                   cx1_pair(3, 6, 433)[0]],
                             ids=["star_path_960", "cx1_433"])
    def test_residual_honest_at_scale(self, g, monkeypatch):
        def whole_graph(h):
            raise AssertionError(f"built the {h.n}-vertex matrix")

        monkeypatch.setattr(spectral, "adjacency_matrix", whole_graph)
        res = spectral_radius(g)
        lo, hi = perron_root_interval(g, Fraction(1, 10 ** 30))
        assert abs(res.value - float((lo + hi) / 2)) <= 1e-12
        # exact infinity norm of A v - value v over every vertex, summing
        # neighbours by their (few distinct) vector entries
        lam = Fraction(res.value)
        masks = {}
        for v, x in enumerate(res.vector):
            masks[x] = masks.get(x, 0) | 1 << v
        residual = max(
            abs(sum((Fraction(x) * (g.adj[v] & m).bit_count()
                     for x, m in masks.items()), Fraction(0))
                - lam * Fraction(res.vector[v]))
            for v in range(g.n))
        assert residual <= Fraction(1, 10 ** 10), float(residual)

    def test_subgraph_monotone(self):
        rng = random.Random(41)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(2, 10), 0.6)
            edges = list(g.edges())
            if not edges:
                continue
            h = g
            for e in rng.sample(edges, rng.randrange(1, len(edges) + 1)):
                h = h.without_edge(*e)
            assert spectral_radius(h).value <= spectral_radius(g).value + 1e-9

    def test_edge_strictly_increases_on_connected(self):
        rng = random.Random(4242)
        done = 0
        while done < 40:
            g = random_connected_graph(rng, rng.randrange(3, 9), rng.randrange(3))
            missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not g.has_edge(u, v)]
            if not missing:
                continue
            u, v = rng.choice(missing)
            bigger = g.with_edge(u, v)
            assert spectral_radius(bigger).value > spectral_radius(g).value + 1e-12
            done += 1


class TestEquitable:
    def test_singletons(self):
        g = path(4)
        assert is_equitable(g, Partition([[0], [1], [2], [3]]))

    def test_turan_parts(self):
        for n, r in ((6, 2), (7, 3), (12, 3), (9, 4)):
            assert is_equitable(turan(n, r))

    def test_cx2_partitions(self):
        pkg = cx2_package(7, 3)
        assert is_equitable(pkg.g, pkg.partitions["G"])
        assert is_equitable(pkg.h, pkg.partitions["H"])
        assert is_equitable(pkg.h_prime, pkg.partitions["H_prime"])

    def test_uneven_split_is_not(self):
        assert not is_equitable(path(3), Partition([[0, 1], [2]]))

    def test_no_partition_anywhere(self):
        g = path(3)
        assert g.partition is None
        assert not is_equitable(g)
        with pytest.raises(ValueError):
            quotient_matrix(g)


class TestQuotient:
    def test_balanced_bipartite(self):
        m = quotient_matrix(turan(6, 2))
        assert m.entries == ((Fraction(0), Fraction(3)), (Fraction(3), Fraction(0)))

    def test_cx2_g(self):
        pkg = cx2_package(7, 3)
        m = quotient_matrix(pkg.g, pkg.partitions["G"])
        assert [[int(x) for x in row] for row in m.entries] == [
            [0, 2, 8],
            [1, 0, 8],
            [2, 4, 0],
        ]

    def test_cx2_h(self):
        pkg = cx2_package(7, 3)
        m = quotient_matrix(pkg.h, pkg.partitions["H"])
        assert [[int(x) for x in row] for row in m.entries] == [
            [0, 2, 0, 7],
            [1, 0, 0, 7],
            [0, 0, 0, 7],
            [2, 4, 1, 0],
        ]

    def test_perron_lift(self):
        # quotient of an equitable partition carries the exact radius
        cases = [turan(6, 2), turan(12, 3), turan(9, 4)]
        pkg = cx2_package(7, 3)
        cases += [pkg.g.with_partition(pkg.partitions["G"]),
                  pkg.h.with_partition(pkg.partitions["H"])]
        for g in cases:
            m = quotient_matrix(g)
            lo, hi = perron_root_interval(m, Fraction(1, 10**9))
            lam = spectral_radius(g).value
            assert lo - Fraction(1, 10**8) <= Fraction(lam) <= hi + Fraction(1, 10**8)

    def test_rejects_non_equitable(self):
        with pytest.raises(ValueError):
            quotient_matrix(path(3), Partition([[0, 1], [2]]))


class TestRationalMatrix:
    def test_char_poly_bipartite(self):
        poly = RationalMatrix([[0, 3], [3, 0]]).char_poly()
        assert poly.coeffs == (Fraction(-9), Fraction(0), Fraction(1))

    def test_char_poly_identity(self):
        poly = RationalMatrix([[1, 0], [0, 1]]).char_poly()
        assert poly.coeffs == (Fraction(1), Fraction(-2), Fraction(1))

    def test_char_poly_matches_sympy(self):
        rng = random.Random(33)
        for _ in range(25):
            n = rng.randrange(1, 6)
            rows = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                     for _ in range(n)] for _ in range(n)]
            got = RationalMatrix(rows).char_poly().coeffs
            assert list(got) == charpoly_reference(rows)

    def test_char_poly_mixed_denominators_matches_sympy(self):
        rng = random.Random(34)
        cases = [_cx2_h_prime(p) for p in (7, 8, 10, 13)]
        for _ in range(15):
            n = rng.randrange(2, 7)
            cases.append([[Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 5, 7, 12)))
                           for _ in range(n)] for _ in range(n)])
        for rows in cases:
            assert list(RationalMatrix(rows).char_poly().coeffs) == charpoly_reference(rows)

    def test_graph_char_poly_matches_sympy(self):
        rng = random.Random(35)
        graphs = [cx2_package(7, 3).h_prime, turan(12, 3)]
        graphs += [random_graph(rng, rng.randrange(1, 15), rng.random()) for _ in range(10)]
        for g in graphs:
            m = RationalMatrix.from_graph(g)
            assert list(m.char_poly().coeffs) == charpoly_reference(m.entries)

    def test_cx2_poly_negative_past_the_bound(self):
        pkg = cx2_package(7, 3)
        poly = quotient_matrix(pkg.g, pkg.partitions["G"]).char_poly()
        bound = Fraction(7) + Fraction(2, 3) - Fraction(1, 35)
        assert poly(bound) < 0

    def test_must_be_square(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2, 3], [4, 5, 6]])


class TestPerronCertificates:
    def test_less_than_examples(self):
        m = RationalMatrix([[0, 3], [3, 0]])
        assert perron_less_than(m, 4)
        assert not perron_less_than(m, 3)

    def test_cx2_bound(self):
        pkg = cx2_package(7, 3)
        bound = Fraction(7) + Fraction(2, 3) - Fraction(1, 35)
        b = quotient_matrix(pkg.g, pkg.partitions["G"])
        c = quotient_matrix(pkg.h, pkg.partitions["H"])
        assert not perron_less_than(b, bound)
        assert perron_less_than(c, bound)

    def test_exactly_at_the_radius(self):
        eps = Fraction(1, 2**60)
        for n in range(2, 9):
            assert not perron_less_than(complete(n), n - 1)
            assert perron_less_than(complete(n), n - 1 + eps)
        assert not perron_less_than(turan(12, 3), 8)
        assert perron_less_than(turan(12, 3), 8 + eps)

    def test_matches_fraction_elimination(self):
        rng = random.Random(651)
        cases = [_cx2_h_prime(p) for p in (7, 8, 10, 13)]
        for _ in range(60):
            n = rng.randrange(1, 6)
            cases.append([[Fraction(rng.randrange(0, 7), rng.choice((1, 2, 3, 5, 12)))
                           for _ in range(n)] for _ in range(n)])
        for rows in cases:
            m = RationalMatrix(rows)
            lo, hi = perron_root_interval(m, Fraction(1, 8))
            qs = [lo, hi, (lo + hi) / 2, Fraction(rng.randrange(0, 80), rng.randrange(1, 9))]
            for q in qs:
                assert perron_less_than(m, q) == fraction_perron_less_than(rows, q)

    def test_monotone_in_q(self):
        rng = random.Random(650)
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = RationalMatrix([[Fraction(rng.randrange(0, 5)) for _ in range(n)]
                                for _ in range(n)])
            q = Fraction(rng.randrange(1, 40), rng.randrange(1, 8))
            if perron_less_than(m, q):
                assert perron_less_than(m, q + Fraction(rng.randrange(1, 9), 3))

    def test_empty_matrix_has_radius_zero(self):
        empty = RationalMatrix([])
        assert not perron_less_than(empty, 0)
        assert perron_less_than(empty, Fraction(1, 10**9))
        lo, hi = perron_root_interval(empty_graph(0), Fraction(1, 10**12))
        assert lo <= 0 < hi

    def test_interval_brackets_root(self):
        m = RationalMatrix([[0, 3], [3, 0]])
        lo, hi = perron_root_interval(m, Fraction(1, 10**6))
        assert hi - lo <= Fraction(1, 10**6)
        assert lo < 3 <= hi

    def test_interval_lower_end_can_be_the_root(self):
        # the halving point 2 is the radius of K3 and of K_{1,4}
        for g in (complete(3), star(5)):
            lo, hi = perron_root_interval(g, Fraction(1, 10**6))
            assert lo == 2
            assert not perron_less_than(g, lo)
            assert perron_less_than(g, hi)

    def test_graph_interval_equals_adjacency_interval(self):
        rng = random.Random(7007)
        graphs = [empty_graph(0), empty_graph(1), empty_graph(6), complete(1),
                  complete(2), complete(7), cycle(5), star(6),
                  disjoint_union(complete(4), complete(4)),
                  disjoint_union(cycle(5), empty_graph(2))]
        for _ in range(120):
            g = random_graph(rng, rng.randrange(1, 11), rng.choice((0.15, 0.5, 0.85)))
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs += [g, relabel(g, perm)]
        for g in graphs:
            a = RationalMatrix.from_graph(g)
            for width in (Fraction(1, 8), Fraction(1, 10**12)):
                assert perron_root_interval(g, width) == perron_root_interval(a, width)

    def test_graph_bracketed_on_its_quotient(self, monkeypatch):
        rows = []
        orig = spectral.perron_less_than

        def spied(matrix, q):
            rows.append(matrix.n)
            return orig(matrix, q)

        monkeypatch.setattr(spectral, "perron_less_than", spied)
        lo, hi = perron_root_interval(cx1_pair(3, 6, 433)[0], Fraction(1, 10**30))
        assert hi - lo <= Fraction(1, 10**30)
        assert rows and set(rows) == {4}

    def test_interval_consistent_with_certificate(self):
        pkg = cx2_package(7, 3)
        b = quotient_matrix(pkg.g, pkg.partitions["G"])
        lo, hi = perron_root_interval(b, Fraction(1, 10**8))
        assert not perron_less_than(b, lo)
        assert perron_less_than(b, hi + Fraction(1, 10**8))


class TestCompareExact:
    def test_cycle_beats_path(self):
        assert compare_lambda_exact(cycle(4), path(4)) == 1
        assert compare_lambda_exact(path(4), cycle(4)) == -1

    def test_empty_graphs_tie(self):
        assert compare_lambda_exact(empty_graph(0), empty_graph(1)) == 0

    def test_cx2_13_within_halving_budget(self, monkeypatch):
        # 26 vertices; a bisection that only trims the window took 66 and 256
        # M-matrix tests and about 30 s on these two pairs
        pkg = cx2_package(13, 3)
        calls = []
        orig = spectral.perron_less_than

        def counted(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(spectral, "perron_less_than", counted)
        for g, h in ((pkg.g, pkg.h), (pkg.h, pkg.h_prime)):
            calls.clear()
            assert compare_lambda_exact(g, h) == 1
            assert len(calls) <= 64

    def test_compares_on_quotients(self, monkeypatch):
        rng = random.Random(1313)
        pkg = cx2_package(13, 3)
        rows = []
        orig = spectral.perron_less_than

        def spied(matrix, q):
            rows.append(matrix.n)
            return orig(matrix, q)

        monkeypatch.setattr(spectral, "perron_less_than", spied)
        for g, h in ((pkg.g, pkg.h), (pkg.h, pkg.h_prime)):
            perms = [list(range(g.n)), list(range(h.n))]
            for perm in perms:
                rng.shuffle(perm)
            assert compare_lambda_exact(relabel(g, perms[0]), relabel(h, perms[1])) == 1
        assert rows and max(rows) <= 4

    def test_relabeled_ties(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 11), 0.5)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert compare_lambda_exact(g, relabel(g, perm)) == 0

    def test_cospectral_radius_tie(self):
        # K_{1,4} and C_4 both have radius 2
        assert compare_lambda_exact(star(5), cycle(4)) == 0

    def test_antisymmetric(self):
        rng = random.Random(1900)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 8), 0.5)
            h = random_graph(rng, rng.randrange(1, 8), 0.5)
            assert compare_lambda_exact(g, h) == -compare_lambda_exact(h, g)

    def test_agrees_with_floats_when_separated(self):
        rng = random.Random(220)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(2, 9), 0.5)
            h = random_graph(rng, rng.randrange(2, 9), 0.5)
            a, b = spectral_radius(g).value, spectral_radius(h).value
            if abs(a - b) > 1e-6:
                assert compare_lambda_exact(g, h) == (1 if a > b else -1)


@st.composite
def blown_up_graphs(draw):
    """A random graph on at most 6 vertices with each vertex blown up into
    up to 4 open twins, shuffled so that the twins are not contiguous."""
    base_n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(base_n) for v in range(u + 1, base_n)]
    edges = [e for e in pairs if draw(st.booleans())]
    sizes = [draw(st.integers(1, 4)) for _ in range(base_n)]
    first = [sum(sizes[:i]) for i in range(base_n)]
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    blown = [(perm[first[u] + i], perm[first[v] + j]) for u, v in edges
             for i in range(sizes[u]) for j in range(sizes[v])]
    return Graph(n, blown)


def _open_twin_fold(g: Graph) -> Fold:
    by_row = {}
    for v, row in enumerate(g.adj):
        by_row.setdefault(row, []).append(v)
    cells = tuple(by_row.values())
    return Fold(cells, tuple(
        tuple((g.adj[c[0]] & sum(1 << v for v in d)).bit_count() for d in cells)
        for c in cells))


@settings(max_examples=200, deadline=None)
@given(blown_up_graphs())
def test_fold_rule_expands_to_refine(g):
    fold = _open_twin_fold(g)
    cells = [sorted(v for p in cell for v in fold.cells[p])
             for cell in spectral._refine_fold(fold.counts)]
    assert cells == [sorted(c) for c in spectral._refine(g.adj, [list(range(g.n))])]
    if len(g.components()) == 1:
        assert fold_radius(fold) == spectral_radius(g).value
