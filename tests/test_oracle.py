"""Exhaustive ex/spex oracles and the structure-restricted search."""

import concurrent.futures
import hashlib
import itertools
import math
import os
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spexlab import (
    ForbiddenFamily,
    Graph,
    RestrictedSpace,
    TuranPacking,
    canonical_form,
    complete,
    complete_multipartite,
    cx1_pair,
    cx1_family,
    cx2_package,
    cycle,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    enumerate_graphs,
    ex_oracle,
    f1,
    is_free,
    path,
    relabel,
    restricted_ex,
    spectral_radius,
    spex_oracle,
    star,
    turan,
)
from spexlab import canon, oracle, patterns
from spexlab.spectral import compare_lambda_exact
from oracles import (all_graphs_upto_iso, brute_contains, eig_radius,
                     last_edge_admits, restricted_unpruned)

SKIP_SLOW = os.environ.get("SPEXLAB_RUN_SLOW") != "1"

# trivial automorphism group on 6 vertices, the fewest that allow one
ASYMMETRIC = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044,
                8: 12346, 9: 274668}


def canon_set(graphs):
    return {canonical_form(g) for g in graphs}


# unlabeled trees on 0..5 vertices (OEIS A000055)
_TREES = (1, 1, 1, 1, 2, 3)


@pytest.mark.parametrize("max_order", range(1, 6))
def test_forests_are_distinct_bounded_and_counted(max_order):
    for w in range(1, 11):
        forests = [TuranPacking((w,), tuple((0, t, c) for t, c in packs)).graph()
                   for packs in oracle._forests(w, max_order)]
        # multisets of trees on <= max_order vertices, w vertices in all
        count = [1] + [0] * w
        for order in range(1, max_order + 1):
            for _ in range(_TREES[order]):
                for i in range(order, w + 1):
                    count[i] += count[i - order]
        assert len(forests) == count[w], (w, max_order)
        assert len({canonical_form(f) for f in forests}) == len(forests)
        for f in forests:
            comps = f.components()
            assert f.n == w and f.edge_count == w - len(comps)
            assert max(c.bit_count() for c in comps) <= max_order
        edges = [f.edge_count for f in forests]
        assert edges == sorted(edges, reverse=True)

class TestEnumeration:
    def test_counts_up_to_seven(self):
        for n in range(1, 8):
            assert sum(1 for _ in enumerate_graphs(n)) == KNOWN_COUNTS[n]

    @pytest.mark.skipif(SKIP_SLOW, reason="set SPEXLAB_RUN_SLOW=1")
    def test_count_eight(self):
        assert sum(1 for _ in enumerate_graphs(8)) == KNOWN_COUNTS[8]

    @pytest.mark.skipif(SKIP_SLOW, reason="set SPEXLAB_RUN_SLOW=1")
    def test_count_nine(self):
        assert sum(1 for _ in enumerate_graphs(9)) == KNOWN_COUNTS[9]

    def test_visit_order_is_pinned(self):
        # sha256 of the graph6 lines in visit order; a pruning change must
        # keep the first labeled child of every class
        def digest(graphs):
            h = hashlib.sha256()
            for g in graphs:
                h.update((encode_graph6(g) + "\n").encode("ascii"))
            return h.hexdigest()

        assert digest(enumerate_graphs(7)) == (
            "1b51c1b292e4f6fa1006ddecd589bdc3e0c4eed66989c9186325f067e5b859b0")
        k4_free = list(enumerate_graphs(7, ForbiddenFamily([complete(4)])))
        assert len(k4_free) == 685
        assert digest(k4_free) == (
            "22b9cf139dd6dbf4b08bcc7d55698d2ee890f96308ee7c16d05f21b7a0a76e83")

    def test_k4_free_class_set_at_eight_is_pinned(self):
        # sha256 of the sorted canonical graph6 lines; the visit order at
        # n = 8 may change with the cell filter, the classes may not
        forms = sorted(canonical_form(g) for g in
                       enumerate_graphs(8, ForbiddenFamily([complete(4)])))
        assert len(forms) == 6431
        assert hashlib.sha256(b"".join(f + b"\n" for f in forms)).hexdigest() == (
            "8781fa143e9a3a6a83eb3aa153ca5374f5654cad69c1b319c608cde71a63099f")

    def test_asymmetric_witness(self):
        g = ASYMMETRIC
        assert sum(1 for p in itertools.permutations(range(g.n))
                   if relabel(g, p).adj == g.adj) == 1

    @pytest.mark.parametrize("g, canonized", [
        # the one child adds a leaf-leaf edge, of end degrees (2, 2), while
        # every canonically last edge joins the centre to a leaf, (2, 5)
        (star(6), 0),
        (empty_graph(6), 1),
        # trivial automorphism group: every non-edge is its own orbit, and
        # the last-edge filter leaves 2 of the 9
        (ASYMMETRIC, 2),
    ])
    def test_one_child_canonized_per_orbit(self, monkeypatch, g, canonized):
        # the pinned counts are what the rejection filters leave
        calls = []

        def counting(h, seed=None, known=None):
            calls.append(h)
            return canonical(h, seed, known)

        canonical = oracle._canonical
        _, rows, sym = canonical(g)
        monkeypatch.setattr(oracle, "_canonical", counting)
        oracle._accepted_children(g, rows, sym, None)
        assert len(calls) == canonized
        # no two canonized children are isomorphic: at most one per orbit
        assert len({canonical_form(h) for h in calls}) == len(calls)

    def test_spex_six_canonizations_pinned(self, monkeypatch):
        counts = {"_canonical": 0, "canonical_form": 0, "_canon_component": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(h, *args):
                counts[name] += 1
                return real(h, *args)
            return wrapper

        for module, name in ((oracle, "_canonical"), (oracle, "canonical_form"),
                             (canon, "_canon_component")):
            monkeypatch.setattr(module, name, counted(module, name))
        rep = spex_oracle(6, [complete(4)])
        assert rep.extremal_set == ("E]~o",)
        # no parent test canonizes, so the one canonical_form call is the
        # report's; a child searches only its new edge's component
        assert counts == {"_canonical": 123, "canonical_form": 1,
                          "_canon_component": 129}

    def test_agrees_with_labeled_dedup(self):
        for n in range(1, 7):
            mine = canon_set(enumerate_graphs(n))
            brute = canon_set(all_graphs_upto_iso(n))
            assert mine == brute

    def test_no_duplicates(self):
        seen = canon_set(enumerate_graphs(6))
        assert len(seen) == 156

    def test_family_pruning_is_exact(self):
        # a connected member, a disconnected one (tested in the whole host),
        # and two members of unequal diameter (one ball subhost each)
        fams = {"K3": [complete(3)],
                "K3+K2": [disjoint_union(complete(3), complete(2))],
                "C4,P5": [cycle(4), path(5)]}
        for n in range(2, 7):
            pool = all_graphs_upto_iso(n)
            for name, members in fams.items():
                fam = ForbiddenFamily(members)
                pruned = canon_set(enumerate_graphs(n, family=fam))
                full = {canonical_form(g) for g in pool if is_free(g, fam)}
                assert pruned == full, (name, n)

    @pytest.mark.parametrize("members", [[complete(3)], [cycle(4), path(5)]],
                             ids=["K3", "C4,P5"])
    def test_canonizes_only_free_graphs(self, monkeypatch, members):
        # a child that is not free is rejected before it is canonized
        fam = ForbiddenFamily(members)
        canonized = []
        real = oracle._canonical

        def recording(h, seed=None, known=None):
            canonized.append(h)
            return real(h, seed, known)

        monkeypatch.setattr(oracle, "_canonical", recording)
        assert list(enumerate_graphs(6, fam))
        assert canonized
        for h in canonized:
            assert is_free(h, fam), encode_graph6(h)

    def test_guardrail(self):
        with pytest.raises(ValueError, match="allow_large"):
            list(enumerate_graphs(10))

    def test_override_with_heavy_pruning(self):
        fam = ForbiddenFamily([complete(2)])
        out = list(enumerate_graphs(11, family=fam, allow_large=True))
        assert len(out) == 1
        assert out[0].edge_count == 0


def _last_edge(h: Graph) -> tuple[int, int]:
    """h's canonically last edge, in h's labels."""
    perm, rows, _ = canon._canonical(h)
    i = max(i for i in range(h.n) if rows[i] >> (i + 1))
    return perm.index(i), perm.index(rows[i].bit_length() - 1)


def _last_edge_pair(h: Graph) -> tuple[int, int]:
    """Sorted end degrees of h's canonically last edge."""
    return tuple(sorted(h.degree(x) for x in _last_edge(h)))


def _maps_edge(h: Graph, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Whether an automorphism of h takes the edge e to the edge f."""
    rest = [x for x in range(h.n) if x not in e]
    free = [x for x in range(h.n) if x not in f]
    for a, b in (f, f[::-1]):
        for image in itertools.permutations(free):
            perm = [0] * h.n
            perm[e[0]], perm[e[1]] = a, b
            for x, y in zip(rest, image):
                perm[x] = y
            if relabel(h, perm).adj == h.adj:
                return True
    return False


def _largest_components(h: Graph) -> list[int]:
    comps = h.components()
    top = max(c.bit_count() for c in comps)
    return [c for c in comps if c.bit_count() == top]


@st.composite
def labeled_graphs(draw) -> tuple[Graph, list[int]]:
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
    return g, draw(st.permutations(range(n)))


class TestRejectBeforeCanonizing:
    def test_last_edge_pair_is_admitted(self):
        rng = random.Random(8)
        checked = 0
        for n in range(2, 8):
            for g in enumerate_graphs(n):
                if not g.edge_count:
                    continue
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, relabel(g, perm)):
                    a, b = _last_edge_pair(h)
                    deg = [row.bit_count() for row in h.adj]
                    assert last_edge_admits(
                        h.adj, deg, _largest_components(h), a, b), \
                        (encode_graph6(h), a, b)
                    checked += 1
        # every class on 2..7 vertices but the six edgeless ones, twice
        assert checked == 2 * (sum(KNOWN_COUNTS[n] for n in range(2, 8)) - 6)

    def test_filter_rejects_other_pairs(self):
        # P4 plus a pendant at an inner vertex: (2, 3) is the one edge
        # whose smaller end degree is largest
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        deg = [row.bit_count() for row in g.adj]
        admitted = {(a, b) for a in range(4) for b in range(a, 4)
                    if last_edge_admits(g.adj, deg, [0b11111], a, b)}
        assert admitted == {(2, 3)}

    def test_filters_reject_only_what_the_parent_test_rejects(self, monkeypatch):
        def children(g):
            _, rows, sym = canon._canonical(g)
            kept, _ = oracle._accepted_children(g, rows, sym, None)
            return [(c.adj, r) for c, r, _ in kept]

        parents = [g for n in range(2, 7) for g in enumerate_graphs(n)]
        filtered = [children(g) for g in parents]
        monkeypatch.setattr(oracle, "_degree_filter", lambda *args: True)
        monkeypatch.setattr(oracle, "_profile", lambda adj: None)
        assert [children(g) for g in parents] == filtered

    def test_cell_filter_rejects_only_outside_the_orbit(self):
        # every child g + uv of every graph on 2..6 vertices that the cell
        # filter (with the largest-component test) rejects has uv outside
        # Aut(g + uv)·e*, so McKay's orbit rule rejects it too
        rejected = passed = 0
        for n in range(2, 7):
            for g in all_graphs_upto_iso(n):
                for u, v in itertools.combinations(range(n), 2):
                    if g.has_edge(u, v):
                        continue
                    child = g.with_edge(u, v)
                    comp = next(c for c in child.components() if c >> u & 1)
                    largest = comp.bit_count() == max(
                        c.bit_count() for c in child.components())
                    one_cell = [[x for x in range(n) if comp >> x & 1]]
                    if largest and oracle._last_cells(child.adj, one_cell, u, v):
                        passed += 1
                        continue
                    rejected += 1
                    assert not _maps_edge(child, _last_edge(child), (u, v)), \
                        (encode_graph6(child), (u, v))
        assert rejected and passed

    def test_seeded_canonization_equals_unseeded(self, monkeypatch):
        # every child the walk canonizes on up to 7 vertices, with its
        # seed, with the parent's component records, and with both
        real = oracle._canonical
        seeded = []
        reused = 0

        def checked(h, seed=None, known=None):
            nonlocal reused
            got = real(h, seed, known)
            if seed is not None:
                seeded.append(h)
                want = real(h)
                assert got == want, encode_graph6(h)
                assert real(h, seed) == want, encode_graph6(h)
                assert real(h, None, {m: r for m, r in known.items()
                                      if m != seed[0]}) == want, encode_graph6(h)
                reused += any(c != seed[0] and c in known for c in h.components())
            return got

        monkeypatch.setattr(oracle, "_canonical", checked)
        for n in range(1, 8):
            assert sum(1 for _ in enumerate_graphs(n)) == KNOWN_COUNTS[n]
        # each class with an edge is canonized, seeded, at least once
        assert len(seeded) >= sum(KNOWN_COUNTS[n] - 1 for n in range(1, 8))
        # and some children take a component from their parent
        assert reused

    @settings(max_examples=300, deadline=None)
    @given(labeled_graphs())
    def test_degree_filter_matches_the_scan(self, drawn):
        # the parent's masks give the verdict of the scan over the child's
        # degrees, for every non-edge uv
        g, _ = drawn
        deg = [row.bit_count() for row in g.adj]
        masks = oracle._degree_masks(deg)
        for u, v in itertools.combinations(range(g.n), 2):
            if g.has_edge(u, v):
                continue
            child = g.with_edge(u, v)
            comp = next(c for c in child.components() if c >> u & 1)
            cdeg = [row.bit_count() for row in child.adj]
            a, b = sorted((cdeg[u], cdeg[v]))
            assert oracle._degree_filter(g.adj, deg, masks, comp, u, v) == \
                last_edge_admits(child.adj, cdeg, [comp], a, b), (g.adj, u, v)

    @settings(max_examples=200, deadline=None)
    @given(labeled_graphs())
    def test_degree_cells_refine_as_one_cell(self, drawn):
        # the cell filter starts from the child's degree cells, the first
        # pass of the refinement from one cell, and ends where it would
        g, _ = drawn
        deg = [row.bit_count() for row in g.adj]
        masks = oracle._degree_masks(deg)
        for u, v in itertools.combinations(range(g.n), 2):
            if g.has_edge(u, v):
                continue
            child = g.with_edge(u, v)
            comp = next(c for c in child.components() if c >> u & 1)
            one_cell = [[x for x in range(g.n) if comp >> x & 1]]
            cells = oracle._degree_cells(deg, masks, comp, u, v)
            assert canon._refine(child.adj, one_cell) == \
                canon._refine(child.adj, cells), (g.adj, u, v)

    @settings(max_examples=300, deadline=None)
    @given(labeled_graphs())
    def test_profile_survives_relabeling(self, drawn):
        g, perm = drawn
        assert oracle._profile(relabel(g, perm).adj) == oracle._profile(g.adj)


class TestExOracle:
    def test_mantel_five(self):
        rep = ex_oracle(5, [complete(3)])
        assert rep.value == 6
        assert rep.extremal_set == (canonical_form(turan(5, 2)).decode("ascii"),)

    def test_single_edge_family(self):
        for n in (1, 4, 7):
            rep = ex_oracle(n, [complete(2)])
            assert rep.value == 0
            assert rep.graphs()[0].adj == empty_graph(n).adj

    def test_turan_eight(self):
        rep = ex_oracle(8, [complete(4)])
        assert rep.value == 21
        assert rep.extremal_set == (canonical_form(turan(8, 3)).decode("ascii"),)

    def test_report_graphs_free_and_maximal(self):
        fams = [[complete(3)], [path(4)], [complete(3), complete_multipartite([2, 2])]]
        for members in fams:
            fam = ForbiddenFamily(members)
            rep = ex_oracle(6, fam)
            for g in rep.graphs():
                assert g.edge_count == rep.value
                assert is_free(g, fam)
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        if not g.has_edge(u, v):
                            assert not is_free(g.with_edge(u, v), fam)

    def test_matches_labeled_brute(self):
        fams = {"triangle": [complete(3)], "p4": [path(4)],
                "both": [complete(3), path(4)],
                "k3+k2": [disjoint_union(complete(3), complete(2))],
                "c4,p5": [cycle(4), path(5)]}
        for n in range(2, 7):
            pool = all_graphs_upto_iso(n)
            for members in fams.values():
                fam = ForbiddenFamily(members)
                free = [g for g in pool if is_free(g, fam)]
                best = max(g.edge_count for g in free)
                rep = ex_oracle(n, fam)
                assert rep.value == best
                assert set(rep.extremal_set) == {
                    canonical_form(g).decode("ascii")
                    for g in free if g.edge_count == best}

    def test_extremal_set_sorted(self):
        rep = ex_oracle(6, [complete(3)])
        assert list(rep.extremal_set) == sorted(set(rep.extremal_set))

    def test_non_maximal_graph_is_named(self, monkeypatch):
        monkeypatch.setattr(oracle, "_free_classes",
                            lambda *args: iter([(empty_graph(3), False)]))
        with pytest.raises(RuntimeError,
                           match=r"extremal graph B\? is not edge-maximal: "
                                 r"adding \(0, 1\) keeps it free"):
            ex_oracle(3, [complete(3)])

    def test_report_dict(self):
        rep = ex_oracle(4, [complete(3)])
        d = rep.as_dict()
        assert d["kind"] == "ex"
        assert d["value"] == 4
        assert "elapsed" in d


class TestSpexOracle:
    def test_mantel_five(self):
        rep = spex_oracle(5, [complete(3)])
        assert rep.extremal_set == (canonical_form(turan(5, 2)).decode("ascii"),)
        assert abs(rep.value - math.sqrt(6)) <= 1e-9

    def test_single_edge_family(self):
        rep = spex_oracle(4, [complete(2)])
        assert rep.value == 0.0
        assert rep.graphs()[0].edge_count == 0

    def test_certificate_brackets_value(self):
        rep = spex_oracle(6, [complete(3)])
        lo, hi = (Fraction(s) for s in rep.certificate["perron_bracket"])
        assert lo <= Fraction(rep.value) <= hi or hi - lo < Fraction(1, 10**6)
        assert lo < hi

    def test_empty_graph_certificate_holds_its_value(self):
        rep = spex_oracle(0, [complete(3)])
        lo, hi = (Fraction(s) for s in rep.certificate["perron_bracket"])
        assert rep.value == 0.0
        assert lo <= 0 < hi

    def test_prefilter_invariance(self, monkeypatch):
        want = None
        for tol in (1e-9, 1e-7, 1e-5):
            monkeypatch.setattr(oracle, "_PREFILTER_TOL", tol)
            rep = spex_oracle(6, [complete(3)])
            if want is None:
                want = rep.extremal_set
            assert rep.extremal_set == want

    def test_extremal_radius_is_max(self):
        fam = ForbiddenFamily([path(4)])
        rep = spex_oracle(5, fam)
        best = max(spectral_radius(g).value for g in all_graphs_upto_iso(5)
                   if is_free(g, fam))
        assert abs(rep.value - best) <= 1e-9


@pytest.mark.parametrize("members", [[complete(3)], [complete(4)], [cycle(4)],
                                     [f1()]], ids=["K3", "K4", "C4", "F1"])
def test_stanley_skip_changes_no_report(monkeypatch, members):
    calls = []
    real = oracle.spectral_radius
    monkeypatch.setattr(oracle, "spectral_radius",
                        lambda g: calls.append(g) or real(g))
    stanley = oracle._stanley_bound
    for n in range(1, 8):
        reports = []
        for bound in (stanley, lambda m: math.inf):
            monkeypatch.setattr(oracle, "_stanley_bound", bound)
            del calls[:]
            rep = spex_oracle(n, members)
            reports.append((rep.value, rep.extremal_set, rep.certificate,
                            len(calls)))
        (*got, skipping), (*want, scoring) = reports
        assert got == want, n
    # at n = 7 the bound leaves some class unscored
    assert skipping < scoring


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple:
    """Every class on n vertices: the labeled dedup up to 6 vertices, and
    the unpruned walk at 7."""
    return tuple(all_graphs_upto_iso(n) if n <= 6 else enumerate_graphs(n))


def _brute_spex(n: int, members) -> tuple[Graph, set]:
    """(a champion, the canonical forms of every class tied with it) over
    every free class on n vertices, each compared exactly: no float
    prefilter, no dominance skip."""
    best, ties = None, []
    for g in _classes(n):
        if not is_free(g, members):
            continue
        c = 1 if best is None else compare_lambda_exact(g, best)
        if c > 0:
            best, ties = g, [g]
        elif c == 0:
            ties.append(g)
    return best, {canonical_form(g).decode("ascii") for g in ties}


# K1,3-free graphs have maximum degree 2, so every one holding a cycle
# attains lambda = 2: at n = 7, 14 tied classes, most of them disconnected
@pytest.mark.parametrize("members, ties_at_seven", [
    ([complete(3)], 1), ([complete(4)], 1), ([path(5)], None),
    ([star(4)], 14), ([path(4), star(4)], None), ([cycle(4)], 1),
], ids=["K3", "K4", "P5", "K1,3", "P4,K1,3", "C4"])
def test_spex_matches_exact_brute_force(members, ties_at_seven):
    for n in range(1, 8):
        best, ties = _brute_spex(n, members)
        rep = spex_oracle(n, members)
        assert set(rep.extremal_set) == ties, n
        assert compare_lambda_exact(rep.graphs()[0], best) == 0, n
        assert abs(rep.value - eig_radius(best)) <= 1e-9, n
    if ties_at_seven is not None:
        assert len(ties) == ties_at_seven


class TestRestricted:
    def test_cx2_shape(self):
        pkg = cx2_package(7, 3)
        rep = restricted_ex(14, pkg.family, RestrictedSpace(2, 3))
        want = {canonical_form(pkg.h).decode("ascii"),
                canonical_form(pkg.h_prime).decode("ascii")}
        assert set(rep.extremal_set) == want
        assert rep.value == pkg.h.edge_count
        assert rep.restricted

    def test_trivial_tree_order(self):
        for n in (8, 13):
            rep = restricted_ex(n, [complete(3)], RestrictedSpace(2, 1))
            assert rep.value == turan(n, 2).edge_count
            assert rep.extremal_set == (
                canonical_form(turan(n, 2)).decode("ascii"),)

    def test_cx1_peak_is_path_packing(self):
        fam = cx1_family(3, 6, 5)
        g, h = cx1_pair(3, 6, 55)
        rep = restricted_ex(55, fam, RestrictedSpace(3, 7))
        assert rep.value == h.edge_count == g.edge_count + 1
        assert canonical_form(h).decode("ascii") in rep.extremal_set

    def test_canonizes_only_the_reported_graph(self, monkeypatch):
        orders = []
        real = canon._canonical

        def counted(g):
            orders.append(g.n)
            return real(g)

        monkeypatch.setattr(canon, "_canonical", counted)
        # fresh caches, so no earlier test can hide a canonization
        monkeypatch.setattr(patterns, "_cform",
                            lru_cache(maxsize=4096)(canon.canonical_form))
        monkeypatch.setattr(patterns, "_cache", {})
        rep = restricted_ex(37, cx1_family(3, 6, 5), RestrictedSpace(3, 7))
        assert len(rep.extremal_set) == 1
        assert orders.count(37) == 1

    def test_never_beats_true_ex(self):
        fam = ForbiddenFamily([complete(3)])
        for n in (6, 7):
            exact = ex_oracle(n, fam)
            for space in (RestrictedSpace(2, 1), RestrictedSpace(2, 2),
                          RestrictedSpace(2, 3)):
                rep = restricted_ex(n, fam, space)
                assert rep.value <= exact.value
                for g in rep.graphs():
                    assert is_free(g, fam)

    def test_no_free_graph_reports_no_value(self):
        # every graph of the space holds a triangle
        rep = restricted_ex(6, [complete(3)], RestrictedSpace(3, 2))
        assert rep.value is None
        assert rep.extremal_set == ()
        assert rep.as_dict()["value"] is None

    def test_space_validation(self):
        with pytest.raises(ValueError):
            RestrictedSpace(0, 3)
        with pytest.raises(ValueError):
            RestrictedSpace(2, 0)

    @pytest.mark.parametrize("r, max_tree_order, field", [
        (True, 2, "r"), (2.0, 2, "r"), (2, 2.5, "max_tree_order"),
        (2, False, "max_tree_order"),
    ])
    def test_space_refuses_non_int(self, r, max_tree_order, field):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            RestrictedSpace(r, max_tree_order)

    @pytest.mark.parametrize("n", [True, 6.0, "6"])
    def test_refuses_non_int_n(self, n):
        with pytest.raises(ValueError, match="^n must be an int"):
            restricted_ex(n, [complete(3)], RestrictedSpace(2, 2))

    def test_refuses_negative_n(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            restricted_ex(-1, [complete(3)], RestrictedSpace(1, 1))

    @pytest.mark.parametrize("n, m, value, tests, skips", [
        (37, 5, 467, 6, 60), (55, 5, 1024, 7, 422), (55, 6, 1024, 8, 421),
    ])
    def test_witness_pruning_counts(self, monkeypatch, n, m, value, tests,
                                    skips):
        # a host is tested by one _first_hit call; a forest is skipped at
        # the one residue it holds, where any() stops
        tested, held = [], []
        first_hit, holds = oracle._first_hit, oracle.contains_subgraph

        def spied_hit(g, family):
            tested.append(g)
            return first_hit(g, family)

        def spied_holds(forest, residue):
            held.append(holds(forest, residue))
            return held[-1]

        monkeypatch.setattr(oracle, "_first_hit", spied_hit)
        monkeypatch.setattr(oracle, "contains_subgraph", spied_holds)
        # a cached verdict carries no residue
        monkeypatch.setattr(patterns, "_cache", {})
        rep = restricted_ex(n, cx1_family(3, 6, m), RestrictedSpace(3, 7))
        assert rep.value == value
        assert (len(tested), held.count(True)) == (tests, skips)

    def test_one_edge_residue_skips_by_edge_count(self, monkeypatch):
        # the first host's residue is K2, so every later forest with an
        # edge is skipped from its edge count alone, with no forest built
        calls = []
        monkeypatch.setattr(oracle, "contains_subgraph",
                            lambda forest, residue: calls.append(residue))
        monkeypatch.setattr(patterns, "_cache", {})
        rep = restricted_ex(14, [complete(3)], RestrictedSpace(2, 4))
        assert calls == []
        value, attain = restricted_unpruned(14, [complete(3)], 2, 4)
        assert rep.value == value == 49
        assert set(rep.extremal_set) == attain

    def test_report_carries_space(self):
        space = RestrictedSpace(3, 2)
        rep = restricted_ex(9, [complete(3)], space)
        assert rep.space is space
        assert rep.as_dict()["space"] == space.as_dict()


@lru_cache(maxsize=None)
def _brute_forests(w: int, max_order: int) -> tuple:
    """Forests on w vertices, components of order <= max_order, one per class."""
    return tuple(f for f in all_graphs_upto_iso(w)
                 if f.edge_count == w - len(f.components())
                 and all(c.bit_count() <= max_order for c in f.components()))


def _brute_restricted(n: int, members, r: int, max_order: int):
    """restricted_ex by brute force: every forest in every part size of
    T(n, r), freeness by injection search; (value or None, canonical set)."""
    base = turan(n, r)
    best, attain = None, set()
    for part in {len(c): c for c in base.partition.classes}.values():
        for forest in _brute_forests(len(part), max_order):
            g = base
            for a, b in forest.edges():
                g = g.with_edge(part[a], part[b])
            if any(brute_contains(g, m) for m in members):
                continue
            if best is None or g.edge_count > best:
                best, attain = g.edge_count, set()
            if g.edge_count == best:
                attain.add(canonical_form(g).decode("ascii"))
    return best, attain


# K3, C4 and P4 leave few free graphs in the space; in a bowtie-free graph
# the forest shape decides, and K4 (r = 2) and K5 (r = 3) admit every
# forest, so each part size competes and ties arise
@pytest.mark.parametrize("members", [
    [complete(3)], [cycle(4)], [path(4)],
    [Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])],
    [complete(4)], [complete(5)],
], ids=["K3", "C4", "P4", "bowtie", "K4", "K5"])
@pytest.mark.parametrize("r", [2, 3])
def test_restricted_matches_brute_force(members, r):
    for n in range(r, 11):
        for max_order in (1, 2, 3):
            rep = restricted_ex(n, members, RestrictedSpace(r, max_order))
            value, attain = _brute_restricted(n, members, r, max_order)
            assert rep.value == value, (n, max_order)
            assert set(rep.extremal_set) == attain, (n, max_order)


@st.composite
def small_families(draw) -> list[Graph]:
    """1 to 3 members, each on at most 6 vertices with at least one edge."""
    members = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(2, 6))
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        members.append(Graph(k, edges))
    return members


# trees up to the part size, so that stars spanning a part occur: they
# split the part into edgeless co-components, whose residues must not prune
# (the examples: K2 spanning a part of 2, and P3 one of 3)
@settings(max_examples=200, deadline=None)
@given(small_families(), st.sampled_from([2, 3]), st.integers(2, 12),
       st.integers(1, 6))
@example([complete(3)], 2, 4, 2)
@example([complete(3)], 2, 6, 3)
def test_pruned_matches_unpruned(members, r, n, max_order):
    assume(n >= r)
    max_order = min(max_order, -(-n // r))
    with pytest.MonkeyPatch.context() as mp:
        # fresh verdicts, so that every failed host yields its residue
        mp.setattr(patterns, "_cache", {})
        rep = restricted_ex(n, members, RestrictedSpace(r, max_order))
    value, attain = restricted_unpruned(n, members, r, max_order)
    assert rep.value == value
    assert set(rep.extremal_set) == attain


class TestReportShape:
    def test_graphs_decode(self):
        rep = ex_oracle(5, [complete(3)])
        for s, g in zip(rep.extremal_set, rep.graphs()):
            assert decode_graph6(s).adj == g.adj

    def test_family_label(self):
        rep = ex_oracle(4, ForbiddenFamily([complete(3)], name="triangle"))
        assert rep.family == "triangle"

    def test_jobs_do_not_change_output(self):
        a = ex_oracle(6, [complete(3)], jobs=1)
        b = ex_oracle(6, [complete(3)], jobs=2)
        assert a.value == b.value
        assert a.extremal_set == b.extremal_set
        a = spex_oracle(6, [complete(4)], jobs=1)
        b = spex_oracle(6, [complete(4)], jobs=2)
        assert a.value == b.value
        assert a.extremal_set == b.extremal_set
        assert a.certificate == b.certificate

    @pytest.mark.parametrize("n, jobs, match", [
        (True, 1, "^n must be an int"), (4.0, 1, "^n must be an int"),
        ("4", 1, "^n must be an int"), (4, True, "^jobs must be an int"),
        (4, 1.0, "^jobs must be an int"), (4, 0, "^jobs must be at least 1"),
        (4, -1, "^jobs must be at least 1"),
    ])
    def test_census_inputs_are_validated(self, n, jobs, match):
        for oracle_fn in (ex_oracle, spex_oracle):
            with pytest.raises(ValueError, match=match):
                oracle_fn(n, [complete(3)], jobs=jobs)
        if match.startswith("^n"):  # enumerate_graphs takes no jobs
            with pytest.raises(ValueError, match=match):
                next(enumerate_graphs(n))

    def test_guardrail_before_shard_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("worker pool started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="allow_large"):
            ex_oracle(10, [complete(3)], jobs=2)
