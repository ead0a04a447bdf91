"""Canonical forms: label invariance and agreement with brute isomorphism."""

import itertools
import random

from spexlab import (
    canonical_form,
    complete_multipartite,
    cycle,
    disjoint_union,
    embed_in_part,
    empty_graph,
    encode_graph6,
    path,
    relabel,
    star,
    turan,
    u_packing,
)
from spexlab.canon import _canonical, _generators, _refine
from conftest import random_graph
from oracles import all_graphs_upto_iso, refine_rescan


def test_cycle_relabelings_agree():
    g = cycle(4)
    rng = random.Random(2)
    forms = set()
    for _ in range(20):
        perm = list(range(4))
        rng.shuffle(perm)
        forms.add(canonical_form(relabel(g, perm)))
    assert len(forms) == 1


def test_form_is_graph6_of_canonical_graph():
    rng = random.Random(5150)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 9))
        perm, rows, _ = _canonical(g)
        cg = relabel(g, perm)
        assert cg.adj == rows
        assert canonical_form(g) == encode_graph6(cg).encode("ascii")


def test_invariant_under_relabeling():
    rng = random.Random(86)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 11))
        want = canonical_form(g)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == want


def test_separates_all_classes_up_to_5():
    # distinct isomorphism classes must get distinct forms, and every
    # labeling inside a class the same one
    rng = random.Random(400)
    forms = set()
    for g in all_graphs_upto_iso(5):
        form = canonical_form(g)
        assert form not in forms
        forms.add(form)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == form
    assert len(forms) == 34


def test_counts_classes_up_to_4():
    for n, expect in ((0, 1), (1, 1), (2, 2), (3, 4), (4, 11)):
        assert len({canonical_form(g) for g in all_graphs_upto_iso(n)}) == expect


def _generators_of(g):
    return _generators(_canonical(g)[2])


def _group(n, gens):
    """Every permutation the generators generate, as tuples."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for p in gens:
            y = tuple(p[v] for v in x)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


def test_generators_are_automorphisms():
    rng = random.Random(1998)
    graphs = [random_graph(rng, rng.randrange(0, 11), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(150)]
    graphs += [u_packing(path(3), 9), u_packing(cycle(3), 12),
               disjoint_union(u_packing(star(4), 8), u_packing(path(2), 6)),
               disjoint_union(cycle(5), u_packing(cycle(5), 10))]
    graphs += [turan(n, r) for n in (6, 9, 10) for r in (2, 3, 4)]
    graphs += [complete_multipartite(s) for s in ((1, 1, 4), (2, 3, 3), (5, 5))]
    graphs += [star(k) for k in (2, 3, 6, 10)] + [empty_graph(n) for n in range(6)]
    for g in graphs:
        # relabel so that twin cells and duplicate components are not label runs
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, relabel(g, perm)):
            for p in _generators_of(h):
                assert sorted(p) == list(range(h.n))
                assert relabel(h, p).adj == h.adj, (encode_graph6(h), p)


def test_generators_generate_the_whole_group_up_to_6():
    graphs = [g for n in range(1, 7) for g in all_graphs_upto_iso(n)]
    assert len(graphs) == 208
    for g in graphs:
        brute = {p for p in itertools.permutations(range(g.n))
                 if relabel(g, p).adj == g.adj}
        assert _group(g.n, _generators_of(g)) == brute, encode_graph6(g)


def test_refine_skips_stable_splitters_without_changing_cells():
    # against the rescan-after-every-split reference, cell order included:
    # from the unit partition, from individualized children of the result,
    # and from random initial colourings
    rng = random.Random(29)
    graphs = [random_graph(rng, rng.randrange(1, 16), rng.random())
              for _ in range(150)]
    graphs += [turan(13, 3), embed_in_part(turan(24, 3), 0, u_packing(star(4), 8)),
               disjoint_union(cycle(6), path(5))]
    for g in graphs:
        unit = [list(range(g.n))]
        cells = _refine(g.adj, unit)
        assert cells == refine_rescan(g.adj, unit)
        target = next((c for c in cells if len(c) > 1), None)
        for v in target or ():
            child = []
            for c in cells:
                child += [[v], [w for w in c if w != v]] if c is target else [c]
            assert _refine(g.adj, child) == refine_rescan(g.adj, child)
        colour = [rng.randrange(3) for _ in range(g.n)]
        initial = [[v for v in range(g.n) if colour[v] == k] for k in range(3)]
        initial = [c for c in initial if c]
        assert _refine(g.adj, initial) == refine_rescan(g.adj, initial)
