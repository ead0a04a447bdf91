"""Top-level acceptance runs: one printed pass/fail line per criterion.

Criterion 7 asserts the full claim set for the first counterexample family,
including freeness of the star-packing side at m = k-1. That assertion is
expected to fail (see test_constructions.py::test_star_side_freeness_boundary
for the boundary regression); the line stays red on purpose.
"""

import random
import time

from spexlab import (
    canonical_form,
    contains_subgraph,
    kelmans,
    relabel,
    run_claim,
    spectral_radius,
)
from spexlab.verify import first_failure
from conftest import random_graph, random_tree
from oracles import brute_contains


def claim_detail(rep) -> str:
    fails = [a["name"] for a in rep["assertions"] if not a["ok"]]
    if fails:
        return f"first failed assertion: {fails[0]}"
    return f"{len(rep['assertions'])} assertions, {rep['elapsed']:.1f}s"


def test_criterion_1_mantel_oracle(acceptance):
    start = time.perf_counter()
    rep = run_claim("mantel")
    elapsed = time.perf_counter() - start
    ok = rep["ok"] and elapsed < 120
    acceptance("1 mantel-turan edge oracle", ok, claim_detail(rep))
    assert rep["ok"], first_failure([rep])
    assert elapsed < 120


def test_criterion_2_spectral_turan(acceptance):
    rep = run_claim("spectral-turan")
    acceptance("2 spectral turan instances", rep["ok"], claim_detail(rep))
    assert rep["ok"], first_failure([rep])


def test_criterion_3_f1_suite(acceptance):
    start = time.perf_counter()
    rep = run_claim("f1")
    elapsed = time.perf_counter() - start
    ok = rep["ok"] and elapsed < 30
    acceptance("3 f1 property suite", ok, claim_detail(rep))
    assert rep["ok"], first_failure([rep])
    assert elapsed < 30


def test_criterion_4_second_counterexample(acceptance):
    start = time.perf_counter()
    reps = [run_claim("cx2", {"p": p, "m": 3}) for p in (7, 13, 19, 25)]
    elapsed = time.perf_counter() - start
    ok = all(rep["ok"] for rep in reps) and elapsed < 60
    detail = f"p in 7,13,19,25; {elapsed:.1f}s"
    bad = first_failure(reps)
    acceptance("4 quotient counterexample package", ok,
               bad or detail)
    assert bad is None, bad
    assert elapsed < 60


def test_criterion_5_tree_comparison(acceptance):
    start = time.perf_counter()
    rep = run_claim("tree-lemma")
    elapsed = time.perf_counter() - start
    ok = rep["ok"] and elapsed < 120
    acceptance("5 tree comparison constant", ok, claim_detail(rep))
    assert rep["ok"], first_failure([rep])
    assert elapsed < 120


def test_criterion_6_bounded_modification(acceptance):
    rep = run_claim("edge-add")
    acceptance("6 bounded modification constant", rep["ok"], claim_detail(rep))
    assert rep["ok"], first_failure([rep])


def test_criterion_7_first_counterexample(acceptance):
    rep = run_claim("cx1")
    acceptance("7 path-packing gap", rep["ok"], claim_detail(rep))
    # the star-packing side absorbs a family member at m = k-1, so the
    # freeness assertion is expected red; everything else must hold
    names = {a["name"]: a["ok"] for a in rep["assertions"]}
    for name, ok in names.items():
        if "G avoids" not in name:
            assert ok, name
    assert rep["ok"], first_failure([rep])


def test_criterion_8_threshold_table(acceptance):
    rep = run_claim("table")
    acceptance("8 threshold table", rep["ok"], claim_detail(rep))
    assert rep["ok"], first_failure([rep])


def test_criterion_9a_canonical_invariance(acceptance):
    rng = random.Random(90210)
    ok = True
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 11), rng.random())
        want = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            if canonical_form(relabel(g, perm)) != want:
                ok = False
    acceptance("9a canonical form invariance", ok, "50 graphs x 100 relabelings")
    assert ok


def test_criterion_9b_matcher_vs_brute(acceptance):
    rng = random.Random(555444)
    checked = 0
    ok = True
    for _ in range(350):
        host = random_graph(rng, rng.randrange(0, 8), rng.random())
        pattern = random_graph(rng, rng.randrange(0, 6), rng.random())
        if contains_subgraph(host, pattern) != brute_contains(host, pattern):
            ok = False
        checked += 1
    acceptance("9b matcher equals brute injection", ok, f"{checked} pairs")
    assert ok


def test_criterion_9c_residuals(acceptance):
    rng = random.Random(31337)
    worst = 0.0
    for _ in range(120):
        g = random_graph(rng, rng.randrange(1, 12), rng.random())
        res = spectral_radius(g)
        worst = max(worst, res.residual)
    acceptance("9c eigen-residual bound", worst <= 1e-10,
               f"worst residual {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_9d_kelmans_monotone(acceptance):
    rng = random.Random(777)
    ok = True
    for _ in range(200):
        t = random_tree(rng, rng.randrange(3, 11))
        u, v = rng.sample(range(t.n), 2)
        before = spectral_radius(t).value
        after = spectral_radius(kelmans(t, u, v)).value
        if after < before - 1e-9:
            ok = False
    acceptance("9d kelmans never lowers lambda", ok, "200 random trees")
    assert ok
