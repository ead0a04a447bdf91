"""Threshold table, certified ceilings, and 1/n extrapolation fits."""

import math
import random
from fractions import Fraction

import pytest

from spexlab import (
    IntegerBoundaryError,
    c1,
    c_of_r,
    e_interval,
    edge_add,
    experiment,
    fit_first_order,
    k_bound,
    star_vs_path,
    threshold_expression,
    thresholds,
)
from spexlab.asymptotics import _sqrt_enclosure


def e_reference(r: float) -> float:
    """Float rendering of the tree-order threshold, assembled independently."""
    t = 2 + 5 / (r - 1) - 4 / r
    disc = t * t - (4 / (r - 1)) * (6 / (r - 1) - 4 / r)
    return (r - 1) / 2 * (t + math.sqrt(disc))


class TestInterval:
    def test_encloses_float_value(self):
        for r in range(3, 20):
            lo, hi = e_interval(r)
            ref = e_reference(r)
            assert float(lo) - 1e-9 <= ref <= float(hi) + 1e-9

    def test_width_and_nesting(self):
        for r in (3, 5, 9):
            lo64, hi64 = e_interval(r, bits=64)
            lo, hi = e_interval(r, bits=128)
            assert lo64 <= lo < hi <= hi64
            assert hi - lo < Fraction(1, 10**30)

    def test_sqrt_enclosure_bounds(self):
        rng = random.Random(71)
        for _ in range(300):
            x = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4))
            lo, hi = _sqrt_enclosure(x, 64)
            assert lo * lo <= x < hi * hi
            assert lo >= 0

    def test_sqrt_enclosure_exact_squares(self):
        assert _sqrt_enclosure(Fraction(0), 128) == (0, 0)
        for v in (1, 4, 9, 49):
            lo, hi = _sqrt_enclosure(Fraction(v), 128)
            root = math.isqrt(v)
            assert lo == root
            assert root < hi <= root + Fraction(2, 1 << 128)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            e_interval(2)


class TestThresholds:
    def test_reference_row(self):
        t = thresholds(3)
        assert t.k == 6
        assert t.c == Fraction(5, 18)
        assert abs(t.e - 5.754029116043338) <= 1e-12
        assert abs(t.c1 - 0.2754029116043337) <= 1e-12

    def test_k_is_twice_r(self):
        # the ceiling lands just below 2r throughout the tested range
        for r in range(3, 11):
            t = thresholds(r)
            assert t.k == 2 * r
            assert 2 * r - 1 < t.e < 2 * r

    def test_c_closed_form(self):
        for r in range(3, 11):
            t = thresholds(r)
            assert t.c == Fraction(t.k - 1, t.k * r)
            assert c_of_r(r) == t.c
            assert t.c < Fraction(1, r)

    def test_threshold_expression_inside_interval(self):
        for r in (3, 4, 7):
            lo, hi = e_interval(r)
            x = threshold_expression(r)
            assert float(lo) <= x <= float(hi)

    def test_as_dict(self):
        d = thresholds(4).as_dict()
        assert d["r"] == 4
        assert d["k"] == 8
        assert d["c"] == "7/32"

    def test_boundary_error_importable(self):
        assert issubclass(IntegerBoundaryError, ArithmeticError)


class TestKBound:
    def test_exact_breakpoint(self):
        assert k_bound(Fraction(1, 6), 3) == 2
        assert k_bound("1/6", 3) == 2

    def test_generic_values(self):
        assert k_bound(Fraction(1, 4), 3) == 4
        assert k_bound(Fraction(3, 10), 3) == 10

    def test_floor_semantics(self):
        rng = random.Random(140)
        for _ in range(200):
            r = rng.randrange(3, 9)
            q = Fraction(rng.randrange(1, 50), rng.randrange(50, 400))
            if q >= Fraction(1, r):
                continue
            assert k_bound(q, r) == math.floor(1 / (1 - q * r))

    def test_rejects_q_at_least_one_over_r(self):
        with pytest.raises(ValueError):
            k_bound(Fraction(1, 3), 3)
        with pytest.raises(ValueError):
            k_bound(Fraction(1, 2), 3)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            k_bound(Fraction(1, 9), 2)


class TestC1:
    def test_tends_to_one_over_r(self):
        assert abs(c1(1000) * 1000 - 1) <= 0.05

    def test_decreasing(self):
        vals = [c1(r) for r in range(3, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_positive(self):
        for r in range(3, 50, 7):
            assert 0 < c1(r) < 1


class TestFit:
    def test_recovers_linear_model(self):
        samples = [(n, 3.5 / n + 2 / n**2) for n in (100, 200, 400, 800)]
        res = fit_first_order(samples, predicted=3.5)
        assert abs(res.first_order - 3.5) <= 1e-9
        assert res.error <= 1e-9
        assert res.predicted == 3.5

    def test_recovers_three_term_model(self):
        samples = [(n, -0.75 / n + 1.2 / n**2 - 3 / n**3)
                   for n in (60, 120, 240, 480)]
        res = fit_first_order(samples)
        assert abs(res.first_order + 0.75) <= 1e-9

    def test_order_of_input_is_irrelevant(self):
        samples = [(n, 1.25 / n) for n in (400, 100, 200)]
        assert abs(fit_first_order(samples).first_order - 1.25) <= 1e-9

    def test_needs_three_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_first_order([(100, 0.1), (200, 0.05)])

    def test_needs_geometric_growth(self):
        with pytest.raises(ValueError, match="1.8x"):
            fit_first_order([(100, 0.1), (150, 0.07), (300, 0.03)])

    def test_needs_positive_sizes(self):
        with pytest.raises(ValueError):
            fit_first_order([(0, 0.1), (100, 0.05), (200, 0.02)])

    def test_samples_echoed(self):
        samples = [(100, 0.01), (200, 0.005), (400, 0.0025)]
        res = fit_first_order(samples)
        assert [n for n, _ in res.samples] == [100, 200, 400]
        assert "first_order" in res.as_dict()


class TestExperiments:
    def test_star_vs_path_small(self):
        res = star_vs_path(3, 4, ns=(48, 96, 192))
        assert abs(res.first_order - 0.25) <= 0.01
        assert res.predicted == pytest.approx(0.25)

    def test_edge_add_cancels(self):
        res = edge_add(3, 1, 1)
        assert abs(res.first_order) <= 0.02
        assert res.predicted == 0.0

    def test_constant_grid(self):
        # (k-5+6/k)/(r-1) stays positive over the whole admissible window
        for r in (3, 4):
            for k in range(4, 10):
                want = (k - 5 + 6 / k) / (r - 1)
                res = star_vs_path(r, k, ns=tuple(r * k * m for m in (2, 4, 8)))
                assert res.predicted == pytest.approx(want)
                assert res.first_order > 0
                assert abs(res.first_order - want) <= 0.02 * want, (r, k)

    def test_dispatcher_matches_wrapper(self):
        ns = (48, 96, 192)
        a = experiment("star-vs-path", {"r": 3, "k": 4}, ns=ns)
        b = experiment("star_vs_path", {"r": 3, "k": 4}, ns=ns)
        c = star_vs_path(3, 4, ns=ns)
        assert a.first_order == b.first_order == c.first_order

    def test_dispatcher_validation(self):
        with pytest.raises(ValueError):
            experiment("unknown-experiment", {})
        with pytest.raises(ValueError):
            experiment("star-vs-path", {"r": 3})

    def test_param_not_taken_names_experiment_key_and_keys_taken(self):
        with pytest.raises(ValueError, match="experiment edge_add cannot take "
                                             "q=9; it takes integer r, b, a"):
            experiment("edge-add", {"r": 3, "b": 2, "a": 0, "q": 9},
                       ns=(60, 120, 240))

    def test_non_integer_param_names_the_value(self):
        with pytest.raises(ValueError, match=r"experiment edge_add cannot take "
                                             r"r=3\.5; it takes integer r, b, a"):
            experiment("edge-add", {"r": 3.5, "b": 2, "a": 0}, ns=(60, 120, 240))
        with pytest.raises(ValueError, match="k='4'"):
            experiment("star-vs-path", {"r": 3, "k": "4"})

    def test_builders_check_congruences(self):
        with pytest.raises(ValueError):
            star_vs_path(3, 4, ns=(49, 98, 196))

    def test_jobs_deterministic(self):
        ns = (48, 96, 192)
        a = star_vs_path(3, 4, ns=ns, jobs=1)
        b = star_vs_path(3, 4, ns=ns, jobs=2)
        assert a.first_order == b.first_order
