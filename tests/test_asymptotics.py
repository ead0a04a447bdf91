"""Threshold table, certified ceilings, and 1/n extrapolation fits."""

import math
import os
import random
from fractions import Fraction

import pytest

from spexlab import (
    IntegerBoundaryError,
    Partition,
    TuranPacking,
    e_interval,
    experiment,
    fit_first_order,
    fold_radius,
    is_equitable,
    k_bound,
    spectral_radius,
    thresholds,
)
from spexlab import asymptotics, canon, spectral
from spexlab.asymptotics import _sqrt_enclosure

SLOW = os.environ.get("SPEXLAB_RUN_SLOW") != "1"


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
            assert t.c < Fraction(1, r)

    def test_threshold_expression_inside_interval(self):
        for r in (3, 4, 7):
            lo, hi = e_interval(r)
            assert float(lo) <= thresholds(r).e <= float(hi)

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

    def test_rejects_negative_q(self):
        for q in (-1, "-1/3", Fraction(-1, 100)):
            with pytest.raises(ValueError, match="Q must be nonnegative"):
                k_bound(q, 3)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            k_bound(Fraction(1, 9), 2)


class TestC1:
    def test_tends_to_one_over_r(self):
        assert abs(thresholds(1000).c1 * 1000 - 1) <= 0.05

    def test_decreasing(self):
        vals = [thresholds(r).c1 for r in range(3, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_positive(self):
        for r in range(3, 50, 7):
            assert 0 < thresholds(r).c1 < 1


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
        res = experiment("star_vs_path", {"r": 3, "k": 4}, ns=(48, 96, 192))
        assert abs(res.first_order - 0.25) <= 0.01
        assert res.predicted == pytest.approx(0.25)

    def test_edge_add_cancels(self):
        res = experiment("edge_add", {"r": 3, "b": 1, "a": 1})
        assert abs(res.first_order) <= 0.02
        assert res.predicted == 0.0

    def test_constant_grid(self):
        # (k-5+6/k)/(r-1) stays positive over the whole admissible window
        for r in (3, 4):
            for k in range(4, 10):
                want = (k - 5 + 6 / k) / (r - 1)
                res = experiment("star_vs_path", {"r": r, "k": k},
                                 ns=tuple(r * k * m for m in (2, 4, 8)))
                assert res.predicted == pytest.approx(want)
                assert res.first_order > 0
                assert abs(res.first_order - want) <= 0.02 * want, (r, k)

    def test_dispatcher_validation(self):
        with pytest.raises(ValueError):
            experiment("unknown-experiment", {})
        with pytest.raises(ValueError):
            experiment("star-vs-path", {"r": 3})

    def test_param_not_taken_names_experiment_key_and_keys_taken(self):
        with pytest.raises(ValueError, match="experiment edge_add takes no "
                                             "parameter q; it takes r, b, a"):
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
            experiment("star_vs_path", {"r": 3, "k": 4}, ns=(49, 98, 196))

    @pytest.mark.parametrize("ns, message", [
        ((0, 30, 60), "sample sizes must be positive"),
        ((60, 100, 200), "sample sizes must grow by at least 1.8x, "
                         "got 60 then 100"),
    ])
    def test_size_schedule_refused_before_any_pair(self, monkeypatch, ns,
                                                   message):
        built = []
        monkeypatch.setitem(asymptotics._BUILDERS, "star_vs_path",
                            lambda params, n: built.append(n))
        with pytest.raises(ValueError, match=message):
            experiment("star_vs_path", {"r": 3, "k": 5}, ns=ns)
        assert built == []


# Default sizes and predicted constants, pinned exactly: ``verify --all``
# runs one parameter set per experiment, so these hold the rest. At k = 40
# transfer_shift's floor of two units decides the first size.
PINNED_DEFAULTS = [
    ('star_vs_path', {'r': 3, 'k': 4}, (120, 240, 480, 960), 0.25),
    ('star_vs_path', {'r': 3, 'k': 5}, (120, 240, 480, 960), 0.6),
    ('star_vs_path', {'r': 3, 'k': 6}, (126, 252, 504, 1008), 1.0),
    ('star_vs_path', {'r': 3, 'k': 7}, (126, 252, 504, 1008), 1.4285714285714286),
    ('star_vs_path', {'r': 3, 'k': 8}, (120, 240, 480, 960), 1.875),
    ('star_vs_path', {'r': 3, 'k': 9}, (135, 270, 540, 1080), 2.3333333333333335),
    ('star_vs_path', {'r': 3, 'k': 20}, (120, 240, 480, 960), 7.65),
    ('star_vs_path', {'r': 3, 'k': 40}, (120, 240, 480, 960), 17.575),
    ('star_vs_path', {'r': 4, 'k': 4}, (128, 256, 512, 1024), 0.16666666666666666),
    ('star_vs_path', {'r': 4, 'k': 5}, (120, 240, 480, 960), 0.39999999999999997),
    ('star_vs_path', {'r': 4, 'k': 6}, (120, 240, 480, 960), 0.6666666666666666),
    ('star_vs_path', {'r': 4, 'k': 7}, (140, 280, 560, 1120), 0.9523809523809524),
    ('star_vs_path', {'r': 4, 'k': 8}, (128, 256, 512, 1024), 1.25),
    ('star_vs_path', {'r': 4, 'k': 9}, (144, 288, 576, 1152), 1.5555555555555556),
    ('star_vs_path', {'r': 4, 'k': 20}, (160, 320, 640, 1280), 5.1000000000000005),
    ('star_vs_path', {'r': 4, 'k': 40}, (160, 320, 640, 1280), 11.716666666666667),
    ('star_vs_path', {'r': 5, 'k': 4}, (120, 240, 480, 960), 0.125),
    ('star_vs_path', {'r': 5, 'k': 5}, (125, 250, 500, 1000), 0.3),
    ('star_vs_path', {'r': 5, 'k': 6}, (120, 240, 480, 960), 0.5),
    ('star_vs_path', {'r': 5, 'k': 7}, (140, 280, 560, 1120), 0.7142857142857143),
    ('star_vs_path', {'r': 5, 'k': 8}, (120, 240, 480, 960), 0.9375),
    ('star_vs_path', {'r': 5, 'k': 9}, (135, 270, 540, 1080), 1.1666666666666667),
    ('star_vs_path', {'r': 5, 'k': 20}, (200, 400, 800, 1600), 3.825),
    ('star_vs_path', {'r': 5, 'k': 40}, (200, 400, 800, 1600), 8.7875),
    ('transfer_shift', {'r': 3, 'k': 4}, (109, 217, 433, 865), -1.0),
    ('transfer_shift', {'r': 3, 'k': 5}, (121, 241, 481, 961), -1.0666666666666667),
    ('transfer_shift', {'r': 3, 'k': 6}, (109, 217, 433, 865), -1.1111111111111112),
    ('transfer_shift', {'r': 3, 'k': 7}, (127, 253, 505, 1009), -1.1428571428571428),
    ('transfer_shift', {'r': 3, 'k': 8}, (121, 241, 481, 961), -1.1666666666666667),
    ('transfer_shift', {'r': 3, 'k': 9}, (109, 217, 433, 865), -1.1851851851851851),
    ('transfer_shift', {'r': 3, 'k': 20}, (121, 241, 481, 961), -1.2666666666666666),
    ('transfer_shift', {'r': 3, 'k': 40}, (241, 481, 961, 1921), -1.3),
    ('transfer_shift', {'r': 4, 'k': 4}, (145, 289, 577, 1153), -0.75),
    ('transfer_shift', {'r': 4, 'k': 5}, (161, 321, 641, 1281), -0.8),
    ('transfer_shift', {'r': 4, 'k': 6}, (145, 289, 577, 1153), -0.8333333333333334),
    ('transfer_shift', {'r': 4, 'k': 7}, (169, 337, 673, 1345), -0.8571428571428571),
    ('transfer_shift', {'r': 4, 'k': 8}, (161, 321, 641, 1281), -0.875),
    ('transfer_shift', {'r': 4, 'k': 9}, (145, 289, 577, 1153), -0.8888888888888888),
    ('transfer_shift', {'r': 4, 'k': 20}, (161, 321, 641, 1281), -0.95),
    ('transfer_shift', {'r': 4, 'k': 40}, (321, 641, 1281, 2561), -0.975),
    ('transfer_shift', {'r': 5, 'k': 4}, (181, 361, 721, 1441), -0.6),
    ('transfer_shift', {'r': 5, 'k': 5}, (201, 401, 801, 1601), -0.64),
    ('transfer_shift', {'r': 5, 'k': 6}, (181, 361, 721, 1441), -0.6666666666666666),
    ('transfer_shift', {'r': 5, 'k': 7}, (211, 421, 841, 1681), -0.6857142857142857),
    ('transfer_shift', {'r': 5, 'k': 8}, (201, 401, 801, 1601), -0.7),
    ('transfer_shift', {'r': 5, 'k': 9}, (181, 361, 721, 1441), -0.7111111111111111),
    ('transfer_shift', {'r': 5, 'k': 20}, (201, 401, 801, 1601), -0.76),
    ('transfer_shift', {'r': 5, 'k': 40}, (401, 801, 1601, 3201), -0.78),
    ('cx1_gap', {'r': 3, 'k': 4}, (61, 121, 241, 481), 0.75),
    ('cx1_gap', {'r': 3, 'k': 5}, (61, 121, 241, 481), 0.33333333333333326),
    ('cx1_gap', {'r': 3, 'k': 6}, (55, 109, 217, 433), -0.11111111111111116),
    ('cx1_gap', {'r': 3, 'k': 7}, (64, 127, 253, 505), -0.5714285714285714),
    ('cx1_gap', {'r': 3, 'k': 8}, (73, 145, 289, 577), -1.0416666666666667),
    ('cx1_gap', {'r': 3, 'k': 9}, (55, 109, 217, 433), -1.5185185185185186),
    ('cx1_gap', {'r': 3, 'k': 20}, (61, 121, 241, 481), -6.916666666666667),
    ('cx1_gap', {'r': 3, 'k': 40}, (121, 241, 481, 961), -16.875),
    ('cx1_gap', {'r': 4, 'k': 4}, (81, 161, 321, 641), 1.0833333333333333),
    ('cx1_gap', {'r': 4, 'k': 5}, (81, 161, 321, 641), 0.8),
    ('cx1_gap', {'r': 4, 'k': 6}, (73, 145, 289, 577), 0.5000000000000001),
    ('cx1_gap', {'r': 4, 'k': 7}, (85, 169, 337, 673), 0.19047619047619035),
    ('cx1_gap', {'r': 4, 'k': 8}, (97, 193, 385, 769), -0.125),
    ('cx1_gap', {'r': 4, 'k': 9}, (73, 145, 289, 577), -0.4444444444444444),
    ('cx1_gap', {'r': 4, 'k': 20}, (81, 161, 321, 641), -4.050000000000001),
    ('cx1_gap', {'r': 4, 'k': 40}, (161, 321, 641, 1281), -10.691666666666666),
    ('cx1_gap', {'r': 5, 'k': 4}, (101, 201, 401, 801), 1.275),
    ('cx1_gap', {'r': 5, 'k': 5}, (101, 201, 401, 801), 1.06),
    ('cx1_gap', {'r': 5, 'k': 6}, (91, 181, 361, 721), 0.8333333333333334),
    ('cx1_gap', {'r': 5, 'k': 7}, (106, 211, 421, 841), 0.5999999999999999),
    ('cx1_gap', {'r': 5, 'k': 8}, (121, 241, 481, 961), 0.36250000000000004),
    ('cx1_gap', {'r': 5, 'k': 9}, (91, 181, 361, 721), 0.12222222222222212),
    ('cx1_gap', {'r': 5, 'k': 20}, (101, 201, 401, 801), -2.585),
    ('cx1_gap', {'r': 5, 'k': 40}, (201, 401, 801, 1601), -7.5675),
    ('edge_add', {'r': 3, 'b': 2, 'a': 0}, (120, 240, 480, 960), 4.0),
    ('edge_add', {'r': 3, 'b': 1, 'a': 1}, (120, 240, 480, 960), 0.0),
    ('edge_add', {'r': 4, 'b': 2, 'a': 0}, (120, 240, 480, 960), 4.0),
    ('edge_add', {'r': 4, 'b': 1, 'a': 1}, (120, 240, 480, 960), 0.0),
    ('edge_add', {'r': 5, 'b': 2, 'a': 0}, (120, 240, 480, 960), 4.0),
    ('edge_add', {'r': 5, 'b': 1, 'a': 1}, (120, 240, 480, 960), 0.0),
]


@pytest.mark.parametrize("name, params, sizes, predicted", PINNED_DEFAULTS)
def test_default_sizes_and_predicted_constants(name, params, sizes, predicted):
    fit = experiment(name, params)
    assert tuple(n for n, _ in fit.samples) == sizes
    assert fit.predicted == predicted


# -- each record's fold against its graph ------------------------------------

def _fold_cells(fold) -> list[set]:
    """The fold rule's ordered cells, expanded to vertex sets."""
    return [{v for p in cell for v in fold.cells[p]}
            for cell in spectral._refine_fold(fold.counts)]


# the verify claims' and the spectra benchmark's parameters at their sizes
# (None: the experiment's defaults), and removed edges at r = 2 and 3
FOLD_CASES = [
    ("star_vs_path", {"r": 3, "k": 4}, None),
    ("star_vs_path", {"r": 3, "k": 5}, (120, 240, 480, 960)),
    ("edge_add", {"r": 3, "b": 2, "a": 0}, (120, 240, 480, 960)),
    ("edge_add", {"r": 3, "b": 1, "a": 1}, None),
    ("edge_add", {"r": 2, "b": 2, "a": 3}, None),
    ("transfer_shift", {"r": 3, "k": 6}, (109, 217, 433, 865)),
    ("cx1_gap", {"r": 3, "k": 6}, (55, 109, 217, 433)),
]


@pytest.mark.parametrize("name, params, ns", FOLD_CASES)
def test_fold_is_the_graph_path_bit_for_bit(name, params, ns):
    pairs, _ = asymptotics.experiment_pairs(name, params, ns)
    for n, *records in pairs:
        for rec in records:
            fold, g = rec.fold(), rec.graph()
            assert fold_radius(fold) == spectral_radius(g).value, (name, n)
            assert _fold_cells(fold) == [
                set(c) for c in canon._refine(g.adj, [list(range(g.n))])]
            if n <= 200:
                assert is_equitable(g, Partition(fold.cells)), (name, n)


def _admissible(name: str, params: dict, top: int) -> list:
    sizes = []
    for n in range(1, top + 1):
        try:
            asymptotics._BUILDERS[name](params, n)
        except ValueError:
            continue
        sizes.append(n)
    return sizes


SWEEP_TOP = 1000 if SLOW else 2000
SWEEP = [(name, {"r": r, "k": k}, SWEEP_TOP)
         for name in ("star_vs_path", "transfer_shift", "cx1_gap")
         for r in (2, 3, 4) for k in (4, 5, 6)]
# edge_add's fold depends on n only through the part sizes, and every n is
# admissible; n <= 300 meets every residue mod r many times over
SWEEP += [("edge_add", {"r": r, "b": 2, "a": 1}, 300 if SLOW else 2000)
          for r in (2, 3, 4)]


@pytest.mark.parametrize("name, params, top", SWEEP)
def test_fold_agrees_at_every_admissible_size(name, params, top):
    wrong = []
    for n in _admissible(name, params, top):
        for rec in asymptotics._BUILDERS[name](params, n):
            fold, g = rec.fold(), rec.graph()
            assert len(g.components()) == 1
            # spectral_radius's solve of a connected graph's one component
            lam, cells, _, _ = spectral._quotient_eigenpair(g.adj, (1 << g.n) - 1)
            if fold_radius(fold) != lam or _fold_cells(fold) != [set(c) for c in cells]:
                wrong.append(n)
            elif n <= 200 and not is_equitable(g, Partition(fold.cells)):
                wrong.append(n)
    assert wrong == []


def _refuse(*args):
    raise AssertionError("built or refined an n-vertex graph")


@pytest.mark.parametrize("name", list(asymptotics.EXPERIMENTS))
def test_experiment_refines_no_graph(monkeypatch, name):
    monkeypatch.setattr(canon, "_refine", _refuse)
    monkeypatch.setattr(spectral, "_refine", _refuse)
    monkeypatch.setattr(TuranPacking, "graph", _refuse)
    params = {"r": 3, "k": 5, "b": 2, "a": 1}
    fit = experiment(name, {p: params[p] for p in asymptotics.EXPERIMENTS[name].takes})
    assert len(fit.samples) == 4
