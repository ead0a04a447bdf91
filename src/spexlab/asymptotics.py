"""Closed-form spectral thresholds and 1/n eigenvalue-shift experiments.

The threshold half evaluates E(r), certifies its ceiling k with rational
interval arithmetic (no float comparison ever decides a ceiling), and
derives the densities c(r) = (k-1)/(kr) and c1(r).  The experiment half
describes matched graph pairs over a doubling schedule of sizes as
``TuranPacking`` records, measures the spectral-radius gap on each record's
fold (no n-vertex graph is built), and extrapolates n*dlam to its limit,
which should land on the predicted first-order constant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .constructions import TuranPacking, check_params, cx1_records, \
    star_path_records
from .graphs import _turan_sizes, path, star
from .spectral import fold_radius
# Unused here; kept as module attributes perfbench/spans.py patches.
from .constructions import cx1_pair, star_path_pair  # noqa: F401
from .spectral import spectral_radius  # noqa: F401

__all__ = [
    "IntegerBoundaryError",
    "Thresholds",
    "FitResult",
    "e_interval",
    "thresholds",
    "k_bound",
    "fit_first_order",
    "EXPERIMENTS",
    "experiment",
    "experiment_pairs",
    "fit_pairs",
]

_REFINE_BITS = (64, 128, 256, 512, 1024)


class IntegerBoundaryError(ArithmeticError):
    """The E(r) enclosure straddles an integer at the tightest refinement."""


def _sqrt_enclosure(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclose sqrt(x) in [lo, hi] with width about 2 ** (1 - bits)."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    floor_scaled = (x.numerator * scale * scale) // x.denominator
    lo = math.isqrt(floor_scaled)
    # floor_scaled + 1 exceeds x*scale^2, so its isqrt plus one is a strict
    # upper bound for sqrt(x)*scale.
    hi = math.isqrt(floor_scaled + 1) + 1
    return Fraction(lo, scale), Fraction(hi, scale)


def e_interval(r: int, bits: int = 128) -> tuple[Fraction, Fraction]:
    """Outward-rounded enclosure of E(r); only the square root is inexact.

    E(r) = ((r-1)/2) (t + sqrt(t^2 - (4/(r-1)) (6/(r-1) - 4/r))) where
    t = 2 + 5/(r-1) - 4/r.  Everything except the root is exact rational
    arithmetic, so the enclosure width is the root enclosure width scaled
    by (r-1)/2.
    """
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    t = Fraction(2) + Fraction(5, r - 1) - Fraction(4, r)
    disc = t * t - Fraction(4, r - 1) * (Fraction(6, r - 1) - Fraction(4, r))
    root_lo, root_hi = _sqrt_enclosure(disc, bits)
    half = Fraction(r - 1, 2)
    return half * (t + root_lo), half * (t + root_hi)


def _certified_ceiling(r: int) -> tuple[int, tuple[Fraction, Fraction]]:
    """Ceiling of E(r), valid because no integer sits inside the enclosure."""
    for bits in _REFINE_BITS:
        lo, hi = e_interval(r, bits)
        if math.ceil(lo) == math.ceil(hi):
            return math.ceil(lo), (lo, hi)
    raise IntegerBoundaryError(
        f"E({r}) enclosure [{float(lo)}, {float(hi)}] still straddles an "
        f"integer at {_REFINE_BITS[-1]} bits; is E({r}) integral?")


class Thresholds(NamedTuple):
    r: int
    e: float
    k: int
    c: Fraction
    c1: float


def thresholds(r: int) -> Thresholds:
    """Bundle E(r), k = ceil(E(r)), c(r) = (k-1)/(kr), and c1(r) for one r."""
    k, (lo, hi) = _certified_ceiling(r)
    # (1/r)(1 - 1/E) is increasing in E, so the window endpoints map across.
    c1_lo = Fraction(1, r) * (1 - 1 / lo)
    c1_hi = Fraction(1, r) * (1 - 1 / hi)
    return Thresholds(r, float((lo + hi) / 2), k,
                      Fraction(k - 1, k * r), float((c1_lo + c1_hi) / 2))


def k_bound(q, r: int) -> int:
    """Largest packed-tree order compatible with density Q: floor(1/(1-Qr)).

    Q is taken as an exact rational; pass a Fraction or a "p/q" string
    rather than a float when the value sits near a breakpoint.
    """
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"Q must be nonnegative, got Q = {q}")
    if q >= Fraction(1, r):
        raise ValueError(f"Q must be below 1/r, got Q = {q} with r = {r}")
    return math.floor(1 / (1 - q * r))


class FitResult(NamedTuple):
    samples: tuple
    first_order: float
    error: float
    predicted: Optional[float] = None

    def as_dict(self) -> dict:
        out = {"samples": [[n, d] for n, d in self.samples],
               "first_order": self.first_order, "error": self.error}
        if self.predicted is not None:
            out["predicted"] = self.predicted
        return out


def fit_first_order(samples: Sequence[tuple], predicted: Optional[float] = None,
                    ) -> FitResult:
    """Extrapolate n*dlam to its limit assuming dlam = C/n + D/n^2 + o(n^-2).

    Neville's scheme evaluates the polynomial through (1/n_i, n_i*dlam_i)
    at zero, which is exact on the two-term model; the error estimate is
    the gap between the last two extrapolants.  Sizes must grow by at
    least 1.8x so the tableau stays well conditioned.
    """
    pts = sorted((int(n), float(d)) for n, d in samples)
    _check_sizes([n for n, _ in pts])
    xs = [1.0 / n for n, _ in pts]
    cur = [n * d for n, d in pts]
    corner = [cur[0]]
    for j in range(1, len(pts)):
        cur = [(cur[i] * xs[i + j] - cur[i + 1] * xs[i]) / (xs[i + j] - xs[i])
               for i in range(len(pts) - j)]
        corner.append(cur[0])
    return FitResult(tuple(pts), corner[-1], abs(corner[-1] - corner[-2]),
                     predicted)


def _check_sizes(sizes: Sequence[int]) -> None:
    """Refuse an increasing size schedule the fit cannot use: fewer than
    three sizes, a size below 1, or a step of less than 1.8x."""
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 sizes to extrapolate, "
                         f"got {len(sizes)}")
    if sizes[0] < 1:
        raise ValueError("sample sizes must be positive")
    for n0, n1 in zip(sizes, sizes[1:]):
        if n1 < 1.8 * n0:
            raise ValueError(
                f"sample sizes must grow by at least 1.8x, got {n0} then {n1}")


def _pair_star_vs_path(params: dict, n: int):
    return star_path_records(n, params["r"], params["k"])


def _pair_edge_add(params: dict, n: int):
    r, b, a = params["r"], params["b"], params["a"]
    if b < 0 or a < 0 or b + a < 1:
        raise ValueError(f"need nonnegative b, a with b + a >= 1, "
                         f"got b = {b}, a = {a}")
    sizes = _turan_sizes(n, r)
    # Matching goes inside part 0; deletions hit the tails of the last two
    # parts so they never touch a matched vertex even when r = 2.
    slack = 2 * b if r == 2 else 0
    if 2 * b > sizes[0] or a + slack > sizes[-2] or a > sizes[-1]:
        raise ValueError(f"n = {n} too small for b = {b} added and "
                         f"a = {a} deleted edges over {r} parts")
    removed = tuple((n - sizes[-1] - 1 - i, n - 1 - i) for i in range(a))
    return (TuranPacking(sizes, ((0, path(2), b),), removed),
            TuranPacking(sizes, ()))


def _pair_transfer_shift(params: dict, n: int):
    r, k = params["r"], params["k"]
    w, rem = divmod(n, r)
    if rem != 1 or w % k:
        raise ValueError(f"need n = r*w + 1 with k dividing w, "
                         f"got n = {n}, r = {r}, k = {k}")
    # Stars fill part 1 (a smallest part, size w); part 0 is one larger and
    # stays clean, so one of its vertices is ordinary. Moved into part 1, it
    # is that part's one leftover, isolated vertex.
    stars = ((1, star(k), w // k),)
    sizes = _turan_sizes(n, r)
    return (TuranPacking((w, w + 1) + sizes[2:], stars),
            TuranPacking(sizes, stars))


def _pair_cx1_gap(params: dict, n: int):
    g, h = cx1_records(params["r"], params["k"], n)
    return h, g


def _doubling(unit: int, least: int, lowest: int = 1) -> list:
    """Four doublings of the least multiple of ``unit`` that is at least
    ``least`` and at least ``lowest * unit``."""
    base = unit * max(lowest, -(-least // unit))
    return [base << i for i in range(4)]


class _Experiment(NamedTuple):
    takes: tuple
    least: dict           # key -> its smallest value
    build: Callable       # (params, n) -> (record a, record b)
    predicted: Callable   # keyword parameters -> float constant C
    default_ns: Callable  # keyword parameters -> four doubling sizes


EXPERIMENTS = {
    "star_vs_path": _Experiment(
        ("r", "k"), {"r": 2, "k": 4}, _pair_star_vs_path,
        lambda r, k: (k - 5 + 6 / k) / (r - 1),
        lambda r, k: _doubling(r * k, 120)),
    "edge_add": _Experiment(
        ("r", "b", "a"), {"r": 2}, _pair_edge_add,
        lambda r, b, a: 2.0 * (b - a),
        lambda r, b, a: _doubling(r, 120)),
    "transfer_shift": _Experiment(
        ("r", "k"), {"r": 2, "k": 2}, _pair_transfer_shift,
        lambda r, k: -4 * (k - 1) / (k * r),
        lambda r, k: [r * w + 1 for w in _doubling(k, 36, 2)]),
    "cx1_gap": _Experiment(
        ("r", "k"), {"r": 2, "k": 2}, _pair_cx1_gap,
        lambda r, k: 2 - (k - 5 + 6 / k) / (r - 1) - 4 * (k - 1) / (k * r),
        lambda r, k: [r * w + 1 for w in _doubling(k, 18)]),
}

# experiment() calls each builder through this dict, not through its record,
# so that a profiler can wrap the builders by replacing these values.
_BUILDERS = {name: spec.build for name, spec in EXPERIMENTS.items()}


def experiment(name: str, params: dict,
               ns: Optional[Sequence[int]] = None) -> FitResult:
    """Run a named first-order experiment and extrapolate its constant.

    Each experiment describes a pair of graphs per size n whose spectral radii
    differ by C/n + O(n^-2) and reports the extrapolated C next to the
    predicted value:

      star_vs_path(r, k):   stars minus paths packed into one Turan part,
                            C = (k - 5 + 6/k)/(r - 1)
      edge_add(r, b, a):    b-edge matching added inside a part, a cross
                            edges deleted, C = 2(b - a)
      transfer_shift(r, k): ordinary vertex moved from a clean part into
                            the star-packed part, C = -4(k - 1)/(kr)
      cx1_gap(r, k):        path-packed H against star-packed G with
                            e(H) = e(G) + 1,
                            C = 2 - (k - 5 + 6/k)/(r - 1) - 4(k - 1)/(kr)

    Each is one record in ``EXPERIMENTS``, which also gives its default
    sizes: four doublings that honor the builder's congruences.
    """
    return fit_pairs(*experiment_pairs(name, params, ns))


def experiment_pairs(name: str, params: dict,
                     ns: Optional[Sequence[int]] = None) -> tuple[list, float]:
    """The experiment's pairs [(n, a, b), ...] of ``TuranPacking`` records
    in increasing n (default: the experiment's sizes) and its predicted
    constant; no spectral radius."""
    key = name.replace("-", "_")
    if key not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[key]
    check_params("experiment", key, params, spec.takes)
    # before default_ns and predicted, which divide by r - 1, k or r*k
    for p, least in spec.least.items():
        if params[p] < least:
            raise ValueError(f"experiment {key} needs {p} at least {least}, "
                             f"got {p} = {params[p]}")
    run_params = dict(params)
    sizes = sorted(int(n) for n in ns) if ns is not None \
        else spec.default_ns(**run_params)
    _check_sizes(sizes)
    pairs = [(n, *_BUILDERS[key](run_params, n)) for n in sizes]
    return pairs, spec.predicted(**run_params)


def fit_pairs(pairs: Sequence[tuple], predicted: Optional[float] = None) -> FitResult:
    """Extrapolate n*(lambda(a) - lambda(b)) over pairs (n, a, b) of
    ``TuranPacking`` records, each lambda read off the record's fold."""
    return fit_first_order(
        [(n, fold_radius(a.fold()) - fold_radius(b.fold()))
         for n, a, b in pairs], predicted=predicted)

