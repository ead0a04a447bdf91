"""Closed-form spectral thresholds and 1/n eigenvalue-shift experiments.

The threshold half evaluates E(r), certifies its ceiling k with rational
interval arithmetic (no float comparison ever decides a ceiling), and
derives the densities c(r) = (k-1)/(kr) and c1(r).  The experiment half
builds matched graph pairs over a doubling schedule of sizes, measures the
spectral-radius gap, and extrapolates n*dlam to its limit, which should
land on the predicted first-order constant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .constructions import cx1_pair, star_path_pair
from .graphs import embed_in_part, star, transfer_vertex, turan, u_packing
from .spectral import spectral_radius

__all__ = [
    "IntegerBoundaryError",
    "Thresholds",
    "FitResult",
    "e_interval",
    "threshold_expression",
    "thresholds",
    "c1",
    "c_of_r",
    "k_bound",
    "fit_first_order",
    "experiment",
    "star_vs_path",
    "edge_add",
    "transfer_shift",
    "cx1_gap",
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


def threshold_expression(r: int) -> float:
    """E(r) as a float, certified to have a well-defined ceiling."""
    _, (lo, hi) = _certified_ceiling(r)
    return float((lo + hi) / 2)


class Thresholds(NamedTuple):
    r: int
    e: float
    k: int
    c: Fraction
    c1: float

    def as_dict(self) -> dict:
        return {"r": self.r, "e": self.e, "k": self.k,
                "c": f"{self.c.numerator}/{self.c.denominator}",
                "c1": self.c1}


def thresholds(r: int) -> Thresholds:
    """Bundle E(r), k = ceil(E(r)), c(r) = (k-1)/(kr), and c1(r) for one r."""
    k, (lo, hi) = _certified_ceiling(r)
    # (1/r)(1 - 1/E) is increasing in E, so the window endpoints map across.
    c1_lo = Fraction(1, r) * (1 - 1 / lo)
    c1_hi = Fraction(1, r) * (1 - 1 / hi)
    return Thresholds(r, float((lo + hi) / 2), k,
                      Fraction(k - 1, k * r), float((c1_lo + c1_hi) / 2))


def c1(r: int) -> float:
    """Density threshold (1/r)(1 - 1/E(r)); tends to 1/r for large r."""
    return thresholds(r).c1


def c_of_r(r: int) -> Fraction:
    """Exact density (k-1)/(kr) with k the certified ceiling of E(r)."""
    return thresholds(r).c


def k_bound(q, r: int) -> int:
    """Largest packed-tree order compatible with density Q: floor(1/(1-Qr)).

    Q is taken as an exact rational; pass a Fraction or a "p/q" string
    rather than a float when the value sits near a breakpoint.
    """
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    q = Fraction(q)
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
    if len(pts) < 3:
        raise ValueError(f"need at least 3 samples, got {len(pts)}")
    if pts[0][0] < 1:
        raise ValueError("sample sizes must be positive")
    for (n0, _), (n1, _) in zip(pts, pts[1:]):
        if n1 < 1.8 * n0:
            raise ValueError(
                f"sample sizes must grow by at least 1.8x, got {n0} then {n1}")
    xs = [1.0 / n for n, _ in pts]
    cur = [n * d for n, d in pts]
    corner = [cur[0]]
    for j in range(1, len(pts)):
        cur = [(cur[i] * xs[i + j] - cur[i + 1] * xs[i]) / (xs[i + j] - xs[i])
               for i in range(len(pts) - j)]
        corner.append(cur[0])
    return FitResult(tuple(pts), corner[-1], abs(corner[-1] - corner[-2]),
                     predicted)


def _pair_star_vs_path(params: dict, n: int):
    return star_path_pair(n, params["r"], params["k"])


def _pair_edge_add(params: dict, n: int):
    r, b, a = params["r"], params["b"], params["a"]
    if r < 2:
        raise ValueError(f"edge_add needs r at least 2, got {r}")
    if b < 0 or a < 0 or b + a < 1:
        raise ValueError(f"need nonnegative b, a with b + a >= 1, "
                         f"got b = {b}, a = {a}")
    t = turan(n, r)
    cls = t.partition.classes
    # Matching goes inside part 0; deletions hit the tails of the last two
    # parts so they never touch a matched vertex even when r = 2.
    slack = 2 * b if len(cls) == 2 else 0
    if 2 * b > len(cls[0]) or a + slack > len(cls[-2]) or a > len(cls[-1]):
        raise ValueError(f"n = {n} too small for b = {b} added and "
                         f"a = {a} deleted edges over {r} parts")
    g = t
    for i in range(b):
        g = g.with_edge(cls[0][2 * i], cls[0][2 * i + 1])
    for i in range(a):
        g = g.without_edge(cls[-2][-1 - i], cls[-1][-1 - i])
    return g, t


def _pair_transfer_shift(params: dict, n: int):
    r, k = params["r"], params["k"]
    if r < 2 or k < 2:
        raise ValueError(f"transfer_shift needs r, k at least 2, "
                         f"got r = {r}, k = {k}")
    w, rem = divmod(n, r)
    if rem != 1 or w % k:
        raise ValueError(f"need n = r*w + 1 with k dividing w, "
                         f"got n = {n}, r = {r}, k = {k}")
    t = turan(n, r)
    # Stars fill part 1 (a smallest part, size w); part 0 is one larger and
    # stays clean, so its first vertex is ordinary and eligible to move.
    g = embed_in_part(t, 1, u_packing(star(k), w))
    moved = transfer_vertex(g, g.partition, 0, 1, t.partition.classes[0][0])
    return moved, g


def _pair_cx1_gap(params: dict, n: int):
    g, h = cx1_pair(params["r"], params["k"], n)
    return h, g


_BUILDERS = {
    "star_vs_path": _pair_star_vs_path,
    "edge_add": _pair_edge_add,
    "transfer_shift": _pair_transfer_shift,
    "cx1_gap": _pair_cx1_gap,
}

_REQUIRED = {
    "star_vs_path": ("r", "k"),
    "edge_add": ("r", "b", "a"),
    "transfer_shift": ("r", "k"),
    "cx1_gap": ("r", "k"),
}


def _predicted(name: str, params: dict) -> float:
    r = params["r"]
    if name == "star_vs_path":
        k = params["k"]
        return (k - 5 + 6 / k) / (r - 1)
    if name == "edge_add":
        return 2.0 * (params["b"] - params["a"])
    if name == "transfer_shift":
        k = params["k"]
        return -4 * (k - 1) / (k * r)
    k = params["k"]
    return 2 - (k - 5 + 6 / k) / (r - 1) - 4 * (k - 1) / (k * r)


def _default_ns(name: str, params: dict) -> list:
    """Four doubling sizes from ~120 up, honoring each builder's congruences."""
    r = params["r"]
    if name == "star_vs_path":
        unit = r * params["k"]
        base = unit * max(1, -(-120 // unit))
        return [base << i for i in range(4)]
    if name == "edge_add":
        base = r * max(1, -(-120 // r))
        return [base << i for i in range(4)]
    if name == "transfer_shift":
        w = params["k"] * max(2, -(-36 // params["k"]))
        return [r * (w << i) + 1 for i in range(4)]
    w = params["k"] * max(1, -(-18 // params["k"]))
    return [r * (w << i) + 1 for i in range(4)]


def experiment(name: str, params: dict,
               ns: Optional[Sequence[int]] = None) -> FitResult:
    """Run a named first-order experiment and extrapolate its constant.

    Each experiment builds a pair of graphs per size n whose spectral radii
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
    """
    key = name.replace("-", "_")
    if key not in _BUILDERS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(_BUILDERS)}")
    missing = [p for p in _REQUIRED[key] if p not in params]
    if missing:
        raise ValueError(f"experiment {name!r} needs parameters {missing}")
    bad = [f"{p}={v!r}" for p, v in params.items()
           if p not in _REQUIRED[key] or not isinstance(v, int)]
    if bad:
        raise ValueError(f"experiment {key} cannot take {', '.join(bad)}; "
                         f"it takes integer {', '.join(_REQUIRED[key])}")
    run_params = dict(params)
    sizes = sorted(int(n) for n in ns) if ns is not None \
        else _default_ns(key, run_params)
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 sizes to extrapolate, "
                         f"got {len(sizes)}")
    measured = []
    for n in sizes:
        a, b = _BUILDERS[key](run_params, n)
        measured.append((n, spectral_radius(a).value - spectral_radius(b).value))
    return fit_first_order(measured, predicted=_predicted(key, run_params))


def star_vs_path(r: int, k: int, ns=None) -> FitResult:
    """Tree-shape comparison; predicted C = (k - 5 + 6/k)/(r - 1)."""
    return experiment("star_vs_path", {"r": r, "k": k}, ns=ns)


def edge_add(r: int, b: int, a: int, ns=None) -> FitResult:
    """Bounded-edit shift on the Turan graph; predicted C = 2(b - a)."""
    return experiment("edge_add", {"r": r, "b": b, "a": a}, ns=ns)


def transfer_shift(r: int, k: int, ns=None) -> FitResult:
    """Part-rebalancing shift; predicted C = -4(k - 1)/(kr)."""
    return experiment("transfer_shift", {"r": r, "k": k}, ns=ns)


def cx1_gap(r: int, k: int, ns=None) -> FitResult:
    """One extra edge versus packing shape; negative exactly when k > E(r)."""
    return experiment("cx1_gap", {"r": r, "k": k}, ns=ns)
