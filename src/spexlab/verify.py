"""Replayable desk-scale claim suite shared by the command line and tests.

Each claim runs end to end and returns a plain report dict:

    {"claim": id, "params": {...}, "ok": bool, "elapsed": seconds,
     "assertions": [{"name": ..., "ok": ..., "detail": ...}, ...]}

A claim's inputs are built first, and a ValueError there is bad input.
After that claims never raise past their boundary; an unexpected exception
becomes a failed assertion so a batch run always yields a full report. The
first failing assertion's name is what the command line surfaces on exit 1.
"""

from __future__ import annotations

import math
import time
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from . import asymptotics
from .canon import canonical_form
from .constructions import check_params, cx1_family, cx1_pair, \
    cx1_records, cx2_package, f1
from .graphs import Graph, complete, embed_in_part, \
    induced_subgraph, path, turan, u_packing
from .oracle import RestrictedSpace, ex_oracle, restricted_ex, spex_oracle
from .patterns import ForbiddenFamily, chromatic_number, contains_subgraph, \
    is_free
from .spectral import is_equitable, perron_less_than, perron_root_interval, \
    quotient_matrix, spectral_radius

__all__ = ["CLAIM_IDS", "CLAIM_SPECS", "ClaimSpec", "run_claim", "run_all",
           "first_failure"]

class ClaimSpec(NamedTuple):
    """One claim: its id, default params, runner, and the builder of the
    inputs it checks (none for claims without parameters)."""
    id: str
    params: dict
    run: Callable
    build: Callable = lambda params: None


class _Checker:
    __slots__ = ("assertions",)

    def __init__(self):
        self.assertions = []

    def check(self, name: str, ok, detail="") -> bool:
        self.assertions.append(
            {"name": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(a["ok"] for a in self.assertions)


def _canon(g: Graph) -> str:
    return canonical_form(g).decode("ascii")


# ---------------------------------------------------------------- f1 ----

def _claim_f1(c: _Checker, params: dict, inputs, jobs: int) -> None:
    base = f1()
    c.check("chi(F1) = 4", chromatic_number(base) == 4,
            detail=f"got {chromatic_number(base)}")
    peeled = induced_subgraph(base, range(1, base.n))
    c.check("chi(F1 - apex) = 3", chromatic_number(peeled) == 3,
            detail=f"got {chromatic_number(peeled)}")

    for n in (12, 15):
        t = turan(n, 3)
        cls = t.partition.classes
        host = t.with_edge(cls[0][0], cls[0][1]).with_edge(cls[1][0], cls[1][1])
        c.check(f"edge in two parts hosts F1 at n = {n}",
                contains_subgraph(host, base))

    five = Graph(5, [(0, 1), (1, 2), (3, 4)])
    for n in (13, 15):
        t = turan(n, 3)
        w = len(t.partition.classes[0])
        inner = Graph(w, [(0, 1), (1, 2), (3, 4)])
        c.check(f"P3 and P2 in one part host F1 at n = {n}",
                contains_subgraph(embed_in_part(t, 0, inner), base))
    try:
        embed_in_part(turan(12, 3), 0, five)
        c.check("P3 and P2 do not fit a part at n = 12", False,
                detail="embedding unexpectedly succeeded")
    except ValueError as e:
        c.check("P3 and P2 do not fit a part at n = 12", True, detail=e)

    for n in (12, 15):
        t = turan(n, 3)
        for idx in range(3):
            w = len(t.partition.classes[idx])
            host = embed_in_part(t, idx, u_packing(path(2), w))
            c.check(f"matching in part {idx} stays F1-free at n = {n}",
                    not contains_subgraph(host, base))


# --------------------------------------------------------------- cx1 ----

_CX1_NS = (55, 109, 217, 433)
_CX1_WIDTH = Fraction(1, 10 ** 30)


def _bracket(lo: Fraction, hi: Fraction) -> str:
    """[lo, hi) rounded outward to 15 decimals."""
    return (f"[{Decimal(math.floor(lo * 10 ** 15)).scaleb(-15)}, "
            f"{Decimal(math.ceil(hi * 10 ** 15)).scaleb(-15)})")


def _cx1_inputs(params: dict) -> tuple:
    """The family and, at each of _CX1_NS, the (G, H) pair as records and
    as graphs."""
    r, k, m = params["r"], params["k"], params["m"]
    return cx1_family(r, k, m), [(n, *cx1_records(r, k, n), *cx1_pair(r, k, n))
                                 for n in _CX1_NS]


def _claim_cx1(c: _Checker, params: dict, inputs, jobs: int) -> None:
    r, k = params["r"], params["k"]
    fam, pairs = inputs
    fit = asymptotics.fit_pairs(
        [(n, h_rec, g_rec) for n, g_rec, h_rec, _, _ in pairs],
        asymptotics.EXPERIMENTS["cx1_gap"].predicted(r=r, k=k))
    gaps = dict(fit.samples)
    for n, _, _, g, h in pairs:
        c.check(f"e(H) = e(G) + 1 at n = {n}",
                h.edge_count == g.edge_count + 1,
                detail=f"e(H) = {h.edge_count}, e(G) = {g.edge_count}")
        c.check(f"H avoids the family at n = {n}", is_free(h, fam))
        c.check(f"G avoids the family at n = {n}", is_free(g, fam))
        lo_h, hi_h = perron_root_interval(h, _CX1_WIDTH)
        lo_g, hi_g = perron_root_interval(g, _CX1_WIDTH)
        c.check(f"lambda(H) < lambda(G) at n = {n}", hi_h <= lo_g,
                detail=f"gap {gaps[n]:.3e}; lambda(H) in "
                       f"{_bracket(lo_h, hi_h)}, lambda(G) in "
                       f"{_bracket(lo_g, hi_g)}")
    target = fit.predicted
    c.check("extrapolated n*(lambda(H) - lambda(G)) within 15% of target",
            abs(fit.first_order - target) <= 0.15 * abs(target),
            detail=f"got {fit.first_order:.6f}, target {target:.6f}")


# --------------------------------------------------------------- cx2 ----

def _cx2_expected(p: int) -> dict:
    b = [[0, 2, p + 1],
         [1, 0, p + 1],
         [Fraction(p - 1, 3), Fraction(2 * (p - 1), 3), 0]]
    cm = [[0, 2, 0, p],
          [1, 0, 0, p],
          [0, 0, 0, p],
          [Fraction(p - 1, 3), Fraction(2 * (p - 1), 3), 1, 0]]
    cp = [[0, 2, 0, p],
          [1, 0, 0, p],
          [0, 0, 1, p],
          [Fraction(p - 4, 3), Fraction(2 * (p - 4), 3), 4, 0]]
    return {"G": b, "H": cm, "H_prime": cp}


def _claim_cx2(c: _Checker, params: dict, pkg, jobs: int) -> None:
    p = params["p"]
    graphs = {"G": pkg.g, "H": pkg.h, "H_prime": pkg.h_prime}
    expected = _cx2_expected(p)
    quotients, brackets = {}, {}
    for label, g in graphs.items():
        part = pkg.partitions[label]
        c.check(f"partition of {label} is equitable", is_equitable(g, part))
        q = quotient_matrix(g, part)
        quotients[label] = q
        brackets[label] = perron_root_interval(q, Fraction(1, 10 ** 12))
        want = tuple(tuple(Fraction(x) for x in row) for row in expected[label])
        c.check(f"quotient matrix of {label} matches at p = {p}",
                q.entries == want, detail=f"got {q.entries}")

    bound = p + Fraction(2, 3) - Fraction(1, 5 * p)
    c.check("lambda(H) certified below p + 2/3 - 1/(5p)",
            perron_less_than(quotients["H"], bound))
    c.check("lambda(H') certified below p + 2/3 - 1/(5p)",
            perron_less_than(quotients["H_prime"], bound))
    lo_g = brackets["G"][0]
    c.check("lambda(G) certified above p + 2/3 - 1/(5p)",
            not perron_less_than(quotients["G"], bound) and lo_g > bound,
            detail=f"bracket floor {float(lo_g):.12f} vs {float(bound):.12f}")

    for label, g in graphs.items():
        lo, hi = brackets[label]
        measured = spectral_radius(g).value
        root = float((lo + hi) / 2)
        c.check(f"float radius of {label} matches quotient root",
                abs(measured - root) <= 1e-8,
                detail=f"|{measured:.12f} - {root:.12f}|")

    if p == 7:
        rep = restricted_ex(2 * p, pkg.family, RestrictedSpace(2, 3))
        want = {_canon(pkg.h), _canon(pkg.h_prime)}
        c.check("restricted search returns exactly {H, H'}",
                set(rep.extremal_set) == want,
                detail=f"value {rep.value}, set {rep.extremal_set}")


# ------------------------------------------------------------- table ----

_TABLE = {3: Fraction(5, 18), 4: Fraction(7, 32), 5: Fraction(9, 50),
          6: Fraction(11, 72), 7: Fraction(13, 98), 8: Fraction(15, 128),
          9: Fraction(17, 162), 10: Fraction(19, 200)}


def _claim_table(c: _Checker, params: dict, inputs, jobs: int) -> None:
    for r, want in _TABLE.items():
        got = asymptotics.thresholds(r).c
        c.check(f"c({r}) = {want.numerator}/{want.denominator}", got == want,
                detail=f"got {got}")
    for r in _TABLE:
        lo, hi = asymptotics.e_interval(r)
        c.check(f"ceiling of E({r}) certified away from an integer",
                hi - lo <= Fraction(1, 10 ** 12)
                and math.ceil(lo) == math.ceil(hi),
                detail=f"window [{float(lo)}, {float(hi)}]")


# ------------------------------------------------- fit-based claims ----

def _check_fit(c: _Checker, label: str, fit, rel: float = 0.05) -> None:
    """The extrapolated constant lies within rel of the closed form."""
    target = fit.predicted
    c.check(f"{label} within {int(rel * 100)}% of {target:g}",
            abs(fit.first_order - target) <= rel * abs(target),
            detail=f"got {fit.first_order:.6f} (error est {fit.error:.2e})")


def _claim_tree_lemma(c: _Checker, params: dict, inputs, jobs: int) -> None:
    for k in (4, 5):
        _check_fit(c, f"star_vs_path(3, {k}) constant",
                   asymptotics.experiment("star_vs_path", {"r": 3, "k": k}))


def _claim_fit(key: str, c: _Checker, params: dict, pairs, jobs: int) -> None:
    """Fit experiment ``key``'s prebuilt pairs, labeled with its parameters."""
    takes = asymptotics.EXPERIMENTS[key].takes
    args = ", ".join(str(params[p]) for p in takes)
    _check_fit(c, f"{key}({args}) constant", asymptotics.fit_pairs(*pairs))


# ----------------------------------------------------- oracle claims ----

def _claim_spectral_turan(c: _Checker, params: dict, inputs, jobs: int) -> None:
    for r, lo in ((2, 4), (3, 6)):
        fam = ForbiddenFamily([complete(r + 1)], name=f"K{r + 1}")
        for n in range(lo, 9):
            rep = spex_oracle(n, fam, jobs=jobs)
            c.check(f"SPEX({n}, K{r + 1}) is the {r}-part Turan graph",
                    rep.extremal_set == (_canon(turan(n, r)),),
                    detail=f"got {rep.extremal_set}")


def _claim_mantel(c: _Checker, params: dict, inputs, jobs: int) -> None:
    fam = ForbiddenFamily([complete(3)], name="K3")
    for n in range(4, 9):
        rep = ex_oracle(n, fam, jobs=jobs)
        c.check(f"ex({n}, K3) = {n * n // 4}", rep.value == n * n // 4,
                detail=f"got {rep.value}")
        c.check(f"EX({n}, K3) is the balanced bipartite Turan graph",
                rep.extremal_set == (_canon(turan(n, 2)),),
                detail=f"got {rep.extremal_set}")


# ----------------------------------------------------------- driver ----

CLAIM_SPECS = {spec.id: spec for spec in (
    ClaimSpec("f1", {}, _claim_f1),
    ClaimSpec("cx1", {"r": 3, "k": 6, "m": 5}, _claim_cx1, _cx1_inputs),
    ClaimSpec("cx2", {"p": 7, "m": 3}, _claim_cx2,
              lambda params: cx2_package(params["p"], params["m"])),
    ClaimSpec("table", {}, _claim_table),
    ClaimSpec("tree-lemma", {}, _claim_tree_lemma),
    ClaimSpec("edge-add", {"r": 3, "b": 2, "a": 0},
              partial(_claim_fit, "edge_add"),
              partial(asymptotics.experiment_pairs, "edge_add")),
    ClaimSpec("transfer-shift", {"r": 3, "k": 6},
              partial(_claim_fit, "transfer_shift"),
              partial(asymptotics.experiment_pairs, "transfer_shift")),
    ClaimSpec("spectral-turan", {}, _claim_spectral_turan),
    ClaimSpec("mantel", {}, _claim_mantel),
)}

CLAIM_IDS = tuple(CLAIM_SPECS)


def run_claim(claim_id: str, params: Optional[dict] = None,
              jobs: int = 1) -> dict:
    """Run one claim and return its report dict; see the module docstring."""
    cid = claim_id.replace("_", "-")
    if cid not in CLAIM_SPECS:
        raise ValueError(f"unknown claim {claim_id!r}; "
                         f"choose from {', '.join(CLAIM_IDS)}")
    spec = CLAIM_SPECS[cid]
    check_params("claim", cid, params or {}, (), tuple(spec.params))
    merged = dict(spec.params)
    merged.update(params or {})
    start = time.perf_counter()
    inputs = spec.build(merged)  # a ValueError here is bad input
    checker = _Checker()
    try:
        spec.run(checker, merged, inputs, jobs)
    except Exception as e:  # claim bodies must not kill a batch run
        checker.check(f"{cid} ran to completion", False, detail=repr(e))
    return {"claim": cid, "params": merged, "ok": checker.ok,
            "elapsed": round(time.perf_counter() - start, 3),
            "assertions": checker.assertions}


def run_all(jobs: int = 1) -> list:
    """Run every claim in declaration order."""
    return [run_claim(cid, jobs=jobs) for cid in CLAIM_IDS]


def first_failure(reports) -> Optional[str]:
    """Name of the first failing assertion across reports, if any."""
    if isinstance(reports, dict):
        reports = [reports]
    for rep in reports:
        for a in rep["assertions"]:
            if not a["ok"]:
                return f"{rep['claim']}: {a['name']}"
    return None
