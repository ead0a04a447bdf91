"""Float and exact spectral-radius tools.

Both sides work on a graph's coarsest equitable quotient. The float side
solves one connected component at a time: it refines the component's
vertices to their coarsest equitable partition on g's own rows, symmetrizes
the quotient B as S = D^1/2 B D^-1/2 (D the cell sizes; |C_i| B_ij =
|C_j| B_ji, so S_ij = sqrt(B_ij B_ji)), takes S's top eigenpair with a dense
symmetric eigensolver, and lifts it back onto the cells. No n x n matrix is
built; by equitability the quotient residual is the whole graph's.
``fold_radius`` runs the same refinement rule on the cells of a given
equitable partition (a ``Fold``) instead of on vertices, so it reaches the
same quotient without the graph.

The exact side takes Fraction matrices (a graph's Perron root is certified
on its coarsest equitable quotient) and decides in integers: quotient
matrices, monic characteristic polynomials (Faddeev-LeVerrier on the integer
matrix D*A), a leading-principal-minor test certifying q > perron root (the
M-matrix criterion for qI - A, by fraction-free Bareiss elimination), and an
exact three-way comparison of Perron roots by joint halving bisection with
Sturm-sequence equality detection.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .canon import _mask, _refine
from .graphs import Graph, Partition, _iter_bits
# Unused here; kept as module attributes perfbench/spans.py patches.
from .graphs import adjacency_matrix, induced_subgraph  # noqa: F401

__all__ = [
    "SpectralResult",
    "spectral_radius",
    "Fold",
    "fold_radius",
    "is_equitable",
    "quotient_matrix",
    "RationalMatrix",
    "RationalPoly",
    "perron_less_than",
    "perron_root_interval",
    "compare_lambda_exact",
]


class SpectralResult:
    """Float spectral-radius estimate.

    ``vector`` has infinity norm exactly 1, is nonnegative, and is supported
    on a component attaining the radius; ``residual`` is the infinity norm of
    A v - value * v. ``iterations`` is always 0 (a direct eigensolve); it
    stays for perfbench/spans.py until the package keeps its own work counts.
    """

    __slots__ = ("value", "vector", "residual", "iterations")

    def __init__(self, value: float, vector: tuple[float, ...], residual: float):
        self.value = value
        self.vector = vector
        self.residual = residual
        self.iterations = 0

    def __repr__(self) -> str:
        return (f"SpectralResult(value={self.value!r}, residual={self.residual:.3e}, "
                f"iterations={self.iterations})")


def _quotient_perron(b: Sequence[Sequence[int]],
                     sizes: Sequence[int]) -> tuple[float, np.ndarray, float]:
    """(lambda, x, residual) for the integer quotient b of a connected
    graph's equitable partition with cell sizes ``sizes``.

    x holds one Perron-vector entry per cell, infinity norm 1.
    """
    b = np.array(b, dtype=np.float64)
    vals, vecs = np.linalg.eigh(np.sqrt(b * b.T))
    x = np.abs(vecs[:, -1]) / np.sqrt(np.array(sizes, dtype=np.float64))
    x /= x.max()
    lam = float(vals[-1])
    return lam, x, float(np.abs(b @ x - lam * x).max())


def _quotient_eigenpair(adj: tuple[int, ...],
                        comp: int) -> tuple[float, list, np.ndarray, float]:
    """(lambda, cells, x, residual) for the component comp of adj."""
    cells = _refine(adj, [list(_iter_bits(comp))])
    masks = [_mask(cell) for cell in cells]
    b = [[(adj[cell[0]] & mask).bit_count() for mask in masks]
         for cell in cells]
    lam, x, res = _quotient_perron(b, [len(cell) for cell in cells])
    return lam, cells, x, res


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue of g with an uncertified float residual.

    Solves each component on its coarsest equitable quotient and returns an
    eigenvector supported on the first component attaining the radius (zero
    elsewhere). The empty graph has radius 0.
    """
    if g.n == 0:
        return SpectralResult(0.0, (), 0.0)
    best = None
    for comp in g.components():
        if comp & (comp - 1) == 0:  # an isolated vertex
            found = (0.0, [[comp.bit_length() - 1]], np.ones(1), 0.0)
        else:
            found = _quotient_eigenpair(g.adj, comp)
        if best is None or found[0] > best[0]:
            best = found
    lam, cells, x, res = best
    vector = [0.0] * g.n
    for cell, xi in zip(cells, x.tolist()):
        for v in cell:
            vector[v] = xi
    return SpectralResult(lam, tuple(vector), res)


# -- equitable partitions ----------------------------------------------------

class Fold(NamedTuple):
    """An equitable partition of a graph, given without the graph.

    ``cells`` are disjoint nonempty vertex sequences covering the graph (a
    ``range`` each, for the constructions, so nothing grows with n), and
    ``counts[p][q]`` is the number of neighbors every vertex of cells[p]
    has in cells[q].
    """
    cells: tuple
    counts: tuple


def _refine_fold(counts: Sequence[Sequence[int]]) -> list[list[int]]:
    """``canon._refine``'s order rule run on fold cells: the coarsest
    equitable partition of the folded graph, each cell a list of fold-cell
    indices, starting from one cell of everything.

    The vertices of one fold cell have equal counts into any union of fold
    cells, so they never part: every cell ``_refine`` holds is a union of
    fold cells, and a vertex of fold cell p has sum(counts[p][q] for q in S)
    neighbors in the union S. The same rule on these counts, with the same
    skip of splitters known to be stable, therefore makes the same choices
    and yields the same cells in the same order.
    """
    cells = [list(range(len(counts)))]
    stable: set[int] = set()
    while True:
        for s in cells:
            key = sum(1 << q for q in s)
            if key in stable:
                continue
            newcells: list[list[int]] = []
            for c in cells:
                groups: dict[int, list[int]] = {}
                for p in c:
                    groups.setdefault(sum(counts[p][q] for q in s), []).append(p)
                newcells.extend(groups[k] for k in sorted(groups))
            if len(newcells) > len(cells):
                cells = newcells
                break
            stable.add(key)
        else:
            return cells


def fold_radius(fold: Fold) -> float:
    """Spectral radius of a connected graph from an equitable partition of it.

    Refines the fold to the graph's coarsest equitable partition, in
    ``_refine``'s cell order, and solves that integer quotient with
    ``spectral_radius``'s eigensolver step: the input to the solver is the
    one ``spectral_radius`` builds from the graph, so the value is equal to
    ``spectral_radius(g).value``, bit for bit, at a cost that does not grow
    with the number of vertices.
    """
    cells = _refine_fold(fold.counts)
    b = [[sum(fold.counts[c[0]][q] for q in d) for d in cells] for c in cells]
    sizes = [sum(len(fold.cells[p]) for p in c) for c in cells]
    return _quotient_perron(b, sizes)[0]


def quotient_matrix(g: Graph, partition: Partition | None = None) -> "RationalMatrix":
    """Quotient matrix of an equitable partition (entry i,j: neighbors in class j).

    Inequitable input raises a ValueError naming a violating vertex pair.
    """
    if partition is None:
        partition = g.partition
    if partition is None:
        raise ValueError("graph carries no partition and none was given")
    if partition.n != g.n:
        raise ValueError("partition does not match graph order")
    masks = [_mask(cls) for cls in partition.classes]
    rows = []
    for i, cls in enumerate(partition.classes):
        row = []
        for j, mask in enumerate(masks):
            counts = {(g.adj[v] & mask).bit_count() for v in cls}
            if len(counts) > 1:
                by = {}
                for v in cls:
                    by.setdefault((g.adj[v] & mask).bit_count(), v)
                a, b = sorted(by)[:2]
                raise ValueError(
                    f"partition not equitable: vertices {by[a]} and {by[b]} in "
                    f"class {i} have {a} and {b} neighbors in class {j}")
            row.append(Fraction(counts.pop()))
        rows.append(row)
    return RationalMatrix(rows)


def is_equitable(g: Graph, partition: Partition | None = None) -> bool:
    try:
        quotient_matrix(g, partition)
    except ValueError:
        return False
    return True


# -- exact matrices and polynomials -------------------------------------------

class RationalMatrix:
    """Immutable square matrix over Fraction."""

    __slots__ = ("entries", "n")

    def __init__(self, rows: Iterable[Iterable]):
        entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_graph(cls, g: Graph) -> "RationalMatrix":
        return cls([[Fraction(g.adj[i] >> j & 1) for j in range(g.n)]
                    for i in range(g.n)])

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def _scaled(self) -> tuple[int, list[list[int]]]:
        """(D, D*A) for D the lcm of the entry denominators, so D*A is integral."""
        d = lcm(*(x.denominator for row in self.entries for x in row))
        return d, [[x.numerator * (d // x.denominator) for x in row]
                   for row in self.entries]

    def char_poly(self) -> "RationalPoly":
        """Monic characteristic polynomial det(tI - A), by Faddeev-LeVerrier.

        Runs over Python ints on B = D*A: B's coefficients c_k are integers,
        so -tr(B M_k) / k divides exactly, and A's are c_k / D^k.
        """
        n = self.n
        d, b = self._scaled()
        nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
        coeffs = [Fraction(1)]  # descending from t^n
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            prod = []
            for nz in nonzero:
                acc = [0] * n
                for j, x in nz:
                    acc = [a + x * y for a, y in zip(acc, m[j])]
                prod.append(acc)
            ck = -sum(prod[i][i] for i in range(n)) // k
            coeffs.append(Fraction(ck, d ** k))
            for i in range(n):
                prod[i][i] += ck
            m = prod
        return RationalPoly(reversed(coeffs))

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(x) for x in row] for row in self.entries]})"


class RationalPoly:
    """Dense polynomial over Fraction; coefficient i multiplies t**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPoly":
        return RationalPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def monic(self) -> "RationalPoly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return RationalPoly(c / lead for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RationalPoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            t = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            mag = "" if (abs(c) == 1 and i > 0) else str(abs(c))
            terms.append(("-" if c < 0 else ("+" if terms else "")) + mag + t)
        return f"RationalPoly({' '.join(terms)})"


def _poly_divmod(a: RationalPoly, b: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    bc = b.coeffs
    db = len(bc) - 1
    quo = [Fraction(0)] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - db
        f = rem[-1] / bc[-1]
        quo[shift] = f
        for i, c in enumerate(bc):
            rem[shift + i] -= f * c
        rem.pop()
    return RationalPoly(quo), RationalPoly(rem)


def _poly_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a.monic()


def _squarefree(p: RationalPoly) -> RationalPoly:
    d = _poly_gcd(p, p.derivative())
    if d.degree <= 0:
        return p.monic()
    return _poly_divmod(p, d)[0].monic()


def _sturm_chain(p: RationalPoly) -> list[RationalPoly]:
    chain = [p, p.derivative()]
    while chain[-1]:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(RationalPoly(-c for c in rem.coeffs))
    return chain


def _sign_variations(chain: list[RationalPoly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = p(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _roots_in(chain: list[RationalPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi], for a squarefree base poly."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def _perron_matrix(m) -> RationalMatrix:
    """A graph's coarsest equitable quotient B; a RationalMatrix as it is;
    anything else read as rows of a RationalMatrix.

    With P the cells' characteristic matrix, AP = PB: B's eigenvalues are A's,
    and P^T takes a Perron vector of A to one of B^T, so rho(B) = rho(A).
    """
    if isinstance(m, RationalMatrix):
        return m
    if isinstance(m, Graph):
        if not m.n:
            return RationalMatrix.from_graph(m)
        return quotient_matrix(m, Partition(_refine(m.adj, [list(range(m.n))])))
    return RationalMatrix(m)


def perron_less_than(matrix, q) -> bool:
    """Certify q > spectral radius of an entrywise-nonnegative matrix, exactly.

    Tests whether qI - A is a nonsingular M-matrix via positivity of all
    leading principal minors; returns False at q equal to the radius.
    Bareiss elimination on the integer matrix s*(qI - A) makes pivot k the
    (k+1)-th leading principal minor of that matrix, s^(k+1) times the
    minor of qI - A, so the signs are the ones the criterion needs. The
    0 x 0 matrix has radius 0, as spectral_radius reports for the empty graph.
    """
    a = _perron_matrix(matrix)
    if any(x < 0 for row in a.entries for x in row):
        raise ValueError("matrix must be entrywise nonnegative")
    q = Fraction(q)
    if a.n == 0:
        return q > 0
    d, b = a._scaled()
    s = lcm(d, q.denominator)
    sq = q.numerator * (s // q.denominator)
    f = s // d
    n = a.n
    rows = [[(sq if i == j else 0) - f * x for j, x in enumerate(row)]
            for i, row in enumerate(b)]
    prev = 1
    for k in range(n):
        rk = rows[k]
        piv = rk[k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            ri = rows[i]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * piv - rik * rk[j]) // prev
        prev = piv
    return True


def perron_root_interval(matrix, width) -> tuple[Fraction, Fraction]:
    """Rationals lo <= rho < hi, hi - lo <= width, around the Perron root.

    lo is rho itself when a halving point lands on the root.
    """
    a = _perron_matrix(matrix)
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    hi = max((sum(row, Fraction(0)) for row in a.entries), default=Fraction(0)) + 1
    lo = Fraction(-1)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if perron_less_than(a, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def compare_lambda_exact(g: Graph, h: Graph) -> int:
    """Exact sign of lambda(g) - lambda(h): -1, 0, or +1.

    Joint halving bisection with the M-matrix certificate separates distinct
    radii; equality is recognized when the shrinking window isolates one root
    of each squarefree characteristic polynomial and their gcd has a root
    there too. The cx2(13, 3) pairs (at most 4 quotient cells) take 3 ms each.
    """
    ge = g.edge_count
    he = h.edge_count
    if ge == 0 or he == 0:
        if ge == 0 and he == 0:
            return 0
        return -1 if ge == 0 else 1

    ag = _perron_matrix(g)
    ah = _perron_matrix(h)
    pg = _squarefree(ag.char_poly())
    ph = _squarefree(ah.char_poly())
    chain_g = _sturm_chain(pg)
    chain_h = _sturm_chain(ph)
    d = _poly_gcd(pg, ph)
    chain_d = _sturm_chain(d) if d.degree >= 1 else None

    lo = Fraction(-1)
    hi = Fraction(max(g.n, h.n))
    while True:
        # the bisection point must not be a root of either polynomial, so both
        # brackets stay strict; pg and ph are monic over the integers, so only
        # an integer can be a rational root, and the dyadic points between the
        # midpoint and hi stop being integers within log2(hi - lo) halvings
        mid = half = (lo + hi) / 2
        offset = (hi - lo) / 4
        while mid.denominator == 1 and (pg(mid) == 0 or ph(mid) == 0):
            mid = half + offset
            offset /= 2
        less_g = perron_less_than(ag, mid)
        less_h = perron_less_than(ah, mid)
        if less_g != less_h:
            return -1 if less_g else 1
        if less_g:
            hi = mid
        else:
            lo = mid
        if chain_d is not None and _roots_in(chain_g, lo, hi) == 1 \
                and _roots_in(chain_h, lo, hi) == 1 \
                and _roots_in(chain_d, lo, hi) >= 1:
            return 0
