"""Sparse Laurent polynomials on the 2-torus.

Provides f_P (zero constant term, binomial coefficients along each edge),
Newton polygons, rewriting of pencil members in unimodular torus charts, and
the algebraic mutation x^u -> x^u (1 + x^w)^{<u,v>}.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as int_gcd

from .algebra import MPoly, _frac
from .polygon import Point, Polygon, convex_hull


class LaurentPoly:
    """Sparse Laurent polynomial: (a, b) -> nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        cleaned = {}
        if terms:
            for k, v in terms.items():
                v = _frac(v)
                if v != 0:
                    cleaned[(int(k[0]), int(k[1]))] = v
        self.terms = cleaned

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "LaurentPoly":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            s = terms.get(k, Fraction(0)) + v
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

    def __mul__(self, other) -> "LaurentPoly":
        terms: dict = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                s = terms.get(k, Fraction(0)) + v1 * v2
                if s == 0:
                    terms.pop(k, None)
                else:
                    terms[k] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def support(self) -> list[Point]:
        return sorted(self.terms)

    def transform(self, A) -> "LaurentPoly":
        """Exponent change u -> A u for unimodular A = ((a,b),(c,d))."""
        (a, b), (c, d) = A
        if abs(a * d - b * c) != 1:
            raise ValueError("matrix not unimodular")
        return LaurentPoly(
            {(a * x + b * y, c * x + d * y): v for (x, y), v in self.terms.items()}
        )

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)!r})"


def format_laurent(f: LaurentPoly) -> str:
    """CLI text form: terms "c*x^a*y^b" joined by " + ", signed exponents."""
    if not f.terms:
        return "0"
    return " + ".join(
        f"{f.terms[k]}*x^{k[0]}*y^{k[1]}" for k in sorted(f.terms)
    )


def build_fP(P: Polygon) -> LaurentPoly:
    """The Laurent polynomial f_P: support = boundary lattice points, zero
    constant term, binomial(l(e), i) on the i-th lattice point of each edge."""
    if not P.is_reflexive():
        raise ValueError("f_P requires a reflexive polygon")
    terms: dict = {}
    for e in P.edges():
        pts = e.lattice_points()
        n = e.lattice_length
        for i, p in enumerate(pts):
            terms[p] = Fraction(comb(n, i))  # endpoints are 1 from both edges
    return LaurentPoly(terms)


def newton_polygon(f: LaurentPoly):
    """Convex hull of the support: a Polygon, or the hull point list when the
    support is lower-dimensional (e.g. Newt(1+x) = [(0,0),(1,0)])."""
    if not f.terms:
        raise ValueError("empty support")
    hull = convex_hull(f.support())
    if len(hull) < 3:
        return hull
    return Polygon(hull, from_hull=True)


class ChartBasis:
    """A pair of primitive dual vectors (v1, v2) with det +-1.

    Chart coordinates are x = chi^{n1}, y = chi^{n2} for the dual basis
    (n1, n2), so a torus monomial chi^u becomes x^<v1,u> y^<v2,u>.
    """

    __slots__ = ("v1", "v2")

    def __init__(self, v1: Point, v2: Point):
        v1, v2 = tuple(v1), tuple(v2)
        if abs(v1[0] * v2[1] - v1[1] * v2[0]) != 1:
            raise ValueError("chart basis is not unimodular")
        for v in (v1, v2):
            if int_gcd(abs(v[0]), abs(v[1])) != 1:
                raise ValueError("chart basis vectors must be primitive")
        self.v1 = v1
        self.v2 = v2

    def exponents(self, u: Point) -> tuple[int, int]:
        return (
            self.v1[0] * u[0] + self.v1[1] * u[1],
            self.v2[0] * u[0] + self.v2[1] * u[1],
        )

    def __repr__(self):
        return f"ChartBasis({self.v1}, {self.v2})"


def chart_polynomial(f: LaurentPoly, basis: ChartBasis) -> MPoly:
    """Rewrite f + lambda in chart coordinates and clear denominators by the
    minimal monomial; the result has no x or y factor."""
    pairs = [(basis.exponents(u), v) for u, v in f.terms.items()]
    pairs.append(((0, 0), "lambda"))
    min_a = min(a for (a, _), _ in pairs)
    min_b = min(b for (_, b), _ in pairs)
    terms: dict = {}
    for (a, b), v in pairs:
        key = (a - min_a, b - min_b, 1 if v == "lambda" else 0)
        terms[key] = terms.get(key, Fraction(0)) + (
            Fraction(1) if v == "lambda" else v
        )
    return MPoly(terms)


def cleared_member(f: LaurentPoly) -> MPoly:
    """f + lambda cleared to an (x, y, l)-polynomial in the torus coordinates
    themselves (identity chart): the member polynomial used for elimination."""
    return chart_polynomial(f, ChartBasis((1, 0), (0, 1)))


def _complete_to_basis(w: Point):
    """Unimodular M = ((wx, zx), (wy, zy)) with first column w, det 1."""
    wx, wy = w
    # solve wx*zy - wy*zx = 1
    g, s, t = _ext_gcd(wx, wy)
    if g != 1:
        raise ValueError("w not primitive")
    # wx*s + wy*t = 1  ->  choose z = (-t, s)
    return ((wx, -t), (wy, s))


def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _inv2(M):
    (a, b), (c, d) = M
    det = a * d - b * c
    return ((det * d, -det * b), (-det * c, det * a))


def algebraic_mutation(f: LaurentPoly, v: Point, w: Point) -> LaurentPoly:
    """Push f across the mutation with data (v, conv(0, w)).

    The cluster map acts on monomials by x^u -> x^u h^{<u,v>} with
    h = 1 + x^w; the orientation is the one for which the Newton polygon
    transforms as conv(R_{-1} ∪ P_0 ∪ (P_1 + H)) -- the height -1 slice
    (the edge with inner normal v) loses one Minkowski factor of H and the
    height +1 slice gains one.  Errors if the result is not Laurent.
    """
    if v[0] * w[0] + v[1] * w[1] != 0:
        raise ValueError("w must lie in the orthogonal of v")
    heights = {u: v[0] * u[0] + v[1] * u[1] for u in f.terms}
    if not heights:
        return f
    K = max(0, -min(heights.values()))
    h = LaurentPoly({(0, 0): 1, tuple(w): 1})
    powers = {0: LaurentPoly({(0, 0): 1})}
    g = LaurentPoly({})
    for u, c in f.terms.items():
        e = K + heights[u]
        if e not in powers:
            p = powers[0]
            for _ in range(e):
                p = p * h
            powers[e] = p
        g = g + (LaurentPoly({u: c}) * powers[e])
    if K == 0:
        return g
    # divide g by (1+x^w)^K exactly: move to coordinates where w = e1
    M = _complete_to_basis(w)
    A = _inv2(M)
    gt = g.transform(A)
    quot = _laurent_divide_by_one_plus_x(gt, K)
    return quot.transform(M)


def _laurent_divide_by_one_plus_x(g: LaurentPoly, k: int) -> LaurentPoly:
    """Exact division of g by (1+x)^k; x-exponents may be negative."""
    for _ in range(k):
        if not g.terms:
            return g
        min_x = min(a for a, _ in g.terms)
        # dense in x per y-slice
        by_y: dict[int, dict[int, Fraction]] = {}
        for (a, b), c in g.terms.items():
            by_y.setdefault(b, {})[a - min_x] = c
        out: dict = {}
        for b, col in by_y.items():
            deg = max(col)
            q = [Fraction(0)] * deg  # quotient degree deg-1
            rem = [col.get(i, Fraction(0)) for i in range(deg + 1)]
            for i in range(deg, 0, -1):
                c = rem[i]
                q[i - 1] = c
                rem[i - 1] -= c
            if rem[0] != 0:
                raise ValueError("mutation not admissible for this factor")
            for i, c in enumerate(q):
                if c != 0:
                    out[(i + min_x, b)] = c
        g = LaurentPoly(out)
    return g
