"""Sparse Laurent polynomials on the 2-torus.

Provides f_P (zero constant term, binomial coefficients along each edge),
Newton polygons, the cleared pencil member f + lambda, and the algebraic
mutation x^u -> x^u (1 + x^w)^{<u,v>}.  The member in the unimodular torus
chart u -> A u is cleared_member(f.transform(A)).
"""

from __future__ import annotations

from math import comb, gcd as int_gcd

from .algebra import MPoly, _exact
from .polygon import Point, Polygon, _coordinate, convex_hull


class LaurentPoly:
    """Sparse Laurent polynomial: (a, b) -> nonzero exact rational, an int
    where it is integral and a Fraction otherwise.  Exponents are lattice
    points: TypeError on a float, ValueError on a non-integral rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        cleaned = {}
        if terms:
            for k, v in terms.items():
                k = (_coordinate(k[0]), _coordinate(k[1]))
                v = _exact(v)
                if v:
                    cleaned[k] = v
        self.terms = cleaned

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "LaurentPoly":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return LaurentPoly(terms)

    def __mul__(self, other) -> "LaurentPoly":
        terms: dict = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                terms[k] = terms.get(k, 0) + v1 * v2
        return LaurentPoly(terms)

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
    """The text form of LaurentPoly's repr: terms "c*x^a*y^b" joined by
    " + ", signed exponents."""
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
            terms[p] = comb(n, i)  # endpoints are 1 from both edges
    return LaurentPoly(terms)


def newton_polygon(f: LaurentPoly):
    """Convex hull of the support: a Polygon, or the hull point list when the
    support is lower-dimensional (e.g. Newt(1+x) = [(0,0),(1,0)])."""
    if not f.terms:
        raise ValueError("empty support")
    hull = convex_hull(f.support())
    if len(hull) < 3:
        return hull
    return Polygon._from_ccw(hull)


def cleared_member(f: LaurentPoly) -> MPoly:
    """f + lambda cleared by its least monomial to an (x, y, l)-polynomial
    with no x or y factor: the member polynomial used for elimination."""
    keys = [*f.terms, (0, 0)]
    min_a = min(a for a, _ in keys)
    min_b = min(b for _, b in keys)
    terms = {(a - min_a, b - min_b, 0): c for (a, b), c in f.terms.items()}
    terms[(-min_a, -min_b, 1)] = 1
    return MPoly(terms)


def algebraic_mutation(f: LaurentPoly, v: Point, w: Point) -> LaurentPoly:
    """Push f across the mutation with data (v, conv(0, w)).

    The cluster map acts on monomials by x^u -> x^u h^{<u,v>} with
    h = 1 + x^w; the orientation is the one for which the Newton polygon
    transforms as conv(R_{-1} ∪ P_0 ∪ (P_1 + H)) -- the height -1 slice
    (the edge with inner normal v) loses one Minkowski factor of H and the
    height +1 slice gains one.  The exponents u0 + t w of one line parallel
    to w share the height e = <u0, v>, so the line's polynomial p(T) in
    T = x^w becomes p(T) (1 + T)^e.  Errors if that is not a polynomial for
    some line with e < 0, i.e. if the result is not Laurent.
    """
    if v[0] * w[0] + v[1] * w[1] != 0:
        raise ValueError("w must lie in the orthogonal of v")
    if int_gcd(w[0], w[1]) != 1:
        raise ValueError("w must be primitive")
    # det(w, u) names the line through u, <u, w> orders it
    lines: dict = {}
    for u, c in f.terms.items():
        lines.setdefault(w[0] * u[1] - w[1] * u[0], []).append(
            (u[0] * w[0] + u[1] * w[1], u, c))
    norm = w[0] * w[0] + w[1] * w[1]
    terms: dict = {}
    for line in lines.values():
        s0, u0, _ = min(line)
        p = [0] * ((max(line)[0] - s0) // norm + 1)
        for s, _, c in line:
            p[(s - s0) // norm] = c
        e = v[0] * u0[0] + v[1] * u0[1]
        for _ in range(e):
            p = [a + b for a, b in zip(p + [0], [0] + p)]
        for _ in range(-e):
            q = p[1:]  # p = (1 + T) q, solved from the top
            for i in range(len(q) - 2, -1, -1):
                q[i] -= q[i + 1]
            if not q or q[0] != p[0]:
                raise ValueError("mutation not admissible for this factor")
            p = q
        for t, c in enumerate(p):
            terms[(u0[0] + t * w[0], u0[1] + t * w[1])] = c
    return LaurentPoly(terms)
