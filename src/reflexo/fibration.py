"""Singular fibres of the pencil {f_P + lambda} on the rational elliptic
surface attached to a reflexive polygon.

Pipeline: the fibre at infinity is the boundary cycle I_{12 - Vol(P)}; the
singular lambda values on the torus are the roots of the pencil's critical
values -- the lambda of its isolated critical points, each certified an
ordinary node by a simple root of the critical resultant or by the
lambda-free Jacobian, with multiplicity its number of nodes -- and the
rational roots of its curve values, the lambda of the members containing a
critical curve: every such member is nonreduced, and every repeated
component of a member is a critical curve.  When one member holds every
critical curve, one division of the member by the curves' polynomial G
names it (`_division_certificate`); a resultant gives the curve values only
when that fails, when the curves lie in several members.  Infinitely near
base points over each edge of lattice length >= 2 contribute (-2)-curves
that are absorbed by specific finite fibres; everything is assembled under
the Euler budget sum(chi) = 12.  The elimination polynomial E of the
critical-point system is computed only for the analysis report, never to
classify.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd as int_gcd

from .algebra import (
    MPoly,
    UniPoly,
    ZeroDivisorError,
    _content,
    _divide_content,
    _gcd_from_chain,
    _gcd_int,
    _quotient,
    _resultant_chain,
    _rows,
    _yun,
    format_unipoly,
    gcd_bivariate,
    gcd_over_quotient,
    resultant,
    squarefree_rational_roots,
)
from .laurent import LaurentPoly, build_fP, cleared_member
from .polygon import Polygon


# ---------------------------------------------------------------------------
# Kodaira types
# ---------------------------------------------------------------------------


# (chi, r, det) of the unindexed types: Euler number, rank of the root
# lattice of the non-identity components, and its determinant
_UNINDEXED = {
    "II": (2, 0, 1), "III": (3, 1, 2), "IV": (4, 2, 3),
    "IV*": (8, 6, 3), "III*": (9, 7, 2), "II*": (10, 8, 1),
}


class KodairaType:
    """A Kodaira fibre type with its Euler number chi, the rank r of the root
    lattice spanned by the non-identity components, and that lattice's
    determinant det, which is the order of the fibre's component group:
    A_{n-1} for I_n, D_{n+4} for I_n*, E6/E7/E8 for IV*/III*/II*, A_1 for
    III, A_2 for IV, and the empty lattice (det 1) for irreducible fibres."""

    __slots__ = ("kind", "n", "chi", "r", "det")

    def __init__(self, kind: str, n: int | None = None):
        if kind in ("I", "I*"):
            if n is None or n < 0:
                raise ValueError("I_n / I_n* require n >= 0")
            if kind == "I":
                self.chi, self.r, self.det = n, max(n - 1, 0), max(n, 1)
            else:
                self.chi, self.r, self.det = n + 6, n + 4, 4
        elif kind in _UNINDEXED:
            if n is not None:
                raise ValueError(f"{kind} takes no index")
            self.chi, self.r, self.det = _UNINDEXED[kind]
        else:
            raise ValueError(f"unknown Kodaira kind {kind!r}")
        self.kind = kind
        self.n = n

    def label(self) -> str:
        if self.kind == "I":
            return f"I{self.n}"
        if self.kind == "I*":
            return f"I{self.n}*"
        return self.kind

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KodairaType)
            and self.kind == other.kind
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"KodairaType({self.label()})"


def fibre_at_infinity(P: Polygon) -> KodairaType:
    """The boundary divisor: a reduced cycle of 12 - Vol(P) (-2)-curves."""
    return KodairaType("I", 12 - P.volume())


# ---------------------------------------------------------------------------
# the pencil
# ---------------------------------------------------------------------------


class Pencil:
    """The pencil {f_P + lambda} of a reflexive polygon together with the
    quantities its classification derives from it, each computed at most
    once: f = f_P, the cleared member C, the critical pair (A, B, G) with
    Res_x(A, B), the radical R of G, the critical values of the isolated
    critical points and the curve values of the critical curves R.  A
    repeated component of a member divides both log partials, so it divides
    R; every singular lambda on the torus is therefore a critical value or a
    curve value.  The curve values come from one division: where G divides
    the member at some lambda0 (`_curve_member`), that member holds every
    critical curve, and l - lambda0 gives them all; Res(R, C) runs only
    when no member holds them all.  One subresultant chain in x, with
    Res_x(A, B) and its last element S, serves three times: where the
    resultant proves the log partials coprime, G = 1 and R = 1 take no
    bivariate gcd, and where it vanishes, G is read off S; the critical
    values read it, and its order, at a simple root, proves the point
    above it a node; and there S, when it is the first subresultant S_1,
    gives that point with no gcd over Q[y]/(Q).  The elimination
    polynomial E serves only the analysis report, which builds it with
    `elimination_polynomial`.

    A Pencil lives for one top-level call (a report, a table row) and is
    passed down explicitly; nothing keeps it afterwards.  Only the entry
    points classify_fibres and elimination_polynomial build one, when they
    are given none; every stage below them requires it.  Its values are
    shared by every helper that receives it, so none may modify them.
    """

    def __init__(self, P: Polygon):
        self.P = P
        self.f = build_fP(P)
        self.C = cleared_member(self.f)

    @cached_property
    def critical_pair(self) -> tuple[MPoly, MPoly, MPoly]:
        """(A, B, G): the cleared logarithmic partials with their common
        bivariate factor G divided out.  Zeros of G are critical *curves* of
        f (components of a nonreduced member); zeros of (A, B) are the
        isolated critical points.

        One subresultant chain in x comes first: r = Res_x(A, B) of the
        partials and its last element S (`_held`).  When r = 0, S is the
        last nonzero remainder, a gcd of A and B over Q(y), and G is its
        primitive part over Z[y] times the gcd of the contents of A and B
        in Z[y], as `gcd_bivariate` builds it (`_gcd_from_chain`).  When r != 0
        and lc_x A and lc_x B share no root but y = 0, the partials are
        coprime and G = 1 with no gcd: a common factor of positive x-degree
        would make r vanish, and a nonconstant one free of x would divide
        both leading coefficients, with a root other than 0, since
        `_log_partials` leaves y dividing neither.  Otherwise G is their
        `gcd_bivariate`.  The pair carries r and the rows of A, B and S
        while they are those of the A and B it holds, that is unless a
        nonconstant G was divided out."""
        A, B = _log_partials(self.f)
        held = _held(A, B)
        r, a, b, s = held
        G = MPoly.const(1)
        if not r.terms:
            G = _gcd_from_chain(s, _divide_content(a)[0],
                                _divide_content(b)[0])
        elif len(_lc_gcd(a, b)) > 1:
            G = gcd_bivariate(A, B, "x", "y")
        if not G.is_const():
            A = A.exact_div(G).strip_monomial()
            B = B.exact_div(G).strip_monomial()
            held = None
        return _CriticalPair(A, B, G, held)

    @cached_property
    def critical_values(self) -> UniPoly:
        """prod (l + f(p)), up to a nonzero constant, over the isolated torus
        critical points p of f, each certified to be an ordinary node: its
        roots are the lambda of the members through them, each with
        multiplicity its number of points.

        The y-coordinates of the points are roots of ry = Res_x(A, B) with
        its y-powers stripped; each squarefree part Q of ry (`_yun`) goes
        through `_values_over`, with the rows of A and B read once.  Both,
        and the rows of the chain's last element S (`_held`), are read off
        the pair when it carries them.

        A part of multiplicity 1 none of whose roots is a common root of
        lc_x A and lc_x B needs no certificate.  At such a root y0 one of A,
        B, say A, has a unit leading coefficient in the local ring O of
        C[y] at y0, so O[x]/(A) is free of rank deg_x A and Res_x(A, B) is a
        unit times the determinant of multiplication by B on it.  Over the
        discrete valuation ring O that determinant has order the length of
        O[x]/(A, B), the sum of the intersection numbers I_p(A, B) over the
        points p of the plane above y0.  Order 1 leaves one point, with I_p
        = 1: A = 0 and B = 0 are smooth there with distinct tangents
        (Fulton, Algebraic Curves, sec. 3.3), so the Jacobian J = det
        d(A, B)/d(x, y) is nonzero at p, and p, if on the torus, is a node
        (`_values_over`).  Every other part passes the rows of J, built
        once, for gcd(g, J) = 1.

        Where S has x-degree 1, it is S_1, and such a part Q takes it for
        its gcd g when psc_1 = lc_x S_1 is coprime to Q.  S_1 = U A + V B
        vanishes at the one point (x0, y0) above each root y0 of Q, and
        psc_1(y0) != 0, so S_1(x, y0) is psc_1(y0) (x - x0): the gcd of A
        and B there up to a unit, with no `gcd_over_quotient`.  The guard
        is needed: on 8a, in its own chart with G divided out, A = (x - 1)
        (y + 1) and B = (x + 1)(y - 1), and S_1 = B vanishes on all of
        y = 1.  S_1 serves only while its y-degree is at most deg_y A +
        deg_y B: the resultants that `_values_over` takes of it grow with
        that degree, and on wide charts it costs more than the gcd it
        spares (5a under ((17,-4),(-21,5)): y-degree 1695 against 94, and
        over 60 s against 0.13 s of process time for its one slice, 2
        vCPUs, CPython 3.11.7)."""
        pair = self.critical_pair
        A, B, _ = pair
        r, a, b, s = getattr(pair, "held", None) or _held(A, B)
        tall = max(map(len, s)) > max(map(len, a)) + max(map(len, b)) - 1
        s1 = s if len(s) == 2 and not tall else None
        ry = r.to_unipoly("y")
        if ry.is_zero():
            raise ArithmeticError("critical locus of f is not finite")
        shared, j = _lc_gcd(a, b), None
        values = UniPoly([1], "l")
        for Q, m in _yun(_strip_powers(ry.primitive_integer().coeffs)):
            certified = m == 1 and len(_gcd_int(shared, Q)[0]) == 1
            if not certified and j is None:
                j = _rows(A.derivative("x") * B.derivative("y")
                          - A.derivative("y") * B.derivative("x"), 0, 1)
            g = s1 if certified and s1 and len(
                _gcd_int(s1[-1], Q)[0]) == 1 else None
            values = values * _values_over((a, b, None if certified else j),
                                           self.C, Q, g)
        return values

    @cached_property
    def radical(self) -> MPoly:
        """R: the critical curves, each once, primitive and lex-positive; 1
        with no gcd when G is constant.  Where the member F0 at lambda0
        holds every critical curve (`_curve_member`), R = gcd(F0 / G, G) by
        one gcd: F0 = prod R_j^m_j H and G = prod R_j^(m_j - 1), with H
        sharing no component with G (`_division_certificate`), so F0 / G =
        prod R_j H.  Elsewhere R = G / gcd(G, G_x, G_y)."""
        _, _, G = self.critical_pair
        if G.is_const():
            return MPoly.const(1)
        lam = self._curve_member
        if lam is not None:
            F = self.C.eval_var("l", lam).strip_monomial()
            return gcd_bivariate(F.exact_div(G), G, "x", "y")
        g = gcd_bivariate(G.strip_monomial(),
                          G.derivative("x").strip_monomial(), "x", "y")
        g = gcd_bivariate(g, G.derivative("y").strip_monomial(), "x", "y")
        return G.exact_div(g).strip_monomial()

    @cached_property
    def _curve_member(self) -> Fraction | None:
        """lambda0 when one member, the one at lambda0, holds every critical
        curve, as `_division_certificate` proves it from G; None when it
        fails or G is constant."""
        return _division_certificate(self.critical_pair[2], self.C)

    @cached_property
    def curve_values(self) -> UniPoly:
        """The lambda of the members containing a critical curve: l -
        lambda0 when the member at lambda0 holds them all (`_curve_member`),
        else the pure-l content of Res(R, C), 1 when f has no critical
        curve.  f is constant on each component of R, and minus that
        constant is a root of the content."""
        lam = self._curve_member
        if lam is not None:
            return UniPoly([-lam, 1], "l")
        return _curve_values(self.radical, self.C)


# ---------------------------------------------------------------------------
# base-point towers
# ---------------------------------------------------------------------------


class BasePointTower:
    """The chain of blowups over the base point p_e on the boundary component
    of an edge e with lattice length l(e): the last exceptional curve is a
    section, the l(e)-1 intermediate (-2)-curves each land in the finite
    fibre at lambda_value."""

    __slots__ = ("edge", "chain_length", "lambda_value")

    def __init__(self, edge, chain_length: int, lambda_value: Fraction):
        self.edge = edge
        self.chain_length = chain_length
        self.lambda_value = lambda_value

    def __repr__(self):
        return (
            f"BasePointTower(edge={self.edge}, l={self.chain_length}, "
            f"lambda={self.lambda_value})"
        )


def base_point_towers(P: Polygon, pencil: Pencil) -> list[BasePointTower]:
    """One tower per edge of lattice length >= 2.

    In a smooth chart (x1, x2) adjacent to the boundary ray of edge e the
    cleared member is x1 (f + lambda) = A(x1, x2) + lambda x1 with
    A|_{x1=0} = x2^a (1 + x2)^{l(e)}; the base point is (0, -1) with contact
    order l(e).  Resolving by x1 <- x1 z at x2 = z - 1 shows that the
    fibration restricted to every intermediate exceptional curve is the
    constant lambda = -[x1^1 z^0] A, i.e. minus the sum of c_u (-1)^m over
    the height-zero support points u = m w of f (w a primitive generator of
    the edge direction).
    """
    towers = []
    for e in P.edges():
        if e.lattice_length < 2:
            continue
        v = e.inner_normal
        acc = Fraction(0)
        for u, c in pencil.f.terms.items():
            if v[0] * u[0] + v[1] * u[1] == 0:
                m = int_gcd(abs(u[0]), abs(u[1]))
                acc += c * (-1) ** m
        towers.append(BasePointTower(e, e.lattice_length, -acc))
    return towers


# ---------------------------------------------------------------------------
# torus singularities
# ---------------------------------------------------------------------------


def format_location(loc) -> str:
    """A fibre location as text: "infinity", a rational lambda, or the
    factor UniPoly whose roots are the conjugate locations."""
    return format_unipoly(loc) if isinstance(loc, UniPoly) else str(loc)


class SingularValue:
    """A finite lambda location where the member has torus singularities.

    location: a rational lambda, or a rational-root-free UniPoly factor q(l)
    carrying deg(q) conjugate locations.  torus_nodes: ordinary nodes per
    root.  multiplicity: that of the member's repeated component, 1 when it
    has none; a member with multiplicity > 1 is nonreduced, and then
    torus_nodes is 0.
    """

    __slots__ = ("location", "torus_nodes", "multiplicity")

    def __init__(self, location, torus_nodes=0, multiplicity=1):
        self.location = location
        self.torus_nodes = torus_nodes
        self.multiplicity = multiplicity

    @property
    def degree(self) -> int:
        return 1 if isinstance(self.location, Fraction) else self.location.degree

    def __repr__(self):
        extra = ", nonreduced" if self.multiplicity > 1 else ""
        return (f"SingularValue({format_location(self.location)}, "
                f"nodes={self.torus_nodes}{extra})")


def _log_partials(f: LaurentPoly) -> tuple[MPoly, MPoly]:
    """Cleared x f_x and y f_y as (x, y)-polynomials with no monomial factor
    and no lambda dependence; ValueError when one is zero."""
    out = []
    for i, var in enumerate("xy"):
        g = {u: c * u[i] for u, c in f.terms.items() if u[i]}
        if not g:
            raise ValueError(f"f is free of {var}: {var} f_{var} is zero")
        a0 = min(a for a, _ in g)
        b0 = min(b for _, b in g)
        out.append(MPoly({(a - a0, b - b0, 0): c for (a, b), c in g.items()}))
    return out[0], out[1]


def _strip_powers(coeffs: list) -> list:
    """An ascending coefficient list without its leading zeros: the
    polynomial divided by the largest power of its variable."""
    k = 0
    while k < len(coeffs) and not coeffs[k]:
        k += 1
    return coeffs[k:]


class _CriticalPair(tuple):
    """(A, B, G) as `Pencil.critical_pair` computes it, with held the
    `_held` of this A and B, or None.  A pair set in its place is a plain
    tuple, whose `_held` `critical_values` takes anew."""

    def __new__(cls, A: MPoly, B: MPoly, G: MPoly, held: tuple | None):
        pair = super().__new__(cls, (A, B, G))
        pair.held = held
        return pair


def _held(A: MPoly, B: MPoly) -> tuple:
    """(Res_x(A, B), rows of A, B and S): S is the last element of the
    chain (`_resultant_chain`), and rows are as `_rows(p, 0, 1)`."""
    r, last = _resultant_chain(A, B, "x")
    return r, _rows(A, 0, 1), _rows(B, 0, 1), _rows(last(), 0, 1)


def _lc_gcd(a: list, b: list) -> list[int]:
    """The gcd in Z[y] of the leading coefficients of two polynomials given
    by their rows in x (`_rows(p, 0, 1)`), each with its y-powers stripped:
    [1] when they share no root but y = 0."""
    return _gcd_int(_strip_powers(a[-1]), _strip_powers(b[-1]))[0]


def _curve_values(G: MPoly, C: MPoly, lam: Fraction | None = None
                  ) -> UniPoly:
    """The pure-l content of Res(G, C), taken over a variable of G; 1 when G
    is constant.  With lam, the lambda0 of `_division_certificate`, it is
    (l - lambda0)^d, d the degree of G in that variable, and no resultant
    runs: at each of the d roots a of G in that variable, C = (l - lambda0)
    m, and the product of m over them is free of l and nonzero."""
    if G.is_const():
        return UniPoly([1], "l")
    var, other = ("x", "y") if G.degree("x") > 0 else ("y", "x")
    if lam is not None:
        return UniPoly([-lam, 1], "l") ** G.degree(var)
    return _content(resultant(G, C, var).strip_monomial(), other, "l")


def _remainder(p: MPoly, G: MPoly) -> dict:
    """The terms of the remainder of p on division by G over Q in the lex
    order of the exponent triples: p - qG with no term divisible by the
    leading term of G.  {G} is a Groebner basis of (G), so the remainder is
    0 exactly when G divides p (Cox-Little-O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 2)."""
    lk = max(G.terms)
    lc = G.terms[lk]
    tail = [(k, c) for k, c in G.terms.items() if k != lk]
    rem, out = dict(p.terms), {}
    while rem:
        k = max(rem)
        c = rem.pop(k)
        t = (k[0] - lk[0], k[1] - lk[1], k[2] - lk[2])
        if min(t) < 0:
            out[k] = c
            continue
        q = c // lc if c % lc == 0 else Fraction(c, lc)
        for k2, c2 in tail:
            kk = (t[0] + k2[0], t[1] + k2[1], t[2] + k2[2])
            s = rem.get(kk, 0) - q * c2
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return out


def _division_certificate(G: MPoly, C: MPoly) -> Fraction | None:
    """lambda0 when G divides the member C0 + lambda0 m, C = C0 + l m with m
    a monomial; None when no lambda0 does or G is constant.

    A component R_j of G lies in the member of multiplicity m_j at its
    value, where f + lambda vanishes to order m_j and the log partials to
    order m_j - 1, so G = prod R_j^(m_j - 1) up to a constant.  G divides
    the member at lambda0 exactly when every R_j lies in it.  Division is
    linear: with r0, r1 the remainders of C0 and m (`_remainder`, G free of
    l), that is r0 = -lambda0 r1.  r1 != 0 unless G divides a monomial."""
    if G.is_const():
        return None
    r0, r1 = {}, {}
    for k, c in _remainder(C, G).items():
        (r1 if k[2] else r0)[k[:2]] = c
    if not r1:
        return None
    k = next(iter(r1))
    lam = -Fraction(r0.get(k, 0)) / r1[k]
    if any(r0.get(k, 0) != -lam * r1.get(k, 0) for k in r0.keys() | r1):
        return None
    return lam


def elimination_polynomial(P: Polygon, pencil: Pencil | None = None) -> UniPoly:
    """Eliminate x then y from the critical-point system
    {x f_x = 0, y f_y = 0, f + lambda = 0}: the result is a univariate
    polynomial in lambda whose roots contain every singular value (possibly
    with extraneous factors).  The analysis report lists its factors;
    classification does not use it.

    E is the pure-lambda content of Res(G, C) (`_curve_values`, with no
    resultant where one member holds the critical curves) times
    Res_y(r1, r2), where
    r1 = Res_x(A, C) loses its common (y, l)-factors with r2 = Res_x(B, C).
    r1 has no pure-lambda factor, so no peel has a content and a y-free r1
    is a constant: l - c dividing r1 makes A share a component h of
    positive x-degree with the member at c, of multiplicity m say; x f_x
    vanishes to order m - 1 on h and y f_y to at least m - 1, so h divides
    G = gcd(x f_x, y f_y) as often as x f_x, and not A = x f_x / G.  So a
    common factor of r1 and r2 has positive y-degree, and Res_y(r1, r2),
    taken first, proves them coprime when it is nonzero: the peel runs
    only when it vanishes (9 under ((-11,3),(-4,1)): 1.5 s -> 0.08 s of
    process time, 2 vCPUs, CPython 3.11.7).  A y-free r2 is itself the
    eliminant, with other multiplicities.  For
    reflexive P it never is (f would be a function of one monomial), so
    the shortcut serves hand-set pencils such as f = xy + y (E = lambda)."""
    if pencil is None:
        pencil = Pencil(P)
    A, B, G = pencil.critical_pair
    r1 = resultant(A, pencil.C, "x").strip_monomial()
    r2 = resultant(B, pencil.C, "x").strip_monomial()
    if r2.degree("y") <= 0:
        e = r2
    elif not (e := resultant(r1, r2, "y")).terms:
        g = gcd_bivariate(r1, r2, "l", "y")
        while not g.is_const():
            r1 = r1.exact_div(g).strip_monomial()
            # gcd(r1 / g, r2) = gcd(r1 / g, g): a common divisor of r1 / g
            # and r2 divides g = gcd(r1, r2) (at each prime the order of
            # r1 / g is ord r1 - ord g, and min(ord r1 - ord g, ord r2) <=
            # ord g), and g divides r2.  Dividing r1 / g by a power of y
            # keeps both sides equal, and gcd_bivariate normalises, so each
            # peel is unchanged.
            g = gcd_bivariate(r1, g, "l", "y")
        e = resultant(r1, r2, "y")
    e = _curve_values(G, pencil.C, pencil._curve_member) * e.to_unipoly("l")
    if e.is_zero():
        raise ArithmeticError("degenerate pencil: elimination vanished")
    return e.primitive_integer()


def member_is_nonreduced(pencil: Pencil, lam: Fraction):
    """(repeated factor, multiplicity), (None, 1) for a reduced member: the
    member F at lambda contains a repeated component iff gcd(F, R) is
    nonconstant, R the radical of G.  A repeated component of F divides both
    log partials, hence G; conversely f + lambda and df both vanish on a
    component of G inside F, so its square divides F.  gcd(F, R) is
    square-free: the repeated component, primitive with a positive
    lex-leading coefficient (`gcd_bivariate`).  At lambda = n/d, F is d C(x,
    y, n/d) (`MPoly.eval_var`; C is linear in l), with the member's factors.

    Where the member at lambda0 holds every critical curve
    (`Pencil._curve_member`), no gcd runs: gcd(F, R) is R at lambda0 (R =
    G / gcd(G, G_x, G_y) is primitive and lex-positive, as both are), and 1
    elsewhere, since f is constant on each component of R."""
    held = pencil._curve_member
    if held is not None and lam != held:
        return None, 1
    F = pencil.C.eval_var("l", lam).strip_monomial()
    R = pencil.radical if held is not None else gcd_bivariate(
        F, pencil.radical, "x", "y").strip_monomial()
    if R.is_const():
        return None, 1
    # multiplicity of R in F: one exact division per factor
    mult = 0
    try:
        while True:
            F = F.exact_div(R)
            mult += 1
    except ArithmeticError:
        pass
    if mult < 2:  # pragma: no cover - a component of G in F repeats
        raise ArithmeticError("repeated factor of multiplicity < 2")
    return R, mult


def _values_over(rows: tuple, C: MPoly, Q: list[int],
                 s1: list | None = None) -> UniPoly:
    """prod (l + f(p)), up to a nonzero constant, over the isolated torus
    critical points p = (x, y) of f whose y is a root of the squarefree Q,
    each certified to be an ordinary node.  rows holds those of A, B and J
    = det d(A, B)/d(x, y) (`_rows(p, 0, 1)`), J's None where
    `critical_values` has certified every point above Q by the order of
    Res_x(A, B); every factor of Q inherits that certificate.  Q is
    primitive with a positive leading coefficient; `critical_values` strips
    the y-powers of the Q it passes, so that y = 0 is no root.  ValueError
    when A and B both vanish mod Q.

    Over Q[y]/(Q), a product of fields, the points are the roots of g, the
    gcd of A and B (`gcd_over_quotient`) with its x-powers stripped: g is
    primitive and integral, the monic gcd times an integer.  Given s1, the
    rows of S_1 whose leading coefficient is a unit mod Q
    (`critical_values`), g is S_1, a unit multiple of that gcd, and every
    factor of Q inherits it.  Q is split, and each part taken alone,
    wherever a leading coefficient shows a zero divisor (dynamic
    evaluation, Della Dora-Dicrescenzo-Duval 1985) and wherever the lowest
    coefficient g_0 of g shares a factor with Q: at a root of that factor,
    g keeps the point x = 0, where the base points of the pencil can put a
    common root of A and B.  So x = 0 is a root of g at no root of Q.  A
    part that g_0 vanishes on entirely, which only an S_1 not reduced mod
    Q can show, has no torus point.  At a torus point J is a unit multiple
    of the Hessian of f, so J(p) != 0 makes p a node, and where J is
    given, gcd(g, J) = 1 certifies every point at once.  Res_y(Q, Res_x(g,
    C)) is the product over all the points times a nonzero constant, and
    both resultants run on integral inputs."""
    A, B, J = rows
    try:
        g = s1 or gcd_over_quotient(A, B, Q)
        if not g:
            raise ValueError("gcd(0, 0) undefined")
        g = _strip_powers(g)
        h = _gcd_int(g[0], Q)[0] if len(g) > 1 else Q
        if len(h) == len(Q):
            return UniPoly([1], "l")
        if len(h) > 1:
            raise ZeroDivisorError(h)
        if J is not None and len(gcd_over_quotient(g, J, Q)) > 1:
            raise ArithmeticError(
                f"critical point is not an ordinary node: stage torus nodes, "
                f"y a root of {format_unipoly(UniPoly(Q, 'y'))}")
    except ZeroDivisorError as zd:
        return (_values_over(rows, C, zd.factor, s1)
                * _values_over(rows, C, _quotient(Q, zd.factor), s1))
    g = MPoly({(i, j, 0): c for i, e in enumerate(g) for j, c in enumerate(e)
               if c})
    Q = MPoly({(0, j, 0): c for j, c in enumerate(Q) if c})
    return resultant(Q, resultant(g, C, "x"), "y").to_unipoly("l")


def singular_lambda_values(P: Polygon, pencil: Pencil) -> list[SingularValue]:
    """Certified finite singular locations of the pencil on the torus: the
    nonreduced members at the rational curve values, then each root of the
    critical values with its multiplicity as its node count, rational ones
    in ascending lambda before the rational-root-free factors."""
    if not P.is_reflexive():
        raise ValueError("P must be reflexive")
    rational = {}
    curve_roots, _ = squarefree_rational_roots(pencil.curve_values)
    for lam, _ in curve_roots:
        _, mult = member_is_nonreduced(pencil, lam)
        if mult > 1:
            rational[lam] = SingularValue(lam, 0, mult)
    roots, residual = squarefree_rational_roots(pencil.critical_values)
    for lam, n in roots:
        rational.setdefault(lam, SingularValue(lam, n))
    return ([rational[lam] for lam in sorted(rational)]
            + [SingularValue(q.primitive_integer(), n) for q, n in residual])


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


class FibreConfiguration:
    """entries: list of (location, KodairaType, count) where location is
    "infinity", a rational lambda, or an irrational factor UniPoly, and
    count is the number of fibres the entry stands for: the factor's degree,
    else 1.  fibres() lists them one by one."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = list(entries)

    def chi_total(self) -> int:
        return sum(t.chi * c for _, t, c in self.entries)

    def r_total(self) -> int:
        return sum(t.r * c for _, t, c in self.entries)

    def fibres(self) -> list:
        """(location, KodairaType) once per fibre, in entry order: an entry
        of count c appears c times."""
        return [(loc, t) for loc, t, c in self.entries for _ in range(c)]

    def type_multiset(self) -> tuple:
        return tuple(sorted(t.label() for _, t in self.fibres()))

    def __repr__(self):
        parts = []
        for loc, t, c in self.entries:
            parts.append(f"{t.label()}@{format_location(loc)}"
                         + (f" x{c}" if c > 1 else ""))
        return "FibreConfiguration(" + ", ".join(parts) + ")"


def classify_fibres(P: Polygon, pencil: Pencil | None = None
                    ) -> FibreConfiguration:
    """Full Kodaira configuration of the pencil in one pass over the singular
    values, checked against chi = 12.  A tower puts its chain_length curves
    (its l(e)-1 (-2)-curves and the strict-transform component they meet) at
    its lambda, a rational value its torus nodes: their sum is the k of an
    I_k.  A nonreduced value is additive and takes the towers at its lambda.
    Entries: infinity, the rational I_k by lambda, the irrational factors
    with count their degree, then the additive types, each from its
    multiplicity and the Euler budget the entries before it leave."""
    entries = [("infinity", fibre_at_infinity(P), 1)]
    if pencil is None:
        pencil = Pencil(P)
    absorbed: dict[Fraction, int] = {}
    for t in base_point_towers(P, pencil):
        lam = t.lambda_value
        absorbed[lam] = absorbed.get(lam, 0) + t.chain_length
    sing = singular_lambda_values(P, pencil)
    nodes = dict(absorbed)
    additive, conjugate = [], []
    for s in sing:
        if s.multiplicity > 1:
            additive.append(s)
            nodes.pop(s.location, None)
        elif isinstance(s.location, Fraction):
            nodes[s.location] = nodes.get(s.location, 0) + s.torus_nodes
        else:
            conjugate.append((s.location, KodairaType("I", s.torus_nodes),
                              s.degree))
    entries += [(lam, KodairaType("I", k), 1)
                for lam, k in sorted(nodes.items())]
    entries += conjugate

    def failure(message: str) -> ArithmeticError:
        towers_at = {str(lam): k for lam, k in sorted(absorbed.items())}
        return ArithmeticError(
            f"{message}; singular values {sing}, tower curves {towers_at}, "
            f"fibres {FibreConfiguration(entries)}")

    for s in additive:
        budget = 12 - FibreConfiguration(entries).chi_total()
        if s.multiplicity == 2 and budget == 7:
            t = KodairaType("I*", 1)
        elif s.multiplicity == 3 and budget == 8:
            t = KodairaType("IV*")
        else:
            raise failure(
                f"additive type unresolved: stage additive fibres, lambda = "
                f"{s.location}, repeated component of multiplicity "
                f"{s.multiplicity}, remaining Euler budget {budget}")
        entries.append((s.location, t, 1))

    config = FibreConfiguration(entries)
    if config.chi_total() != 12:
        raise failure(
            f"classification inconsistent: stage assembly, Euler budget "
            f"sum chi = {config.chi_total()}, expected 12")
    return config
