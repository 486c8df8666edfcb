"""Singular fibres of the pencil {f_P + lambda} on the rational elliptic
surface attached to a reflexive polygon.

Pipeline: the fibre at infinity is the boundary cycle I_{12 - Vol(P)}; the
singular lambda values on the torus are the roots of the pencil's critical
values -- the lambda of its isolated critical points, each certified an
ordinary node by the lambda-free Jacobian, with multiplicity its number of
nodes -- and the rational roots of its curve values, the lambda of the
members containing a critical curve: every such member is nonreduced, and
every repeated component of a member is a critical curve.  Infinitely near
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
    _gcd_int,
    _int_list,
    _primitive,
    _rows,
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
    once: f = f_P, the cleared member C, the critical pair (A, B, G), the
    radical R of G, the y-candidates of the isolated critical points, their
    critical values and the curve values of the critical curves R.  A
    repeated component of a member divides both log partials, so it divides
    R; every singular lambda on the torus is therefore a critical value or a
    curve value.  The elimination polynomial E serves only the analysis
    report, which builds it with `elimination_polynomial`.

    A Pencil lives for one top-level call (a report, a table row) and is
    passed down explicitly; nothing keeps it afterwards.  Its values are
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
        isolated critical points."""
        A, B = _log_partials(self.f)
        G = gcd_bivariate(A, B, "x", "y")
        if not G.is_const():
            A = A.exact_div(G).strip_monomial()
            B = B.exact_div(G).strip_monomial()
        return A, B, G

    @cached_property
    def critical_y(self):
        """squarefree_rational_roots of Res_x(A, B) with y-powers stripped:
        the candidate y-coordinates of the isolated critical points of f."""
        A, B, _ = self.critical_pair
        ry = resultant(A, B, "x").to_unipoly("y")
        if ry.is_zero():
            raise ArithmeticError("critical locus of f is not finite")
        return squarefree_rational_roots(
            UniPoly(_strip_powers(ry.coeffs), "y"))

    @cached_property
    def critical_values(self) -> UniPoly:
        """prod (l + f(p)), up to a nonzero constant, over the isolated torus
        critical points p of f, each certified to be an ordinary node: its
        roots are the lambda of the members through them, each with
        multiplicity its number of points."""
        A, B, _ = self.critical_pair
        J = (A.derivative("x") * B.derivative("y")
             - A.derivative("y") * B.derivative("x"))
        roots, residual = self.critical_y
        values = UniPoly([1], "l")
        for y0, _ in roots:
            values = values * _values_at_y(A, B, J, self.C, y0)
        for qy, _ in residual:
            values = values * _values_over(A, B, J, self.C, qy)
        return values

    @cached_property
    def radical(self) -> MPoly:
        """R = G / gcd(G, G_x, G_y): the critical curves, each once."""
        _, _, G = self.critical_pair
        g = gcd_bivariate(G.strip_monomial(),
                          G.derivative("x").strip_monomial(), "x", "y")
        g = gcd_bivariate(g, G.derivative("y").strip_monomial(), "x", "y")
        return G.exact_div(g).strip_monomial()

    @cached_property
    def curve_values(self) -> UniPoly:
        """The lambda of the members containing a critical curve: the pure-l
        content of Res(R, C), 1 when f has no critical curve.  f is constant
        on each component of R, and minus that constant is a root of the
        content."""
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


def base_point_towers(P: Polygon, pencil: Pencil | None = None
                      ) -> list[BasePointTower]:
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
    if pencil is None:
        pencil = Pencil(P)
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
    and no lambda dependence."""
    out = []
    for i in (0, 1):
        g = {u: c * u[i] for u, c in f.terms.items() if u[i]}
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


def _curve_values(G: MPoly, C: MPoly) -> UniPoly:
    """The pure-l content of Res(G, C), taken over a variable of G; 1 when G
    is constant."""
    if G.is_const():
        return UniPoly([1], "l")
    var, other = ("x", "y") if G.degree("x") > 0 else ("y", "x")
    return _content(resultant(G, C, var).strip_monomial(), other, "l")


def elimination_polynomial(P: Polygon, pencil: Pencil | None = None) -> UniPoly:
    """Eliminate x then y from the critical-point system
    {x f_x = 0, y f_y = 0, f + lambda = 0}: the result is a univariate
    polynomial in lambda whose roots contain every singular value (possibly
    with extraneous factors).  The analysis report lists its factors;
    classification does not use it.

    E is the pure-lambda content of Res(G, C) times Res_y(r1, r2), where
    r1 = Res_x(A, C) loses its common (y, l)-factors with r2 = Res_x(B, C).
    r1 has no pure-lambda factor, so no peel has a content and a y-free r1
    is a constant: l - c dividing r1 makes A share a component h of
    positive x-degree with the member at c, of multiplicity m say; x f_x
    vanishes to order m - 1 on h and y f_y to at least m - 1, so h divides
    G = gcd(x f_x, y f_y) as often as x f_x, and not A = x f_x / G.  A
    y-free r2 is itself the eliminant, with other multiplicities.  For
    reflexive P it never is (f would be a function of one monomial), so
    the shortcut serves hand-set pencils such as f = xy + y (E = lambda)."""
    if pencil is None:
        pencil = Pencil(P)
    A, B, G = pencil.critical_pair
    r1 = resultant(A, pencil.C, "x").strip_monomial()
    r2 = resultant(B, pencil.C, "x").strip_monomial()
    g = gcd_bivariate(r1, r2, "l", "y")
    while not g.is_const():
        r1 = r1.exact_div(g).strip_monomial()
        # gcd(r1 / g, r2) = gcd(r1 / g, g): a common divisor of r1 / g and
        # r2 divides g = gcd(r1, r2) (at each prime the order of r1 / g is
        # ord r1 - ord g, and min(ord r1 - ord g, ord r2) <= ord g), and g
        # divides r2.  Dividing r1 / g by a power of y keeps both sides
        # equal, and gcd_bivariate normalises, so each peel is unchanged.
        g = gcd_bivariate(r1, g, "l", "y")
    e = r2 if r2.degree("y") <= 0 else resultant(r1, r2, "y")
    e = _curve_values(G, pencil.C) * e.to_unipoly("l")
    if e.is_zero():
        raise ArithmeticError("degenerate pencil: elimination vanished")
    return e.primitive_integer()


def member_is_nonreduced(P: Polygon, lam: Fraction,
                         pencil: Pencil | None = None):
    """(flag, repeated factor, multiplicity): the member F at lambda contains
    a repeated component iff gcd(F, R) is nonconstant, R the radical of G.
    A repeated component of F divides both log partials, hence G; conversely
    f + lambda and df both vanish on a component of G inside F, so its
    square divides F.  gcd(F, R) is square-free: the repeated component."""
    if pencil is None:
        pencil = Pencil(P)
    F = pencil.C.eval_var("l", lam).strip_monomial()
    R = gcd_bivariate(F, pencil.radical, "x", "y").strip_monomial()
    if R.is_const():
        return False, None, 1
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
    return True, R, mult


def _at_y(p: MPoly, y0: Fraction) -> MPoly:
    """d^e p(x, n/d, l) for y0 = n/d in lowest terms and e = deg_y p: p at
    y = y0 up to the nonzero constant d^e, with int coefficients where p
    has them."""
    n, d = y0.numerator, y0.denominator
    e = p.degree("y")
    terms: dict = {}
    for (a, b, c), v in p.terms.items():
        terms[a, 0, c] = terms.get((a, 0, c), 0) + v * n**b * d**(e - b)
    return MPoly(terms)


def _values_at_y(A: MPoly, B: MPoly, J: MPoly, C: MPoly, y0: Fraction
                 ) -> UniPoly:
    """prod (l + f(p)), up to a nonzero constant, over the isolated torus
    critical points p = (x, y0) of f, each certified to be an ordinary node.

    The points are the roots of g = gcd(A, B)(x, y0), x-powers stripped.  At
    such a point J = det d(A, B)/d(x, y) is a unit multiple of the Hessian
    of f, so gcd(g, J) = 1 certifies them all at once.  Res_x(g, C) is the
    product of C = x^a y^b (f + l) over them.  A, B, J and C are read at
    y0 up to nonzero constants, as int lists where they are in x alone, and
    g is the primitive integer gcd; each constant scales only the result.
    """
    A0, B0, J0 = (_int_list(_at_y(p, y0), "x") for p in (A, B, J))
    if not A0 and not B0:
        raise ValueError("gcd(0, 0) undefined")
    g = _strip_powers(_gcd_int(A0, B0)[0])
    if len(g) == 1:
        return UniPoly([1], "l")
    if len(_gcd_int(g, J0)[0]) > 1:
        raise ArithmeticError(
            f"critical point is not an ordinary node: stage torus nodes, "
            f"y = {y0}")
    g = MPoly({(i, 0, 0): c for i, c in enumerate(g)})
    return resultant(g, _at_y(C, y0), "x").to_unipoly("l")


def _values_over(A: MPoly, B: MPoly, J: MPoly, C: MPoly, qy: UniPoly
                 ) -> UniPoly:
    """_values_at_y for the points whose y-coordinate is a root of the
    rational-root-free qy, over Q[y]/(qy), up to a nonzero constant.

    A, B and J are read as int lists mod Q, the primitive integer multiple
    of qy, and g is the gcd of A and B over Q[y]/(qy): primitive and
    integral, the monic gcd times an integer.  So Res_y(Q, Res_x(g, C)) is
    the product over all the points times a nonzero constant, and both
    resultants run on integral inputs.  qy is split wherever Q[y]/(qy)
    shows a zero divisor."""
    Q = _primitive(qy.primitive_integer().coeffs)
    try:
        g = _strip_powers(
            gcd_over_quotient(_rows(A, 0, 1), _rows(B, 0, 1), Q))
        if len(g) <= 1:
            return UniPoly([1], "l")
        if len(gcd_over_quotient(g, _rows(J, 0, 1), Q)) > 1:
            raise ArithmeticError(
                f"critical point is not an ordinary node: stage torus nodes, "
                f"y a root of {format_unipoly(qy)}")
    except ZeroDivisorError as zd:
        return (_values_over(A, B, J, C, zd.factor)
                * _values_over(A, B, J, C, qy.exact_div(zd.factor)))
    g = MPoly({(i, j, 0): c for i, e in enumerate(g) for j, c in enumerate(e)
               if c})
    Q = MPoly({(0, j, 0): c for j, c in enumerate(Q) if c})
    return resultant(Q, resultant(g, C, "x"), "y").to_unipoly("l")


def singular_lambda_values(P: Polygon, pencil: Pencil | None = None
                           ) -> list[SingularValue]:
    """Certified finite singular locations of the pencil on the torus: the
    nonreduced members at the rational curve values, then each root of the
    critical values with its multiplicity as its node count, rational ones
    in ascending lambda before the rational-root-free factors."""
    if not P.is_reflexive():
        raise ValueError("P must be reflexive")
    if pencil is None:
        pencil = Pencil(P)
    rational = {}
    curve_roots, _ = squarefree_rational_roots(pencil.curve_values)
    for lam, _ in curve_roots:
        flag, _, mult = member_is_nonreduced(P, lam, pencil)
        if flag:
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
