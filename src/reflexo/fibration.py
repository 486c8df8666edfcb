"""Singular fibres of the pencil {f_P + lambda} on the rational elliptic
surface attached to a reflexive polygon.

Pipeline: the fibre at infinity is the boundary cycle I_{12 - Vol(P)};
singular lambda values on the torus come from resultant elimination of the
critical-point system, certified per candidate; infinitely near base points
over each edge of lattice length >= 2 contribute (-2)-curves that are
absorbed by specific finite fibres; everything is assembled under the Euler
budget sum(chi) = 12.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd as int_gcd

from .algebra import (
    MPoly,
    QuotientRing,
    UniPoly,
    ZeroDivisorError,
    format_unipoly,
    gcd_bivariate,
    gcd_over_quotient,
    gcd_poly,
    resultant,
    squarefree_rational_roots,
)
from .laurent import LaurentPoly, build_fP, cleared_member
from .polygon import Polygon


# ---------------------------------------------------------------------------
# Kodaira types
# ---------------------------------------------------------------------------


class KodairaType:
    """A Kodaira fibre type with its Euler number chi and the rank r of the
    root lattice spanned by non-identity components."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int | None = None):
        if kind in ("I", "I*"):
            if n is None or n < 0:
                raise ValueError("I_n / I_n* require n >= 0")
        elif kind in ("II", "III", "IV", "IV*", "III*", "II*"):
            if n is not None:
                raise ValueError(f"{kind} takes no index")
        else:
            raise ValueError(f"unknown Kodaira kind {kind!r}")
        self.kind = kind
        self.n = n

    @property
    def chi(self) -> int:
        if self.kind == "I":
            return self.n
        if self.kind == "I*":
            return self.n + 6
        return {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}[
            self.kind
        ]

    @property
    def r(self) -> int:
        if self.kind == "I":
            return self.n - 1 if self.n >= 1 else 0
        if self.kind == "I*":
            return self.n + 4
        return {"II": 0, "III": 1, "IV": 2, "IV*": 6, "III*": 7, "II*": 8}[
            self.kind
        ]

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
    eliminants, the elimination polynomial E and the y-candidates of the
    isolated critical points.

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
        return _critical_pair(self.f)

    @cached_property
    def eliminants(self) -> tuple[MPoly, MPoly, UniPoly]:
        return _eliminants(self)

    @cached_property
    def elimination(self) -> UniPoly:
        return elimination_polynomial(self.P, self)

    @cached_property
    def elimination_roots(self):
        """squarefree_rational_roots(E): (rational roots, residual factors)."""
        return squarefree_rational_roots(self.elimination)

    @cached_property
    def critical_y(self):
        """squarefree_rational_roots of Res_x(A, B) with y-powers stripped:
        the candidate y-coordinates of the isolated critical points of f."""
        A, B, _ = self.critical_pair
        ry = resultant(A, B, "x").to_unipoly("y")
        if ry.is_zero():
            raise ArithmeticError("critical locus of f is not finite")
        hy = _strip_y_powers(ry)
        if hy.is_const():
            return [], []
        return squarefree_rational_roots(hy)


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

    @property
    def intermediate_curves(self) -> int:
        return self.chain_length - 1

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


class SingularValue:
    """A finite lambda location where the member has torus singularities.

    location: a rational lambda, or a rational-root-free UniPoly factor q(l)
    carrying deg(q) conjugate locations.  torus_nodes: ordinary nodes per
    root.  nonreduced: the member contains a repeated component; then
    repeated_factor / multiplicity describe it and torus_nodes is 0.
    """

    __slots__ = ("location", "torus_nodes", "nonreduced", "repeated_factor",
                 "multiplicity")

    def __init__(self, location, torus_nodes=0, nonreduced=False,
                 repeated_factor=None, multiplicity=1):
        self.location = location
        self.torus_nodes = torus_nodes
        self.nonreduced = nonreduced
        self.repeated_factor = repeated_factor
        self.multiplicity = multiplicity

    @property
    def degree(self) -> int:
        return 1 if isinstance(self.location, Fraction) else self.location.degree

    def __repr__(self):
        loc = (
            str(self.location)
            if isinstance(self.location, Fraction)
            else format_unipoly(self.location)
        )
        extra = ", nonreduced" if self.nonreduced else ""
        return f"SingularValue({loc}, nodes={self.torus_nodes}{extra})"


def _log_partials(f: LaurentPoly) -> tuple[MPoly, MPoly]:
    """Cleared x f_x and y f_y as (x, y)-polynomials with no monomial factor
    and no lambda dependence."""
    gx = LaurentPoly({u: c * u[0] for u, c in f.terms.items()})
    gy = LaurentPoly({u: c * u[1] for u, c in f.terms.items()})
    out = []
    for g in (gx, gy):
        min_a = min(a for a, _ in g.terms)
        min_b = min(b for _, b in g.terms)
        out.append(
            MPoly({(a - min_a, b - min_b, 0): c for (a, b), c in g.terms.items()})
        )
    return out[0], out[1]


def _strip_y_powers(p: UniPoly) -> UniPoly:
    k = 0
    while k <= p.degree and p[k] == 0:
        k += 1
    return UniPoly(p.coeffs[k:], p.var)


def _l_to_x(p: MPoly) -> MPoly:
    return MPoly({(c, b, 0): v for (a, b, c), v in p.terms.items()})


def _x_to_l(p: MPoly) -> MPoly:
    return MPoly({(0, b, a): v for (a, b, c), v in p.terms.items()})


def _gcd_yl(p: MPoly, q: MPoly) -> MPoly:
    """Bivariate gcd in the variables (y, l)."""
    return _x_to_l(gcd_bivariate(_l_to_x(p), _l_to_x(q)))


def _pure_l_content(p: MPoly) -> UniPoly:
    """gcd of the y-coefficients of p, as a polynomial in l."""
    g = UniPoly([], "l")
    for c in p.coeffs_in("y"):
        u = c.to_unipoly("l")
        u.var = "l"
        g = gcd_poly(g, u) if not g.is_zero() else u
    return g


def _critical_pair(f: LaurentPoly) -> tuple[MPoly, MPoly, MPoly]:
    """(A, B, G): the cleared logarithmic partials with their common
    bivariate factor G divided out.  Zeros of G are critical *curves* of f
    (components of a nonreduced member); zeros of (A, B) are the isolated
    critical points."""
    A, B = _log_partials(f)
    G = gcd_bivariate(A, B)
    if not G.is_const():
        A = A.exact_div(G).strip_monomial()
        B = B.exact_div(G).strip_monomial()
    return A, B, G


def _eliminants(pencil: Pencil):
    """(r1, r2, extra): the two x-eliminants of the critical system with
    common (y, l)-factors peeled off, and the pure-lambda polynomial
    collecting everything peeled (curve-part values and shared content)."""
    A, B, G = pencil.critical_pair
    C = pencil.C
    extra = UniPoly([1], "l")
    if not G.is_const():
        # f is constant on each critical curve; its lambda shows up as the
        # pure-l content of the eliminant of (G, C)
        if G.degree("x") > 0:
            rG = resultant(G, C, "x").strip_monomial()
        else:
            rG = resultant(G, C, "y").strip_monomial()
        content = _pure_l_content(rG)
        if not content.is_const():
            extra = extra * content
    r1 = resultant(A, C, "x").strip_monomial()
    r2 = resultant(B, C, "x").strip_monomial()
    while True:
        g = _gcd_yl(r1, r2)
        if g.is_const():
            break
        r1 = r1.exact_div(g).strip_monomial()
        content = _pure_l_content(g)
        if not content.is_const():
            extra = extra * content
    return r1, r2, extra


def elimination_polynomial(P: Polygon, pencil: Pencil | None = None) -> UniPoly:
    """Eliminate x then y from the critical-point system
    {x f_x = 0, y f_y = 0, f + lambda = 0}: the result is a univariate
    polynomial in lambda whose roots contain every singular value (possibly
    with extraneous factors, removed later by certification).  A Pencil's
    `elimination` calls this once with itself as `pencil`."""
    if pencil is None:
        pencil = Pencil(P)
    r1, r2, extra = pencil.eliminants
    if r1.degree("y") <= 0:
        e = extra * r1.to_unipoly("l")
    elif r2.degree("y") <= 0:
        e = extra * r2.to_unipoly("l")
    else:
        e = extra * resultant(r1, r2, "y").to_unipoly("l")
    e.var = "l"
    if e.is_zero():
        raise ArithmeticError("degenerate pencil: elimination vanished")
    return e.primitive_integer()


def _gcd3_biv(F: MPoly) -> MPoly:
    Fx = F.derivative("x").strip_monomial()
    Fy = F.derivative("y").strip_monomial()
    g = gcd_bivariate(F.strip_monomial(), Fx)
    return gcd_bivariate(g, Fy)


def member_is_nonreduced(P: Polygon, lam: Fraction,
                         pencil: Pencil | None = None):
    """(flag, repeated factor, multiplicity): the member at lambda contains a
    repeated component iff gcd(F, F_x, F_y) is nonconstant off the axes."""
    if pencil is None:
        pencil = Pencil(P)
    F = pencil.C.eval_var("l", lam).strip_monomial()
    G = _gcd3_biv(F).strip_monomial()
    if G.is_const():
        return False, None, 1
    # reduce G to its radical: G is a power of the repeated component here
    R = G
    while True:
        S = _gcd3_biv(R).strip_monomial()
        if S.is_const():
            break
        R = S
    # multiplicity of R in F
    mult = 0
    rem = F
    while R.divides(rem):
        rem = rem.exact_div(R)
        mult += 1
    if mult < 2:  # pragma: no cover - gcd found it, so it repeats
        raise ArithmeticError("repeated factor of multiplicity < 2")
    return True, R, mult


def _hessian_det(F: MPoly) -> MPoly:
    Fxx = F.derivative("x").derivative("x")
    Fyy = F.derivative("y").derivative("y")
    Fxy = F.derivative("x").derivative("y")
    return Fxx * Fyy - Fxy * Fxy


def _count_nodes_at(pencil: Pencil, lam: Fraction) -> int:
    """Number of singular points of the member at rational lambda on the
    torus, each certified to be an ordinary node."""
    # candidate y-values: the isolated critical points of f are cut out by
    # the lambda-free pair (A, B); membership in the fibre is tested per point
    roots, residual = pencil.critical_y
    A, B, _ = pencil.critical_pair
    F = pencil.C.eval_var("l", lam).strip_monomial()
    hess = _hessian_det(F)
    count = 0
    for y0, _ in roots:
        if y0 == 0:
            continue
        count += _nodes_on_fiber_y(F, A, B, hess, y0)
    for q, _ in residual:
        count += _nodes_on_extension(F, A, B, hess, q)
    return count


def _nodes_on_fiber_y(F, A, B, hess, y0: Fraction) -> int:
    """Nodes with rational y-coordinate y0."""
    polys = [
        p.eval_var("y", y0).to_unipoly("x") for p in (F, A, B)
    ]
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:  # pragma: no cover - F never vanishes on a whole line
        raise ArithmeticError("member contains the line y = y0")
    g = nonzero[0]
    for p in nonzero[1:]:
        g = gcd_poly(g, p)
    g = _strip_y_powers(g)  # strips x powers: same low-exponent logic
    if g.is_const():
        return 0
    hx = hess.eval_var("y", y0).to_unipoly("x")
    count = 0
    roots, residual = squarefree_rational_roots(g)
    for x0, _ in roots:
        if x0 == 0:
            continue
        if hx(x0) == 0:
            raise ArithmeticError("singular point is not an ordinary node")
        count += 1
    for q, _ in residual:
        # every conjugate root is a node iff hess is invertible mod q
        if not gcd_poly(q, hx).is_const():
            raise ArithmeticError("singular point is not an ordinary node")
        count += q.degree
    return count


def _nodes_on_extension(F, A, B, hess, qy: UniPoly) -> int:
    """Nodes whose y-coordinate is a root of the rational-root-free qy,
    counted over all deg(qy) conjugates via gcds in (Q[y]/qy)[x]."""
    try:
        ring = QuotientRing(qy)
        polys = [_to_quotient_coeffs(p, ring) for p in (F, A, B)]
        g = gcd_over_quotient(polys, ring)
        # strip x powers
        while g and ring.reduce(g[0]).is_zero():
            g = g[1:]
        d = len(g) - 1
        if d <= 0:
            return 0
        # certify nodes: hessian must be invertible at each solution, i.e.
        # gcd(g, hess mod qy) trivial over the quotient
        hq = _to_quotient_coeffs(hess, ring)
        gh = gcd_over_quotient([g, hq], ring)
        if len(gh) - 1 > 0:
            raise ArithmeticError("singular point is not an ordinary node")
        return qy.degree * d
    except ZeroDivisorError as zd:
        q1 = zd.factor
        q2 = qy.exact_div(q1)
        total = _nodes_on_extension(F, A, B, hess, q1)
        if not q2.is_const():
            total += _nodes_on_extension(F, A, B, hess, q2)
        return total


def _to_quotient_coeffs(p: MPoly, ring: QuotientRing) -> list[UniPoly]:
    """MPoly in (x, y) -> dense x-coefficient list of residues mod q(y)."""
    out = []
    for c in p.coeffs_in("x"):
        u = c.to_unipoly("y")
        u.var = ring.modulus.var
        out.append(ring.reduce(u))
    return out


def _certify_residual_factor(pencil: Pencil, q: UniPoly) -> list[UniPoly]:
    """Split q(l) into the sub-factors over which the critical-point system
    is actually solvable; extraneous parts of the elimination are dropped."""
    r1, r2, _ = pencil.eliminants

    def solvable(qq: UniPoly) -> list[UniPoly]:
        try:
            ring = QuotientRing(qq)
            polys = []
            for r in (r1, r2):
                coeffs = []
                for c in r.coeffs_in("y"):
                    u = c.to_unipoly("l")
                    u.var = qq.var
                    coeffs.append(ring.reduce(u))
                polys.append(coeffs)
            if all(all(ring.reduce(c).is_zero() for c in p) for p in polys):
                return [qq]  # cannot rule it out; budget check decides
            g = gcd_over_quotient([p for p in polys if any(
                not ring.reduce(c).is_zero() for c in p)], ring)
            while g and ring.reduce(g[0]).is_zero():
                g = g[1:]
            return [qq] if len(g) - 1 > 0 else []
        except ZeroDivisorError as zd:
            q1 = zd.factor
            q2 = qq.exact_div(q1)
            out = solvable(q1)
            if not q2.is_const():
                out += solvable(q2)
            return out

    return solvable(q)


def singular_lambda_values(P: Polygon, pencil: Pencil | None = None
                           ) -> list[SingularValue]:
    """Certified finite singular locations of the pencil on the torus."""
    if not P.is_reflexive():
        raise ValueError("P must be reflexive")
    if pencil is None:
        pencil = Pencil(P)
    roots, residual = pencil.elimination_roots
    out = []
    for lam, _ in roots:
        flag, rep, mult = member_is_nonreduced(P, lam, pencil)
        if flag:
            out.append(
                SingularValue(lam, 0, nonreduced=True, repeated_factor=rep,
                              multiplicity=mult)
            )
            continue
        n = _count_nodes_at(pencil, lam)
        if n > 0:
            out.append(SingularValue(lam, n))
    for q, _ in residual:
        for qq in _certify_residual_factor(pencil, q):
            out.append(SingularValue(qq.primitive_integer(), 1))
    return out


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


class FibreConfiguration:
    """entries: list of (location, KodairaType[, count]) where location is
    "infinity", a rational lambda, or an irrational factor UniPoly."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = list(entries)

    def chi_total(self) -> int:
        return sum(t.chi * c for _, t, c in self.entries)

    def r_total(self) -> int:
        return sum(t.r * c for _, t, c in self.entries)

    def type_multiset(self) -> tuple:
        labels = []
        for _, t, c in self.entries:
            labels.extend([t.label()] * c)
        return tuple(sorted(labels))

    def __repr__(self):
        parts = []
        for loc, t, c in self.entries:
            where = (
                loc if isinstance(loc, str)
                else (str(loc) if isinstance(loc, Fraction)
                      else format_unipoly(loc))
            )
            parts.append(f"{t.label()}@{where}" + (f" x{c}" if c > 1 else ""))
        return "FibreConfiguration(" + ", ".join(parts) + ")"


def classify_fibres(P: Polygon, pencil: Pencil | None = None
                    ) -> FibreConfiguration:
    """Full Kodaira configuration of the pencil: the I_{12-Vol} fibre at
    infinity plus the certified finite fibres, checked against chi = 12."""
    entries = [("infinity", fibre_at_infinity(P), 1)]
    if pencil is None:
        pencil = Pencil(P)
    towers = base_point_towers(P, pencil)
    absorbed: dict[Fraction, int] = {}
    for t in towers:
        # per-edge contribution: the l(e)-1 (-2)-curves plus the component
        # of the strict transform they connect to
        absorbed[t.lambda_value] = (
            absorbed.get(t.lambda_value, 0) + t.intermediate_curves + 1
        )
    sing = singular_lambda_values(P, pencil)
    rational = {s.location: s for s in sing if isinstance(s.location, Fraction)}
    irrational = [s for s in sing if not isinstance(s.location, Fraction)]

    nonreduced_entries = []
    finite_chi = 0
    for lam in sorted(set(rational) | set(absorbed)):
        s = rational.get(lam)
        if s is not None and s.nonreduced:
            nonreduced_entries.append((lam, s))
            continue
        nodes = s.torus_nodes if s is not None else 0
        k = nodes + absorbed.get(lam, 0)
        if k == 0:
            continue
        entries.append((lam, KodairaType("I", k), 1))
        finite_chi += k
    for s in irrational:
        entries.append((s.location, KodairaType("I", 1), s.degree))
        finite_chi += s.degree

    for lam, s in nonreduced_entries:
        budget = 12 - entries[0][1].chi - finite_chi
        if s.multiplicity == 2 and budget == 7:
            t = KodairaType("I*", 1)
        elif s.multiplicity == 3 and budget == 8:
            t = KodairaType("IV*")
        else:
            raise ArithmeticError("additive type unresolved")
        entries.append((lam, t, 1))
        finite_chi += t.chi

    config = FibreConfiguration(entries)
    if config.chi_total() != 12:
        raise ArithmeticError("classification inconsistent")
    return config
