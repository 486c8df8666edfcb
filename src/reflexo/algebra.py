"""Exact rational polynomial algebra.

Everything here is exact and no operation ever rounds; a float coefficient
raises TypeError.  Two polynomial representations are provided:

* ``UniPoly`` -- dense univariate polynomials (ascending coefficients) with a
  variable tag, used for polynomials in lambda, Picard-Fuchs coefficient
  polynomials p_k(t), squarefree decomposition and rational roots.

* ``MPoly`` -- sparse polynomials in the fixed variables (x, y, l) used by the
  elimination pipeline and the only input of `resultant`.  lambda ("l") is
  conceptually a coefficient-ring variable; the representation is shared for
  convenience.  The bivariate gcd takes its main and coefficient variables as
  arguments, so it serves x over y and lambda over y alike.

These two and the other exact containers, `laurent.LaurentPoly` and
`period.PowerSeries`, store every value through `_exact`: an int where it
is integral, a `Fraction` otherwise, and TypeError on a float.  So the
resultants, gcds, periods and fits of integral inputs run in int
arithmetic.  Every true division of coefficients goes through `_div`,
since int / int is a float.

The univariate gcd of int lists is a modular gcd (Brown 1971; Collins):
the primitive integer inputs are reduced modulo the Mersenne primes
2^31 - 1, 2^61 - 1, ... of `_MERSENNE_EXPONENTS`, the moduli of the
Picard-Fuchs fit too, the monic images are combined by the Chinese
remainder theorem, and a candidate is accepted only once it divides both
inputs exactly over Z, which proves it the gcd.  Yun's square-free
decomposition runs on the same integer gcd and its exact cofactors.  The
gcd over Q[y]/(q) is a fraction-free Euclid over Z[y]/(Q) on int lists, Q
the primitive integer multiple of q; a leading coefficient that is a zero
divisor raises ZeroDivisorError with the factor of q it shares.

One subresultant polynomial remainder sequence (Collins; Brown-Traub)
serves both the resultant and the bivariate gcd, over any coefficient ring
with a checked exact division.  Both callers read each input's terms once,
as those of its primitive integer multiple (an integral input takes one
int gcd and builds no Fraction).  Up to `_PACK_BITS` they Kronecker-pack
the terms straight into one int per coefficient and unpack the answer
digit by digit, the resultant with its sign and scale; above, `MPoly`s.
Every step divides a pseudo-remainder exactly by Brown's g h^delta, and the
division is checked, so a wrong step raises instead of giving a wrong
value.  The test-suite cross-checks resultants against an independent
Bareiss determinant of the Sylvester matrix; both live test-side, in
``tests/oracles.py``, since the program itself takes no determinants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable

NEG_INF = float("-inf")  # degree of the zero polynomial


def _exact(x) -> int | Fraction:
    """x as a coefficient: an int when it is integral, else a Fraction (x
    itself when it is one); TypeError on a float."""
    if x.__class__ is int:
        return x
    if not isinstance(x, Fraction):
        if isinstance(x, float):
            raise TypeError(
                f"inexact coefficient {x!r}: give an int or a Fraction")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(a, b) -> int | Fraction:
    """a / b for coefficients; divmod on two ints, since int / int is a
    float."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _power(base, n: int, one):
    """base ** n by square and multiply, starting from the identity `one`."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while True:
        if n & 1:
            result = result * base
        n >>= 1
        if not n:
            return result
        base = base * base  # only while bits remain


def _format_terms(terms) -> str:
    """Text form of (coefficient, monomial) pairs in the order given: a
    coefficient of absolute value 1 shows only its sign before a monomial,
    and a negative term is joined by " - "."""
    out = ""
    for c, mon in terms:
        if mon and abs(c) == 1:
            part = ("-" if c < 0 else "") + mon
        else:
            part = f"{c}*{mon}" if mon else str(c)
        if not out:
            out = part
        elif part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out or "0"


def _primitive_scale(coeffs) -> int | Fraction:
    """The positive s for which the s*c, c in coeffs, are coprime ints; 1
    when every c is zero."""
    den = lcm(*(c.denominator for c in coeffs))
    g = int_gcd(*(c.numerator * (den // c.denominator) for c in coeffs))
    return _div(den, g) if g else 1


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Q, coefficients ascending by degree,
    each an int where it is integral and a Fraction otherwise."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable = (), var: str = "t"):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs
        self.var = var

    # -- basics -------------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self) -> int | Fraction:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int | Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ([] if other == 0 else [_exact(other)])
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "UniPoly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)], self.var)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other) -> "UniPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        return UniPoly(_mul(self.coeffs, self._coerce(other).coeffs),
                       self.var)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "UniPoly":
        return _power(self, n, UniPoly([1], self.var))

    def _coerce(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        return UniPoly([other], self.var)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Euclidean division over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lcd = other.lc()
        q = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = _div(c, lcd)
            q[i - dn] = f
            for j, b in enumerate(other.coeffs):
                rem[i - dn + j] -= f * b
        return UniPoly(q, self.var), UniPoly(rem, self.var)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division not exact")
        return q

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:], self.var)

    def monic(self) -> "UniPoly":
        lcd = self.lc()
        if lcd == 1 or not self.coeffs:
            return self
        return UniPoly([_div(c, lcd) for c in self.coeffs], self.var)

    def primitive_integer(self) -> "UniPoly":
        """Scale to integer coefficients with content 1 and positive trailing
        (lowest-degree nonzero) coefficient."""
        if self.is_zero():
            return self
        s = _primitive_scale(self.coeffs)
        if next(c for c in self.coeffs if c != 0) < 0:
            s = -s
        return UniPoly([c * s for c in self.coeffs], self.var)

    def __repr__(self):
        return f"UniPoly({format_unipoly(self)!r})"


def format_unipoly(p: UniPoly) -> str:
    return _format_terms(
        (c, "" if i == 0 else p.var if i == 1 else f"{p.var}^{i}")
        for i, c in reversed(list(enumerate(p.coeffs)))
        if c
    )


# ---------------------------------------------------------------------------
# the modular gcd over Z, and through it over Q
# ---------------------------------------------------------------------------

# The exponents e of the Mersenne primes 2^e - 1, ascending: the moduli of
# every modular kernel, the gcd below and period.find_picard_fuchs, in turn.
# The fit folds its slots by 2^e = 1 mod p, so they must be Mersenne primes.
_MERSENNE_EXPONENTS = (31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                       4253, 4423)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd in GF(p)[x] of a and b, ascending lists of residues
    with nonzero leading entries, b not empty; monic Euclid."""
    if len(a) < len(b):
        a, b = b, a
    while True:
        n = len(b) - 1
        if not n:
            return [1]
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a = list(a)
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i] % p
            if c:
                for j in range(n):
                    a[i - n + j] -= c * b[j]
        r = _trim([c % p for c in a[:n]])
        if not r:
            return b
        a, b = b, r


def _quotient(a: list[int], h: list[int]) -> list[int] | None:
    """a / h in Z[x] for ascending int lists, a possibly empty and h not,
    or None when h does not divide a there.  For a primitive h that is the
    same as over Q (Gauss), so None proves that h does not divide a."""
    n = len(h) - 1
    if len(a) <= n:
        return None if a else []
    rem = list(a)
    lc = h[-1]
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c, r = divmod(rem[i], lc)
        if r:
            return None
        if c:
            q[i - n] = c
            for j in range(n):
                rem[i - n + j] -= c * h[j]
    return None if any(rem[:n]) else q


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    g = int_gcd(*a)
    return [c // g for c in a] if a[-1] > 0 else [-c // g for c in a]


def _gcd_int(a: list[int], b: list[int]
             ) -> tuple[list[int], list[int], list[int]]:
    """(g, a / g, b / g) for ascending int lists a and b, trimmed and not
    both empty: g is their gcd in Z[x], primitive with a positive leading
    coefficient, and the cofactors are exact.

    Each Mersenne prime p = 2^e - 1 of _MERSENNE_EXPONENTS in turn,
    2^31 - 1 first, that divides neither leading coefficient maps the gcd
    onto a divisor of the gcd mod p of the same degree, since its leading
    coefficient divides both.  So a degree 0 mod p proves the gcd 1, and a
    lower degree than before shows the earlier primes unlucky and starts
    again.  The images, monic mod p and scaled by l = gcd(lc a, lc b), a
    multiple of the gcd's leading coefficient, are combined by the Chinese
    remainder theorem in symmetric residues.  After each prime the
    primitive part of that candidate is tried: if it divides both inputs
    exactly over Z, it divides the gcd and has at least its degree, so it
    is the gcd.  Nothing is accepted on a bound or on agreement between
    primes alone.  The moduli hold 19199 bits together; when every one is
    spent, ArithmeticError names the last.
    """
    if not a or not b:
        g = _primitive(a or b)
        return g, _quotient(a, g), _quotient(b, g)
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    la, lb = a[-1], b[-1]
    ell = int_gcd(la, lb)
    g: list[int] = []
    for e in _MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if not la % p or not lb % p:
            continue
        h = _gcd_mod([c % p for c in a], [c % p for c in b], p)
        if len(h) == 1:
            return [1], a, b
        if not g or len(h) < len(g):
            g, m = [ell * c % p for c in h], p
        elif len(h) > len(g):
            continue
        else:
            t = pow(m, -1, p)
            g = [x + m * ((ell * c - x) * t % p) for x, c in zip(g, h)]
            m *= p
        cand = _primitive([x - m if 2 * x > m else x for x in g])
        qa = _quotient(a, cand)
        if qa is not None:
            qb = _quotient(b, cand)
            if qb is not None:
                return cand, qa, qb
    raise ArithmeticError(
        f"gcd undecided: no modulus up to 2^{_MERSENNE_EXPONENTS[-1]} - 1 "
        f"gives a candidate that divides both inputs")


def _mul(u: list, v: list) -> list:
    """The product of two ascending coefficient lists."""
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                out[i + j] += x * y
    return out


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _roots_of_squarefree(c: list[int]) -> list[Fraction]:
    """All rational roots of the squarefree nonconstant c, a primitive
    ascending int list, sorted.

    A root u/v in lowest terms of q = a_n x^n + ... + a_0 = c / x^k,
    q(0) != 0, gives the integer root y = a_n u / v of the monic
    Q(y) = a_n^(n-1) q(y / a_n), with
    |y| < 1 + max |coefficient of Q| (Cauchy).  The integer roots of Q are
    found by Newton (Hensel) lifting its roots modulo a prime m past twice
    that bound and checking each candidate exactly.  m divides no a_n and
    leaves every root of Q mod m simple, so each integer root lifts from
    exactly one of them.  No factorisation of a_0 or a_n is needed,
    whatever their size.
    """
    k = next(i for i, a in enumerate(c) if a)  # strip powers of the variable
    roots = [Fraction(0)] if k else []
    c = c[k:]
    if len(c) == 1:
        return roots
    n = len(c) - 1
    an = c[-1]
    Q = [a * an ** (n - 1 - i) for i, a in enumerate(c[:-1])] + [1]
    dQ = [i * a for i, a in enumerate(Q)][1:]
    bound = 1 + max(abs(a) for a in Q)
    m = 1
    while True:
        m += 1
        if any(m % f == 0 for f in range(2, m)) or an % m == 0:
            continue
        lifts = [r for r in range(m) if _eval_int(Q, r) % m == 0]
        if all(_eval_int(dQ, r) % m for r in lifts):
            break
    mod = m
    while mod <= 2 * bound:
        mod *= mod
        lifts = [
            (r - _eval_int(Q, r) * pow(_eval_int(dQ, r), -1, mod)) % mod
            for r in lifts
        ]
    for r in lifts:
        y = r if 2 * r < mod else r - mod
        if _eval_int(Q, y) == 0:
            roots.append(Fraction(y, an))
    return sorted(roots)


def _eval_int(coeffs: list[int], x: int) -> int:
    acc = 0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def squarefree_rational_roots(
    p: UniPoly,
) -> tuple[list[tuple[Fraction, int]], list[tuple[UniPoly, int]]]:
    """Complete squarefree decomposition with rational roots extracted.

    Returns (roots, residual): roots is a list of (rational root, exact
    multiplicity); residual is a list of (factor, multiplicity) where every
    factor is monic, squarefree and rational-root-free (not necessarily
    irreducible -- "rational-root-free" semantics only).

    Yun's algorithm, p = lc * prod f_i^i with the f_i squarefree and
    pairwise coprime, runs on the primitive integer multiple of p, with
    each gcd from `_gcd_int` and each quotient its exact cofactor.  Every
    relation of the algorithm is linear in the pair it divides, so a gcd
    scaled by a constant scales both quotients alike.  Each f_i stays a
    primitive int list: a root u/v leaves it by the exact quotient by
    v x - u (Gauss), and only the residual factors are made monic.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    residual: list[tuple[UniPoly, int]] = []
    if p.is_const():
        return roots, residual
    a = p.primitive_integer().coeffs
    _, b, c = _gcd_int(a, _derivative(a))
    d = _sub(c, _derivative(b))
    mult = 1
    while len(b) > 1:
        f, b, c = _gcd_int(b, d)
        if len(f) > 1:
            for r in _roots_of_squarefree(f):
                roots.append((r, mult))
                f = _quotient(f, [-r.numerator, r.denominator])
            if len(f) > 1:
                residual.append((UniPoly(f, p.var).monic(), mult))
        d = _sub(c, _derivative(b))
        mult += 1
    roots.sort()
    return roots, residual


# ---------------------------------------------------------------------------
# sparse polynomials in (x, y, l)
# ---------------------------------------------------------------------------

VARS = ("x", "y", "l")
_VAR_INDEX = {"x": 0, "y": 1, "l": 2}


def _wrap(terms: dict) -> "MPoly":
    """The MPoly with these terms, whose values must be exact and nonzero."""
    out = MPoly.__new__(MPoly)
    out.terms = terms
    return out


class MPoly:
    """Sparse polynomial in x, y, l over Q.

    Keys are exponent triples (a, b, c) with nonnegative entries; values are
    nonzero exact rationals, an int where the value is integral and a
    Fraction otherwise, never a float.  Sums and products of ints stay ints,
    so integral inputs run in int arithmetic.  Immutable by convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        cleaned = {}
        if terms:
            for k, v in terms.items():
                v = _exact(v)
                if v:
                    cleaned[tuple(k)] = v
        self.terms = cleaned

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c) -> "MPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def from_unipoly(cls, p: UniPoly, name: str) -> "MPoly":
        i = _VAR_INDEX[name]
        terms = {}
        for d, c in enumerate(p.coeffs):
            if c != 0:
                e = [0, 0, 0]
                e[i] = d
                terms[tuple(e)] = c
        return cls(terms)

    # -- basics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, 0, 0) in self.terms)

    def degree(self, name: str):
        if not self.terms:
            return NEG_INF
        i = _VAR_INDEX[name]
        return max(k[i] for k in self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({} if other == 0 else {(0, 0, 0): other})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            s = terms.get(k, 0) + v
            if s.__class__ is not int and s.denominator == 1:
                s = s.numerator
            if not s:
                terms.pop(k, None)
            else:
                terms[k] = s
        return _wrap(terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "MPoly":
        return _wrap({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        terms: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                s = terms.get(k, 0) + v1 * v2
                if s.__class__ is not int and s.denominator == 1:
                    s = s.numerator
                if not s:
                    terms.pop(k, None)
                else:
                    terms[k] = s
        return _wrap(terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "MPoly":
        return _power(self, n, MPoly.const(1))

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            return other
        return MPoly.const(other)

    # -- structure ----------------------------------------------------------

    def coeffs_in(self, name: str) -> list["MPoly"]:
        """Dense coefficient list (ascending) of self viewed as univariate in
        `name` with MPoly coefficients (in the remaining variables)."""
        i = _VAR_INDEX[name]
        deg = self.degree(name)
        if deg is NEG_INF:
            return []
        buckets: list[dict] = [dict() for _ in range(int(deg) + 1)]
        for k, v in self.terms.items():
            kk = list(k)
            d = kk[i]
            kk[i] = 0
            buckets[d][tuple(kk)] = v
        return [_wrap(b) for b in buckets]

    def eval_var(self, name: str, value) -> "MPoly":
        """Substitute a rational value for one variable."""
        i = _VAR_INDEX[name]
        value = _exact(value)
        terms: dict = {}
        for k, v in self.terms.items():
            kk = list(k)
            d = kk[i]
            kk[i] = 0
            kk = tuple(kk)
            terms[kk] = terms.get(kk, 0) + v * value**d
        return MPoly(terms)

    def derivative(self, name: str) -> "MPoly":
        i = _VAR_INDEX[name]
        terms: dict = {}
        for k, v in self.terms.items():
            if k[i] == 0:
                continue
            kk = list(k)
            c = v * kk[i]
            kk[i] -= 1
            terms[tuple(kk)] = c
        return MPoly(terms)

    def strip_monomial(self) -> "MPoly":
        """Divide out the largest common monomial factor in x and y.  Powers
        of l stay: l is a coefficient variable, so l = 0 is a value of the
        pencil, not a point off the torus."""
        if not self.terms:
            return self
        mx = min(k[0] for k in self.terms)
        my = min(k[1] for k in self.terms)
        if mx == my == 0:
            return self
        return _wrap({(k[0] - mx, k[1] - my, k[2]): v
                      for k, v in self.terms.items()})

    def to_unipoly(self, name: str) -> UniPoly:
        """Convert to UniPoly; self must involve only `name`."""
        i = _VAR_INDEX[name]
        deg = self.degree(name)
        n = 0 if deg is NEG_INF else int(deg) + 1
        coeffs = [0] * n
        for k, v in self.terms.items():
            if any(k[j] != 0 for j in range(3) if j != i):
                raise ValueError(f"polynomial involves more than {name}")
            coeffs[k[i]] = v
        return UniPoly(coeffs, name)

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Exact multivariate division; raises if the division is not exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if other.is_const():
            c = other.terms[(0, 0, 0)]
            return _wrap({k: _div(v, c) for k, v in self.terms.items()})
        rem = dict(self.terms)
        dk = max(other.terms)
        dc = other.terms[dk]
        q: dict = {}
        while rem:
            k = max(rem)
            v = rem[k]
            t = (k[0] - dk[0], k[1] - dk[1], k[2] - dk[2])
            if min(t) < 0:
                raise ArithmeticError("division not exact")
            c = _div(v, dc)
            q[t] = q.get(t, 0) + c
            for k2, v2 in other.terms.items():
                kk = (t[0] + k2[0], t[1] + k2[1], t[2] + k2[2])
                s = rem.get(kk, 0) - c * v2
                if not s:
                    rem.pop(kk, None)
                else:
                    rem[kk] = s
        return _wrap(q)

    def __repr__(self):
        return f"MPoly({format_mpoly(self)!r})"


def format_mpoly(p: MPoly) -> str:
    return _format_terms(
        (p.terms[k], "".join(
            f"{n}" if e == 1 else f"{n}^{e}" for n, e in zip(VARS, k) if e))
        for k in sorted(p.terms, reverse=True)
    )


# ---------------------------------------------------------------------------
# the subresultant PRS and resultants
# ---------------------------------------------------------------------------


def _poly_deg(coeffs: list) -> int:
    """Degree of a dense coefficient list; -1 for zero."""
    n = len(coeffs) - 1
    while n >= 0 and not coeffs[n]:
        n -= 1
    return n


def _trim(coeffs: list) -> list:
    n = _poly_deg(coeffs)
    return coeffs[: n + 1]


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, exactly.

    The remainder is one copy of a, reduced in place; its degree dr steps
    down past the zero leading entries, and it is trimmed once at the end."""
    db = _poly_deg(b)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    dr = da = _poly_deg(a)
    rem = a[: da + 1]
    lc_b = b[db]
    steps = 0
    while dr >= db:
        coef = rem[dr]
        off = dr - db
        for i in range(off):
            rem[i] = rem[i] * lc_b
        for j in range(db):
            rem[off + j] = rem[off + j] * lc_b - coef * b[j]
        dr -= 1  # rem[dr] * lc_b - coef * lc_b is zero
        while dr >= 0 and not rem[dr]:
            dr -= 1
        steps += 1
    rem = rem[: dr + 1]
    extra = da - db + 1 - steps
    if extra > 0 and rem:
        f = lc_b**extra
        rem = [c * f for c in rem]
    return rem


def _quo(a, b):
    """a / b for coefficients of the PRS, which must divide exactly: divmod
    with a zero-remainder check on ints, MPoly.exact_div otherwise."""
    if a.__class__ is int:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("division not exact")
        return q
    return a.exact_div(b)


def _subresultant_prs(A: list, B: list):
    """The subresultant PRS of A and B, dense coefficient lists with
    deg A >= deg B >= 0 whose entries are all ints or all MPolys (Collins
    1967, Brown-Traub 1971; Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 3.3.1 and 3.3.7).

    Yields (A, B, h) for the input pair and for each pair after it, with h
    Brown's h for that pair (1 for the input), and stops after the first
    pair whose B is constant or zero.  Each step divides prem(A, B) by
    g h^delta, g the leading coefficient of the previous divisor; that and
    the update of h are exact by theory and done by `_quo`, so a wrong step
    raises instead of giving a wrong value.
    """
    g = h = 1 if A[-1].__class__ is int else MPoly.const(1)
    while True:
        yield A, B, h
        n = _poly_deg(B)
        if n <= 0:
            return
        delta = _poly_deg(A) - n
        divisor = g * h**delta
        A, B = B, [_quo(c, divisor) for c in _prem(A, B)]
        g = A[n]
        if delta:
            h = _quo(g**delta, h ** (delta - 1))


# The widest Kronecker packing, in bits, of one PRS coefficient; above it
# the PRS runs on MPolys.  The crossover is measured in `resultant`.
_PACK_BITS = 8192


def _primitive_terms(p: MPoly) -> tuple[dict, int, int]:
    """(terms, g, d), d, g > 0: the terms of (d / g) p, the primitive integer
    multiple of the nonzero p.  Integral terms take one int gcd g, d = 1,
    and build no Fraction; otherwise d and g are the lcm of the denominators
    and the gcd of the numerators, the content of rationals in lowest terms."""
    values = p.terms.values()
    if all(c.__class__ is int for c in values):
        g, d = int_gcd(*values), 1
    else:
        d = lcm(*(c.denominator for c in values))
        g = int_gcd(*(c.numerator for c in values))
    if g == d == 1:
        return p.terms, 1, 1
    return {e: c.numerator * (d // c.denominator) // g
            for e, c in p.terms.items()}, g, d


def _slots(du: int, dv: int, bound: int):
    """The packing (s, w, size) of the c(u, v) of degree <= du in u and <=
    dv in v with coefficients at most bound in absolute value as c(2^s,
    2^(s w)), w = du + 1, s = bitlen(bound) + 1: one balanced s-bit digit in
    each of the size = (du + 1)(dv + 1) slots.  None when the width s size
    exceeds _PACK_BITS."""
    s = bound.bit_length() + 1
    size = (du + 1) * (dv + 1)
    if s * size > _PACK_BITS:
        return None
    return s, du + 1, size


def _pack(items, n: int, s: int) -> list[int]:
    """The n + 1 packed coefficients in the main variable of the sum of the
    terms c main^k u^a v^b, given as the items (k, a + w b, c)."""
    out = [0] * (n + 1)
    for k, t, c in items:
        out[k] += c << s * t
    return out


def _unpack(x: int, slots) -> list[int]:
    """The balanced s-bit digits of x, ascending and without trailing
    zeros; raises when a digit is left past the size slots."""
    s, _, size = slots
    half, mask = 1 << (s - 1), (1 << s) - 1
    digits = []
    while x:
        if len(digits) == size:
            raise ArithmeticError("packed coefficient out of range")
        digits.append(((x + half) & mask) - half)
        x = (x + half) >> s  # (x - digit) >> s
    return digits


def _key(i: int, a: int, b: int) -> tuple[int, int, int]:
    """The exponent triple with 0 at index i and a, b at the other two."""
    return (0, a, b) if i == 0 else (a, 0, b) if i == 1 else (a, b, 0)


def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Res_var(p, q), the Sylvester determinant, as an MPoly in the other
    variables u, v: 0 when one of p, q is zero and the other involves var;
    ValueError when neither involves var, zero or not.

    The subresultant PRS runs on the primitive integer multiples A =
    (d_p/g_p) p and B = (d_q/g_q) q of `_primitive_terms`, m >= n their
    degrees in var.  Res(A, B) = (-1)^(deg A deg B) Res(B, A), each
    pseudo-division step flips the sign when both degrees are odd, and the
    last pair (A, B) with B = b constant gives h^(1 - m) b^m, m = deg A.

    While the width of `_slots` is at most _PACK_BITS, A and B are packed
    straight from their terms, one int per coefficient: u and v become 2^s
    and 2^(s (D_u + 1)).  That is exact.  Packing is a ring map, so it
    commutes with every product, pseudo-remainder and exact quotient of the
    sequence.  Every element of the PRS is +- a subresultant, whose
    coefficients are minors of the Sylvester matrix: each has degree <= D_u
    = n deg_u A + m deg_u B in u and <= D_v in v, and absolute value <= N =
    |A|_1^n |B|_1^m < 2^(s-1), |.|_1 the sum of the absolute values of all
    coefficients (for n = 0 A counts once: the PRS reads its degree).  So
    none packs to 0 unless it is 0, the packed sequence takes the same
    degree steps, its checked divisions are the images of the true exact
    ones, and the balanced s-bit digits of the packed resultant are its
    coefficients.  Res(p, q) = (g_p/d_p)^n (g_q/d_q)^m Res(A, B), so each
    digit is multiplied by the sign and g_p^n g_q^m as it is unpacked, and
    divided by d_p^n d_q^m only when that is not 1: integral inputs build
    no Fraction.

    The limit is where packing stops paying, as measured (2 vCPUs, CPython
    3.11.7, best of three) on the 203 resultant and bivariate gcd calls of
    classifying the 16 and seven sheared polygons: packed ints were as fast
    or faster on all 180 calls up to 8192 bits (1.0-15x; the catalog's
    largest resultant has 1113 bits), and slower on 6 of the 8 calls from
    13 to 85 kbit (sheared 8b at 13 kbit: 0.61 -> 2.97 ms).
    """
    i = _VAR_INDEX[var]
    u, v = (k for k in range(3) if k != i)
    m, n = p.degree(var), q.degree(var)
    if m <= 0 and n <= 0:
        raise ValueError("nothing to eliminate")
    if m < 0 or n < 0:
        return MPoly()
    sign = 1
    if m < n:
        p, q, m, n = q, p, n, m
        sign = (-1) ** (m * n)
    (A, ga, da), (B, gb, db) = _primitive_terms(p), _primitive_terms(q)
    num, den = sign * ga**n * gb**m, da**n * db**m
    k = max(n, 1)
    ea, eb = [max(e) for e in zip(*A)], [max(e) for e in zip(*B)]
    na, nb = sum(map(abs, A.values())), sum(map(abs, B.values()))
    slots = _slots(k * ea[u] + m * eb[u], k * ea[v] + m * eb[v],
                   na**k * nb**m)
    if slots:
        s, w, _ = slots
        A, B = (_pack(((e[i], e[u] + w * e[v], c) for e, c in C.items()),
                      d, s) for C, d in ((A, m), (B, n)))
    else:
        A, B = _wrap(A).coeffs_in(var), _wrap(B).coeffs_in(var)
    for A, B, h in _subresultant_prs(A, B):
        m, n = _poly_deg(A), _poly_deg(B)
        if n > 0 and m * n % 2:
            num = -num
    if n < 0:
        return MPoly()  # common factor: the resultant vanishes
    r = _quo(B[0] ** m, h ** (m - 1))
    items = ([(_key(i, t % w, t // w), c)
              for t, c in enumerate(_unpack(r, slots)) if c]
             if slots else r.terms.items())
    return _wrap({e: c * num if den == 1 else _div(c * num, den)
                  for e, c in items})


# ---------------------------------------------------------------------------
# bivariate gcd; one fraction-free Euclid over Q[y]/(q)
# ---------------------------------------------------------------------------


def _int_list(p: MPoly, var: str) -> list[int]:
    """The ascending coefficients in var of the primitive integer multiple
    of p, which must involve only var; [] for zero."""
    if not p.terms:
        return []
    i = _VAR_INDEX[var]
    terms = _primitive_terms(p)[0]
    out = [0] * (max(k[i] for k in terms) + 1)
    for k, v in terms.items():
        out[k[i]] = v
    return out


def _rows(p: MPoly, i: int, j: int) -> list[list[int]]:
    """The primitive integer multiple of p, which must be free of the third
    variable, as its rows: the ascending coefficients in variable i, each
    the trimmed ascending int list in variable j; [] for zero."""
    if not p.terms:
        return []
    terms = _primitive_terms(p)[0]
    dense = [[0] * (max(e[j] for e in terms) + 1)
             for _ in range(max(e[i] for e in terms) + 1)]
    for e, c in terms.items():
        dense[e[i]][e[j]] = c
    return list(map(_trim, dense))


def _divide_content(lists: list[list[int]]) -> tuple[list, list]:
    """(c, [a / c for a in lists]), c the gcd in Z[t] of the ascending int
    lists by `_gcd_int`, primitive with a positive leading coefficient ([]
    when every list is empty; exact quotients, by Gauss).  The gcds start
    from the shortest list, so a constant gives [1] at once."""
    short = sorted(filter(None, lists), key=len)
    c = _primitive(short[0]) if short else []
    for a in short[1:]:
        if len(c) == 1:
            break
        c = _gcd_int(c, a)[0]
    return c, lists if len(c) <= 1 else [_quotient(a, c) for a in lists]


def _content(p: MPoly, main: str, coeff: str) -> UniPoly:
    """Monic gcd in Q[coeff] of the coefficients in main of p, which must be
    free of the third variable: the content, as by `_divide_content`, of
    the rows of its primitive integer multiple, made monic."""
    return UniPoly(_divide_content(
        _rows(p, _VAR_INDEX[main], _VAR_INDEX[coeff]))[0], coeff).monic()


def gcd_bivariate(p: MPoly, q: MPoly, main: str, coeff: str) -> MPoly:
    """gcd of two polynomials in Q[main, coeff] (the third variable absent),
    scaled so that its lex-leading coefficient is 1.

    Each input's terms are read once, as those of its primitive integer
    multiple (`_primitive_terms`: integral inputs build no Fraction), into
    rows, the int lists in coeff of its coefficients in main.  Their
    contents in Z[coeff] are divided out; the gcd of the primitive parts is
    the primitive part of the last nonzero remainder of their subresultant
    PRS in main, times the gcd of the contents.  The PRS runs on ints as in
    `resultant`, under the same limit, or else on MPolys; the remainder is
    +- a subresultant, so it unpacks exactly.
    """
    i, j = _VAR_INDEX[main], _VAR_INDEX[coeff]
    (third,) = {0, 1, 2} - {i, j}
    if any(e[third] for r in (p, q) for e in r.terms):
        raise ValueError(f"gcd_bivariate expects input free of {VARS[third]}")
    if not p.terms or not q.terms:
        return _lex_monic(p.terms or q.terms)
    a, b = _rows(p, i, j), _rows(q, i, j)
    if len(a) < len(b):
        a, b = b, a
    (ca, a), (cb, b) = _divide_content(a), _divide_content(b)
    g = [[1]]
    if len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        na, nb = (sum(abs(c) for row in C for c in row) for C in (a, b))
        slots = _slots(n * max(map(len, a)) + m * max(map(len, b)) - m - n,
                       0, na**n * nb**m)
        if slots:
            a, b = (_pack(((k, t, c) for k, row in enumerate(C)
                           for t, c in enumerate(row) if c), d, slots[0])
                    for C, d in ((a, m), (b, n)))
        else:
            a, b = ([MPoly.from_unipoly(UniPoly(row), coeff) for row in C]
                    for C in (a, b))
        for a, b, _ in _subresultant_prs(a, b):
            pass
        # b is zero (a is the last nonzero remainder) or a nonzero constant
        if not b:
            g = _divide_content([_unpack(c, slots) for c in a] if slots else
                                [c.to_unipoly(coeff).coeffs for c in a])[1]
    c = _gcd_int(ca, cb)[0]
    if len(c) > 1:
        g = [_mul(row, c) for row in g]
    return _lex_monic({_key(third, *((t, k) if i > j else (k, t))): x
                       for k, row in enumerate(g) for t, x in enumerate(row)
                       if x})


def _lex_monic(terms: dict) -> MPoly:
    """The MPoly with these terms divided by its lex-leading coefficient."""
    if terms:
        lc = terms[max(terms)]
        if lc != 1:
            terms = {e: _div(c, lc) for e, c in terms.items()}
    return _wrap(terms)


class ZeroDivisorError(ArithmeticError):
    """Raised when a residue of Q[y]/(q) that must be a unit is a zero
    divisor; carries the monic factor of q that it shares."""

    def __init__(self, factor: UniPoly):
        super().__init__("zero divisor encountered")
        self.factor = factor


def _reduce(a: list[int], Q: list[int]) -> list[int]:
    """a mod the monic Q, for a trimmed ascending int list a: a trimmed
    int list of length < len(Q), a itself when it is one already."""
    n = len(Q) - 1
    if len(a) <= n:
        return a
    a = list(a)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            for j in range(n):
                a[i - n + j] -= c * Q[j]
    return _trim(a[:n])


def _prem_over(a: list, b: list, Q: list[int]) -> list:
    """`_prem` in (Z[z]/(Q))[x], Q monic, for lists of residues a and b,
    b of degree >= 1 with an integer leading coefficient [N]."""
    n = len(b) - 1
    N = b[-1][0]
    rem = list(a)
    dr = len(rem) - 1
    while dr >= n:
        coef = rem[dr]
        off = dr - n
        if N != 1:
            for i in range(off):
                rem[i] = [c * N for c in rem[i]]
        for j in range(n):
            r = rem[off + j]
            if N != 1:
                r = [c * N for c in r]
            rem[off + j] = _reduce(_sub(r, _mul(coef, b[j])), Q)
        dr -= 1  # rem[dr] N - coef N is zero
        while dr >= 0 and not rem[dr]:
            dr -= 1
    return rem[: dr + 1]


def _adjugate(u: list[int], Q: list[int]) -> tuple[list[int], int]:
    """(v, N), u v = N mod the monic Q, N = +-det M for M the matrix of
    multiplication by u; ([], 0) when u is a zero divisor.  v solves
    M v = N e_0 by fraction-free elimination (Bareiss 1968)."""
    n = len(Q) - 1
    cols = [u + [0] * (n - len(u))]
    for _ in range(n - 1):  # y^k u mod Q: shift, then subtract top * Q
        w = cols[-1]
        top, w = w[-1], [0] + w[:-1]
        cols.append([x - top * q for x, q in zip(w, Q)] if top else w)
    rows = [[col[i] for col in cols] + [0] for i in range(n)]
    rows[0][n] = 1
    prev = 1
    for k in range(n):
        for p in range(k, n):
            if rows[p][k]:
                break
        else:
            return [], 0
        rows[k], rows[p] = rows[p], rows[k]
        pk = rows[k]
        d = pk[k]
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [(d * x - f * y) // prev for x, y in zip(rows[i], pk)]
        prev = d
    v = [0] * n
    for i in range(n - 1, -1, -1):
        r = rows[i]
        v[i] = (prev * r[n] - sum(r[j] * v[j] for j in range(i + 1, n))
                ) // r[i]
    return _trim(v), prev


def _primitive_over(p: list) -> list:
    """The nonzero p, a list of int lists, divided by the gcd of all their
    entries, signed so that the last entry of its last list is positive."""
    g = int_gcd(*(c for e in p for c in e))
    if p[-1][-1] < 0:
        g = -g
    return p if g == 1 else [[c // g for c in e] for e in p]


def gcd_over_quotient(a: list[list[int]], b: list[list[int]], Q: list[int]
                      ) -> list[list[int]]:
    """A gcd over Q[y]/(q), q = Q squarefree, of two polynomials given as
    ascending lists of trimmed int lists in y; [] when both are zero.  Q is
    primitive with a positive leading coefficient.  The gcd, of residues
    mod Q, is the monic gcd times a positive integer.  Raises
    ZeroDivisorError with the monic factor of q that a leading coefficient
    shares.

    Euclid by pseudo-division over Z[y]/(Q), each remainder divided by its
    integer content (Brown 1971; von zur Gathen-Gerhard, ch. 6).  A divisor
    whose leading coefficient u is not an integer is first multiplied by
    the adjugate v, u v = N mod Q; N = 0 shows u a zero divisor.  So the
    remainders are those of the monic Euclid times rationals.  Without the
    adjugate they gather unit multiples: 7a under ((21,29),(-8,-11)) grew
    remainders of 273 kbit in 9 steps.  The first divisor is the nonzero
    input of lower degree.  For c = lc(Q) != 1 it runs in z = c y, with the
    monic modulus c^(n-1) Q(z / c), n = deg Q, each input scaled by c^D, D
    its degree in y, so every entry alike."""
    n = len(Q) - 1
    c = Q[-1]
    if c != 1:
        Q = [q * c ** (n - 1 - k) for k, q in enumerate(Q[:-1])] + [1]
        scaled = []
        for p in (a, b):
            D = max(map(len, p), default=1) - 1
            scaled.append([[x * c ** (D - k) for k, x in enumerate(e)]
                           for e in p])
        a, b = scaled
    a, b = (_trim([_reduce(e, Q) for e in p]) for p in (a, b))
    if not b or a and len(a) < len(b):
        a, b = b, a
    while b:
        u = b[-1]
        if len(u) > 1:
            v, N = _adjugate(u, Q)
            if not N:
                h = _gcd_int(u, Q)[0]
                raise ZeroDivisorError(UniPoly(
                    [x * c**k for k, x in enumerate(h)], "y").monic())
            b = [_reduce(_mul(e, v), Q) for e in b[:-1]] + [[N]]
        b = _primitive_over(b)
        if len(b) == 1:
            return [[1]]
        a, b = b, _prem_over(a, b, Q)
    if c != 1 and a:
        a = _primitive_over([[x * c**k for k, x in enumerate(e)] for e in a])
    return a
