"""Exact polynomial algebra: resultants, gcds, squarefree decomposition.

Oracle tags: [PAPER] = value quoted in the source analysis, [DERIVED] =
computed independently by hand or brute force, [TRIVIAL] = textbook identity.
"""

import random
import time
from fractions import Fraction
from math import gcd as int_gcd

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from reflexo import algebra, cli, fibration
from reflexo.algebra import (
    MPoly,
    UniPoly,
    ZeroDivisorError,
    _subresultant_prs,
    gcd_bivariate,
    gcd_over_quotient,
    resultant,
    squarefree_rational_roots,
)
from reflexo.catalog import NAMES, get
from reflexo.fibration import Pencil
from reflexo.laurent import LaurentPoly

from oracles import (
    bareiss_determinant,
    euclid_over_quotient,
    gcd_poly,
    int_content,
    inverse_mod,
    squarefree_decomposition,
    sylvester_matrix,
)


def upoly(*coeffs, var="t"):
    return UniPoly(list(coeffs), var=var)


def constant_value(p: MPoly):
    """The value of the constant polynomial p, read off its terms."""
    assert p.is_const()
    return p.terms.get((0, 0, 0), 0)


class TestResultant:
    def test_res_linear_is_evaluation(self, res_x):
        # [TRIVIAL] Res(f, x - a) = lc * f(a): Res_x(x^2 - 2, x - 1) = -1
        p = upoly(-2, 0, 1, var="x")
        q = upoly(-1, 1, var="x")
        assert res_x(p, q) == Fraction(-1)

    def test_res_with_lambda_coefficients(self):
        # [DERIVED] 2x2 Sylvester determinant by hand: Res_x(x^2 + l, x + 1)
        p = MPoly({(2, 0, 0): 1, (0, 0, 1): 1})
        q = MPoly({(1, 0, 0): 1, (0, 0, 0): 1})
        r = resultant(p, q, "x")
        assert r == MPoly({(0, 0, 1): 1, (0, 0, 0): 1})  # l + 1

    def test_both_constant_errors(self, res_x):
        with pytest.raises(ValueError):
            res_x(upoly(3, var="x"), upoly(5, var="x"))

    def test_zero_inputs(self):
        # [TRIVIAL] a zero input gives 0 when the other involves x; when
        # neither does there is nothing to eliminate
        x = MPoly({(1, 0, 0): 1})
        assert resultant(MPoly(), x, "x") == 0
        assert resultant(x, MPoly(), "x") == 0
        for p, q in [(MPoly(), MPoly.const(5)), (MPoly(), MPoly())]:
            with pytest.raises(ValueError, match="nothing to eliminate"):
                resultant(p, q, "x")

    def test_resultant_zero_iff_common_factor(self, res_x):
        # [TRIVIAL] shared root (x - 2)
        shared = upoly(-2, 1, var="x")
        p = shared * upoly(1, 1, var="x")
        q = shared * upoly(3, 1, var="x")
        assert res_x(p, q) == 0
        assert res_x(upoly(1, 1, var="x"), upoly(3, 1, var="x")) != 0

    def test_multiplicativity_small(self, res_x):
        # [TRIVIAL] Res(p, q*r) = Res(p, q) * Res(p, r)
        p = upoly(1, 0, 1, var="x")
        q = upoly(2, 1, var="x")
        r = upoly(-3, 1, 1, var="x")
        assert res_x(p, q * r) == res_x(p, q) * res_x(p, r)

    def test_matches_sylvester_bareiss(self, res_x):
        # [DERIVED] subresultant PRS agrees with the naive Sylvester
        # determinant on a rational example, cleared of its denominators
        p = upoly(1, -2, 0, 6, var="x")
        q = upoly(6, 0, -1, 3, var="x")
        mat = sylvester_matrix(p.coeffs, q.coeffs)
        assert res_x(p, q) == bareiss_determinant(mat)

    def test_specialises_to_sylvester_bareiss(self):
        # [DERIVED] for p, q in Q[l][x], Res_x(p, q) at l = l0 is the
        # Bareiss determinant of the Sylvester matrix of p(l0), q(l0)
        # wherever both leading coefficients stay nonzero.  The degree
        # pairs include gaps of 2 and more; q = Q b + s with deg s <= deg b - 2
        # makes the remainder sequence drop by 2 or more after its first
        # step, so h is raised to delta >= 2 and the signs of odd pairs count
        rng = random.Random(20261018)
        drops = 0
        for deg_p, deg_q in [(5, 2), (2, 5), (3, 3), (4, 1), (1, 4), (3, 2)]:
            for _ in range(3):
                p, q = _random_lx(rng, deg_p), _random_lx(rng, deg_q)
                _check_against_sylvester(p, q)
        for _ in range(8):
            b = _random_lx(rng, rng.randint(3, 4))
            s = _random_lx(rng, rng.randint(1, b.degree("x") - 2))
            q = _random_lx(rng, rng.randint(1, 2)) * b + s
            _check_against_sylvester(q, b)
            degrees = [len(B) - 1
                       for _, B, _ in _subresultant_prs(q.coeffs_in("x"),
                                                        b.coeffs_in("x"))]
            drops += any(d - e >= 2 for d, e in zip(degrees, degrees[1:])
                         if e >= 0)
        assert drops >= 4


class TestRepresentation:
    def test_non_integral_value_refused(self):
        # [TRIVIAL] MPoly is over Z: 4/2 is stored as the int 2, and 1/2,
        # alone or as a factor, is refused
        p = MPoly({(1, 0, 0): Fraction(4, 2)})
        assert type(p.terms[(1, 0, 0)]) is int and p.terms[(1, 0, 0)] == 2
        with pytest.raises(TypeError, match="non-integral value 1/2"):
            MPoly.const(Fraction(1, 2))
        with pytest.raises(TypeError, match="non-integral value 1/2"):
            Fraction(1, 2) * p

    def test_inexact_quotient_refused(self):
        # [TRIVIAL] 1/3 is not in Z, nor 2x / 3x; 6x / 3x is
        with pytest.raises(ArithmeticError, match="division not exact"):
            MPoly.const(1).exact_div(MPoly.const(3))
        x = MPoly({(1, 0, 0): 1})
        with pytest.raises(ArithmeticError, match="division not exact"):
            (2 * x).exact_div(3 * x)
        assert (6 * x).exact_div(3 * x) == MPoly.const(2)

    def test_accessors_return_fractions(self):
        # [TRIVIAL] evaluation returns a Fraction, also at an int point of
        # an int polynomial
        p = UniPoly([2, 3])
        assert type(p(1)) is Fraction and p(1) == 5
        assert type(p(Fraction(1, 3))) is Fraction and p(Fraction(1, 3)) == 3

    def test_integral_unipoly_coefficients_are_ints(self):
        # [TRIVIAL] (4/2 + x/2) * 2 = 4 + x
        p = UniPoly([Fraction(4, 2), Fraction(1, 2)]) * UniPoly([2])
        assert [(type(c), c) for c in p.coeffs] == [(int, 4), (int, 1)]

    def test_unipoly_monic_gives_a_fraction(self):
        # [TRIVIAL] 2x + 1 made monic is x + 1/2
        assert [(type(c), c) for c in UniPoly([1, 2]).monic().coeffs] == \
            [(Fraction, Fraction(1, 2)), (int, 1)]

    def test_inexact_unipoly_quotients_are_fractions(self):
        # [TRIVIAL] x^2 + 1 = (2x + 1)(x/2 - 1/4) + 5/4; (2x + 1) / 3
        q, r = UniPoly([1, 0, 1]).divmod(UniPoly([1, 2]))
        e = UniPoly([1, 2]).exact_div(UniPoly([3]))
        assert {type(c) for c in q.coeffs + r.coeffs + e.coeffs} == {Fraction}

    def test_no_unipoly_path_gives_a_float(self):
        # [TRIVIAL] y^3 = (2y^2 - 3)(y/2) + 3y/2, and y^3 / 2 is exact
        q, r = UniPoly([0, 0, 0, 1], "y").divmod(UniPoly([-3, 0, 2], "y"))
        e = UniPoly([0, 0, 0, 1], "y").exact_div(UniPoly([2], "y"))
        values = UniPoly([1, 2]).monic().coeffs + q.coeffs + r.coeffs
        assert not any(isinstance(c, float) for c in values + e.coeffs)
        assert (q, r) == (UniPoly([0, Fraction(1, 2)], "y"),
                          UniPoly([0, Fraction(3, 2)], "y"))

    def test_int_and_fraction_coefficients_agree(self):
        a, b = UniPoly([3]), UniPoly([Fraction(3)])
        assert a == b and hash(a) == hash(b)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            UniPoly([0.5])
        with pytest.raises(TypeError):
            MPoly({(0, 0, 0): 0.1})
        with pytest.raises(TypeError):
            LaurentPoly({(0, 0): 0.5})
        with pytest.raises(TypeError):
            LaurentPoly({(0, 0): 1, (1, 0): 2.0})  # integral, still a float

    @pytest.mark.parametrize("call, error, message", [
        (lambda: MPoly({(1, 1, 0): 1}).to_unipoly("x"), ValueError,
         "polynomial involves more than x"),
        (lambda: MPoly({(1, 0, 0): 1}).exact_div(MPoly()), ZeroDivisionError,
         "division by zero polynomial"),
        (lambda: UniPoly([1, 1]).divmod(UniPoly([])), ZeroDivisionError,
         "polynomial division by zero"),
        (lambda: UniPoly([1, 1]).exact_div(UniPoly([1, 0, 1])),
         ArithmeticError, "division not exact"),
        (lambda: algebra._prem([1, 2], [0]), ZeroDivisionError,
         "pseudo-division by zero"),
        (lambda: algebra._quo(MPoly.const(3), MPoly.const(2)),
         ArithmeticError, "division not exact"),
        (lambda: algebra._quo(MPoly({(1, 0, 0): 3}), MPoly({(1, 0, 0): 2})),
         ArithmeticError, "division not exact"),
    ], ids=["to_unipoly-xy", "mpoly-by-zero", "unipoly-by-zero",
            "inexact-quotient", "prem-by-zero", "prs-quotient-const",
            "prs-quotient-3x-2x"])
    def test_refusals(self, call, error, message):
        # [TRIVIAL] xy is not a polynomial in x alone; there is no quotient
        # by zero; x + 1 is not a multiple of x^2 + 1; a quotient of the
        # subresultant PRS of integer inputs has int values, and 3/2 is none
        with pytest.raises(error, match=message):
            call()


# polynomials in x and l with int coefficients
_int_xl = st.dictionaries(
    st.tuples(st.integers(0, 3), st.just(0), st.integers(0, 2)),
    st.integers(-9, 9), min_size=1, max_size=8,
).map(MPoly)


@settings(max_examples=60, deadline=None)
@given(_int_xl, _int_xl, st.sampled_from(["x", "l"]))
def test_integral_resultant_is_int_and_sylvester(p, q, var):
    # [TRIVIAL] every division of the subresultant PRS is exact in Z[l], so
    # Res of int polynomials has int values; it has degree at most
    # n deg(p) + m deg(q) in the other variable (m, n the degrees in var), so
    # agreeing with the Bareiss determinant of the Sylvester matrix at one
    # more point than that makes the two polynomials equal
    assume(p and q and (p.degree(var) > 0 or q.degree(var) > 0))
    other = "l" if var == "x" else "x"
    r = resultant(p, q, var)
    assert all(type(v) is int for v in r.terms.values())
    m, n = p.degree(var), q.degree(var)
    bound = n * p.degree(other) + m * q.degree(other)
    for t in range(bound + 1):
        a, b = ([constant_value(c.eval_var(other, t)) for c in f.coeffs_in(var)]
                for f in (p, q))
        assert r.eval_var(other, t) == bareiss_determinant(sylvester_matrix(a, b))


class TestPower:
    @pytest.mark.parametrize("cls, p", [
        (UniPoly, upoly(1, 2, 3)),
        (MPoly, MPoly({(1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 0): 3})),
    ])
    def test_squares_only_while_bits_remain(self, monkeypatch, cls, p):
        # [DERIVED] binary powering squares bit_length(n) - 1 times and
        # multiplies at most 2 bit_length(n) times in all; p ** 1 squares
        # nothing (resultant ends with B[0] ** 1 on large polynomials)
        original = cls.__mul__
        calls = []

        def counting(a, b):
            calls.append(a is b)
            return original(a, b)

        for n in range(1, 18):
            expected = p
            for _ in range(n - 1):
                expected = original(expected, p)
            calls.clear()
            monkeypatch.setattr(cls, "__mul__", counting)
            power = p ** n
            monkeypatch.undo()
            assert power == expected
            assert sum(calls) == n.bit_length() - 1
            assert len(calls) <= 2 * n.bit_length()

    def test_zeroth_power_is_one(self):
        assert upoly(1, 2) ** 0 == upoly(1)
        assert MPoly({(1, 0, 0): 2}) ** 0 == MPoly.const(1)

    @pytest.mark.parametrize("p", [upoly(1, 1), MPoly({(1, 0, 0): 1})],
                             ids=["UniPoly", "MPoly"])
    def test_negative_power_refused(self, p):
        # [TRIVIAL] a nonconstant polynomial has no polynomial inverse
        with pytest.raises(ValueError, match="negative power"):
            p ** -1


class TestStripMonomial:
    def test_keeps_lambda_powers(self):
        # [TRIVIAL] x y^3 l (2 + x l) loses x y^3 but keeps l, a coefficient
        p = MPoly({(1, 3, 1): 2, (2, 3, 2): 1})
        assert p.strip_monomial() == MPoly({(0, 0, 1): 2, (1, 0, 2): 1})


class TestGcd:
    def test_shared_linear_factor(self):
        # [TRIVIAL] gcd(x^2 - 1, x - 1) = x - 1
        assert gcd_poly(upoly(-1, 0, 1), upoly(-1, 1)) == upoly(-1, 1)

    def test_gcd_with_zero(self):
        # [TRIVIAL] gcd(p, 0) = monic(p)
        p = upoly(2, 4)
        assert gcd_poly(p, UniPoly([])) == upoly(Fraction(1, 2), 1)

    def test_repeated_factor(self):
        # [TRIVIAL] gcd((l-4)(l+4), (l-4)^2) = l - 4
        a = upoly(-4, 1, var="l") * upoly(4, 1, var="l")
        b = upoly(-4, 1, var="l") * upoly(-4, 1, var="l")
        assert gcd_poly(a, b) == upoly(-4, 1, var="l")


    def test_monic_euclid_on_wide_coefficients(self):
        """gcd and Yun on degree-30 inputs with 61-bit coefficients: a
        Euclid whose divisors stay non-monic lets the remainders' Fractions
        grow, and takes several seconds here.

        Budget < 3 s for both (observed ~0.4 s)."""
        rng = random.Random(5)

        def wide(deg):
            cs = [rng.randint(-2**60, 2**60) for _ in range(deg)]
            return UniPoly(cs + [rng.choice([-1, 1]) * rng.randint(1, 2**60)],
                           "x")

        p, q = wide(30), wide(30)
        r = UniPoly([rng.randint(-9, 9) for _ in range(4)] + [1], "x")
        start = time.perf_counter()
        assert gcd_poly(p * r, q * r) == r.monic()
        shapes = [(f.degree, m)
                  for f, m in squarefree_decomposition(p * r * r)]
        assert time.perf_counter() - start < 3.0
        assert shapes == [(30, 1), (4, 2)]


def _reference_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Euclid over Q with non-monic divisors, made monic at the end."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-6, 6), max_size=6),
    st.lists(st.integers(-6, 6), max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
)
def test_gcd_matches_reference_euclid(a, b, c):
    # [DERIVED] against Euclid with non-monic divisors; the shared factor r
    # makes nonconstant gcds frequent
    p, q, r = (UniPoly([Fraction(x) for x in xs], "x") for xs in (a, b, c))
    p, q = p * r, q * r
    if p.is_zero() and q.is_zero():
        return
    assert gcd_poly(p, q) == _reference_gcd(p, q)


def _monic_over(g: list, q: UniPoly) -> list[UniPoly]:
    """The gcd g, int lists in y, as UniPoly residues mod q made monic by
    the inverse of its leading coefficient: the form of the reference."""
    g = [UniPoly(e, "y").divmod(q)[1] for e in g]
    if not g:
        return g
    inv = inverse_mod(g[-1], q)
    return [(c * inv).divmod(q)[1] for c in g]


def _gcd_or_factor(a, b, Q):
    """gcd_over_quotient(a, b, Q) made monic over Q[y]/(Q), or the factor
    its ZeroDivisorError carries, made monic."""
    try:
        return _monic_over(gcd_over_quotient(a, b, Q), UniPoly(Q, "y"))
    except ZeroDivisorError as zd:
        return UniPoly(zd.factor, "y").monic()


def _reference_or_factor(a, b, Q):
    """The monic Euclid of the reference on the residues of a and b mod Q,
    or the factor its ZeroDivisorError carries."""
    q = UniPoly(Q, "y")
    a, b = ([UniPoly(e, "y").divmod(q)[1] for e in p] for p in (a, b))
    try:
        return euclid_over_quotient(a, b, q)
    except ZeroDivisorError as zd:
        return zd.factor


class TestGcdOverQuotient:
    # (y^2 - 2)(y^2 - 3)
    Q = [6, 0, -5, 0, 1]

    def test_sqrt2(self):
        # [TRIVIAL] over Q(sqrt 2), gcd(x^2 - 2, x - y) = x - y
        a, b = [[-2], [], [1]], [[0, -1], [1]]
        assert gcd_over_quotient(a, b, [-2, 0, 1]) == [[0, -1], [1]]

    def test_zero_divisor_carries_the_factor(self):
        # [TRIVIAL] mod (y^2 - 2)(y^2 - 3), the leading coefficient y^2 - 2
        # of (y^2 - 2) x + 1 shares the factor y^2 - 2 with the modulus, in
        # either order of the inputs; the factor is a primitive int list
        a, b = [[1], [], [1]], [[1], [-2, 0, 1]]
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ZeroDivisorError) as info:
                gcd_over_quotient(x, y, self.Q)
            assert info.value.factor == [-2, 0, 1]

    def test_constant_zero_divisor_remainder_carries_the_factor(self):
        # [TRIVIAL] mod (y^2 - 2)(y^2 - 3), x^2 + y^2 - 2 leaves the constant
        # remainder y^2 - 2 after the monic divisor x, a zero divisor, in
        # either order of the inputs
        a, b = [[-2, 0, 1], [], [1]], [[], [1]]
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ZeroDivisorError) as info:
                gcd_over_quotient(x, y, self.Q)
            assert info.value.factor == [-2, 0, 1]

    def test_monic_divisor_and_unit_remainder_take_no_inverse(
            self, monkeypatch):
        # [TRIVIAL] over Q(sqrt 2), x^2 + 1 leaves the unit 3 after the
        # monic divisor x - y, so gcd(x^2 + 1, x - y) = 1 with no unit test
        calls = []
        for name in ("_adjugate", "_gcd_int"):
            def counting(*args, kernel=getattr(algebra, name)):
                calls.append(args)
                return kernel(*args)
            monkeypatch.setattr(algebra, name, counting)
        a, b = [[1], [], [1]], [[0, -1], [1]]
        assert gcd_over_quotient(a, b, [-2, 0, 1]) == [[1]]
        assert calls == []

    def test_divisor_gets_an_integer_leading_coefficient(self):
        # [TRIVIAL] over Q(sqrt 2), (y + 1)(x - y) has the leading
        # coefficient y + 1, whose adjugate 1 - y gives (y + 1)(1 - y) =
        # -1: the gcd with (y + 1)(x - y)(x + 1) is x - y itself
        assert algebra._adjugate([1, 1], [-2, 0, 1]) == ([1, -1], -1)
        a = [[-2, -1], [-1], [1, 1]]
        b = [[-2, -1], [1, 1]]
        assert gcd_over_quotient(a, b, [-2, 0, 1]) == [[0, -1], [1]]
        assert algebra._adjugate([-2, 0, 1], self.Q) == ([], 0)

    def test_non_monic_modulus(self):
        # [TRIVIAL] mod 2y^2 - 3, y = sqrt(3/2): gcd(2x^2 - 3, x - y) is
        # x - y, and mod (2y - 1)(y^2 - 2) the leading coefficient 4y - 2
        # of (4y - 2) x + 1 is a zero divisor sharing 2y - 1, primitive
        a, b = [[-3], [], [2]], [[0, -1], [1]]
        g = gcd_over_quotient(a, b, [-3, 0, 2])
        assert _monic_over(g, upoly(-3, 0, 2, var="y")) == \
            [upoly(0, -1, var="y"), upoly(1, var="y")]
        with pytest.raises(ZeroDivisorError) as info:
            gcd_over_quotient([[1], [-2, 4]], a, [2, -4, -1, 2])
        assert info.value.factor == [-1, 2]

    def test_rational_y_matches_gcd_over_q(self):
        # [DERIVED] mod y - y0, Q[y]/(q) is Q, and the gcd of A and B is
        # gcd_poly of A(x, y0) and B(x, y0), up to a constant, for every
        # rational root y0 of Res_x(A, B) with its y-powers stripped, on
        # the 16 pencils
        checked = 0
        for name in NAMES:
            pencil = Pencil(get(name))
            A, B, _ = pencil.critical_pair
            ry = resultant(A, B, "x").to_unipoly("y")
            ry = UniPoly(fibration._strip_powers(ry.coeffs), "y")
            for y0, _ in squarefree_rational_roots(ry)[0]:
                Q = [-y0.numerator, y0.denominator]
                g = gcd_over_quotient(algebra._rows(A, 0, 1),
                                      algebra._rows(B, 0, 1), Q)
                A0, B0 = (p.eval_var("y", y0).to_unipoly("x")
                          for p in (A, B))
                assert UniPoly([c[0] if c else 0 for c in g], "x").monic() \
                    == gcd_poly(A0, B0)
                checked += 1
        assert checked == 22


def _times(s: list, u: list) -> list:
    """The product of two polynomials in x with int-list coefficients."""
    out = [UniPoly([], "y")] * (len(s) + len(u) - 1)
    for i, c in enumerate(s):
        for j, d in enumerate(u):
            out[i + j] = out[i + j] + UniPoly(c, "y") * UniPoly(d, "y")
    return [c.coeffs for c in out]


@st.composite
def quotient_cases(draw):
    """(Q, a, b): Q a squarefree product of one to three integer factors of
    degree 1 or 2 in y with leading coefficients 1 to 3, made primitive,
    and a = s u, b = s v with a shared factor s linear in x.  Each
    coefficient in x is a nonzero int list in y of degree <= 2, some of
    them multiples of a factor of Q, so that zero divisors are frequent."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 2))
        factors.append(draw(st.lists(st.integers(-4, 4), min_size=deg,
                                     max_size=deg))
                       + [draw(st.integers(1, 3))])
    q = UniPoly([1], "y")
    for f in factors:
        q = q * UniPoly(f, "y")
    assume(gcd_poly(q, q.derivative()).is_const())

    def poly(min_deg, max_deg):
        out = []
        for _ in range(draw(st.integers(min_deg, max_deg)) + 1):
            e = draw(st.lists(st.integers(-3, 3), max_size=2))
            e.append(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
            k = draw(st.integers(-1, len(factors) - 1))
            out.append(e if k < 0 else _times([e], [factors[k]])[0])
        return out

    s, u, v = poly(1, 1), poly(0, 2), poly(0, 2)
    return algebra._primitive(q.primitive_integer().coeffs), \
        _times(s, u), _times(s, v)


@seed(32)
@settings(max_examples=150, deadline=None)
@given(quotient_cases())
def test_gcd_over_quotient_matches_monic_euclid(case):
    # [DERIVED] against the monic Euclid over Q[y]/(q) with Fraction
    # residues: the same gcd up to a unit, or the same factor of q raised;
    # moduli with leading coefficient != 1 run the Euclid in z = lc(Q) y
    Q, a, b = case
    assert _gcd_or_factor(a, b, Q) == _reference_or_factor(a, b, Q)


def _split_gcd(a, b, Q) -> dict:
    """{part: monic gcd over Q[y]/(part)} with Q split at every zero
    divisor that gcd_over_quotient(a, b, .) raises, as `_values_over`
    splits it; each part a tuple of ints, their product Q."""
    try:
        return {tuple(Q): _monic_over(gcd_over_quotient(a, b, Q),
                                      UniPoly(Q, "y"))}
    except ZeroDivisorError as zd:
        h = zd.factor
        return {**_split_gcd(a, b, h),
                **_split_gcd(a, b, algebra._quotient(Q, h))}


def _agree(split: dict, other: dict) -> bool:
    """The two split gcds are equal on every common factor d of their
    parts: the monic gcd over Q[y]/(p) reduces mod d, a factor of p, to
    the monic gcd over Q[y]/(d)."""
    for p, g in split.items():
        for r, h in other.items():
            d = gcd_poly(UniPoly(p, "y"), UniPoly(r, "y"))
            if not d.is_const() and (len(g) != len(h) or any(
                    (c - e).divmod(d)[1] for c, e in zip(g, h))):
                return False
    return True


def test_gcd_over_quotient_is_symmetric_on_the_16(monkeypatch):
    # [TRIVIAL] the gcd over Q[y]/(q) does not depend on the order of its
    # inputs up to a unit, on each factor of q: on every (A, B) and (g, J)
    # pair that the critical values of the 16 pencils take it of, each
    # order gives the monic gcd (or raises with the factor) of the
    # reference in that order, and after each order splits q at the zero
    # divisors it meets, both give the same monic gcd on every common
    # factor of their parts.  Which zero divisor is met depends on the
    # order: over y^2 - 1, 8a's (A, B) meets y - 1 and (B, A) y + 1, and
    # the splits agree; 6a's (A, B) meets none, and (B, A) splits q.  The
    # critical values take it of 17 pairs: 16 fewer than while every slice
    # took (g, J), since a slice of a simple part of Res_x(A, B), none of
    # whose roots is a common root of the leading coefficients, takes
    # (A, B) alone, and 14 fewer again, since such a slice whose psc_1 is a
    # unit mod q takes S_1 for its gcd.  The 14 pairs that S_1 spares go
    # through the same checks, 31 pairs in all
    pairs, spared = [], []

    def recording(a, b, Q):
        pairs.append((name, a, b, Q))
        return gcd_over_quotient(a, b, Q)

    values_over = fibration._values_over

    def sparing(rows, C, Q, s1=None):
        if s1 is not None:
            spared.append((name, *rows[:2], Q))
        return values_over(rows, C, Q, s1)

    monkeypatch.setattr(fibration, "gcd_over_quotient", recording)
    monkeypatch.setattr(fibration, "_values_over", sparing)
    for name in NAMES:
        Pencil(get(name)).critical_values
    assert (len(pairs), len(spared)) == (17, 14)
    pairs += spared
    asymmetric = []
    for name, a, b, Q in pairs:
        assert _gcd_or_factor(a, b, Q) == _reference_or_factor(a, b, Q)
        assert _gcd_or_factor(b, a, Q) == _reference_or_factor(b, a, Q)
        split = _split_gcd(a, b, Q)
        assert _agree(split, _split_gcd(b, a, Q))
        if split != _split_gcd(b, a, Q):
            asymmetric.append((name, Q))
    assert asymmetric == [("6a", [-1, 0, 1])]


def test_table2_unit_tests_mod_q(monkeypatch):
    """The Euclid over Q[y]/(q) tests a leading coefficient for a unit by
    the adjugate of multiplication by it mod Q, and takes its integer gcd
    with Q only for the factor of a zero divisor.  The 16 rows of Table 2
    take 27 slices, one per squarefree part of Res_x(A, B) and one per
    half of a split.  17 of them, of the simple parts none of whose roots
    is a common root of the leading coefficients of A and B, take no J:
    the resultant's order proves their points nodes (47 calls and 24 unit
    tests while every slice took gcd(g, J)).  14 of those 17 take S_1 of
    the chain for g, where its leading coefficient psc_1 is a unit mod Q,
    and make no call (31 calls and 14 unit tests while they took
    gcd(A, B)).  The 17 calls are one per other slice, and a second,
    gcd(g, J), on the 4 slices of a part of multiplicity >= 2 that have a
    torus point and do not split (4a, 6a, 6c over y - 1, 7a); they make 4
    unit tests.  8a's first call meets the zero divisor y - 1 and splits
    by the one integer gcd made inside a call.  In the critical values,
    two integer gcds with Q are nonconstant: 6c's slice splits by the gcd
    of g's lowest coefficient with Q, since g keeps x = 0 at y = -1; and
    8a's slice y^2 - 1 takes the gcd y - 1 of psc_1 with Q, so S_1 = B,
    which vanishes on y = 1, is refused there.  The
    14 slices that S_1 spares then take their calls test-side, under the
    same counters: with them the calls make the 14 unit tests of the 31
    calls before, and no call builds a Fraction or a UniPoly, so nothing is
    inverted over Q: the adjugate is an integral multiple of the inverse.
    The counts do not depend on the host."""
    moduli, calls, tests, gcds, built, splits = [], [], [], [], [], []
    spared = []
    euclid, adjugate = algebra.gcd_over_quotient, algebra._adjugate
    gcd_int = algebra._gcd_int
    new, init = Fraction.__new__, UniPoly.__init__

    def counting_euclid(a, b, Q):
        moduli.append(Q)
        calls.append(Q)
        try:
            return euclid(a, b, Q)
        finally:
            moduli.pop()

    def counting_adjugate(u, Q):
        if moduli:
            tests.append(u)
        return adjugate(u, Q)

    def counting_gcd(a, b):
        if moduli:
            gcds.append((a, b))
        return gcd_int(a, b)

    def splitting_gcd(a, b):
        g = gcd_int(a, b)
        if len(g[0]) > 1:
            splits.append((a, b, g[0]))
        return g

    def counting_new(cls, *args, **kwargs):
        if moduli:
            built.append(cls)
        return new(cls, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        if moduli:
            built.append(UniPoly)
        init(self, *args, **kwargs)

    values_over = fibration._values_over

    def sparing(rows, C, Q, s1=None):
        if s1 is not None:
            spared.append((*rows[:2], Q))
        return values_over(rows, C, Q, s1)

    monkeypatch.setattr(fibration, "gcd_over_quotient", counting_euclid)
    monkeypatch.setattr(fibration, "_values_over", sparing)
    monkeypatch.setattr(algebra, "_adjugate", counting_adjugate)
    monkeypatch.setattr(algebra, "_gcd_int", counting_gcd)
    monkeypatch.setattr(fibration, "_gcd_int", splitting_gcd)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(UniPoly, "__init__", counting_init)
    for name in NAMES:
        cli._table_row(name)
    assert (len(calls), len(tests), len(spared)) == (17, 4, 14)
    assert splits == [([-2, -2], [-1, 0, 1], [1, 1]),
                      ([-1, 1], [-1, 0, 1], [-1, 1])]
    for a, b, Q in spared:
        counting_euclid(a, b, Q)
    assert (len(calls), len(tests)) == (31, 14)
    assert gcds == [([-1, 1], [-1, 0, 1])]
    assert built == []


def test_integral_calls_stay_on_packed_ints(monkeypatch):
    """Over the 16 rows of Table 2 and the 16 elimination polynomials, a
    resultant or bivariate gcd of integral inputs never reaches
    _primitive_scale and builds no Fraction beyond the coefficients of its
    answer, and every call that runs the subresultant PRS packs it; the
    counts do not depend on the host.  Every such call has integral
    inputs, the two resultants of `_values_over`, Res_x(g, C) and
    Res_y(Q, .), included: the gcd g over Q[y]/(q) is an integral multiple
    of the monic one, or S_1 of the chain, and Q the primitive multiple of
    q.  The chains that give Res_x(A, B) with S_1, and G where it
    vanishes (`algebra._resultant_chain`), are watched alike."""
    integral, scales, prs, fractions = [False], [], [], []
    inputs = []
    new, scale = Fraction.__new__, algebra._primitive_scale
    run_prs, slots = algebra._subresultant_prs, algebra._slots

    def counting_new(cls, *args, **kwargs):
        if integral[-1]:
            fractions.append(args)
        return new(cls, *args, **kwargs)

    def counting_scale(coeffs):
        if integral[-1]:
            scales.append(coeffs)
        return scale(coeffs)

    def spying_prs(A, B):
        prs.append(A[-1].__class__ is int)
        return run_prs(A, B)

    def checked_slots(*args):
        packing = slots(*args)
        assert packing is not None, "fell back to MPoly coefficients"
        return packing

    def watched(kernel):
        def call(p, q, *args):
            integral.append(all(c.__class__ is int
                                for r in (p, q) for c in r.terms.values()))
            inputs.append(integral[-1])
            del fractions[:]
            try:
                out = kernel(p, q, *args)
            finally:
                integral.pop()
            r = out[0] if isinstance(out, tuple) else out
            assert len(fractions) == sum(
                c.__class__ is Fraction for c in r.terms.values())
            return out
        return call

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(algebra, "_primitive_scale", counting_scale)
    monkeypatch.setattr(algebra, "_subresultant_prs", spying_prs)
    monkeypatch.setattr(algebra, "_slots", checked_slots)
    for name in ("resultant", "gcd_bivariate", "_resultant_chain"):
        monkeypatch.setattr(fibration, name,
                            watched(getattr(algebra, name)))
    for name in NAMES:
        cli._table_row(name)
        fibration.elimination_polynomial(get(name))
    assert not scales
    assert len(prs) > 100 and all(prs)
    assert len(inputs) > 150 and all(inputs)


class TestGcdBivariate:
    # shared = y l + 1, p = shared (l - y^2), q = shared (l + 2)
    shared = MPoly({(0, 1, 1): 1, (0, 0, 0): 1})
    p = shared * MPoly({(0, 0, 1): 1, (0, 2, 0): -1})
    q = shared * MPoly({(0, 0, 1): 1, (0, 0, 0): 2})

    def test_lambda_over_y(self):
        # [TRIVIAL] l - y^2 and l + 2 are coprime, so the gcd is y l + 1,
        # whichever of l and y is the main variable
        assert gcd_bivariate(self.p, self.q, "l", "y") == self.shared
        assert gcd_bivariate(self.p, self.q, "y", "l") == self.shared

    def test_x_over_y_is_the_same_gcd(self):
        # [TRIVIAL] renaming l to x renames the gcd
        def l_to_x(r):
            return MPoly({(c, b, 0): v for (_, b, c), v in r.terms.items()})

        assert gcd_bivariate(l_to_x(self.p), l_to_x(self.q), "x", "y") == \
            l_to_x(self.shared)

    def test_content_in_the_coefficient_variable(self):
        # [TRIVIAL] gcd((y + 1)(l - y^2), (y + 1)(l + 2)) = y + 1: a factor
        # free of the main variable l is found through the contents in Q[y]
        y1 = MPoly({(0, 1, 0): 1, (0, 0, 0): 1})
        p = y1 * MPoly({(0, 0, 1): 1, (0, 2, 0): -1})
        q = y1 * MPoly({(0, 0, 1): 1, (0, 0, 0): 2})
        assert gcd_bivariate(p, q, "l", "y") == y1

    def test_recovers_a_planted_factor(self):
        # [DERIVED] gcd(p r, q r) = r for coprime p, q (both resultants
        # nonzero), divided by its content and signed to a positive
        # lex-leading coefficient; half of the r carry a factor free of the
        # main variable, found through the contents
        rng = random.Random(1971)
        checked = 0
        for main, coeff in [("x", "y"), ("l", "y"), ("y", "l")]:
            for k in range(6):
                p, q, r = (_random_biv(rng, main, coeff) for _ in range(3))
                if k % 2:
                    r = r * MPoly.from_unipoly(
                        UniPoly([rng.randint(-3, 3), 1]), coeff)
                if resultant(p, q, main) == 0 or resultant(p, q, coeff) == 0:
                    continue
                assert gcd_bivariate(p * r, q * r, main, coeff) == \
                    _primitive_part(r)
                checked += 1
        assert checked >= 12

    def test_third_variable_rejected(self):
        with pytest.raises(ValueError, match="free of x"):
            gcd_bivariate(self.p + MPoly({(1, 0, 0): 1}), self.q, "l", "y")


class TestSquarefreeRationalRoots:
    def test_paper_5a_resultant(self):
        # [PAPER] (l-1)^2 (l^3 - l^2 - 18 l + 43)
        cubic = upoly(43, -18, -1, 1, var="l")
        p = upoly(-1, 1, var="l") * upoly(-1, 1, var="l") * cubic
        roots, residual = squarefree_rational_roots(p)
        assert roots == [(Fraction(1), 2)]
        assert residual == [(cubic, 1)]

    def test_paper_7a_quadratic(self):
        # [PAPER] l^2 + 5l - 25 has no rational root (roots 5/2(-1 +- sqrt5))
        p = upoly(-25, 5, 1, var="l")
        roots, residual = squarefree_rational_roots(p)
        assert roots == []
        assert residual == [(p, 1)]

    def test_zero_rejected(self):
        # [TRIVIAL] every value is a root of 0
        with pytest.raises(ValueError, match="zero polynomial"):
            squarefree_rational_roots(UniPoly([]))

    def test_paper_3_cubic(self):
        # [PAPER] l^3 + 27 = (l + 3)(l^2 - 3l + 9)
        roots, residual = squarefree_rational_roots(upoly(27, 0, 0, 1, var="l"))
        assert roots == [(Fraction(-3), 1)]
        assert residual == [(upoly(9, -3, 1, var="l"), 1)]

    def test_reassembly(self):
        # [TRIVIAL] product of the extracted factors reproduces p up to lc
        p = upoly(0, 4, 0, -4, 0, 2) * upoly(1, 1) * upoly(1, 1)
        roots, residual = squarefree_rational_roots(p)
        prod = UniPoly([1])
        for r, m in roots:
            for _ in range(m):
                prod = prod * upoly(-r, 1)
        for q, m in residual:
            for _ in range(m):
                prod = prod * q
        assert p.monic() == prod.monic()


# irreducible over Q and free of rational roots, two of them not monic
_IRRATIONAL = [upoly(-3, 0, 2, var="l"), upoly(1, 0, 1, var="l"),
               upoly(1, 1, 3, var="l"), upoly(-1, -1, 0, 1, var="l")]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4),
                       st.integers(1, 3)), max_size=4),
    st.lists(st.tuples(st.integers(0, len(_IRRATIONAL) - 1),
                       st.integers(1, 3)), max_size=3),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
)
def test_squarefree_rational_roots_reassembles(rational, irrational, scale):
    # [DERIVED] planted roots u/v of multiplicity m and irrational factors
    # (repeats of either may coincide and add up): the roots come back with
    # their total multiplicities, and the roots with the monic, squarefree
    # residual factors, one per multiplicity, multiply back to p
    p = UniPoly([scale], "l")
    expected: dict = {}
    for u, v, m in rational:
        p = p * upoly(-u, v, var="l") ** m
        expected[Fraction(u, v)] = expected.get(Fraction(u, v), 0) + m
    for i, m in irrational:
        p = p * _IRRATIONAL[i] ** m
    roots, residual = squarefree_rational_roots(p)
    assert roots == sorted(expected.items())
    prod = UniPoly([1], "l")
    for r, m in roots:
        prod = prod * upoly(-r, 1, var="l") ** m
    for f, m in residual:
        assert f.lc() == 1 and gcd_poly(f, f.derivative()) == 1
        prod = prod * f ** m
    assert prod == p.monic()
    assert len({m for _, m in residual}) == len(residual)


def rational_roots(p: UniPoly) -> list[Fraction]:
    """The rational roots of p, each once, as squarefree_rational_roots
    reports them."""
    return [r for r, _ in squarefree_rational_roots(p)[0]]


class TestRationalRoots:
    def test_integer_roots(self):
        # [TRIVIAL]
        p = upoly(-6, 11, -6, 1)  # (t-1)(t-2)(t-3)
        assert sorted(rational_roots(p)) == [1, 2, 3]

    def test_fractional_root(self):
        # [TRIVIAL] 2t - 1
        assert rational_roots(upoly(-1, 2)) == [Fraction(1, 2)]

    def test_large_constant_term(self):
        # [DERIVED] (3t - p)(t - q)(t^2 + t + 1) with the 27-bit primes
        # p = 2^27 - 39 and q = 2^27 - 79: a 54-bit constant term, too large
        # to search for divisors by trial division
        p, q = 134217689, 134217649
        f = upoly(-p, 3) * upoly(-q, 1) * upoly(1, 1, 1)
        assert (p * q).bit_length() == 54
        start = time.perf_counter()
        roots = rational_roots(f)
        assert time.perf_counter() - start < 1.0
        assert roots == [Fraction(p, 3), Fraction(q)]

    def test_matches_brute_force(self):
        # [DERIVED] every +-u/v with u | a_0 and v | a_n, tried one by one
        def divisors(n):
            return [d for d in range(1, n + 1) if n % d == 0]

        def brute_force(f):
            ints = f.primitive_integer().coeffs
            low = next(i for i, c in enumerate(ints) if c != 0)
            a0, an = abs(int(ints[low])), abs(int(ints[-1]))
            found = {Fraction(0)} if low else set()
            for u in divisors(a0):
                for v in divisors(an):
                    for r in (Fraction(u, v), Fraction(-u, v)):
                        if f(r) == 0:
                            found.add(r)
            return sorted(found)

        rng = random.Random(20261018)
        for _ in range(300):
            f = upoly(rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 3)):  # rational roots, maybe repeated
                f = f * upoly(rng.randint(-6, 6), rng.randint(1, 4))
            f = f * upoly(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 3))],
                          rng.randint(1, 3))
            assert rational_roots(f) == brute_force(f)


# ---------------------------------------------------------------------------
# randomized properties (seeded; the full 1000-case suite is in acceptance)
# ---------------------------------------------------------------------------


def _random_poly(rng, max_deg=4, var="x"):
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(deg)] + [
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    ]
    return UniPoly(coeffs, var=var)


def _random_lx(rng, deg):
    """A random polynomial of degree deg in x with coefficients of degree at
    most 2 in l."""
    terms = {(i, 0, j): rng.randint(-4, 4) for i in range(deg + 1)
             for j in range(3)}
    terms[(deg, 0, rng.randint(0, 2))] = rng.choice([-3, -2, -1, 1, 2, 3])
    return MPoly(terms)


def _check_against_sylvester(p, q):
    r = resultant(p, q, "x")
    for l0 in (-2, Fraction(-1, 2), 0, 1, Fraction(5, 3), 3):
        a, b = ([c.to_unipoly("l")(l0) for c in f.coeffs_in("x")]
                for f in (p, q))
        if a[-1] != 0 and b[-1] != 0:
            assert r.to_unipoly("l")(l0) == \
                bareiss_determinant(sylvester_matrix(a, b))


def _random_biv(rng, main, coeff):
    """A random polynomial of degree 1 or 2 in each of main and coeff."""
    i, j = ("xyl".index(v) for v in (main, coeff))
    da, db = rng.randint(1, 2), rng.randint(1, 2)
    terms = {}
    for a in range(da + 1):
        for b in range(db + 1):
            e = [0, 0, 0]
            e[i], e[j] = a, b
            terms[tuple(e)] = rng.randint(-3, 3)
    terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return MPoly(terms)


def _primitive_part(p: MPoly) -> MPoly:
    """p divided by the gcd of its values, signed so that its lex-leading
    coefficient is positive."""
    g = int_gcd(*p.terms.values())
    if p.terms[max(p.terms)] < 0:
        g = -g
    return MPoly({e: c // g for e, c in p.terms.items()})


def test_resultant_vanishes_iff_gcd_nonconstant(res_x):
    rng = random.Random(20260826)
    for _ in range(100):
        p = _random_poly(rng)
        q = _random_poly(rng)
        vanishes = res_x(p, q) == 0
        assert vanishes == (not gcd_poly(p, q).is_const())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=5),
    st.lists(st.integers(-6, 6), min_size=2, max_size=5),
)
def test_gcd_divides_both(a, b):
    p, q = UniPoly([Fraction(c) for c in a]), UniPoly([Fraction(c) for c in b])
    if p.is_zero() or q.is_zero():
        return
    g = gcd_poly(p, q)
    assert p.divmod(g)[1].is_zero() and q.divmod(g)[1].is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=6))
def test_squarefree_decomposition_reassembles(coeffs):
    p = UniPoly([Fraction(c) for c in coeffs])
    if p.is_zero() or p.is_const():
        return
    prod = UniPoly([1])
    for f, m in squarefree_decomposition(p):
        for _ in range(m):
            prod = prod * f
    assert prod.monic() == p.monic()


# ---------------------------------------------------------------------------
# the packed subresultant PRS, on both sides of the width limit
# ---------------------------------------------------------------------------


def _on_both_sides(call):
    """call() with MPoly coefficients (limit 0) and with packed ints (no
    limit), checking that each side took its own path; the two results."""
    results = []
    for limit in (0, 1 << 62):
        packed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra, "_PACK_BITS", limit)
            pack = algebra._pack
            mp.setattr(algebra, "_pack",
                       lambda *args: packed.append(args) or pack(*args))
            results.append(call())
        assert bool(packed) == bool(limit)
    return results


def _check_resultant(p, q, var, r):
    """r = Res_var(p, q), checked against the Bareiss determinant of the
    Sylvester matrix at every point of a grid in the two other variables
    u, v as large as the degree bounds D_u, D_v of the resultant, which
    determines it.  The coefficient lists keep their formal length, so a
    vanishing leading coefficient needs no exclusion."""
    u, v = (name for name in algebra.VARS if name != var)
    m, n = p.degree(var), q.degree(var)
    du, dv = (n * p.degree(w) + m * q.degree(w) for w in (u, v))
    for a in range(int(du) + 1):
        for b in range(int(dv) + 1):
            at = [[constant_value(c.eval_var(u, a).eval_var(v, b))
                   for c in f.coeffs_in(var)] for f in (p, q)]
            assert constant_value(r.eval_var(u, a).eval_var(v, b)) == \
                bareiss_determinant(sylvester_matrix(*at))


def _check_both_sides(p, q, var):
    packed, plain = _on_both_sides(lambda: resultant(p, q, var))
    assert packed == plain
    _check_resultant(p, q, var, packed)


_coefficient = st.integers(-40, 40)


@st.composite
def _xyl(draw, absent=None):
    """A polynomial of degree <= 2 in x and <= 1 in y and l, with int
    coefficients of both signs; `absent` names a variable it is free of."""
    keys = st.tuples(*(st.just(0) if name == absent else
                       st.integers(0, 2 if name == "x" else 1)
                       for name in algebra.VARS))
    return MPoly(draw(st.dictionaries(keys, _coefficient, min_size=1,
                                      max_size=6)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["x", "y", "l"]), st.data())
def test_packed_resultant_matches_sylvester_bareiss(var, data):
    # [DERIVED] both encodings give the Sylvester determinant, with an
    # absent packed variable (D_v = 0) among the draws
    absent = data.draw(st.sampled_from(
        [None] + [w for w in algebra.VARS if w != var]))
    p, q = data.draw(_xyl(absent)), data.draw(_xyl(absent))
    assume(p.degree(var) > 0 and q.degree(var) > 0)
    _check_both_sides(p, q, var)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(algebra.VARS), st.data(),
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_eval_var_clears_the_denominator(name, data, value):
    # [DERIVED] eval_var(name, n/d) = d^e p(name = n/d), e = deg_name p:
    # each coefficient in the two other variables is d^e times its
    # polynomial in name, evaluated in Fractions by UniPoly
    p = data.draw(_xyl())
    i, e = algebra._VAR_INDEX[name], p.degree(name)
    columns: dict = {}
    for k, v in p.terms.items():
        column = columns.setdefault(k[:i] + (0,) + k[i + 1:], [0] * (e + 1))
        column[k[i]] = v
    expected = {k: value.denominator**e * UniPoly(column, name)(value)
                for k, column in columns.items()}
    assert p.eval_var(name, value) == \
        MPoly({k: c for k, c in expected.items() if c})


_x, _y, _l = (MPoly({e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize("p, q", [
    # degrees 1 < 3, both odd, the second pair with contents 2 and 3
    (3 * _x + 4 * _y, 105 * _x**3 - 28 * _x * _y + 100 * _l + 140),
    (6 * _x * _y + 4 * _l, 12 * _x**3 + 3 * _y - 30),
    # contents 2 and 3
    (6 * _x**3 + 4 * _y * _l, 9 * _x - 3 * _l),
    # an input free of x (n = 0) with content 2
    (3 * _x**2 + 6 * _x * _y - 2, 6 * _y + 4 * _l),
    (2 * _x**3 - _y, 4 * _y**2 - 6 * _l),
    # in the slots of Res = (y + 3)^2 alone, s = 6, y - 64 would pack to 0
    ((_y - 64) * _x**2 + 1, _y + 3),
])
def test_packed_resultant_signs_and_scales(p, q):
    # [DERIVED] both orders of each pair, on both sides of the width limit,
    # give the Sylvester determinant: the swap sign (-1)^(m n), the
    # contents and the power b^m of a constant are applied to every digit
    for a, b in ((p, q), (q, p)):
        _check_both_sides(a, b, "x")


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 4), st.integers(1, 2), st.integers(0, 10**6))
def test_packed_resultant_with_degree_gaps(deg_b, deg_f, seed):
    # [DERIVED] q = f b + s with deg s <= deg b - 2 makes the remainder
    # sequence drop by 2 or more after its first step, as in
    # test_specialises_to_sylvester_bareiss, so h is raised to delta >= 2 on
    # packed ints too
    rng = random.Random(seed)
    b = _random_lx(rng, deg_b)
    s = _random_lx(rng, rng.randint(1, deg_b - 2))
    q = _random_lx(rng, deg_f) * b + s
    _check_both_sides(q, b, "x")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("x", "y"), ("l", "y"), ("y", "l")]),
       st.integers(0, 10**6))
def test_packed_gcd_bivariate_matches_mpoly(variables, seed):
    # [DERIVED] both encodings give the same gcd of p r and q r, p scaled
    # by an integer, with a factor free of the main variable half of the
    # time; the gcd is primitive with a positive lex-leading coefficient
    main, coeff = variables
    rng = random.Random(seed)
    p, q, r = (_random_biv(rng, main, coeff) for _ in range(3))
    if seed % 2:
        r = r * MPoly.from_unipoly(UniPoly([rng.randint(-3, 3), 1]), coeff)
    p = p * r * rng.randint(1, 9)
    q = q * r
    packed, plain = _on_both_sides(lambda: gcd_bivariate(p, q, main, coeff))
    assert packed == plain
    assert int_gcd(*packed.terms.values()) == 1
    assert packed.terms[max(packed.terms)] > 0
    p.exact_div(packed), q.exact_div(packed)  # raise unless it divides both


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("x", "y"), ("l", "y"), ("y", "l")]),
       st.integers(0, 10**6))
def test_packed_gcd_bivariate_with_contents(variables, seed):
    # [DERIVED] p = s c a r and q = s c' b r with s, c, c' linear in coeff
    # alone: both contents in Z[coeff] are nonconstant and share s, so both
    # encodings give a gcd that divides p and q and is divisible by s r,
    # over Z by its primitive part
    main, coeff = variables
    rng = random.Random(seed)
    a, b, r = (_random_biv(rng, main, coeff) for _ in range(3))
    s, c, c2 = (MPoly.from_unipoly(UniPoly([rng.randint(-3, 3),
                                           rng.choice([-2, -1, 1, 2])]),
                                   coeff) for _ in range(3))
    p = s * c * a * r * rng.randint(1, 9)
    q = s * c2 * b * r
    packed, plain = _on_both_sides(lambda: gcd_bivariate(p, q, main, coeff))
    assert packed == plain
    p.exact_div(packed), q.exact_div(packed)  # raise unless it divides both
    packed.exact_div(_primitive_part(s * r))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(algebra.VARS), st.booleans(), st.data())
def test_chain_ends_in_an_element_of_the_ideal(var, share, data):
    # [DERIVED] `_resultant_chain` gives the same resultant and last element
    # S, unpacked from its packed or MPoly coefficients, on both sides of
    # the width limit, S of positive degree in var, and
    # S = U p + V q: at each integer point of the other variable in
    # [-3, 3], the gcd of the specialised p and q divides S there.  With a
    # common factor planted (share) the resultant vanishes, and S has the
    # degree in var of their gcd_bivariate, which divides it
    absent, other = (w for w in algebra.VARS if w != var)
    p, q = data.draw(_xyl(absent)), data.draw(_xyl(absent))
    if share:
        r = data.draw(_xyl(absent))
        assume(r.degree(var) > 0)
        p, q = p * r, q * r
    assume(p.degree(var) > 0 and q.degree(var) > 0)
    def chain():
        r, last = algebra._resultant_chain(p, q, var)
        return r, last()

    packed, plain = _on_both_sides(chain)
    assert packed == plain
    r, S = packed
    assert S.degree(var) > 0
    if share:
        assert not r.terms
        g = gcd_bivariate(p, q, var, other)
        assert S.degree(var) == g.degree(var)
        S.exact_div(g)  # raises unless g divides S
    for a in range(-3, 4):
        pa, qa, Sa = (f.eval_var(other, a).to_unipoly(var) for f in (p, q, S))
        if pa or qa:
            assert Sa.divmod(gcd_poly(pa, qa))[1].is_zero()


@st.composite
def _in_two(draw, main, coeff):
    """A polynomial of degree <= 2 in each of main and coeff, with int
    coefficients; zero, and coefficients in main that are zero or nonzero
    constants, are among the draws."""
    def key(i, j):
        e = [0, 0, 0]
        e[algebra._VAR_INDEX[main]], e[algebra._VAR_INDEX[coeff]] = i, j
        return tuple(e)

    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = draw(st.dictionaries(exponents, _coefficient, max_size=6))
    return MPoly({key(i, j): v for (i, j), v in terms.items()})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([("x", "y"), ("l", "y"), ("y", "l")]), st.data())
def test_int_content_matches_unipoly_path(variables, data):
    # [DERIVED] the content of the main-variable coefficients, read off the
    # terms as int lists, equals the gcd in Z[coeff] of their primitive
    # integer multiples taken through UniPoly, made monic (primitive with a
    # positive leading coefficient is one-to-one with monic); a planted
    # factor in coeff alone makes nonconstant contents frequent
    main, coeff = variables
    p = data.draw(_in_two(main, coeff))
    r = UniPoly(data.draw(st.lists(_coefficient, max_size=3)), coeff)
    if r:
        p = p * MPoly.from_unipoly(r, coeff)
    coeffs = p.coeffs_in(main)
    assert algebra._content(p, main, coeff) == UniPoly(
        int_content(coeffs, coeff), coeff).monic()


def test_narrow_slot_mutant_is_caught(monkeypatch):
    # [DERIVED] a slot sized by the largest input coefficient instead of the
    # 1-norms, s = 2 here, is too narrow for Res_x(x - y - 1, x^4 + 1) =
    # (y + 1)^4 + 1, whose coefficient 6 is above 2^(s - 1); the oracle
    # check catches the mutant, by a wrong value or a leftover digit
    p = MPoly({(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): -1})
    q = MPoly({(4, 0, 0): 1, (0, 0, 0): 1})
    r = resultant(p, q, "x")
    assert r == MPoly({(0, 4, 0): 1, (0, 3, 0): 4, (0, 2, 0): 6,
                       (0, 1, 0): 4, (0, 0, 0): 2})
    _check_resultant(p, q, "x", r)
    slots = algebra._slots(4, 0, 2 * 3**4)  # D_y = 4 * 1, |q|_1 |p|_1^4
    narrow = (2,) + slots[1:]
    assert slots[0] > 2 and max(r.terms.values()) > 1 << (narrow[0] - 1)
    monkeypatch.setattr(algebra, "_slots", lambda du, dv, bound: narrow)
    with pytest.raises((AssertionError, ArithmeticError)):
        _check_resultant(p, q, "x", resultant(p, q, "x"))


def test_unpack_rejects_a_leftover_digit():
    # [TRIVIAL] two 4-bit slots hold -8..7 each; 2^8 leaves a third digit
    assert algebra._unpack(-3 + (5 << 4), (4, 2, 2)) == [-3, 5]
    with pytest.raises(ArithmeticError, match="out of range"):
        algebra._unpack(1 << 8, (4, 2, 2))


# ---------------------------------------------------------------------------
# the certified modular gcd
# ---------------------------------------------------------------------------


# 2^31 - 1, the first modulus of the modular gcd.
FIRST_MODULUS = (1 << algebra._MERSENNE_EXPONENTS[0]) - 1


def _check_unlucky_first_prime():
    # x - 1 and x - 1 - p share the root 1 mod p = 2^31 - 1, the first prime
    p = FIRST_MODULUS
    a, b = upoly(-1, 1, var="x"), upoly(-1 - p, 1, var="x")
    assert algebra._gcd_mod([p - 1, 1], [(-1 - p) % p, 1], p) == [p - 1, 1]
    assert gcd_poly(a, b) == upoly(1, var="x")


class TestModularGcd:
    def test_unlucky_first_prime(self):
        # [DERIVED] the candidate x - 1 from 2^31 - 1 fails trial division
        # and the next modulus, 2^61 - 1, proves the gcd 1
        _check_unlucky_first_prime()

    def test_mutant_without_trial_division_fails(self, monkeypatch):
        # [DERIVED] accepting the first candidate unchecked returns x - 1
        monkeypatch.setattr(algebra, "_quotient", lambda a, h: [0])
        with pytest.raises(AssertionError):
            _check_unlucky_first_prime()

    def test_prime_dividing_a_leading_coefficient_is_skipped(
            self, monkeypatch):
        # [TRIVIAL] gcd((p x + 1)(x - 2), (x - 2)(x + 3)) = x - 2 for
        # p = 2^31 - 1; mod p the first input drops a degree, so p is skipped
        p = FIRST_MODULUS
        used = []
        gcd_mod = algebra._gcd_mod
        monkeypatch.setattr(algebra, "_gcd_mod",
                            lambda a, b, m: used.append(m) or gcd_mod(a, b, m))
        a = upoly(1, p, var="x") * upoly(-2, 1, var="x")
        b = upoly(-2, 1, var="x") * upoly(3, 1, var="x")
        assert gcd_poly(a, b) == upoly(-2, 1, var="x")
        assert used and p not in used

    def test_higher_degree_modulus_skipped(self, monkeypatch):
        # [DERIVED] g = x + 2^40 + 3, a = g (x - 1) and
        # b = g (x - 1 - (2^61 - 1)).  Mod 2^31 - 1 the gcd has the right
        # degree, but its symmetric lift is not g and fails trial division;
        # mod 2^61 - 1 the inputs share x - 1 too, so that image has a
        # higher degree and is skipped; 2^89 - 1 then completes g
        used = []
        gcd_mod = algebra._gcd_mod
        monkeypatch.setattr(algebra, "_gcd_mod",
                            lambda a, b, m: used.append(m) or gcd_mod(a, b, m))
        p61 = (1 << 61) - 1
        g = [(1 << 40) + 3, 1]
        a, b = algebra._mul(g, [-1, 1]), algebra._mul(g, [-1 - p61, 1])
        assert algebra._gcd_int(a, b) == (g, [-1, 1], [-1 - p61, 1])
        assert used == [(1 << e) - 1 for e in (31, 61, 89)]

    def test_fraction_zero_and_constant_inputs(self):
        # [TRIVIAL] gcd over Q is monic whatever the scaling of the inputs
        shared = upoly(Fraction(1, 3), Fraction(-2, 5), var="x")
        a = shared * upoly(Fraction(1, 2), 1, var="x")
        b = shared * upoly(Fraction(-7, 4), Fraction(3, 2), var="x")
        assert gcd_poly(a, b) == shared.monic()
        assert gcd_poly(a, UniPoly([], "x")) == a.monic()
        assert gcd_poly(UniPoly([], "x"), a) == a.monic()
        one = upoly(1, var="x")
        assert gcd_poly(a, upoly(Fraction(-5, 3), var="x")) == one
        assert gcd_poly(UniPoly([], "x"), upoly(7, var="x")) == one
        with pytest.raises(ValueError):
            gcd_poly(UniPoly([], "x"), UniPoly([], "x"))

    def test_past_the_last_modulus_raises(self, monkeypatch):
        # [DERIVED] gcd((x - 2^40)(x + 1), (x - 2^40)(x + 2)) = x - 2^40.
        # With 2^31 - 1 the only modulus, its image there is x - 2^9
        # (2^40 = 2^9 mod 2^31 - 1), which divides neither input, and no
        # modulus is left: the error names the last one
        g = [-(1 << 40), 1]
        a, b = algebra._mul(g, [1, 1]), algebra._mul(g, [2, 1])
        assert algebra._gcd_int(a, b) == (g, [1, 1], [2, 1])
        monkeypatch.setattr(algebra, "_MERSENNE_EXPONENTS", (31,))
        with pytest.raises(ArithmeticError,
                           match=r"no modulus up to 2\^31 - 1"):
            algebra._gcd_int(a, b)

    def test_wide_yun_from_planted_factors(self):
        """Yun on a degree-78 input with 1000-bit coefficients, r s^2 t^28
        with r of degree 48 (Eisenstein at 2, so irreducible) and the
        linear s = x + 21, t = x - 6: the shape of the elimination
        polynomial of 9 under ((-11,3),(-4,1)).  A monic Euclid over Q
        takes minutes on it.

        Budget < 2 s (observed ~0.1 s)."""
        # [DERIVED] the planted factors come back with their multiplicities
        rng = random.Random(78)
        r = upoly(*([2 * (2 * rng.getrandbits(880) + 1)]
                    + [2 * rng.getrandbits(900) * rng.choice([-1, 1])
                       for _ in range(47)]
                    + [2 * rng.getrandbits(900) + 1]), var="l")
        s, t = upoly(21, 1, var="l"), upoly(-6, 1, var="l")
        e = r * s ** 2 * t ** 28
        assert e.degree == 78
        assert 950 <= max(abs(c) for c in e.coeffs).bit_length() <= 1100
        start = time.process_time()
        roots, residual = squarefree_rational_roots(e)
        assert time.process_time() - start < 2.0
        assert roots == [(Fraction(-21), 2), (Fraction(6), 28)]
        assert residual == [(r.monic(), 1)]
