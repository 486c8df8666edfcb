"""Classical periods and Picard-Fuchs operator fitting."""

import random
import time
from fractions import Fraction
from itertools import islice
from math import comb, factorial, isqrt, prod
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflexo import period
from reflexo.algebra import _MERSENNE_EXPONENTS, UniPoly
from reflexo.catalog import NAMES, get
from reflexo.laurent import LaurentPoly, build_fP
from reflexo.period import (
    DiffOperator,
    PowerSeries,
    _kernels,
    _lift,
    find_picard_fuchs,
    period_coefficients,
)

from oracles import (
    GL2Z_GENS,
    apply_operator,
    kernels_mod_p,
    operator_singular_locus,
    random_unimodular,
    row_walk,
    torus_counts,
)


def p3_series(M=40):
    return period_coefficients(build_fP(get("3")), M)


def naive_period(f, M):
    """Constant terms of f^0..f^M by plain repeated multiplication."""
    g = LaurentPoly({(0, 0): 1})
    out = [Fraction(1)]
    for _ in range(M):
        g = g * f
        out.append(g.terms.get((0, 0), 0))
    return out


def p3_operator():
    # integer form of (1/27) D^2 - t^3 (D+2)(D+1):
    # (1 - 27 t^3) D^2 - 81 t^3 D - 54 t^3
    return DiffOperator([
        UniPoly([0, 0, 0, -54]),
        UniPoly([0, 0, 0, -81]),
        UniPoly([1, 0, 0, -27]),
    ])


# Signed Fraction polynomials with exponents in [-3, 3]^2; a lower bound of 1
# on an axis makes every exponent on it positive.
_laurent_polys = st.tuples(
    st.sampled_from([-3, 1]), st.sampled_from([-3, 1])
).flatmap(lambda low: st.dictionaries(
    st.tuples(st.integers(low[0], 3), st.integers(low[1], 3)),
    st.fractions(-4, 4, max_denominator=6), max_size=5,
)).map(LaurentPoly)


class TestPowerSeries:
    def test_floats_rejected(self):
        # [TRIVIAL] as for UniPoly and LaurentPoly, a float is not exact
        with pytest.raises(TypeError):
            PowerSeries([1, 0.5])
        with pytest.raises(TypeError):
            PowerSeries([Fraction(1, 2), 2.0])

    def test_int_where_integral(self):
        # [TRIVIAL] as for the polynomials: int where integral, else Fraction
        s = PowerSeries([Fraction(4, 2), Fraction(1, 2), 3])
        assert [(type(c), c) for c in s.coefficients] == [
            (int, 2), (Fraction, Fraction(1, 2)), (int, 3)
        ]


def exact_types(values):
    """True when every value is an int if integral and a Fraction if not."""
    return all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        for c in values
    )


class TestPeriodCoefficients:
    def test_p3_head(self):
        # [PAPER] sum (3j)!/(j!)^3 t^{3j}: 1, 0, 0, 6, 0, 0, 90
        s = p3_series(6)
        assert s.coefficients == [1, 0, 0, 6, 0, 0, 90]

    def test_p3_closed_form(self):
        # [PAPER] c_{3j} = (3j)!/(j!)^3 through j = 5
        s = p3_series(15)
        for j in range(6):
            assert s[3 * j] == Fraction(factorial(3 * j), factorial(j) ** 3)

    def test_p4a_central_binomials(self):
        # [DERIVED] (x + y + 1/x + 1/y)^m: c_{2j} = binom(2j, j)^2
        s = period_coefficients(build_fP(get("4a")), 8)
        for j in range(5):
            assert s[2 * j] == comb(2 * j, j) ** 2
        assert s[1] == s[3] == s[5] == s[7] == 0

    def test_c1_zero(self, catalog):
        # [TRIVIAL] f_P has no constant monomial
        for P in catalog.values():
            assert period_coefficients(build_fP(P), 1)[1] == 0

    def test_clipping_matches_plain_expansion(self, catalog, monkeypatch):
        # [DERIVED] dropping the rows of f^m that cannot reach y^0 in the
        # remaining steps is loss-free: compare the row walk of the
        # oracles against a naive power computation for every f_P, with M
        # zero, one, odd and even
        monkeypatch.setattr(period, "_recurrence", row_walk)
        for name in NAMES:
            f = build_fP(catalog[name])
            for M in (0, 1, 7, 8):
                assert period_coefficients(f, M).coefficients == (
                    naive_period(f, M)
                ), (name, M)

    def test_fraction_coefficients(self):
        # [DERIVED] a non-integral f is scaled by the lcm D of its
        # denominators, c_m = CT((D f)^m) / D^m, and runs the same packed rows
        f = LaurentPoly({
            (1, 0): Fraction(1, 2), (-1, 0): Fraction(2, 3),
            (0, 1): Fraction(-3, 4), (0, -1): 1, (1, 1): Fraction(1, 5),
            (0, 0): Fraction(-1, 7),
        })
        got = period_coefficients(f, 7).coefficients
        assert got == naive_period(f, 7)
        assert any(c.denominator > 1 for c in got)
        assert exact_types(got)

    def test_integral_periods_are_ints(self, catalog):
        # [TRIVIAL] the period of an integral f is an integer sequence,
        # stored as ints
        for name in NAMES:
            s = period_coefficients(build_fP(catalog[name]), 12)
            assert {type(c) for c in s.coefficients} == {int}, name
        f = LaurentPoly({(1, 0): Fraction(1, 2), (-1, 0): 2})
        s = period_coefficients(f, 6)
        assert s.coefficients == [1, 0, 2, 0, 6, 0, 20]
        assert {type(c) for c in s.coefficients} == {int}

    def test_segment_support(self):
        # [DERIVED] f = x + 1/x: c_{2j} = binom(2j, j), odd terms vanish
        f = LaurentPoly({(1, 0): 1, (-1, 0): 1})
        s = period_coefficients(f, 11)
        for m in range(12):
            assert s[m] == (comb(m, m // 2) if m % 2 == 0 else 0)

    def test_empty_f(self):
        # [TRIVIAL] f^0 = 1 and f^m = 0 for m >= 1
        assert period_coefficients(LaurentPoly(), 5).coefficients == [
            1, 0, 0, 0, 0, 0
        ]
        assert period_coefficients(LaurentPoly(), 0).coefficients == [1]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            period_coefficients(build_fP(get("3")), -1)

    @settings(max_examples=60, deadline=None)
    @given(_laurent_polys, st.integers(0, 10))
    def test_matches_naive_period(self, f, M):
        # [DERIVED] any signed Fraction f, also one whose x- or y-exponents
        # are all positive (the x^0 slot and the row y^0 then lie outside
        # the support of f), wherever _frame finds a chart of tier 0 or 1;
        # any other f is refused
        if period._frame(f)[1] <= 1:
            assert period_coefficients(f, M).coefficients == (
                naive_period(f, M))
        else:
            with pytest.raises(ValueError, match="no chart"):
                period_coefficients(f, M)

    def test_slot_bound_is_attained(self, monkeypatch):
        # [DERIVED] for f = 3 and f = -3, |c_m| = 3^m is the bound
        # |f|_1^m that the digit width is chosen for, so a width one bit
        # narrower misreads c_M, on the recurrence that constant f takes and
        # on the row walk.  With a y^2 row, g = 128 + y^2 + 1/y has
        # |g|_1^40 = 130^40 < 2 * 128^40 = 2^281, so its x^0 digit
        # 128^40 = 2^280 needs the full width too
        cases = [(3, 40), (-3, 41)]
        for a, M in cases:
            f = LaurentPoly({(0, 0): a})
            assert period_coefficients(f, M).coefficients == [
                a ** m for m in range(M + 1)
            ]
        peeled = [(0, 0, 128), (0, 2, 1), (0, -1, 1)]
        f = LaurentPoly({(a, b): c for a, b, c in peeled})
        want = naive_period(f, 40)
        assert period_coefficients(f, 40).coefficients == want
        # each path reads c_M right at the width and wrong one bit narrower
        reads = [([(0, 0, a)], abs(a), M, a ** M) for a, M in cases]
        reads.append((peeled, 130, 40, want[40]))
        for walk in (period._recurrence, row_walk):
            for g, norm, M, c in reads:
                s = period._slot_bits(norm, M)
                assert walk(g, M, s)[M] == c, walk
                assert walk(g, M, s - 1)[M] != c, walk
        slot_bits = period._slot_bits
        monkeypatch.setattr(
            period, "_slot_bits", lambda norm, M: slot_bits(norm, M) - 1
        )
        for a, M in cases:
            f = LaurentPoly({(0, 0): a})
            assert period_coefficients(f, M)[M] != a ** M

    def test_sheared_within_budget(self):
        # [DERIVED] the cost follows the bounding box of f, so f is first
        # sheared back to a small box: f_9 in two wide coordinates gives the
        # period of f_9 quickly (1.6 s together on the raw boxes)
        f = build_fP(get("9"))
        s = period_coefficients(f, 40)
        start = time.process_time()
        for A in (((-11, 3), (-4, 1)), ((13, -5), (5, -2))):
            assert period_coefficients(f.transform(A), 40) == s, A
        assert time.process_time() - start < 0.3


# f with the exponents on one axis in {-1, 0, 1, 2}, or in {-2, -1, 0, 1}:
# the shapes that the recurrence takes.  The map puts the drawn axis on y,
# on x, on 1/y or on 1/x.
_recurrence_polys = st.tuples(
    st.sampled_from((((1, 0), (0, 1)), ((0, 1), (1, 0)),
                     ((1, 0), (0, -1)), ((0, -1), (1, 0)))),
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-1, 2)),
                    st.fractions(-4, 4, max_denominator=6), max_size=6),
).map(lambda t: LaurentPoly(t[1]).transform(t[0]))

# Two wide coordinate changes.
WIDE_MAPS = (((-11, 3), (-4, 1)), ((13, -5), (5, -2)))

# The four elementary shears (x, y) -> (x +- y, y) and (x, y +- x).
SHEARS = (((1, 1), (0, 1)), ((1, -1), (0, 1)),
          ((1, 0), (1, 1)), ((1, 0), (-1, 1)))


class TestRecurrence:
    @settings(max_examples=80, deadline=None)
    @given(_recurrence_polys, st.integers(0, 10))
    def test_matches_naive_period(self, f, M):
        # [DERIVED] the three-term recurrences in y, in x after the swap,
        # and in 1/y or 1/x where the range is {-2, ..., 1}, with the y^2
        # row peeled off by the binomial theorem, give the constant terms of
        # plain repeated multiplication; the chart is chosen among the
        # identity and the three orientation maps only, so that the drawn
        # axis is the one read
        with patch.object(period, "_MAPS", period._MAPS[:4]):
            got = period_coefficients(f, M).coefficients
        assert got == naive_period(f, M)

    def test_agrees_with_row_walk(self, catalog, monkeypatch):
        # [DERIVED] the 16 f_P, f_9 with its y^2 row peeled among them:
        # both paths give the same series at M = 40 and M = 100, at the one
        # slot width they share
        for M in (40, 100):
            fast = [period_coefficients(build_fP(catalog[name]), M)
                    for name in NAMES]
            with monkeypatch.context() as m:
                m.setattr(period, "_recurrence", row_walk)
                slow = [period_coefficients(build_fP(catalog[name]), M)
                        for name in NAMES]
            assert fast == slow, M

    def test_catalog_charts(self, catalog):
        # [DERIVED] the chart of every f_P in catalog coordinates: the
        # identity, except for 6d and 7b, whose y-exponents span
        # {-1, ..., 2} and whose x-exponents lie in {-1, 0, 1}, so the swap
        # of x and y puts them on the plain recurrence (tier 0); polygon 9
        # keeps its y^2 row (tier 1)
        swap = ((0, 1), (1, 0))
        for name in NAMES:
            f = build_fP(catalog[name])
            want = f.transform(swap) if name in ("6d", "7b") else f
            assert period._frame(f) == (want, 1 if name == "9" else 0), name

    def test_frame_of_empty_f(self):
        # [TRIVIAL] the zero polynomial has no exponents to rank
        assert period._frame(LaurentPoly()) == (LaurentPoly(), 0)

    def test_catalog_never_walks_rows(self, catalog):
        # [DERIVED] the cost guard of `analyze`: every f_P, polygon 9 of
        # lattice width 3 included, takes the recurrence in catalog
        # coordinates, under the two wide maps and under 64 seeded GL2(Z)
        # images each
        rng = random.Random(37)
        maps = WIDE_MAPS + tuple(random_unimodular(rng, GL2Z_GENS)
                                 for _ in range(64))
        expected = {name: period_coefficients(build_fP(catalog[name]), 40)
                    for name in NAMES}
        for name in NAMES:
            f = build_fP(catalog[name])
            for A in (((1, 0), (0, 1)),) + maps:
                assert period_coefficients(f.transform(A), 40) == (
                    expected[name]), (name, A)

    def test_sheared_charts_end_below_tier_2(self, catalog):
        # [DERIVED] the reduced-basis argument of _frame: under 100 seeded
        # products of two to twelve shears, the 16 supports all end at
        # tier 0, and polygon 9 of lattice width 3 at tier 1; f with random
        # coefficients on them keeps its period there
        rng = random.Random(44)
        fs = {name: build_fP(catalog[name]) for name in NAMES}
        for _ in range(100):
            A, B = (random_unimodular(rng, SHEARS) for _ in range(2))
            for name, f in fs.items():
                g = LaurentPoly({k: rng.choice((-3, -1, 1, 2, 5))
                                 for k in f.terms})
                h = g.transform(A).transform(B)
                tier = 1 if name == "9" else 0
                assert period._frame(h)[1] == tier, (name, A, B)
                assert period_coefficients(h, 6) == (
                    period_coefficients(g, 6)), (name, A, B)

    def test_width_four_refused(self):
        # [DERIVED] x^2 + 1/x^2 + y^2 + 1/y^2 has lattice width 4 in every
        # direction, so no chart puts its y-exponents in {-1, ..., 2}
        f = LaurentPoly({(2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1})
        assert period._frame(f)[1] == 2
        with pytest.raises(ValueError, match="no chart"):
            period_coefficients(f, 4)


def shifted(c, a):
    """The period of f + a from the period c of f:
    CT((f + a)^m) = sum_k binom(m, k) a^(m-k) c_k."""
    return [sum(comb(m, k) * a ** (m - k) * c[k] for k in range(m + 1))
            for m in range(len(c))]


def borel_shifted(b, a):
    """m! [t^m] e^(a t) sum_d b_d t^d for m < len(b)."""
    return [
        factorial(m) * sum(Fraction(a ** (m - d), factorial(m - d)) * b[d]
                           for d in range(m + 1))
        for m in range(len(b))
    ]


class TestClosedForms:
    # [DERIVED] the periods through t^40 of the named mutation classes
    # against closed forms that share no code with either path; every class
    # mate has the same series.  The shifted sequences are the periods of
    # f_P + a (Coates-Corti-Galkin-Golyshev-Kasprzyk, arXiv:1212.1722).
    M = 40

    def periods(self, catalog, names):
        return [period_coefficients(build_fP(catalog[name]), self.M)
                .coefficients for name in names]

    def test_4a(self, catalog):
        # binom(2j, j)^2 at t^(2j), 0 at odd powers
        want = [comb(m, m // 2) ** 2 if m % 2 == 0 else 0
                for m in range(self.M + 1)]
        assert self.periods(catalog, ["4a", "4c"]) == [want] * 2

    def test_6a(self, catalog):
        # f + 2: the Franel numbers sum_k binom(n, k)^3; f + 3:
        # sum_k binom(n, k)^2 binom(2k, k)
        n = range(self.M + 1)
        franel = [sum(comb(m, k) ** 3 for k in range(m + 1)) for m in n]
        other = [sum(comb(m, k) ** 2 * comb(2 * k, k) for k in range(m + 1))
                 for m in n]
        want = shifted(franel, -2)
        assert want == shifted(other, -3)
        assert self.periods(catalog, ["6a", "6b", "6c", "6d"]) == [want] * 4

    def test_7a(self, catalog):
        # f + 3: the Apery numbers sum_k binom(n, k)^2 binom(n + k, k)
        apery = [sum(comb(m, k) ** 2 * comb(m + k, k) for k in range(m + 1))
                 for m in range(self.M + 1)]
        want = shifted(apery, -3)
        assert self.periods(catalog, ["7a", "7b"]) == [want] * 2

    def test_8a(self, catalog):
        # m! [t^m] e^(-4t) sum_d (2d)!^2 / (d!)^5 t^d
        b = [Fraction(factorial(2 * d) ** 2, factorial(d) ** 5)
             for d in range(self.M + 1)]
        want = borel_shifted(b, -4)
        assert self.periods(catalog, ["8a", "8b", "8c"]) == [want] * 3

    def test_9(self, catalog):
        # m! [t^m] e^(-6t) sum_d (3d)! / (d!)^4 t^d, whose terms are not
        # all integers: d = 4 gives 1443.75
        b = [Fraction(factorial(3 * d), factorial(d) ** 4)
             for d in range(self.M + 1)]
        assert b[4] == Fraction(5775, 4)
        want = borel_shifted(b, -6)
        assert self.periods(catalog, ["9"]) == [want]


class TestFindPicardFuchs:
    def test_p3_operator(self):
        # [PAPER] L = (1/27) D^2 - t^3 (D+2)(D+1), integer-normalized
        assert find_picard_fuchs(p3_series()) == p3_operator()

    def test_p3_recursion(self):
        # [PAPER] j^2 c_{3j} = 3 (3j-1)(3j-2) c_{3j-3}: encoded in the dual
        # form as P_0(D) = D^2, P_3(D) = -27 D^2 - 81 D - 54 evaluated at
        # D = 3j and 3j - 3 after dividing by 9
        dual = find_picard_fuchs(p3_series()).dual_form()
        assert dual[0] == UniPoly([0, 0, 1], var="D")
        assert dual[3] == UniPoly([-54, -81, -27], var="D")
        for j in range(1, 10):
            lhs = dual[0](3 * j)
            rhs = -dual[3](3 * j - 3)
            assert lhs == 9 * j * j
            assert rhs == 27 * (3 * j - 1) * (3 * j - 2)

    def test_geometric_series(self):
        # [TRIVIAL] 1/(1-t) is annihilated by D - t(D+1)
        L = find_picard_fuchs(PowerSeries([1] * 20))
        assert L == DiffOperator([UniPoly([0, -1]), UniPoly([1, -1])])

    def test_annihilates_guard(self):
        # [TRIVIAL] defining property, including the guarded tail
        s = p3_series()
        assert apply_operator(find_picard_fuchs(s), s).coefficients[3:] == [
            Fraction(0)
        ] * (s.order - 2)

    def test_minimality(self):
        # [DERIVED] no order-1 annihilator of the P3 period exists within
        # the degree bound: the 41 coefficients reach every degree at h = 1,
        # and the fit has no kernel at any of them
        s = p3_series()
        assert 2 * (period._MAX_DEGREE + 1) + period._GUARD <= s.order + 1
        for d in range(period._MAX_DEGREE + 1):
            assert kernel_at(s, 1, d) == []

    def test_no_operator_within_bounds(self):
        # [DERIVED] a lacunary non-holonomic-looking prefix: 2^(m^2) grows
        # too fast for any small operator to annihilate
        s = PowerSeries([Fraction(2) ** (m * m) for m in range(30)])
        with pytest.raises(ValueError, match="no operator found"):
            find_picard_fuchs(s)

    def test_nonunique_kernel_rejected(self):
        # [DERIVED] a short series whose accepted shape (order 2, degree 3)
        # has a two-dimensional kernel: the operator is not determined
        s = PowerSeries([1, 0, 0, 1, 0, 0, 1] + [0] * 13)
        with pytest.raises(ValueError, match="operator not unique: .* at "
                           "order 2, degree 3"):
            find_picard_fuchs(s)


def _kernel(rows, ncols):
    """Reference: one kernel vector of the matrix (rows x ncols) over Q, or
    None, and the dimension of the kernel, by Gauss-Jordan on the full
    matrix; the vector sets the first free variable to 1."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivot_of_col = [-1] * ncols
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_of_col[c] = r
        r += 1
        if r == len(mat):
            break
    free = next((c for c in range(ncols) if pivot_of_col[c] == -1), None)
    if free is None:
        return None, 0
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for c in range(ncols):
        pr = pivot_of_col[c]
        if pr != -1:
            vec[c] = -mat[pr][free]
    return vec, ncols - r


def _fit_matrix(c, h, d, guard):
    """Reference: the fit matrix of the shape (h, d), one row per
    coefficient m outside the guard; the entry for unknown a_{k,j} is
    (m-j)^k c_{m-j}."""
    return [
        [
            (m - j) ** k * c[m - j] if m >= j else 0
            for k in range(h + 1)
            for j in range(d + 1)
        ]
        for m in range(len(c) - guard)
    ]


def moduli_used(monkeypatch):
    """Route period._kernels through a record of the moduli each order's
    eliminations ran over; returns {order: [e, ...]} for p = 2^e - 1."""
    used = {}

    def kernels(c, h, p):
        used.setdefault(h, []).append(p.bit_length())
        return _kernels(c, h, p)

    monkeypatch.setattr(period, "_kernels", kernels)
    return used


# Fit rows of a series to M = 40 with the guard of 8.
FIT_ROWS = 33

# The moduli of the fit, and their product.
MODULI = [(1 << e) - 1 for e in _MERSENNE_EXPONENTS]
K = prod(MODULI)
# 2^31 - 1, the first modulus: every order of a fit starts there.
PRIME = MODULI[0]


def kernel_at(s, h, d, p=PRIME):
    """The kernel basis mod p of the fit matrix of shape (h, d) of a series
    with integer coefficients."""
    fit = s.coefficients[: s.order + 1 - period._GUARD]
    return list(islice(_kernels(fit, h, p), d + 1))[-1]


def image_mod(x, p):
    """The residue of the rational x modulo p."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def lucas_lehmer(e: int) -> bool:
    """True when 2^e - 1 is prime, for an odd prime e."""
    m = (1 << e) - 1
    v = 4
    for _ in range(e - 2):
        v = (v * v - 2) % m
    return v == 0


class TestModularScreen:
    def test_accepted_shape_not_skipped(self, catalog, monkeypatch):
        # [DERIVED] rank_p <= rank_Q: where the exact kernel is nonempty the
        # mod-p kernel is nonempty too; at every accepted shape of the 16
        # series both have dimension exactly 1, the lifted vector is the
        # operator, and every order runs mod 2^31 - 1 alone
        used = moduli_used(monkeypatch)
        for name in NAMES:
            s = period_coefficients(build_fP(catalog[name]), 40)
            used.clear()
            L = find_picard_fuchs(s)
            h, d = L.order, max(p.degree for p in L.polys)
            assert used == {k: [31] for k in range(1, h + 1)}, name
            kernel = kernel_at(s, h, d)
            assert len(kernel) == 1, name
            polys = _lift(kernel[0], s.coefficients[:FIT_ROWS], h, d, PRIME)
            assert DiffOperator(polys).normalized() == L, name
            rows = _fit_matrix(s.coefficients, h, d, 8)
            assert _kernel(rows, (h + 1) * (d + 1))[1] == 1, name

    def test_skips_full_rank_shape(self):
        # [DERIVED] P3 has no order-1 relation of degree 0: the mod-p
        # elimination decides this without an exact solve
        rows = _fit_matrix(p3_series().coefficients, 1, 0, 8)
        assert _kernel(rows, 2)[0] is None
        assert kernel_at(p3_series(), 1, 0) == []

    def test_denominator_divisible_by_p_falls_through(self, monkeypatch):
        # [DERIVED] the P3 series divided by p = 2^31 - 1, or by the product
        # K of every modulus, is annihilated by the same operator.  Unscaled,
        # s/p has no image mod p and s/K none mod any modulus; the scaling to
        # coprime integers makes each the plain series, decided mod p at the
        # first try
        used = moduli_used(monkeypatch)
        c = p3_series().coefficients
        for a in (PRIME, K):
            used.clear()
            s = PowerSeries([Fraction(v, a) for v in c])
            assert find_picard_fuchs(s) == p3_operator()
            assert used == {1: [31], 2: [31]}

    def test_columns_zero_mod_p_fall_through(self, monkeypatch):
        # [DERIVED] the P3 series times p has every column zero mod p, and
        # times K so for every modulus; scaled to coprime integers each is
        # the plain series, and still gives the P3 operator mod p at the
        # first try
        used = moduli_used(monkeypatch)
        c = p3_series().coefficients
        for a in (PRIME, K):
            used.clear()
            s = PowerSeries([v * a for v in c])
            assert find_picard_fuchs(s) == p3_operator()
            assert used == {1: [31], 2: [31]}

    def test_failed_lift_falls_through(self, monkeypatch):
        # [DERIVED] the period of 2^15 f_3 is that of f_3 at 2^15 t, with
        # operator D^2 - 27 2^45 t^3 (D+1)(D+2); the mod-p vector at (2, 3),
        # scaled to 1 at its last entry -a, a = 27 2^45 (about 2^50), has
        # the entry -1/a.  The reconstruction bound isqrt(p/2) of 2^e - 1 is
        # just under 2^15, 2^30, 2^44 and 2^53 for the first four exponents
        # 31, 61, 89 and 107, so the first three lifts fail and order 2 is
        # run again until the fourth decides it; order 1 has full rank mod
        # the first
        lifts = []

        def lift(vec, c, h, d, p):
            lifts.append((p.bit_length(), _lift(vec, c, h, d, p)))
            return lifts[-1][1]

        monkeypatch.setattr(period, "_lift", lift)
        used = moduli_used(monkeypatch)
        f = build_fP(get("3")) * LaurentPoly({(0, 0): 2 ** 15})
        a = 27 * 2 ** 45
        assert isqrt(MODULI[2] // 2) < a <= isqrt(MODULI[3] // 2)
        L = DiffOperator([
            UniPoly([0, 0, 0, -2 * a]),
            UniPoly([0, 0, 0, -3 * a]),
            UniPoly([1, 0, 0, -a]),
        ])
        assert find_picard_fuchs(period_coefficients(f, 40)) == L
        tried = list(_MERSENNE_EXPONENTS[:4])
        assert [(e, q is None) for e, q in lifts] == [
            (e, e != tried[-1]) for e in tried]
        assert used == {1: tried[:1], 2: tried}

    def test_unlucky_prime_falls_through(self, monkeypatch):
        # [DERIVED] sum p^m t^m, p = 2^31 - 1, has the operator
        # (1 - p t) D - p t.  Mod p its column D s is zero, so the shape
        # (1, 0) has a kernel mod p and none over Q: the lift fails, and mod
        # 2^61 - 1 that shape has full rank and stays skipped.  The vector at
        # (1, 1), scaled to 1 at its last entry -p, has the entry -1/p, past
        # the bound of just under 2^30 of 2^61 - 1 and within that of
        # 2^89 - 1, just under 2^44, which decides it
        used = moduli_used(monkeypatch)
        s = PowerSeries([PRIME ** m for m in range(24)])
        L = find_picard_fuchs(s)
        assert L == DiffOperator([UniPoly([0, -PRIME]),
                                  UniPoly([1, -PRIME])])
        assert isqrt(MODULI[1] // 2) < PRIME <= isqrt(MODULI[2] // 2)
        assert used == {1: list(_MERSENNE_EXPONENTS[:3])}
        assert kernel_at(s, 1, 0, MODULI[1]) == []

    def test_undecided_after_last_modulus(self, monkeypatch):
        # [DERIVED] with 2^31 - 1 the only modulus, the shape of
        # test_failed_lift_falls_through is left undecided, and the error
        # names it
        monkeypatch.setattr(period, "_MERSENNE_EXPONENTS", (31,))
        f = build_fP(get("3")) * LaurentPoly({(0, 0): 2 ** 15})
        with pytest.raises(ValueError,
                           match="operator undecided at order 2, degree 3"):
            find_picard_fuchs(period_coefficients(f, 40))

    @pytest.mark.parametrize("c, sizes", [
        ([0] * 41, {h: [h + 1] for h in range(1, 5)}),
        ([1] * 33 + [2] * 8, {h: [0, h] for h in range(1, 5)}),
        ([2 ** m for m in range(33)] + [5] * 8,
         {h: [0, h] for h in range(1, 5)}),
    ])
    def test_order_decided_at_its_first_kernel(self, monkeypatch, c, sizes):
        # [DERIVED] _kernels keeps its vectors, oldest first, and the fit
        # tests only the first, so an order's first kernel decides it, and
        # no elimination runs past it.  The zero series has every column of
        # degree 0 in the kernel, led by p_0 = 1 alone, an order drop.  The
        # other two have their first kernel at degree 1, led by
        # (1 - t) D - t and (1 - 2t) D - 2t, which miss the guard at order 1
        # and drop the order above it
        yields = {}

        def kernels(fit, h, p):
            for kernel in _kernels(fit, h, p):
                yields.setdefault(h, []).append(len(kernel))
                yield kernel

        monkeypatch.setattr(period, "_kernels", kernels)
        with pytest.raises(ValueError,
                           match=r"^no operator found \(raise bounds\)$"):
            find_picard_fuchs(PowerSeries(c))
        assert yields == sizes

    def test_moduli_are_mersenne_primes(self):
        # [TRIVIAL] one list of moduli serves the fit and the modular gcd.
        # The fold of _kernels needs p = 2^e - 1, and the screen, the lift
        # and the gcd's images need p prime: Lucas-Lehmer for every
        # exponent.  They grow, so each retry has a larger reconstruction
        # bound, and the first, 2^31 - 1, is the word-size one
        assert period._MERSENNE_EXPONENTS is _MERSENNE_EXPONENTS
        assert list(_MERSENNE_EXPONENTS) == sorted(set(_MERSENNE_EXPONENTS))
        assert MODULI[0] == PRIME == (1 << 31) - 1
        assert all(lucas_lehmer(e) for e in _MERSENNE_EXPONENTS)

    def test_modes_agree_at_accepted_shapes(self, catalog):
        # [DERIVED] the mod-p elimination and the reference elimination over
        # Q pivot on the same columns of the 16 series: at each accepted
        # shape the kernel over Q has one vector, and scaled to 1 at the
        # dependent column its image mod p is the mod-p kernel vector
        for name in NAMES:
            s = period_coefficients(build_fP(catalog[name]), 40)
            L = find_picard_fuchs(s)
            h, d = L.order, max(p.degree for p in L.polys)
            (vec_p,) = kernel_at(s, h, d)
            rows = _fit_matrix(s.coefficients, h, d, 8)
            ref, dim = _kernel(rows, (h + 1) * (d + 1))
            assert dim == 1, name
            # the reference orders its columns (k, j) by k first
            vec = [ref[k * (d + 1) + j]
                   for j in range(d + 1) for k in range(h + 1)]
            n = len(vec_p) - 1
            assert vec_p[n] == 1 and not any(vec[n + 1:]), name
            assert [image_mod(x / vec[n], PRIME) for x in vec[: n + 1]] == (
                vec_p), name

    def test_lift_rejects_wrong_vector(self):
        # [DERIVED] a mod-p vector that is not the image of a kernel vector
        # over Q fails the exact check on the fit rows
        s = p3_series()
        (vec,) = kernel_at(s, 2, 3)
        fit = s.coefficients[:FIT_ROWS]
        assert _lift(vec, fit, 2, 3, PRIME) is not None
        wrong = [(x + 1) % PRIME for x in vec]
        assert _lift(wrong, fit, 2, 3, PRIME) is None

    def test_reconstruction(self):
        # [TRIVIAL] n/e is recovered from n * e^-1 mod p while |n| and e
        # are at most B = sqrt(p/2); past the bound any answer still
        # satisfies the congruence and the bound, and the exact check decides
        for p in (MODULI[0], MODULI[1], MODULI[-1]):
            B = isqrt(p // 2)
            for n, e in ((0, 1), (-7, 9), (3278, 1), (B, 1), (-1, B)):
                x = n * pow(e, -1, p) % p
                assert period._reconstruct(x, p) == (n, e)
            x = (B + 1) * pow(B + 2, -1, p) % p
            q = period._reconstruct(x, p)
            assert q is None or (
                q != (B + 1, B + 2)
                and abs(q[0]) <= B and 0 < q[1] <= B
                and (q[0] - x * q[1]) % p == 0
            )


def up_to(kernels, d):
    """The kernel lists an elimination yields for the degrees 0..d."""
    return list(islice(kernels, d + 1))


# The moduli the packed elimination is checked at against the list oracle.
CHECKED_MODULI = [MODULI[0], MODULI[1], (1 << 127) - 1, (1 << 521) - 1]


@st.composite
def _residues(draw, p):
    """Integers whose residues mod p include 0, 1 and p - 1 often, so
    columns and combinations cancel and slots reach their largest
    values."""
    return draw(st.one_of(
        st.sampled_from([0, 1, p - 1, -1, p, 2 * p - 1]),
        st.integers(0, p - 1),
        st.integers(-(1 << 80), 1 << 80),
    ))


class TestPackedElimination:
    def test_matches_list_oracle_on_catalog(self, catalog):
        # [DERIVED] the packed elimination mod p yields the kernel lists of
        # the list elimination at every degree 0..12 of orders 1..4: mod
        # 2^31 - 1 on the 16 series, and mod the larger checked moduli, of
        # up to 521 bits, on three of them
        for name in NAMES:
            s = period_coefficients(build_fP(catalog[name]), 40)
            c = s.coefficients[:FIT_ROWS]
            moduli = CHECKED_MODULI if name in ("3", "5a", "9") else [PRIME]
            for p in moduli:
                for h in range(1, 5):
                    assert up_to(_kernels(c, h, p), 12) == up_to(
                        kernels_mod_p(c, h, p), 12), (name, p, h)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(CHECKED_MODULI), st.integers(1, 4), st.data())
    def test_matches_list_oracle_on_random_series(self, p, h, data):
        # [DERIVED] on integer series of fit length, raw or reduced, the
        # packed and the list elimination agree up to degree 8
        c = data.draw(st.lists(_residues(p), min_size=FIT_ROWS,
                               max_size=FIT_ROWS))
        assert up_to(_kernels(c, h, p), 8) == up_to(kernels_mod_p(c, h, p), 8)

    def test_every_entry_p_minus_1(self):
        # [DERIVED] a series with every entry p - 1 at order 4 up to degree
        # 12: 65 columns over 33 rows, so combinations longer than a column
        # and many kernel vectors
        for p in CHECKED_MODULI:
            c = [p - 1] * FIT_ROWS
            kernels = up_to(_kernels(c, 4, p), 12)
            assert kernels == up_to(kernels_mod_p(c, 4, p), 12), p
            assert len(kernels[-1][-1]) == 65
            assert len(kernels[-1]) > 65 - FIT_ROWS

    def test_order_one_operator_found_mod_p(self, monkeypatch):
        # [DERIVED] sum C(2m, m) t^m = (1 - 4t)^(-1/2) has the order-1
        # operator (1 - 4t) D - 2t, accepted from the kernel mod 2^31 - 1
        # alone
        used = moduli_used(monkeypatch)
        s = PowerSeries([comb(2 * m, m) for m in range(41)])
        assert str(find_picard_fuchs(s)) == "(-2*t) + (-4*t + 1)*D"
        assert used == {1: [31]}


SHEARS = [
    ((1, 2), (0, 1)),
    ((1, -2), (0, 1)),
    ((1, 0), (2, 1)),
    ((1, 0), (-2, 1)),
    ((5, 2), (2, 1)),
]


class TestCoordinateInvariance:
    def test_period_and_operator_under_shears(self, catalog):
        # [DERIVED] CT(f^m) is unchanged by a unimodular change of exponents,
        # hence so are the period and its operator; the sheared supports have
        # wide, asymmetric exponent ranges
        for name in NAMES:
            f = build_fP(catalog[name])
            s = period_coefficients(f, 40)
            L = find_picard_fuchs(s)
            for A in SHEARS:
                g = f.transform(A)
                t = period_coefficients(g, 40)
                assert t == s, (name, A)
                assert find_picard_fuchs(t) == L, (name, A)


class TestApplyOperator:
    def test_d_on_geometric(self):
        # [TRIVIAL] D sum t^m = sum m t^m
        D = DiffOperator([UniPoly([0]), UniPoly([1])])
        out = apply_operator(D, PowerSeries([1] * 6))
        assert out.coefficients == [0, 1, 2, 3, 4, 5]

    def test_integer_p3_operator_annihilates(self):
        # [DERIVED] the integer operator kills the 40-term period
        out = apply_operator(p3_operator(), p3_series())
        assert all(c == 0 for c in out.coefficients)

    def test_image_types(self):
        # [TRIVIAL] the image of an integer series is stored as ints; D on
        # the series of 1/(1 - t/2) gives m/2^m, a Fraction from m = 1 on
        def image(L, s):
            ps = [p.coeffs for p in L.polys]
            return PowerSeries([period._image_coefficient(ps, s.coefficients, m)
                                for m in range(len(s))])

        out = image(p3_operator(), p3_series())
        assert {type(c) for c in out.coefficients} == {int}
        D = DiffOperator([UniPoly([0]), UniPoly([1])])
        out = image(D, PowerSeries([Fraction(1, 2 ** m) for m in range(6)]))
        assert out.coefficients == [Fraction(m, 2 ** m) for m in range(6)]
        assert exact_types(out.coefficients)
        assert type(out[4]) is Fraction and type(out[0]) is int

    def test_integral_image_summed_in_ints(self):
        # [TRIVIAL] an integer operator on an integer series: the exact
        # check of the fit sums in ints, with no Fraction on the way
        ps = [p.coeffs for p in p3_operator().polys]
        c = p3_series().coefficients
        for m in range(len(c)):
            assert type(period._image_coefficient(ps, c, m)) is int


class TestNormalization:
    def test_primitive_integer(self):
        # [TRIVIAL] content is cleared, lowest nonzero lead coefficient > 0
        L = DiffOperator([
            UniPoly([0, Fraction(2, 3)]), UniPoly([Fraction(-4, 3)])
        ]).normalized()
        assert L == DiffOperator([UniPoly([0, -1]), UniPoly([2])])

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            DiffOperator([UniPoly([])])

    def test_text_form(self):
        # [TRIVIAL] str is the t-form, zero p_k skipped; repr wraps it
        L = DiffOperator([UniPoly([0, -1]), UniPoly([2]), UniPoly([0]),
                          UniPoly([1, 0, 3])])
        assert str(L) == "(-t) + (2)*D + (3*t^2 + 1)*D^3"
        assert repr(L) == f"DiffOperator({L})"


class TestSingularLocus:
    def test_p3(self):
        # [PAPER] singular at t = 1/3 and the two conjugates (27 t^3 = 1);
        # t = 0 is not a root of the leading coefficient, infinity reported
        loc = operator_singular_locus(p3_operator())
        assert loc["roots"] == [(Fraction(1, 3), 1)]
        assert loc["residual"] == [
            (UniPoly([Fraction(1, 9), Fraction(1, 3), 1]), 1)
        ]
        assert loc["zero"] is False
        assert loc["infinity"] is True

    def test_constant_leading_coefficient(self):
        # [TRIVIAL]
        loc = operator_singular_locus(DiffOperator([UniPoly([0]), UniPoly([1])]))
        assert loc["roots"] == [] and loc["residual"] == []

    def test_p4a_cross_check(self):
        # [DERIVED] leading coefficient roots at t = -1/lambda for the
        # singular lambda in {4, -4} of the P4a pencil
        s = period_coefficients(build_fP(get("4a")), 40)
        loc = operator_singular_locus(find_picard_fuchs(s))
        roots = {r for r, _ in loc["roots"]}
        assert {Fraction(-1, 4), Fraction(1, 4)} <= roots


# primes fixed in advance for the congruence with the point counts
COUNT_PRIMES = (31, 53)


def congruence_misses(P, c: list[int], p: int) -> list[int]:
    """The l in F_p^* where 1 - n(P) - N_p(-l) and sum_{k<p} c_k t^k,
    t = -1/l, differ mod p (see `torus_counts`)."""
    counts = torus_counts(build_fP(P), p)
    n = len(P.vertices)
    misses = []
    for lam in range(1, p):
        t = -pow(lam, -1, p)
        series = sum(ck * pow(t, k, p) for k, ck in enumerate(c))
        if (1 - n - counts[-lam % p] - series) % p:
            misses.append(lam)
    return misses


class TestPointCountCongruence:
    @pytest.mark.parametrize("p", COUNT_PRIMES)
    def test_series_meets_the_counts(self, catalog, p):
        # [DERIVED] the period series up to t^(p-1) and the torus counts of
        # the members agree mod p at every l in F_p^*, good and bad: two
        # paths that share no code
        for name in NAMES:
            c = period_coefficients(build_fP(catalog[name]), p - 1).coefficients
            assert all(isinstance(ck, int) for ck in c)
            assert congruence_misses(catalog[name], c, p) == [], name

    def test_changed_coefficient_fails(self, catalog):
        # [DERIVED] a series with one c_k changed by 1 fails at every l,
        # since t^k is a unit; k = p - 1 is where the boundary term n(P)
        # enters
        p = COUNT_PRIMES[0]
        for name in NAMES:
            c = period_coefficients(build_fP(catalog[name]), p - 1).coefficients
            for k in (0, 1, p // 2, p - 1):
                mutant = c[:k] + [c[k] + 1] + c[k + 1:]
                assert congruence_misses(catalog[name], mutant, p) == \
                    list(range(1, p)), (name, k)
