"""Classical periods and Picard-Fuchs operator fitting."""

from fractions import Fraction
from math import comb, factorial

import pytest

from reflexo import period
from reflexo.algebra import UniPoly
from reflexo.catalog import NAMES, get
from reflexo.laurent import LaurentPoly, build_fP
from reflexo.period import (
    _PRIME,
    DiffOperator,
    PowerSeries,
    _fit_matrix,
    _kernel,
    _screen_skips,
    apply_operator,
    find_picard_fuchs,
    operator_singular_locus,
    period_coefficients,
)


def p3_series(M=40):
    return period_coefficients(build_fP(get("3")), M)


def naive_period(f, M):
    """Constant terms of f^0..f^M by plain repeated multiplication."""
    g = LaurentPoly({(0, 0): 1})
    out = [Fraction(1)]
    for _ in range(M):
        g = g * f
        out.append(g.constant_term())
    return out


def p3_operator():
    # integer form of (1/27) D^2 - t^3 (D+2)(D+1):
    # (1 - 27 t^3) D^2 - 81 t^3 D - 54 t^3
    return DiffOperator([
        UniPoly([0, 0, 0, -54]),
        UniPoly([0, 0, 0, -81]),
        UniPoly([1, 0, 0, -27]),
    ])


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

    def test_clipping_matches_plain_expansion(self, catalog):
        # [DERIVED] c_m = CT(f^ceil(m/2) f^floor(m/2)) is loss-free: compare
        # against a naive power computation for every f_P, with M zero, one,
        # odd and even
        for name in NAMES:
            f = build_fP(catalog[name])
            for M in (0, 1, 7, 8):
                assert period_coefficients(f, M).coefficients == (
                    naive_period(f, M)
                ), (name, M)

    def test_fraction_coefficients(self):
        # [DERIVED] a non-integral f runs the same loop on Fraction values
        f = LaurentPoly({
            (1, 0): Fraction(1, 2), (-1, 0): Fraction(2, 3),
            (0, 1): Fraction(-3, 4), (0, -1): 1, (1, 1): Fraction(1, 5),
            (0, 0): Fraction(-1, 7),
        })
        got = period_coefficients(f, 7).coefficients
        assert got == naive_period(f, 7)
        assert any(c.denominator > 1 for c in got)

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
        L = find_picard_fuchs(PowerSeries([1] * 20), guard=4)
        assert L == DiffOperator([UniPoly([0, -1]), UniPoly([1, -1])])

    def test_annihilates_guard(self):
        # [TRIVIAL] defining property, including the guarded tail
        s = p3_series()
        assert apply_operator(find_picard_fuchs(s), s).coefficients[3:] == [
            Fraction(0)
        ] * (s.order - 2)

    def test_minimality(self):
        # [DERIVED] no order-1 annihilator of the P3 period exists within
        # the degree bound (the fit at h = 1 must fail)
        with pytest.raises(ValueError):
            find_picard_fuchs(p3_series(), max_order=1)

    def test_no_operator_within_bounds(self):
        # [DERIVED] a lacunary non-holonomic-looking prefix: 2^(m^2) grows
        # too fast for any small operator to annihilate
        s = PowerSeries([Fraction(2) ** (m * m) for m in range(30)])
        with pytest.raises(ValueError):
            find_picard_fuchs(s, max_order=2, max_degree=3)

    def test_nonunique_kernel_rejected(self):
        # [DERIVED] a short series whose accepted shape (order 2, degree 3)
        # has a two-dimensional kernel: the operator is not determined
        s = PowerSeries([1, 0, 0, 1, 0, 0, 1] + [0] * 10)
        with pytest.raises(ValueError, match="not unique"):
            find_picard_fuchs(s, guard=4)


class TestModularScreen:
    def test_accepted_shape_not_skipped(self, catalog):
        # [DERIVED] rank_p <= rank_Q: where the exact kernel is nonempty the
        # screen must not skip; at every accepted shape of the 16 series the
        # kernel has dimension exactly 1
        for name in NAMES:
            s = period_coefficients(build_fP(catalog[name]), 40)
            L = find_picard_fuchs(s)
            h, d = L.order, max(p.degree for p in L.polys)
            rows = _fit_matrix(s.coefficients, h, d, 8)
            ncols = (h + 1) * (d + 1)
            assert not _screen_skips(rows, ncols), name
            assert _kernel(rows, ncols)[1] == 1, name

    def test_skips_full_rank_shape(self):
        # [DERIVED] P3 has no order-1 relation of degree 0: the screen
        # decides this without an exact solve
        rows = _fit_matrix(p3_series().coefficients, 1, 0, 8)
        assert _kernel(rows, 2)[0] is None
        assert _screen_skips(rows, 2)

    def test_denominator_divisible_by_p_undecided(self):
        # [TRIVIAL] full rank over Q, but an entry has no image mod p
        rows = [[Fraction(1, _PRIME), 0], [0, 1], [1, 1]]
        assert _kernel(rows, 2)[0] is None
        assert not _screen_skips(rows, 2)

    def test_denominator_divisible_by_p_falls_through(self, monkeypatch):
        # [DERIVED] the P3 series divided by p is annihilated by the same
        # operator; every shape then goes to the exact solve
        counts = {"screen": 0, "exact": 0}

        def screen(rows, ncols):
            counts["screen"] += 1
            return _screen_skips(rows, ncols)

        def exact(rows, ncols):
            counts["exact"] += 1
            return _kernel(rows, ncols)

        monkeypatch.setattr(period, "_screen_skips", screen)
        monkeypatch.setattr(period, "_kernel", exact)
        s = PowerSeries([c / _PRIME for c in p3_series().coefficients])
        assert find_picard_fuchs(s) == p3_operator()
        assert counts["exact"] == counts["screen"] > 1


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
