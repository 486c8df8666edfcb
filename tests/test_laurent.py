"""Laurent polynomials: f_P construction, Newton polygons, chart equations,
algebraic mutation."""

import random
from fractions import Fraction

import pytest
from oracles import GL2Z_GENS, random_unimodular

from reflexo.catalog import NAMES, get
from reflexo.laurent import (
    LaurentPoly,
    algebraic_mutation,
    build_fP,
    cleared_member,
    format_laurent,
    newton_polygon,
)
from reflexo.algebra import MPoly
from reflexo.mutation import all_mutations
from reflexo.period import period_coefficients
from reflexo.polygon import Polygon, apply_unimodular, canonical_form


class TestBuildFP:
    def test_p4a(self):
        # [PAPER] f = x + y + 1/x + 1/y (all edges length 1)
        f = build_fP(get("4a"))
        assert f.terms == {
            (1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1
        }

    def test_p3(self):
        # [DERIVED] catalog triangle: x + y + 1/(xy)
        f = build_fP(get("3"))
        assert f.terms == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}

    def test_p4c_midpoint_coefficient(self):
        # [PAPER] the length-2 edge of P4c carries a middle coefficient 2
        f = build_fP(get("4c"))
        assert sorted(f.terms.values()) == [1, 1, 1, 2]

    def test_non_reflexive_errors(self):
        # [TRIVIAL] f_P is defined for reflexive polygons only
        with pytest.raises(ValueError, match="reflexive"):
            build_fP(Polygon([(0, 0), (2, 0), (0, 2)]))

    def test_zero_constant_term(self, catalog):
        # [TRIVIAL] Construction: no constant monomial
        for P in catalog.values():
            assert build_fP(P).terms.get((0, 0), 0) == 0

    def test_edge_binomial_sums(self, catalog):
        # [DERIVED] the edge restriction is (x0 + x1)^l(e): its coefficients
        # sum to 2^l(e) at the all-ones evaluation
        from math import comb

        for P in catalog.values():
            f = build_fP(P)
            for e in P.edges():
                pts = e.lattice_points()
                n = e.lattice_length
                assert [f.terms[p] for p in pts[1:-1]] == [
                    comb(n, i) for i in range(1, n)
                ]


class TestNewtonPolygon:
    def test_round_trip(self, catalog):
        # [TRIVIAL] Newt(f_P) = P
        for P in catalog.values():
            assert newton_polygon(build_fP(P)) == P

    def test_segment(self):
        # [PAPER] Newt(1 + x) = conv{(0,0),(1,0)}
        assert newton_polygon(LaurentPoly({(0, 0): 1, (1, 0): 1})) == [
            (0, 0), (1, 0)
        ]

    def test_symmetric_segment(self):
        # [TRIVIAL]
        assert newton_polygon(LaurentPoly({(-1, 0): 1, (1, 0): 1})) == [
            (-1, 0), (1, 0)
        ]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            newton_polygon(LaurentPoly({}))


class TestChartPolynomial:
    # the member in the chart u -> A u is cleared_member(f.transform(A))

    def test_p4a_chart(self):
        # [PAPER] x^2 + y (l x + x^2 + y + 1)
        p = cleared_member(build_fP(get("4a")).transform(((-1, 1), (1, 0))))
        assert p == MPoly({
            (2, 0, 0): 1, (1, 1, 1): 1, (2, 1, 0): 1,
            (0, 2, 0): 1, (0, 1, 0): 1,
        })

    def test_p5a_chart(self):
        # [PAPER] l xy + x^2 y + x + 1 + y + y^2 x
        p = cleared_member(build_fP(get("5a")).transform(((1, 0), (0, -1))))
        assert p == MPoly({
            (1, 1, 1): 1, (2, 1, 0): 1, (1, 0, 0): 1,
            (0, 0, 0): 1, (0, 1, 0): 1, (1, 2, 0): 1,
        })

    def test_p6b_chart(self):
        # [PAPER] l xy + 2y + 1 + 2x + x^2 + y^2 + y^2 x
        p = cleared_member(build_fP(get("6b")).transform(((1, 0), (0, -1))))
        assert p == MPoly({
            (1, 1, 1): 1, (0, 1, 0): 2, (0, 0, 0): 1, (1, 0, 0): 2,
            (2, 0, 0): 1, (0, 2, 0): 1, (1, 2, 0): 1,
        })

    def test_no_monomial_factor(self, catalog):
        # [TRIVIAL] result is not divisible by x or y
        for P in catalog.values():
            p = cleared_member(build_fP(P))
            assert min(k[0] for k in p.terms) == 0
            assert min(k[1] for k in p.terms) == 0

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            build_fP(get("4a")).transform(((1, 0), (2, 0)))


class TestAlgebraicMutation:
    def test_p4c_to_p4a(self):
        # [PAPER] the mutation of f_{P4c} has Newton polygon of class P4a
        g = algebraic_mutation(build_fP(get("4c")), (0, -1), (1, 0))
        assert canonical_form(newton_polygon(g)) == canonical_form(get("4a"))

    def test_orthogonal_support_fixed(self):
        # [TRIVIAL] exponent of h is <u, v> = 0 on all of the support
        f = LaurentPoly({(1, 0): 2, (-1, 0): 3})
        assert algebraic_mutation(f, (0, 1), (1, 0)) == f

    def test_round_trip_exact(self):
        # [DERIVED] mutation followed by its inverse returns f exactly
        f = build_fP(get("4c"))
        g = algebraic_mutation(f, (0, -1), (1, 0))
        assert algebraic_mutation(g, (0, 1), (1, 0)) == f

    def test_period_invariance(self):
        # [PAPER] mutation-equivalent Laurent polynomials share the period
        f = build_fP(get("4c"))
        g = algebraic_mutation(f, (0, -1), (1, 0))
        assert period_coefficients(f, 12) == period_coefficients(g, 12)

    def test_non_admissible_errors(self):
        # [DERIVED] pushing P4a across an edge with an indivisible slice
        with pytest.raises(ValueError):
            algebraic_mutation(build_fP(get("4a")), (0, -1), (1, 0))

    def test_remainder_errors(self):
        # [DERIVED] the height -1 line 1/y (1 + 2x) is not divisible by 1 + x
        f = LaurentPoly({(0, -1): 1, (1, -1): 2, (0, 1): 1})
        with pytest.raises(ValueError):
            algebraic_mutation(f, (0, 1), (1, 0))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            algebraic_mutation(build_fP(get("4a")), (0, 1), (0, 1))

    @pytest.mark.parametrize("v, w", [((0, 1), (2, 0)), ((0, -1), (2, 0)),
                                      ((0, 1), (0, 0))])
    def test_non_primitive_w_rejected(self, v, w):
        # [TRIVIAL] w must be primitive, as for MutationData, also where no
        # line needs a division: x + y has heights 0 and 1 for v = (0, 1)
        for f in (LaurentPoly({(1, 0): 1, (0, 1): 1}), build_fP(get("4c"))):
            with pytest.raises(ValueError):
                algebraic_mutation(f, v, w)

    def test_all_catalog_mutation_data(self, catalog):
        # [PAPER] for every mutation datum of every catalog polygon, f_P
        # mutates to a Laurent polynomial of the mutant with the same period
        count = 0
        for P in catalog.values():
            f = build_fP(P)
            series = period_coefficients(f, 12)
            for data, Q in all_mutations(P):
                g = algebraic_mutation(f, data.v, data.w)
                assert canonical_form(newton_polygon(g)) == canonical_form(Q)
                assert period_coefficients(g, 12) == series
                count += 1
        assert count == 76

    def test_slice_rule_matches_algebraic_mutation_off_catalog(self, catalog):
        # [DERIVED] in seeded GL2(Z) images A P the slice rule still agrees
        # with the Newton polygon of the mutated f_{A P}, and all_mutations
        # lists each datum (v, w) once
        rng = random.Random(6)
        for name, P in catalog.items():
            for _ in range(3):
                AP = apply_unimodular(random_unimodular(rng, GL2Z_GENS), P)
                f = build_fP(AP)
                mutations = all_mutations(AP)
                data = [(d.v, d.w) for d, _ in mutations]
                assert len(set(data)) == len(data), name
                for d, Q in mutations:
                    g = algebraic_mutation(f, d.v, d.w)
                    assert canonical_form(newton_polygon(g)) \
                        == canonical_form(Q), (name, d)

    @pytest.mark.parametrize("A", [((1, 0), (1, 1)), ((2, 1), (1, 1))])
    def test_gl2_equivariance(self, A):
        # [DERIVED] mutating in the chart u -> A u with data (A^-T v, A w)
        # is the chart of the mutation with data (v, w)
        (a, b), (c, d) = A
        det = a * d - b * c
        v, w = (0, -1), (1, 0)
        v_A = (det * (d * v[0] - c * v[1]), det * (-b * v[0] + a * v[1]))
        w_A = (a * w[0] + b * w[1], c * w[0] + d * w[1])
        f = build_fP(get("4c"))
        assert (algebraic_mutation(f.transform(A), v_A, w_A)
                == algebraic_mutation(f, v, w).transform(A))


class TestFormat:
    def test_text_form(self):
        # [TRIVIAL] "c*x^a*y^b" joined by " + ", signed exponents
        f = LaurentPoly({(-1, 0): 1, (2, -3): 5})
        assert format_laurent(f) == "1*x^-1*y^0 + 5*x^2*y^-3"

    def test_zero(self):
        assert format_laurent(LaurentPoly({})) == "0"


def value_types(f):
    return {type(v) for v in f.terms.values()}


class TestExactValues:
    def test_fP_values_are_ints(self, catalog):
        # [TRIVIAL] binomial coefficients are stored as ints, in every chart
        A = ((2, 1), (1, 1))
        for name in NAMES:
            f = build_fP(catalog[name])
            assert value_types(f) == {int}, name
            assert value_types(f.transform(A)) == {int}, name

    def test_transform_keeps_fractions(self):
        f = LaurentPoly({(1, 0): Fraction(1, 2), (0, 1): 3})
        g = f.transform(((1, 1), (0, 1)))
        assert g.terms == {(1, 0): Fraction(1, 2), (1, 1): 3}
        assert type(g.terms[(1, 0)]) is Fraction
        assert type(g.terms[(1, 1)]) is int

    def test_sums_and_products(self):
        # [TRIVIAL] f_3 + f_3 and f_3^2 are integral; (x/2 + 1)^2 is
        # x^2/4 + x + 1
        f = build_fP(get("3"))
        assert value_types(f * f) == {int}
        assert value_types(f + f) == {int}
        half = LaurentPoly({(1, 0): Fraction(1, 2), (0, 0): 1})
        square = half * half
        assert square.terms == {(2, 0): Fraction(1, 4), (1, 0): 1, (0, 0): 1}
        assert type(square.terms[(2, 0)]) is Fraction
        assert type(square.terms[(1, 0)]) is int

    def test_halves_sum_to_int(self):
        # [TRIVIAL] Fraction(1, 2) + Fraction(1, 2) is stored as the int 1
        f = LaurentPoly({(0, 0): Fraction(1, 2)})
        assert type((f + f).terms[(0, 0)]) is int
        assert type(LaurentPoly({(0, 0): Fraction(2, 2)}).terms[(0, 0)]) \
            is int

    def test_exponents_are_lattice_points(self):
        # [TRIVIAL] an exponent is refused, not truncated: TypeError on a
        # float, ValueError on a non-integral rational, in the constructor
        # and in a transform whose matrix has determinant 1.0
        with pytest.raises(TypeError):
            LaurentPoly({(1.5, 0): 1})
        with pytest.raises(ValueError, match="non-integral"):
            LaurentPoly({(Fraction(1, 2), -0.9): 2})
        with pytest.raises(TypeError):
            LaurentPoly({(1, 0): 1}).transform(((1.5, 0.5), (1, 1)))
        f = LaurentPoly({(Fraction(4, 2), -1): 3})
        assert f.terms == {(2, -1): 3}
        assert all(type(a) is int for k in f.terms for a in k)

    def test_transform_refuses_non_integral_matrix(self):
        # [DERIVED] ((2, 0), (0, 1/2)) has determinant 1 but would send
        # x + y^2 to x^2 + y; Fraction entries equal to ints are accepted
        # (a float entry: test_exponents_are_lattice_points)
        f = LaurentPoly({(1, 0): 1, (0, 2): 1})
        with pytest.raises(ValueError, match="non-integral"):
            f.transform(((2, 0), (0, Fraction(1, 2))))
        one = Fraction(1, 1)
        g = f.transform(((0, one), (one, 0)))
        assert g == LaurentPoly({(0, 1): 1, (2, 0): 1})
        assert all(type(a) is int for k in g.terms for a in k)

    def test_cancelled_terms_dropped(self):
        f = LaurentPoly({(1, 0): Fraction(1, 2), (0, 1): 1})
        g = LaurentPoly({(1, 0): Fraction(-1, 2)})
        assert (f + g).terms == {(0, 1): 1}
