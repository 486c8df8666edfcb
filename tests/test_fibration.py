"""Singular-fibre analysis: Kodaira types, elimination, node counting,
nonreduced members, base-point towers, and assembly."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflexo import fibration
from reflexo.algebra import (
    MPoly,
    UniPoly,
    _content,
    gcd_bivariate,
    squarefree_rational_roots,
)
from reflexo.catalog import NAMES, get
from reflexo.cli import EXPECTED_TABLE2
from reflexo.fibration import (
    BasePointTower,
    KodairaType,
    Pencil,
    base_point_towers,
    classify_fibres,
    elimination_polynomial,
    fibre_at_infinity,
    member_is_nonreduced,
    singular_lambda_values,
)
from reflexo.laurent import LaurentPoly, cleared_member
from reflexo.mordell_weil import mw_group
from reflexo.polygon import Polygon, apply_unimodular

from oracles import GL2Z_GENS, random_unimodular
from oracles import values_at_y

# the eight single shears with |k| <= 2, v -> U v
SHEARS = {
    "(x+y,y)": ((1, 1), (0, 1)),
    "(x-y,y)": ((1, -1), (0, 1)),
    "(x,x+y)": ((1, 0), (1, 1)),
    "(x,y-x)": ((1, 0), (-1, 1)),
    "(x+2y,y)": ((1, 2), (0, 1)),
    "(x-2y,y)": ((1, -2), (0, 1)),
    "(x,2x+y)": ((1, 0), (2, 1)),
    "(x,y-2x)": ((1, 0), (-2, 1)),
}


def lpoly(*coeffs):
    return UniPoly(list(coeffs), var="l")


class TestKodairaType:
    def test_table1_invariants(self):
        # [PAPER] chi and r from the Kodaira table
        assert (KodairaType("I", 6).chi, KodairaType("I", 6).r) == (6, 5)
        assert (KodairaType("I", 1).chi, KodairaType("I", 1).r) == (1, 0)
        assert (KodairaType("I*", 1).chi, KodairaType("I*", 1).r) == (7, 5)
        assert (KodairaType("IV*").chi, KodairaType("IV*").r) == (8, 6)
        assert (KodairaType("II*").chi, KodairaType("II*").r) == (10, 8)

    def test_labels(self):
        # [TRIVIAL]
        assert KodairaType("I", 9).label() == "I9"
        assert KodairaType("I*", 1).label() == "I1*"
        assert KodairaType("IV*").label() == "IV*"

    def test_invalid(self):
        with pytest.raises(ValueError):
            KodairaType("V")
        with pytest.raises(ValueError):
            KodairaType("IV*", 2)

    def test_i_needs_nonnegative_index(self):
        # [TRIVIAL] I_n and I_n* take an index n >= 0
        for n in (-1, None):
            with pytest.raises(ValueError, match="require n >= 0"):
                KodairaType("I", n)


class TestFibreAtInfinity:
    def test_oracles(self):
        # [PAPER] P3 -> I9, P8a -> I4, all P6x -> I6
        assert fibre_at_infinity(get("3")) == KodairaType("I", 9)
        assert fibre_at_infinity(get("8a")) == KodairaType("I", 4)
        for n in ("6a", "6b", "6c", "6d"):
            assert fibre_at_infinity(get(n)) == KodairaType("I", 6)

    def test_equals_dual_volume(self, catalog):
        # [DERIVED] I_{12 - Vol(P)} = I_{Vol(P polar)}
        from reflexo.polygon import polar_dual

        for P in catalog.values():
            assert fibre_at_infinity(P).n == polar_dual(P).volume()


class TestSingularLambdaValues:
    def test_non_reflexive_errors(self):
        # [TRIVIAL] the pencil of f_P is defined for reflexive P only
        with pytest.raises(ValueError, match="P must be reflexive"):
            singular_lambda_values(Polygon([(0, 0), (2, 0), (0, 2)]))

    def test_p4a(self):
        # [PAPER] locations 0 (2 nodes), 4, -4 (1 node each)
        sv = {
            s.location: s.torus_nodes
            for s in singular_lambda_values(get("4a"))
        }
        assert sv == {Fraction(0): 2, Fraction(4): 1, Fraction(-4): 1}

    def test_p5a(self):
        # [PAPER] lambda = 1 with 2 nodes plus the cubic factor
        sv = singular_lambda_values(get("5a"))
        rational = {s.location: s.torus_nodes for s in sv
                    if isinstance(s.location, Fraction)}
        assert rational == {Fraction(1): 2}
        cubics = [s for s in sv if not isinstance(s.location, Fraction)]
        assert len(cubics) == 1
        assert cubics[0].location.monic() == lpoly(43, -18, -1, 1)
        assert cubics[0].torus_nodes == 1

    def test_p6c(self):
        # [PAPER] roots at lambda = 2, 3 and -6
        locs = {s.location for s in singular_lambda_values(get("6c"))}
        assert locs == {Fraction(2), Fraction(3), Fraction(-6)}

    def test_p3(self):
        # [PAPER] 27 + lambda^3 = 0: lambda = -3 and two conjugates
        sv = singular_lambda_values(get("3"))
        rational = {s.location for s in sv if isinstance(s.location, Fraction)}
        assert rational == {Fraction(-3)}
        (quad,) = [s for s in sv if not isinstance(s.location, Fraction)]
        assert quad.location.monic() == lpoly(9, -3, 1)

    def test_node_count_per_root_of_factor(self):
        # [DERIVED] each root of q = l^2 - 2 is a double critical value
        P = get("3")
        pencil = Pencil(P)
        q = lpoly(-2, 0, 1)
        pencil.critical_values = q * q * lpoly(1, 1)
        rational, s = singular_lambda_values(P, pencil)
        assert (rational.location, rational.torus_nodes) == (Fraction(-1), 1)
        assert s.location.monic() == q and s.torus_nodes == 2

class TestElimination:
    def test_p4a_factor_set(self):
        # [PAPER] squarefree-stripped factor set {l, l-4, l+4}
        roots, residual = squarefree_rational_roots(
            elimination_polynomial(get("4a"))
        )
        assert {r for r, _ in roots} == {0, 4, -4}
        assert residual == []

    def test_p5a_factors(self):
        # [PAPER] (l - 1) and the cubic l^3 - l^2 - 18 l + 43
        roots, residual = squarefree_rational_roots(
            elimination_polynomial(get("5a"))
        )
        assert {r for r, _ in roots} == {1}
        assert [q for q, _ in residual] == [lpoly(43, -18, -1, 1)]

    def test_p7a_factors(self):
        # [PAPER] root 3 plus a quadratic with root sum -5, product -25
        roots, residual = squarefree_rational_roots(
            elimination_polynomial(get("7a"))
        )
        assert {r for r, _ in roots} == {3}
        (q, _), = residual
        assert q.degree == 2 and q.lc() == 1
        assert -q[1] == -5 and q[0] == -25  # sum / product of roots

    def test_p4b_quartic(self):
        # [PAPER] the singular values satisfy l^4 - l^3 - 8 l^2 + 36 l - 11
        roots, residual = squarefree_rational_roots(
            elimination_polynomial(get("4b"))
        )
        assert roots == []
        assert [q for q, _ in residual] == [lpoly(-11, 36, -8, -1, 1)]


    @pytest.mark.parametrize("name, U", [
        pytest.param("7b", ((1, -2), (0, 1)), id="7b-(x-2y,y)"),
        pytest.param("6b", ((1, -4), (0, 1)), id="6b-(x-4y,y)"),
    ])
    def test_sheared_peel_contains_singular_values(self, name, U):
        # [DERIVED] E of these shears has degree 40 and 41 with coefficients
        # of up to 123 bits, and its peel of common (y, l)-factors needs the
        # lambda-over-y gcd; every singular value is still a root of E
        P = apply_unimodular(U, get(name))
        start = time.perf_counter()
        E = elimination_polynomial(P)
        assert time.perf_counter() - start < 30
        for s in singular_lambda_values(P):
            if isinstance(s.location, Fraction):
                assert E(s.location) == 0
            else:
                assert E.divmod(s.location)[1].is_zero()

    def test_sheared_builds_in_int_arithmetic(self):
        # [DERIVED] the subresultant PRS of integral input stays in Z[l], so
        # E of the two shears above builds on int coefficients: both builds
        # together took 2.7 s with Fraction coefficients and about 0.2 s on
        # ints (2-vCPU host, Python 3.11)
        expected = {"7b": (((1, -2), (0, 1)), 40, [(3, 11)]),
                    "6b": (((1, -4), (0, 1)), 41, [(-6, 2), (2, 5), (3, 6)])}
        elapsed = 0.0
        for name, (U, degree, roots) in expected.items():
            P = apply_unimodular(U, get(name))
            start = time.perf_counter()
            E = elimination_polynomial(P)
            elapsed += time.perf_counter() - start
            assert E.degree == degree
            assert squarefree_rational_roots(E)[0] == roots
        assert elapsed < 1.0

    def test_p4a_sheared_keeps_lambda_zero(self):
        # [DERIVED] under (x, x+y) one x-eliminant of 4a is
        # -y^3 l (2 y^2 + y l + 2); l is a coefficient, not a torus
        # coordinate, so l = 0 (the I2 of 4a) stays a root of E
        P = apply_unimodular(SHEARS["(x,x+y)"], get("4a"))
        roots, _ = squarefree_rational_roots(elimination_polynomial(P))
        assert Fraction(0) in {r for r, _ in roots}

    def test_peels_have_no_pure_lambda_content(self, monkeypatch):
        # [DERIVED] the argument of the elimination_polynomial docstring: no
        # factor peeled from r1 has a pure-lambda content, and for reflexive
        # P both x-eliminants involve y, so neither the content of a peel
        # nor a y-free r1 can change E; checked on the 16 under 20 seeded
        # GL2(Z) matrices with entries in [-2, 2]
        rng = random.Random(3)
        matrices = set()
        while len(matrices) < 20:
            U = random_unimodular(rng, GL2Z_GENS)
            if all(abs(u) <= 2 for row in U for u in row):
                matrices.add(U)
        gcd = fibration.gcd_bivariate
        calls = []

        def recording(p, q, main, coeff):
            g = gcd(p, q, main, coeff)
            if main == "l":
                calls.append((p, q, g))
            return g

        monkeypatch.setattr(fibration, "gcd_bivariate", recording)
        peels = 0
        for U in sorted(matrices):
            for name in NAMES:
                calls.clear()
                elimination_polynomial(apply_unimodular(U, get(name)))
                (r1, r2, _), *_ = calls
                assert r1.degree("y") > 0 and r2.degree("y") > 0
                for _, _, g in calls:
                    if not g.is_const():
                        peels += 1
                        assert _content(g, "y", "l") == lpoly(1)
        assert peels

    @staticmethod
    def _pencil_of(terms: dict) -> Pencil:
        """The pencil of the Laurent polynomial with these terms in place of
        f_P, which elimination_polynomial reads alone when it is given a
        pencil.  Its y-free branches are met by such f, whose Newton
        polygon has the origin off its interior, and by no f_P."""
        pencil = Pencil(get("3"))
        pencil.f = LaurentPoly(terms)
        pencil.C = cleared_member(pencil.f)
        return pencil

    def test_constant_first_eliminant(self):
        # [DERIVED] f = xy + 1/(xy) is t + 1/t in t = xy: both log partials
        # are t - 1/t, so G = t^2 - 1 and A = B = 1 once G is divided out.
        # r1 = Res_x(A, C) is then constant, and E is read off r1 alone.
        # The critical curves t = 1 and t = -1 carry f = 2 and f = -2
        pencil = self._pencil_of({(1, 1): 1, (-1, -1): 1})
        A, B, G = pencil.critical_pair
        assert A.is_const() and B.is_const()
        assert G == MPoly({(2, 2, 0): 1, (0, 0, 0): -1})
        E = elimination_polynomial(pencil.P, pencil)
        assert E.monic() == lpoly(-4, 0, 1)

    def test_y_free_second_eliminant(self):
        # [DERIVED] f = (x - 1) y + x + 2/x, with the origin on an edge of
        # its Newton polygon: y f_y = (x - 1) y, so B = x - 1, the vertical
        # line on which f = 3, and r2 = Res_x(B, C) is free of y while r1
        # is not; E is read off r2.  f_y = 0 and f_x = y + 1 - 2/x^2 = 0
        # meet on the torus only at (1, 1), where f = 3
        pencil = self._pencil_of({(1, 1): 1, (0, 1): -1, (1, 0): 1,
                                  (-1, 0): 2})
        A, B, G = pencil.critical_pair
        assert G.is_const() and A.degree("y") == 1
        assert B == MPoly({(1, 0, 0): 1, (0, 0, 0): -1})
        assert elimination_polynomial(pencil.P, pencil) == lpoly(3, 1)


class TestPencil:
    @pytest.mark.parametrize("name", ["4b", "5a", "8b", "9"])
    def test_classification_leaves_values_unchanged(self, name):
        # [DERIVED] the helpers share the pencil's values and modify none:
        # after a classification they equal those of a fresh pencil
        P = get(name)
        pencil = Pencil(P)
        classify_fibres(P, pencil)
        fresh = Pencil(P)
        assert pencil.f == fresh.f
        assert pencil.C == fresh.C
        assert pencil.critical_pair == fresh.critical_pair
        assert pencil.radical == fresh.radical
        assert pencil.critical_y == fresh.critical_y
        assert pencil.critical_values == fresh.critical_values
        assert pencil.curve_values == fresh.curve_values

    @pytest.mark.parametrize("U, G, values", [
        (((1, 0), (0, 1)), {(1, 0, 0): 1, (0, 0, 0): 1}, lpoly(-4, 1)),
        (((0, 1), (1, 0)), {(0, 1, 0): 1, (0, 0, 0): 1}, lpoly(-4, 1)),
        (((1, 0), (0, 1)), {(0, 1, 0): 1, (0, 0, 0): 1}, lpoly(1)),
    ], ids=["x+1", "swapped-y+1", "y+1"])
    def test_curve_values_of_a_curve_in_one_variable(self, U, G, values):
        # [DERIVED] on 8b, f(-1, y) = -4 and f(x, -1) = -x^2 - x - 4; so with
        # G patched to x + 1, or to y + 1 after swapping x and y, the curve
        # value is l = 4, and with G = y + 1 unswapped there is none
        pencil = Pencil(apply_unimodular(U, get("8b")))
        A, B, _ = pencil.critical_pair
        pencil.critical_pair = (A, B, MPoly(G))
        assert pencil.curve_values == values

    def test_critical_y_refuses_a_curve_of_critical_points(self):
        # [TRIVIAL] with B patched to A, the pair (A, A) has the whole curve
        # A = 0 in common, so Res_x(A, A) vanishes and the critical locus is
        # not finite
        pencil = Pencil(get("3"))
        A, _, G = pencil.critical_pair
        pencil.critical_pair = (A, A, G)
        with pytest.raises(ArithmeticError,
                           match="critical locus of f is not finite"):
            pencil.critical_y

    @pytest.mark.parametrize("name", ["3", "5b", "6a", "6c", "7a", "7b"])
    def test_values_over_splits_at_zero_divisors(self, name, monkeypatch):
        # [DERIVED] handing _values_over the product q of all y-candidate
        # factors gives the same critical values up to a constant: Q[y]/(q)
        # shows a zero divisor wherever two factors meet, and the split
        # halves multiply back to the whole; on 6a, 6c and 7a both halves
        # of the first split carry values
        fresh = Pencil(get(name))
        roots, residual = fresh.critical_y
        q = UniPoly([1], "y")
        for y0, _ in roots:
            q = q * UniPoly([-y0, 1], "y")
        for qy, _ in residual:
            q = q * qy
        expected = fresh.critical_values.monic()

        values_over = fibration._values_over
        depth, halves = [0], []

        def recording(*args):
            depth[0] += 1
            try:
                out = values_over(*args)
            finally:
                depth[0] -= 1
            if depth[0] == 1:
                halves.append(out)
            return out

        monkeypatch.setattr(fibration, "_values_over", recording)
        pencil = Pencil(get(name))
        pencil.critical_y = ([], [(q, 1)])
        assert pencil.critical_values.monic() == expected
        if name in ("6a", "6c", "7a"):
            assert len(halves) == 2
            assert not any(h.is_const() for h in halves)


def _values_or_error(values, *args):
    """The monic critical values values(*args), or the type and message of
    the error it raises."""
    try:
        return values(*args).monic()
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("name", NAMES)
def test_values_at_y_matches_fraction_evaluation_on_the_16(name):
    # [DERIVED] at every rational y-candidate of the pencil, the int-list
    # values equal those evaluated in Fractions, up to a constant
    pencil = Pencil(get(name))
    A, B, _ = pencil.critical_pair
    J = (A.derivative("x") * B.derivative("y")
         - A.derivative("y") * B.derivative("x"))
    for y0, _ in pencil.critical_y[0]:
        args = (A, B, J, pencil.C, y0)
        assert _values_or_error(fibration._values_at_y, *args) == \
            _values_or_error(values_at_y, *args)


def test_values_over_refuses_a_jacobian_that_shares_g():
    # [DERIVED] with J = A in place of the Jacobian, gcd(g, J) = g over
    # Q[y]/(q) for 4b's quartic y-factor q: no critical point is certified
    # an ordinary node, and the error names the stage and the factor
    pencil = Pencil(get("4b"))
    A, B, _ = pencil.critical_pair
    [(q, _)] = pencil.critical_y[1]
    assert _values_or_error(fibration._values_over, A, B, A, pencil.C, q) \
        == (ArithmeticError,
            "critical point is not an ordinary node: stage torus nodes, "
            "y a root of y^4 - y^3 - 2*y^2 + 1")


_small = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


def _xy(l_degree=0, nonzero=False):
    """Polynomials of degree <= 2 in x and y and <= l_degree in l, with int
    and Fraction coefficients; zero among them unless nonzero."""
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2),
                     st.integers(0, l_degree))
    values = _small.filter(bool) if nonzero else _small
    return st.dictionaries(keys, values, min_size=int(nonzero),
                           max_size=6).map(MPoly)


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.integers(1, 5), st.integers(-3, 3), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_values_at_y_matches_fraction_evaluation(y0, a, b, vanish, share,
                                                  data):
    # [DERIVED] on random A = p r, B = q r, with r = (x + a + b y) s: the
    # values, or the error (gcd(0, 0) when r vanishes on y = y0, one draw
    # in five; no node certificate when J shares r, one in five), are
    # those of the Fraction evaluation and the monic gcd
    r = MPoly({(1, 0, 0): 1, (0, 0, 0): a, (0, 1, 0): b})
    r = r * data.draw(_xy(nonzero=True))
    if not vanish:
        r = r * MPoly({(0, 1, 0): y0.denominator, (0, 0, 0): -y0.numerator})
    A, B = (data.draw(_xy(nonzero=True)) * r for _ in range(2))
    J = data.draw(_xy()) * (r if not share else MPoly.const(1))
    C = data.draw(_xy(l_degree=1))
    args = (A, B, J, C, y0)
    assert _values_or_error(fibration._values_at_y, *args) == \
        _values_or_error(values_at_y, *args)


def _gcd3(F):
    g = gcd_bivariate(F, F.derivative("x").strip_monomial(), "x", "y")
    return gcd_bivariate(g, F.derivative("y").strip_monomial(),
                         "x", "y").strip_monomial()


def _triple_gcd_nonreduced(F):
    """Reference for member_is_nonreduced: F has a repeated component iff
    gcd(F, F_x, F_y) is nonconstant; iterated, that gcd ends at the
    component, whose multiplicity is counted by division."""
    R = _gcd3(F)
    if R.is_const():
        return False, None, 1
    while not (S := _gcd3(R)).is_const():
        R = S
    mult = 0
    try:
        while True:
            F = F.exact_div(R)
            mult += 1
    except ArithmeticError:
        pass
    return True, R, mult


class TestNonreduced:
    def test_p8b(self):
        # [PAPER] F_4 has components {1 + x = 0} and {1 + xy + y = 0}^2
        flag, factor, mult = member_is_nonreduced(get("8b"), Fraction(4))
        assert flag and mult == 2
        assert set(factor.terms) == {(1, 1, 0), (0, 1, 0), (0, 0, 0)}

    def test_p9(self):
        # [PAPER] the reduction of F_6 is a line, cubed
        flag, factor, mult = member_is_nonreduced(get("9"), Fraction(6))
        assert flag and mult == 3
        assert set(factor.terms) == {(1, 0, 0), (0, 1, 0), (0, 0, 0)}

    def test_p3_reduced(self):
        # [PAPER] F_{-3} is a nodal irreducible cubic (reduced)
        flag, factor, mult = member_is_nonreduced(get("3"), Fraction(-3))
        assert not flag and factor is None

    @pytest.mark.parametrize("name", NAMES)
    def test_agrees_with_triple_gcd(self, name):
        # [DERIVED] at every rational critical or curve value, the test
        # against G finds the repeated component that gcd(F, F_x, F_y) finds
        P = get(name)
        pencil = Pencil(P)
        lams = {lam for values in (pencil.critical_values, pencil.curve_values)
                for lam, _ in squarefree_rational_roots(values)[0]}
        for lam in lams:
            F = pencil.C.eval_var("l", lam).strip_monomial()
            flag, factor, mult = member_is_nonreduced(P, lam, pencil)
            ref_flag, ref_factor, ref_mult = _triple_gcd_nonreduced(F)
            assert (flag, mult) == (ref_flag, ref_mult)
            if flag:
                k = next(iter(ref_factor.terms))
                scale = Fraction(factor.terms.get(k, 0)) / ref_factor.terms[k]
                assert factor == MPoly.const(scale) * ref_factor


class TestBasePointTowers:
    def test_p4c(self):
        # [PAPER] one length-2 edge; the intermediate curve is absorbed at 0
        towers = base_point_towers(get("4c"))
        assert len(towers) == 1
        assert towers[0].chain_length == 2
        assert towers[0].chain_length - 1 == 1
        assert towers[0].lambda_value == 0

    def test_p6b(self):
        # [PAPER] two length-2 edges, absorbed at lambda = 2 and 3
        towers = base_point_towers(get("6b"))
        assert sorted(t.lambda_value for t in towers) == [2, 3]

    def test_p9(self):
        # [PAPER] three length-3 edges, all six intermediates at lambda = 6
        towers = base_point_towers(get("9"))
        assert len(towers) == 3
        assert all(t.chain_length == 3 for t in towers)
        assert all(t.lambda_value == 6 for t in towers)
        assert sum(t.chain_length - 1 for t in towers) == 6

    def test_p3_none(self):
        # [TRIVIAL] all edges of P3 have lattice length 1
        assert base_point_towers(get("3")) == []


class TestClassifyFibres:
    def test_p3(self):
        # [PAPER] one I9 and three I1
        assert classify_fibres(get("3")).type_multiset() == (
            "I1", "I1", "I1", "I9"
        )

    def test_p6b_locations(self):
        # [PAPER] I6 at infinity, I3 at 2, I2 at 3, I1 at -6
        entries = {
            (loc if isinstance(loc, str) else loc, t.label())
            for loc, t, _ in classify_fibres(get("6b")).entries
        }
        assert entries == {
            ("infinity", "I6"), (Fraction(2), "I3"),
            (Fraction(3), "I2"), (Fraction(-6), "I1"),
        }

    def test_p8a_additive(self):
        # [PAPER] I4 at infinity, I1* at 4, plus one I1
        cfg = classify_fibres(get("8a"))
        by_label = {t.label(): loc for loc, t, _ in cfg.entries}
        assert by_label["I1*"] == 4
        assert cfg.type_multiset() == ("I1", "I1*", "I4")

    def test_p9_additive(self):
        # [PAPER] one I3, one I1 and one IV* (at lambda = 6)
        cfg = classify_fibres(get("9"))
        by_label = {t.label(): loc for loc, t, _ in cfg.entries}
        assert by_label["IV*"] == 6
        assert cfg.type_multiset() == ("I1", "I3", "IV*")

    def test_euler_sum(self, configs):
        # [PAPER] chi_top(Y) = 12 for all 16
        for cfg in configs.values():
            assert cfg.chi_total() == 12

    def test_finite_euler_is_volume(self, catalog, configs):
        # [PAPER] finite fibres carry Euler number Vol(P)
        for name in NAMES:
            finite = sum(
                t.chi * c
                for loc, t, c in configs[name].entries
                if loc != "infinity"
            )
            assert finite == catalog[name].volume()

    def test_mutation_invariance(self, configs):
        # [PAPER] equal type multisets within each mutation class
        classes = [
            ["3"], ["4a", "4c"], ["4b"], ["5a", "5b"],
            ["6a", "6b", "6c", "6d"], ["7a", "7b"],
            ["8a", "8b", "8c"], ["9"],
        ]
        for cls in classes:
            base = configs[cls[0]].type_multiset()
            for name in cls[1:]:
                assert configs[name].type_multiset() == base

    def test_absorbed_lambdas_are_singular(self, configs):
        # [DERIVED] every tower's lambda appears as a finite fibre location
        for name in NAMES:
            finite_locs = {
                loc for loc, _, _ in configs[name].entries
                if isinstance(loc, Fraction)
            }
            for t in base_point_towers(get(name)):
                assert t.lambda_value in finite_locs


def _assert_table2_row(P, name):
    cfg = classify_fibres(P)
    mw = mw_group(P, cfg)
    fibres, group = EXPECTED_TABLE2[name]
    assert cfg.type_multiset() == fibres
    assert mw.group == group
    assert cfg.chi_total() == 12
    assert mw.rank + cfg.r_total() == 8


class TestCoordinateIndependence:
    @pytest.mark.parametrize("shear", SHEARS)
    @pytest.mark.parametrize("name", NAMES)
    def test_single_shear_reproduces_table2(self, name, shear):
        # [PAPER] the fibres and the MW group are invariants of the GL2(Z)
        # class; checked with sum chi = 12 and rank + sum r = 8
        _assert_table2_row(apply_unimodular(SHEARS[shear], get(name)), name)

    @pytest.mark.parametrize("name, U", [
        pytest.param("9", ((1, -2), (0, 1)), id="9-(x-2y,y)"),
        pytest.param("6d", ((1, -2), (0, 1)), id="6d-(x-2y,y)"),
        pytest.param("7b", ((1, 2), (0, 1)), id="7b-(x+2y,y)"),
        pytest.param("8b", ((5, 2), (2, 1)), id="8b-((5,2),(2,1))"),
        pytest.param("8c", ((5, 2), (2, 1)), id="8c-((5,2),(2,1))"),
        pytest.param("8b", ((5, -2), (-2, 1)), id="8b-((5,-2),(-2,1))"),
        pytest.param("8c", ((5, -2), (-2, 1)), id="8c-((5,-2),(-2,1))"),
        pytest.param("9", ((5, -2), (-2, 1)), id="9-((5,-2),(-2,1))"),
        pytest.param("9", ((5, 2), (2, 1)), id="9-((5,2),(2,1))"),
        pytest.param("9", ((-11, 3), (-4, 1)), id="9-((-11,3),(-4,1))"),
        pytest.param("5a", ((17, -4), (-21, 5)), id="5a-((17,-4),(-21,5))"),
        pytest.param("5b", ((17, -38), (-4, 9)), id="5b-((17,-38),(-4,9))"),
        pytest.param("7a", ((21, 29), (-8, -11)), id="7a-((21,29),(-8,-11))"),
    ])
    def test_double_shear_reproduces_table2(self, name, U):
        # [PAPER] shears with |k| = 2 whose elimination polynomial has large
        # coefficients: a factor of E for sheared 9 has a 54-bit constant
        # term; the compositions of two shears of 8b, 8c and 9 have a
        # critical curve, so their I1* or IV* is found from G; for 9 under
        # ((-11,3),(-4,1)), G is the square of a curve of x-degree 14, and
        # the curve values are taken on that radical; the wide shears of 5a,
        # 5b and 7a take the critical values over an irrational y-factor of
        # degree 5, 3 and 2
        _assert_table2_row(apply_unimodular(U, get(name)), name)


class TestDiagnostics:
    def test_inconsistent_names_stage_counts_and_budget(self, monkeypatch):
        # [DERIVED] without its towers 6c keeps I1@-6, I1@2, I2@3 and the I6
        # at infinity: sum chi = 10
        monkeypatch.setattr(fibration, "base_point_towers",
                            lambda P, pencil=None: [])
        with pytest.raises(ArithmeticError) as err:
            classify_fibres(get("6c"))
        msg = str(err.value)
        assert msg.startswith("classification inconsistent: stage assembly")
        assert "sum chi = 10, expected 12" in msg
        assert "SingularValue(3, nodes=2)" in msg
        assert "tower curves {}" in msg
        assert "I2@3" in msg

    def test_additive_unresolved_names_location_and_budget(self, monkeypatch):
        # [DERIVED] one curve too many at lambda = 100 leaves 6 of the 7
        # that the I1* of 8a at lambda = 4 needs
        towers = base_point_towers(get("8a"))
        extra = BasePointTower(get("8a").edges()[0], 1, Fraction(100))
        monkeypatch.setattr(fibration, "base_point_towers",
                            lambda P, pencil=None: towers + [extra])
        with pytest.raises(ArithmeticError) as err:
            classify_fibres(get("8a"))
        msg = str(err.value)
        assert msg.startswith(
            "additive type unresolved: stage additive fibres, lambda = 4")
        assert "multiplicity 2" in msg
        assert "remaining Euler budget 6" in msg
        assert "'100': 1" in msg
