"""Acceptance gate: the nine end-to-end criteria, each with its runtime
budget asserted (wall clock, generous for CI noise; observed times on a
typical laptop are noted inline)."""

import random
import time
from fractions import Fraction
from math import factorial

from reflexo.algebra import UniPoly, squarefree_rational_roots
from reflexo.catalog import NAMES, get, load_catalog
from reflexo.cli import EXPECTED_TABLE2
from reflexo.fibration import (
    Pencil,
    classify_fibres,
    elimination_polynomial,
    singular_lambda_values,
)
from reflexo.laurent import build_fP
from reflexo.mordell_weil import (
    height_matrix,
    mw_group,
    section_positions,
)
from reflexo.mutation import mutation_classes
from reflexo.period import (
    DiffOperator,
    find_picard_fuchs,
    period_coefficients,
)
from reflexo.polygon import canonical_form, enumerate_reflexive, polar_dual

from oracles import (
    find_torsion_components,
    gcd_poly,
    miranda_identities,
    operator_singular_locus,
)


def test_criterion_1_enumeration():
    """Exactly 16 classes with the right volume multiset.

    Budget < 30 s (observed ~0.7 s)."""
    t0 = time.monotonic()
    classes = enumerate_reflexive(3)
    assert len(classes) == 16
    assert sorted(P.volume() for P in classes) == [
        3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9
    ]
    assert time.monotonic() - t0 < 30


def test_criterion_2_duality(catalog):
    """Vol(P) + Vol(P polar) = 12, double dual = identity, dual pairing list."""
    for P in catalog.values():
        assert P.volume() + polar_dual(P).volume() == 12
        assert canonical_form(polar_dual(polar_dual(P))) == canonical_form(P)
    pairs = [("3", "9"), ("4a", "8a"), ("4b", "8b"), ("4c", "8c"),
             ("5a", "7a"), ("5b", "7b")]
    for a, b in pairs:
        assert canonical_form(polar_dual(catalog[a])) == canonical_form(
            catalog[b]
        )
    for n in ("6a", "6b", "6c", "6d"):
        assert canonical_form(polar_dual(catalog[n])) == canonical_form(
            catalog[n]
        )


def test_criterion_3_mutation_classes(catalog):
    """Exactly 8 classes matching the summary table grouping; 4a not ~ 4b.

    Budget < 10 s (observed ~0.1 s)."""
    t0 = time.monotonic()
    order = [catalog[n] for n in NAMES]
    classes = [
        tuple(sorted(NAMES[i] for i in cls))
        for cls in mutation_classes(order)
    ]
    assert sorted(classes) == sorted([
        ("3",), ("4a", "4c"), ("4b",), ("5a", "5b"),
        ("6a", "6b", "6c", "6d"), ("7a", "7b"), ("8a", "8b", "8c"), ("9",),
    ])
    assert time.monotonic() - t0 < 10


def test_criterion_4_table2(catalog, configs):
    """Every fibre configuration and MW group matches the summary table.

    Budget < 120 s (observed ~0.6 s for the 16 pipelines)."""
    t0 = time.monotonic()
    for name in NAMES:
        cfg = configs[name]
        rep = mw_group(catalog[name], cfg)
        expect_fibres, expect_group = EXPECTED_TABLE2[name]
        assert cfg.type_multiset() == expect_fibres, name
        assert rep.group == expect_group, name
    assert time.monotonic() - t0 < 120


def test_criterion_5_elimination_oracles():
    """Quoted elimination data, exact match with zero tolerance."""
    # P4a: stripped factor set {l, l - 4, l + 4}; 2 nodes at lambda = 0
    roots, residual = squarefree_rational_roots(elimination_polynomial(get("4a")))
    assert {r for r, _ in roots} == {0, 4, -4} and residual == []
    P = get("4a")
    nodes = {s.location: s.torus_nodes
             for s in singular_lambda_values(P, Pencil(P))}
    assert nodes[Fraction(0)] == 2
    # P5a: (l - 1) and l^3 - l^2 - 18 l + 43
    roots, residual = squarefree_rational_roots(elimination_polynomial(get("5a")))
    assert {r for r, _ in roots} == {1}
    assert [q for q, _ in residual] == [UniPoly([43, -18, -1, 1], var="l")]
    # P6c: roots {2, 3, -6}
    roots, residual = squarefree_rational_roots(elimination_polynomial(get("6c")))
    assert {r for r, _ in roots} == {2, 3, -6} and residual == []
    # P7a: root 3 plus a quadratic with root sum -5 and product -25
    roots, residual = squarefree_rational_roots(elimination_polynomial(get("7a")))
    assert {r for r, _ in roots} == {3}
    (q, _), = residual
    assert q.degree == 2 and q.lc() == 1 and -q[1] == -5 and q[0] == -25


def test_criterion_6_heights(configs):
    """P4b height matrix (1/8)[[4,2,6],[2,1,3],[6,3,9]] of rank 1; P3
    non-zero sections have height 0."""
    P = get("4b")
    H = height_matrix(P, configs["4b"], section_positions(P))
    assert H == [
        [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)],
        [Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)],
        [Fraction(3, 4), Fraction(3, 8), Fraction(9, 8)],
    ]
    # rank 1: every 2x2 minor vanishes, and H is nonzero
    for i in range(2):
        for j in range(2):
            assert (
                H[i][j] * H[i + 1][j + 1] == H[i][j + 1] * H[i + 1][j]
            )
    P3 = get("3")
    H3 = height_matrix(P3, configs["3"], section_positions(P3))
    assert H3 == [[0, 0], [0, 0]]


def test_criterion_7_periods():
    """P3 period (3j)!/(j!)^3 through t^39, fitted operator, singular locus.

    Budget < 20 s (observed ~1 s)."""
    t0 = time.monotonic()
    s = period_coefficients(build_fP(get("3")), 39)
    for m in range(40):
        if m % 3:
            assert s[m] == 0
        else:
            j = m // 3
            assert s[m] == Fraction(factorial(3 * j), factorial(j) ** 3)
    L = find_picard_fuchs(s)
    # D^2 - 27 t^3 (D + 2)(D + 1) = (1 - 27 t^3) D^2 - 81 t^3 D - 54 t^3
    assert L == DiffOperator([
        UniPoly([0, 0, 0, -54]), UniPoly([0, 0, 0, -81]),
        UniPoly([1, 0, 0, -27]),
    ])
    loc = operator_singular_locus(L)
    # {t : 27 t^3 = 1}: rational root 1/3 plus the conjugate quadratic
    assert loc["roots"] == [(Fraction(1, 3), 1)]
    (q, m), = loc["residual"]
    assert m == 1 and q * 9 == UniPoly([1, 3, 9])
    assert time.monotonic() - t0 < 20


def test_criterion_8_period_mutation_invariance(catalog):
    """Within each mutation class: equal period vectors through t^20 and
    identical fitted operators (from 40 terms).

    Budget < 120 s (observed ~12 s)."""
    t0 = time.monotonic()
    classes = [
        ["3"], ["4a", "4c"], ["4b"], ["5a", "5b"],
        ["6a", "6b", "6c", "6d"], ["7a", "7b"], ["8a", "8b", "8c"], ["9"],
    ]
    for cls in classes:
        series = {
            n: period_coefficients(build_fP(catalog[n]), 40) for n in cls
        }
        base = series[cls[0]]
        for n in cls[1:]:
            assert series[n].coefficients[:21] == base.coefficients[:21], n
        ops = {n: find_picard_fuchs(series[n]) for n in cls}
        for n in cls[1:]:
            assert ops[n] == ops[cls[0]], n
    assert time.monotonic() - t0 < 120


def test_criterion_9_property_suites(catalog, configs, res_x):
    """Global invariants, 1000 randomized algebra properties, Miranda."""
    # Sum chi = 12 and rank + sum r = 8 for all 16
    for name in NAMES:
        cfg = configs[name]
        assert cfg.chi_total() == 12
        rep = mw_group(catalog[name], cfg)
        assert rep.rank + cfg.r_total() == 8

    # 1000 seeded randomized small polynomials: resultant multiplicativity
    # and gcd / squarefree round-trips
    rng = random.Random(1612)

    def rand_poly(max_deg):
        deg = rng.randint(1, max_deg)
        cs = [Fraction(rng.randint(-4, 4)) for _ in range(deg)]
        cs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
        return UniPoly(cs, var="x")

    for _ in range(500):
        p, q, r = rand_poly(3), rand_poly(2), rand_poly(2)
        assert res_x(p, q * r) == res_x(p, q) * res_x(p, r)
    for _ in range(500):
        p, g = rand_poly(3), rand_poly(2)
        # gcd round-trip: g divides gcd(p*g, q*g)
        q = rand_poly(3)
        common = gcd_poly(p * g, q * g)
        assert common.divmod(gcd_poly(common, g.monic()))[1].is_zero()
        assert (p * g).divmod(common)[1].is_zero()
        # squarefree round-trip: reassembly reproduces the polynomial
        prod = UniPoly([1], var="x")
        roots, residual = squarefree_rational_roots(p * g * g)
        for root, mult in roots:
            prod = prod * UniPoly([-root, 1], var="x") ** mult
        for fac, mult in residual:
            prod = prod * fac ** mult
        assert prod.monic() == (p * g * g).monic()

    # Miranda identities for the torsion sections of P3 and P4a
    assert miranda_identities(configs["3"], 3, [3, 0, 0, 0])["ok"]
    assert find_torsion_components(configs["3"], 3, 3) == [[3, 0, 0, 0]]
    assert miranda_identities(configs["4a"], 4, [2, 0, 1, 0])["ok"]
    assert find_torsion_components(configs["4a"], 4, 2) == [[2, 0, 1, 0]]
