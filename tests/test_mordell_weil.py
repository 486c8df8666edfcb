"""Mordell-Weil data: section positions, heights, torsion, Miranda."""

import random
from fractions import Fraction
from math import gcd

import pytest

from reflexo import mordell_weil, polygon
from reflexo.catalog import NAMES, get
from reflexo.fibration import FibreConfiguration, KodairaType
from reflexo.mordell_weil import (
    contribution,
    height_matrix,
    mw_group,
    section_positions,
    shioda_tate_rank,
)
from reflexo.polygon import apply_unimodular

from oracles import (
    GL2Z_GENS,
    bareiss_determinant,
    cartan_matrix,
    dynkin_diagram,
    find_torsion_components,
    miranda_identities,
    random_unimodular,
    reference_section_positions,
)


class TestSectionPositions:
    def test_p3(self):
        # [PAPER] sections on the 0th, 3rd and 6th components of I9
        assert section_positions(get("3")) == [0, 3, 6]

    def test_p4a(self):
        # [PAPER] sigma_0, sigma_2, sigma_4, sigma_6 on I8
        assert section_positions(get("4a")) == [0, 2, 4, 6]

    def test_p4b(self):
        # [PAPER] sigma_0, sigma_2, sigma_5, sigma_7 on I8
        assert section_positions(get("4b")) == [0, 2, 5, 7]

    def test_one_section_per_edge(self, catalog):
        # [PAPER] a section for each edge of P; distinct positions in [0, m),
        # the zero section's 0 first
        for P in catalog.values():
            positions = section_positions(P)
            assert len(positions) == len(P.edges())
            m = 12 - P.volume()
            assert len(set(positions)) == len(positions)
            assert all(0 <= p < m for p in positions)
            assert positions[0] == 0

    def test_matches_reference_rule(self, catalog):
        # [DERIVED] the rotation or reversal of the dual's edge lengths
        # labels the sections as the canonical dual's walk does, on the 16
        # and on 256 seeded GL2(Z) images of them, det -1 included
        rng = random.Random(35)
        dets = set()
        for P in catalog.values():
            assert section_positions(P) == reference_section_positions(P)
            for _ in range(16):
                U = random_unimodular(rng, GL2Z_GENS)
                dets.add(U[0][0] * U[1][1] - U[0][1] * U[1][0])
                Q = apply_unimodular(U, P)
                assert section_positions(Q) == reference_section_positions(Q)
        assert dets == {1, -1}


class TestContribution:
    def test_p3_diagonal(self):
        # [PAPER] contr_I9(sigma_3) = 3 * 6 / 9 = 2
        assert contribution(9, 3, 3) == 2

    def test_p4b_diagonal(self):
        # [PAPER] contr_I8(sigma_5) = 5 * 3 / 8 = 15/8
        assert contribution(8, 5, 5) == Fraction(15, 8)

    def test_p4b_off_diagonal(self):
        # [PAPER] contr_I8(sigma_2, sigma_5) = 2 * 3 / 8 = 3/4
        assert contribution(8, 2, 5) == Fraction(3, 4)

    def test_swap_symmetry(self):
        # [TRIVIAL]
        assert contribution(8, 5, 2) == contribution(8, 2, 5)

    def test_zero_section(self):
        # [TRIVIAL] i = 0 contributes nothing
        assert contribution(7, 0, 4) == 0

    def test_range_check(self):
        with pytest.raises(ValueError):
            contribution(5, 1, 5)


class TestHeightMatrix:
    def test_p4b(self, configs):
        # [PAPER] (1/8) [[4,2,6],[2,1,3],[6,3,9]], rank 1
        P = get("4b")
        H = height_matrix(P, configs["4b"], section_positions(P))
        assert H == [
            [Fraction(4, 8), Fraction(2, 8), Fraction(6, 8)],
            [Fraction(2, 8), Fraction(1, 8), Fraction(3, 8)],
            [Fraction(6, 8), Fraction(3, 8), Fraction(9, 8)],
        ]
        # rank 1: all 2x2 minors vanish
        for i in range(3):
            for j in range(3):
                assert H[i][j] * H[(i + 1) % 3][(j + 1) % 3] == (
                    H[i][(j + 1) % 3] * H[(i + 1) % 3][j]
                )

    def test_p3_heights_zero(self, configs):
        # [PAPER] <sigma_3, sigma_3> = <sigma_6, sigma_6> = 0
        P = get("3")
        H = height_matrix(P, configs["3"], section_positions(P))
        assert H[0][0] == 0 and H[1][1] == 0

    def test_p5a_refused(self, configs):
        # [DERIVED] finite I2 fibre: section incidence unknown
        P = get("5a")
        with pytest.raises(ValueError, match="incidence"):
            height_matrix(P, configs["5a"], section_positions(P))


class TestShiodaTate:
    def test_ranks_past_eight_rejected(self):
        # [TRIVIAL] II* and I2 span a root lattice of rank 8 + 1 = 9, more
        # than the rank-8 lattice of a rational elliptic surface holds
        config = FibreConfiguration([
            ("infinity", KodairaType("II*"), 1),
            (Fraction(0), KodairaType("I", 2), 1),
        ])
        with pytest.raises(ValueError, match="exceed 8"):
            shioda_tate_rank(config)

    def test_p3_extremal(self, configs):
        # [PAPER] r(I9) = 8: rank 0
        assert shioda_tate_rank(configs["3"]) == 0

    def test_p4b(self, configs):
        # [PAPER] rank 1
        assert shioda_tate_rank(configs["4b"]) == 1

    def test_p5a(self, configs):
        # [DERIVED] 8 - (6 + 1) = 1
        assert shioda_tate_rank(configs["5a"]) == 1

    def test_extremality_dichotomy(self, configs):
        # [PAPER] rank 0 exactly for the classes of 3, 4a, 6a, 7a, 8a, 9
        rank0 = {n for n in NAMES if shioda_tate_rank(configs[n]) == 0}
        assert rank0 == {
            "3", "4a", "4c", "6a", "6b", "6c", "6d",
            "7a", "7b", "8a", "8b", "8c", "9",
        }


class TestFibreLatticeDeterminant:
    def test_a8(self):
        # [PAPER] det T for P3 uses det(A8) = 9
        assert KodairaType("I", 9).det == 9

    def test_an_family(self):
        # [TRIVIAL] det(A_{n-1}) = n
        for n in range(2, 10):
            assert KodairaType("I", n).det == n

    def test_i1_star(self):
        # [DERIVED] D5 determinant
        assert KodairaType("I*", 1).det == 4

    def test_iv_star(self):
        # [DERIVED] E6 determinant
        assert KodairaType("IV*").det == 3

    def test_e7_e8(self):
        # [DERIVED] det E7 = 2, det E8 = 1
        assert KodairaType("III*").det == 2
        assert KodairaType("II*").det == 1

    def test_irreducible(self):
        # [TRIVIAL]
        assert KodairaType("I", 1).det == 1
        assert KodairaType("II").det == 1


KODAIRA_TYPES = (
    [("I", n) for n in range(13)]
    + [("I*", n) for n in range(5)]
    + [(kind, None) for kind in ("II", "III", "IV", "IV*", "III*", "II*")]
)


class TestKodairaTable:
    @pytest.mark.parametrize("kind, n", KODAIRA_TYPES)
    def test_det_is_cartan_determinant(self, kind, n):
        # [DERIVED] det is the Bareiss determinant of the Cartan matrix of
        # the type's Dynkin diagram, whose node count is r
        nodes, edges = dynkin_diagram(kind, n)
        t = KodairaType(kind, n)
        assert t.r == nodes
        assert t.det == bareiss_determinant(cartan_matrix(nodes, edges))

    @pytest.mark.parametrize("kind, n", KODAIRA_TYPES)
    def test_chi_minus_r(self, kind, n):
        # [TRIVIAL] chi - r = 0 for I_0 (smooth), 1 for I_n, n >= 1
        # (multiplicative), 2 for every additive type
        t = KodairaType(kind, n)
        expected = (0 if n == 0 else 1) if kind == "I" else 2
        assert t.chi - t.r == expected


class TestMWGroup:
    def test_p3(self, configs):
        # [PAPER] Z/3: positions {0,3,6} give order 3; det T = 9 bounds by 3
        rep = mw_group(get("3"), configs["3"])
        assert (rep.rank, rep.torsion_order, rep.group) == (0, 3, "Z/3")
        assert rep.det_trivial == 9

    def test_p4a(self, configs):
        # [PAPER] Z/4 with det T = 16
        rep = mw_group(get("4a"), configs["4a"])
        assert (rep.group, rep.det_trivial) == ("Z/4", 16)

    def test_p4b(self, configs):
        # [PAPER] Z: rank 1, positive heights, no torsion
        rep = mw_group(get("4b"), configs["4b"])
        assert (rep.rank, rep.torsion_order, rep.group) == (1, 1, "Z")
        assert rep.height is not None

    def test_table2_column(self, catalog, configs):
        # [PAPER] the full MW column of the summary table
        expected = {
            "3": "Z/3", "4a": "Z/4", "4b": "Z", "4c": "Z/4",
            "5a": "Z", "5b": "Z", "6a": "Z/6", "6b": "Z/6",
            "6c": "Z/6", "6d": "Z/6", "7a": "Z/5", "7b": "Z/5",
            "8a": "Z/4", "8b": "Z/4", "8c": "Z/4", "9": "Z/3",
        }
        for name in NAMES:
            assert mw_group(catalog[name], configs[name]).group == expected[name]

    def test_p4b_torsion_needs_its_heights(self, configs, monkeypatch):
        # [DERIVED] det T = 8 alone allows torsion 2; Shioda's identity with
        # gcd(H) = 1/8 brings the upper bound down to the lower bound 1
        assert mw_group(get("4b"), configs["4b"]).torsion_order == 1

        def refused(P, config, positions):
            raise ValueError("section/component incidence unknown")

        monkeypatch.setattr(mordell_weil, "height_matrix", refused)
        with pytest.raises(ValueError,
                           match=r"torsion undetermined: bounds \(1, 2\)"):
            mw_group(get("4b"), configs["4b"])

    def test_non_integral_identity_raises(self, configs, monkeypatch):
        # [TRIVIAL] det T det H(S) = 8 / 3 cannot be |tors|^2 times a square
        monkeypatch.setattr(mordell_weil, "height_matrix",
                            lambda P, config, positions: [[Fraction(1, 3)]])
        with pytest.raises(ValueError, match="Shioda's identity fails"):
            mw_group(get("4b"), configs["4b"])

    def test_torsion_squared_divides_det(self, catalog, configs):
        # [PAPER] Shioda: |tors|^2 [MW/tors : <S>]^2 = det T det H(S).  At
        # rank 0 that is |tors|^2 = det T; for 4b, det T gcd(H) = 8 / 8 = 1
        for name in NAMES:
            rep = mw_group(catalog[name], configs[name])
            if rep.rank == 0:
                assert rep.torsion_order ** 2 == rep.det_trivial, name
        rep = mw_group(get("4b"), configs["4b"])
        gcd_h = Fraction(gcd(*(int(8 * h) for row in rep.height
                               for h in row)), 8)
        assert (gcd_h, rep.det_trivial * gcd_h) == (Fraction(1, 8), 1)
        assert rep.torsion_order ** 2 == 1

    def test_shioda_tate_consistency(self, catalog, configs):
        # [PAPER] rank + sum r(F) = 8
        for name in NAMES:
            rep = mw_group(catalog[name], configs[name])
            assert rep.rank + configs[name].r_total() == 8

    def test_no_canonical_form(self, catalog, configs, monkeypatch):
        # [DERIVED] the section positions are computed once per mw_group and
        # handed to height_matrix, from one fan sequence, no polar dual and
        # no canonical form
        def counting(module, name):
            original = getattr(module, name)
            calls = []

            def wrapper(P):
                calls.append(P)
                return original(P)

            monkeypatch.setattr(module, name, wrapper)
            return calls

        sequences = counting(mordell_weil, "_fan_sequence")
        forms = counting(polygon, "canonical_form")
        for name in NAMES:
            sequences.clear()
            mw_group(catalog[name], configs[name])
            assert len(sequences) == 1, name
        assert forms == []
        assert not hasattr(mordell_weil, "polar_dual")


class TestMiranda:
    def test_p3_sigma3(self, configs):
        # [PAPER] order 3 on I9 component 3: 3*6/9 = 2 and sum m_j = 3
        out = miranda_identities(configs["3"], 3, [3, 0, 0, 0])
        assert out["ok"]
        assert out["contribution_sum"] == 2
        assert out["component_sum"] == 3

    def test_p4a_unique_assignment(self, configs):
        # [DERIVED] the I2 component of the order-4 section is forced
        found = find_torsion_components(configs["4a"], 4, 2)
        assert found == [[2, 0, 1, 0]]

    def test_p3_unique_assignment(self, configs):
        # [DERIVED]
        assert find_torsion_components(configs["3"], 3, 3) == [[3, 0, 0, 0]]

    def test_additive_rejected(self, configs):
        # [TRIVIAL] Miranda's identities require semistable fibres only
        with pytest.raises(ValueError, match="semistable"):
            miranda_identities(configs["8a"], 2, [0, 0, 0])

    def test_failing_assignment(self, configs):
        # [TRIVIAL] wrong component fails the identities
        assert not miranda_identities(configs["3"], 3, [1, 0, 0, 0])["ok"]
